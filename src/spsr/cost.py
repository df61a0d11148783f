"""Multiply-accumulate accounting for dense and sparse pipeline runs.

A fused multiply-add counts as one operation; bias adds, comparisons and
index arithmetic are not counted. A bilinear sample costs 4 MACs per channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractError


def macs_conv(cells: int, k: int, f_in: int, f_out: int) -> int:
    """MACs of a K x K convolution (or 1 x 1 linear layer) over ``cells`` sites,
    at any dilation."""
    if cells < 0 or min(k, f_in, f_out) <= 0:
        raise ContractError("conv dims must be positive (cells may be zero)")
    return cells * k * k * f_in * f_out


def macs_bilinear(samples: int, channels: int) -> int:
    """MACs of bilinear sampling: 4 per sampled location per channel."""
    if samples < 0 or channels < 0:
        raise ContractError("sample counts must be non-negative")
    return 4 * samples * channels


@dataclass
class LedgerEntry:
    op: str
    stage: int
    macs: int
    active_cells: int
    total_cells: int

    def __post_init__(self):
        if self.macs < 0 or self.active_cells < 0:
            raise ContractError("ledger entries must be non-negative")
        if self.active_cells > self.total_cells:
            raise ContractError("active cells cannot exceed total cells")

    def to_dict(self) -> dict:
        return {"op": self.op, "stage": self.stage, "macs": self.macs,
                "active_cells": self.active_cells, "total_cells": self.total_cells}


@dataclass
class CostLedger:
    entries: list = field(default_factory=list)

    def add(self, op: str, stage: int, macs: int, active_cells: int, total_cells: int):
        self.entries.append(LedgerEntry(op, stage, macs, active_cells, total_cells))

    def total_macs(self) -> int:
        return sum(e.macs for e in self.entries)

    def stage_macs(self) -> dict:
        out: dict = {}
        for e in self.entries:
            out[e.stage] = out.get(e.stage, 0) + e.macs
        return out

    def stage_cells(self) -> dict:
        """Per stage: (max active cells, max total cells) over entries."""
        out: dict = {}
        for e in self.entries:
            a, t = out.get(e.stage, (0, 0))
            out[e.stage] = (max(a, e.active_cells), max(t, e.total_cells))
        return out


def compare(dense: CostLedger, sparse: CostLedger) -> dict:
    """Reduction fraction and per-stage breakdown of sparse vs dense MACs.

    Both ledgers must describe the same stage set and grid sizes. Each
    refinement stage (s >= 1) also carries the sparse run's
    ``active_fraction``: its active cells over its total cells.
    """
    dense_stages = dense.stage_macs()
    sparse_stages = sparse.stage_macs()
    if set(dense_stages) != set(sparse_stages):
        raise ContractError("ledgers cover different stages")
    dense_cells = dense.stage_cells()
    sparse_cells = sparse.stage_cells()
    for s in dense_stages:
        if dense_cells[s][1] != sparse_cells[s][1]:
            raise ContractError(f"stage {s} grids differ between ledgers")

    total_dense = dense.total_macs()
    total_sparse = sparse.total_macs()
    if total_dense == 0:
        raise ContractError("dense ledger has zero MACs")
    stages = []
    for s in sorted(dense_stages):
        active, total = sparse_cells[s]
        stage = {
            "stage": s,
            "dense_macs": dense_stages[s],
            "sparse_macs": sparse_stages[s],
            "active_cells": active,
            "total_cells": total,
        }
        if s >= 1 and total:
            stage["active_fraction"] = active / total
        stages.append(stage)
    return {
        "reduction_fraction": 1.0 - total_sparse / total_dense,
        "total_dense_macs": total_dense,
        "total_sparse_macs": total_sparse,
        "stages": stages,
    }
