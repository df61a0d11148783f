"""Multiply-accumulate accounting of pipeline runs: each op as run, and with
every cell active.

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
    """One op at one stage of a run: ``macs`` on its ``active_cells`` of
    ``total_cells``, and ``dense_macs`` for the same op with every cell active."""
    op: str
    stage: int
    macs: int
    dense_macs: int
    active_cells: int
    total_cells: int

    def __post_init__(self):
        if min(self.macs, self.dense_macs, self.active_cells) < 0:
            raise ContractError("ledger entries must be non-negative")
        if self.active_cells > self.total_cells:
            raise ContractError("active cells cannot exceed total cells")


@dataclass
class CostLedger:
    entries: list = field(default_factory=list)

    def add(self, op: str, stage: int, macs: int, dense_macs: int, active_cells: int,
            total_cells: int):
        self.entries.append(LedgerEntry(op, stage, macs, dense_macs, active_cells, total_cells))

    def total_macs(self) -> int:
        return sum(e.macs for e in self.entries)


def compare(ledger: CostLedger) -> dict:
    """Reduction fraction and per-stage breakdown of a run's MACs against the
    same ops with every cell active.

    Each refinement stage (s >= 1) also carries its ``active_fraction``: its
    active cells over its total cells.
    """
    stages = []
    for s in sorted({e.stage for e in ledger.entries}):
        at = [e for e in ledger.entries if e.stage == s]
        stage = {"stage": s, "dense_macs": sum(e.dense_macs for e in at),
                 "sparse_macs": sum(e.macs for e in at),
                 "active_cells": max(e.active_cells for e in at),
                 "total_cells": max(e.total_cells for e in at)}
        if s >= 1 and stage["total_cells"]:
            stage["active_fraction"] = stage["active_cells"] / stage["total_cells"]
        stages.append(stage)
    total_dense = sum(stage["dense_macs"] for stage in stages)
    total_sparse = ledger.total_macs()
    if total_dense == 0:
        raise ContractError("ledger has zero dense MACs")
    return {
        "reduction_fraction": 1.0 - total_sparse / total_dense,
        "total_dense_macs": total_dense,
        "total_sparse_macs": total_sparse,
        "stages": stages,
    }
