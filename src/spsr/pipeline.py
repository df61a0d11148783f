"""Multi-stage mask refinement: dense stage 0, sparse refinement stages 1-3.

Stage 0 predicts a coarse 14x14 mask per RoI from densely processed features.
Each later stage picks the image-wide best-scoring cells, subdivides them,
halves the feature size, runs the fusion-convolution block at the active
cells only, and overwrites the upsampled mask there. Three stages take the
mask from 14x14 to 112x112.

One stage loop (``_Engine.run``), stage 0 its first pass, runs both routes;
they differ only in their per-RoI stage bodies, and a RoI holds one stage of
features. The sparse route runs SPS operators on the selected cells; the dense
route (oracle and baseline) runs array operators on every cell (``top_n=None``).
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import ops
from .cost import CostLedger, macs_bilinear, macs_conv
from .errors import ContractError, SchemaError
from .geometry import mask_nms, rank
from .metrics import PanopticSegment, mask_iou
from .tensor import SpsTensor, reselect, subdivide

BASE_GRID = 14
ORACLE_LOGIT = 12.0  # oracle masks are binary; +/- this logit keeps sigmoid saturated
MAX_NECK_ELEMENTS = 1 << 26  # largest neck accepted: float64 values over all its levels
MAX_WEIGHT_ELEMENTS = 1 << 26  # largest weight set accepted: values over all its arrays
NECK_LEVELS = (2, 3, 4, 5)  # pyramid levels of a synthesized neck


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def seeded_rng(*parts) -> np.random.Generator:
    """Generator derived stably from any mix of ints and strings."""
    h = hashlib.blake2s(repr(parts).encode())
    return np.random.default_rng(int.from_bytes(h.digest()[:8], "little"))


# --- geometry of the refinement grids --------------------------------------


@dataclass(frozen=True)
class RoiBox:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.w, self.h, self.w * self.h)):
            raise ContractError(f"RoI box needs a positive, finite width, height and area: {self}")

    @property
    def w(self) -> float:
        return self.x1 - self.x0

    @property
    def h(self) -> float:
        return self.y1 - self.y0


@dataclass(frozen=True)
class StageConfig:
    """Grid and feature dimensions of one refinement stage."""

    s: int
    h: int
    w: int
    f: int

    @classmethod
    def build(cls, s: int, f0: int) -> "StageConfig":
        if not 0 <= s <= 3:
            raise ContractError("stage index must lie in 0..3")
        side = BASE_GRID * 2**s
        return cls(s=s, h=side, w=side, f=f0 // 2**s)

    @property
    def hw(self) -> tuple:
        return self.h, self.w


def assign_level(box: RoiBox) -> int:
    """Feature-pyramid level for a box, by sqrt-area relative to a 56px object."""
    scale = np.sqrt(box.w * box.h) / 56.0
    k0 = 2 + min(int(np.floor(np.log2(scale))), 3)
    return max(k0, 2)


def stage_level(k0: int, s: int) -> int:
    """Level sampled at stage s: one finer per stage, floored at level 2."""
    return max(k0 - s, 2)


def select_active(scores: Sequence[np.ndarray], top_n: int | None) -> list[np.ndarray]:
    """Image-wide top-n cells: the first ``top_n`` in :func:`geometry.rank` order
    of all RoI score grids, RoI by RoI, each row-major; ``top_n=None`` keeps
    every cell. Returns one ``(n_i, 2)`` array of (y, x) per RoI, row-major."""
    grids = [np.asarray(s, dtype=np.float64) for s in scores]
    if top_n is None:
        return [_all_cells(g.shape) for g in grids]
    flat = np.concatenate([g.ravel() for g in grids] or [np.zeros(0)])
    chosen = np.zeros(flat.size, dtype=bool)
    chosen[rank(flat)[:max(top_n, 0)]] = True
    per_roi = np.split(chosen, np.cumsum([g.size for g in grids[:-1]], dtype=np.int64))
    return [np.stack(np.unravel_index(np.flatnonzero(c), g.shape), axis=1)
            for g, c in zip(grids, per_roi)]


def make_targets(gt_mask: np.ndarray, grid_hw: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell targets, the one target rule of the oracle: the mask value at
    the cell center, and whether the cell's pixel footprint mixes foreground
    with background. Footprint pixels are counted a few row bands at a time,
    so each int64 copy holds at most ``ops.CHUNK_VALUES`` values, or one band."""
    gt = np.asarray(gt_mask, dtype=bool)
    rows, cols = gt.shape
    h, w = grid_hw
    if rows < h or cols < w:
        raise ContractError(f"mask {gt.shape} coarser than grid {grid_hw}")
    cy = np.floor(cell_centers(0, rows, h)).astype(np.int64)
    cx = np.floor(cell_centers(0, cols, w)).astype(np.int64)
    seg = gt.take(cy, axis=0).take(cx, axis=1)

    # footprint bounds: each row band is 1 to ceil(rows / h) rows tall
    by = np.floor(np.arange(h + 1) * rows / h).astype(np.int64)
    bx = np.floor(np.arange(w + 1) * cols / w).astype(np.int64)
    count = np.empty((h, w), dtype=np.int64)
    step = max(1, ops.CHUNK_VALUES // (-(-rows // h) * cols))  # row bands per chunk
    for i in range(0, h, step):
        j = min(i + step, h)
        bands = np.add.reduceat(gt[by[i]:by[j]], by[i:j] - by[i], axis=0, dtype=np.int64)
        count[i:j] = np.add.reduceat(bands, bx[:-1], axis=1)
    area = (by[1:, None] - by[:-1, None]) * (bx[None, 1:] - bx[None, :-1])
    refine = (count > 0) & (count < area)
    return seg, refine


def cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of ``n`` equal cells spanning ``[lo, hi)``: the one cell-center
    formula of neck sampling, oracle targets and synthetic rasterization."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _all_cells(grid_hw: tuple) -> np.ndarray:
    """Every cell of a grid as ``(n, 2)`` (y, x), row-major."""
    return np.stack(np.unravel_index(np.arange(grid_hw[0] * grid_hw[1]), grid_hw), axis=1)


def assemble_grid(prev: np.ndarray, cells: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Nearest-neighbor 2x upsample of ``prev`` with sparse overwrites."""
    out = np.repeat(np.repeat(np.asarray(prev, dtype=np.float64), 2, axis=0), 2, axis=1)
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    if len(cells):
        if cells.min() < 0 or cells[:, 0].max() >= out.shape[0] or cells[:, 1].max() >= out.shape[1]:
            raise ContractError("active cell outside the upsampled grid")
        out[cells[:, 0], cells[:, 1]] = np.asarray(values, dtype=np.float64).ravel()
    return out


def assemble_mask(prev_probs: np.ndarray, cells: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Mask variant of :func:`assemble_grid`: new logits enter through a sigmoid."""
    return assemble_grid(prev_probs, cells, sigmoid(np.asarray(logits, dtype=np.float64)))


def paste_mask(roi_probs: np.ndarray, box: RoiBox, image_hw: tuple) -> np.ndarray:
    """Resample an RoI probability grid into image space and threshold at 0.5."""
    probs = np.asarray(roi_probs, dtype=np.float64)
    ih, iw = image_hw
    out = np.zeros((ih, iw), dtype=bool)
    x_lo = max(0, int(np.ceil(box.x0 - 0.5)))
    x_hi = min(iw, int(np.ceil(box.x1 - 0.5)))
    y_lo = max(0, int(np.ceil(box.y0 - 0.5)))
    y_hi = min(ih, int(np.ceil(box.y1 - 0.5)))
    if x_lo >= x_hi or y_lo >= y_hi:
        return out
    px = np.arange(x_lo, x_hi)
    py = np.arange(y_lo, y_hi)
    h, w = probs.shape
    u = np.clip((px + 0.5 - box.x0) / box.w * w - 0.5, 0, w - 1)
    v = np.clip((py + 0.5 - box.y0) / box.h * h - 0.5, 0, h - 1)
    # clamped positions never reach the kernel's zero outside: edge clamping
    vv, uu = np.meshgrid(v, u, indexing="ij")
    sampled = ops._bilinear(probs.reshape(-1, 1), np.arange(h * w).reshape(h, w), vv, uu)
    out[y_lo:y_hi, x_lo:x_hi] = sampled[:, :, 0] >= 0.5
    return out


def seg_score(cls_score: float, probs: np.ndarray) -> float:
    """Classification score times the mean probability over predicted foreground."""
    probs = np.asarray(probs, dtype=np.float64)
    fg = probs >= 0.5
    if not np.any(fg):
        return 0.0
    return float(cls_score * probs[fg].mean())


# --- panoptic post-processing ----------------------------------------------


@dataclass
class PanopticDet:
    mask: np.ndarray
    class_id: int
    cls_score: float
    mask_score: float

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)


@dataclass
class PanopticParams:
    cls_floor: float = 0.3
    mask_nms_thresh: float = 0.75
    pixel_floor: float = 0.35
    resemblance_floor: float = 0.6
    min_pixels: int = 150
    stuff_classes: frozenset = frozenset()


def panoptic_postprocess(dets: Sequence[PanopticDet],
                         params: PanopticParams = PanopticParams()) -> list[PanopticSegment]:
    """Turn overlapping scored masks into disjoint panoptic segments.

    In order: drop low classification scores, mask-NMS, per-pixel argmax of
    the combined score (with a floor, else the pixel stays unlabeled), drop
    segments that no longer resemble their original mask, drop tiny segments,
    and merge stuff segments of the same class.
    """
    dets = [d for d in dets if d.cls_score >= params.cls_floor]
    if not dets:
        return []
    kept = mask_nms([d.mask for d in dets], [d.cls_score for d in dets],
                    params.mask_nms_thresh)
    dets = [dets[i] for i in sorted(kept)]

    combined = np.asarray([d.cls_score * d.mask_score for d in dets])
    order = rank(combined)
    shape = dets[0].mask.shape
    taken = np.zeros(shape, dtype=bool)
    regions: list[np.ndarray] = [None] * len(dets)
    for i in order:
        if combined[i] < params.pixel_floor:
            regions[i] = np.zeros(shape, dtype=bool)
            continue
        region = dets[i].mask & ~taken
        taken |= region
        regions[i] = region

    segments = []
    for det, region in zip(dets, regions):
        if mask_iou(region, det.mask) < params.resemblance_floor:
            continue
        if int(region.sum()) < params.min_pixels:
            continue
        segments.append(PanopticSegment(class_id=det.class_id, mask=region))

    merged: list[PanopticSegment] = []
    stuff_by_class: dict = {}
    for seg in segments:
        if seg.class_id in params.stuff_classes:
            if seg.class_id in stuff_by_class:
                prev = stuff_by_class[seg.class_id]
                prev.mask = prev.mask | seg.mask
                continue
            stuff_by_class[seg.class_id] = seg
        merged.append(seg)
    return merged


# --- run configuration and weights ------------------------------------------


@dataclass
class RunConfig:
    stages: int = 3
    top_n_active: int | None = 10000  # None: every cell stays active
    seed: int = 0
    mode: str = "oracle"
    f0: int = 256
    f_query: int = 256
    f_neck: int = 256
    threads: int = 1
    image_hw: tuple | None = None

    def __post_init__(self):
        if not 1 <= self.stages <= 3:
            raise ContractError("stages must lie in 1..3")
        for name in ("f0", "f_query", "f_neck"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if self.f0 % (2**self.stages) != 0:
            raise ContractError(f"f0={self.f0} not divisible by 2^{self.stages}")
        if self.mode not in ("oracle", "weights"):
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.threads < 1:
            raise ContractError("threads must be >= 1")
        if self.top_n_active is not None and self.top_n_active < 0:
            raise ContractError("top_n_active must be >= 0")
        if self.image_hw is not None:
            neck_grids(self.image_hw, self.f_neck)  # bound the neck before anything is drawn

    def stage_configs(self) -> list[StageConfig]:
        """The stage plan: grid and feature width of stages 0..stages."""
        return [StageConfig.build(s, self.f0) for s in range(self.stages + 1)]

    @property
    def final_side(self) -> int:
        return self.stage_configs()[-1].h

@dataclass
class RoiInput:
    box: RoiBox
    cls_score: float = 1.0
    class_id: int = 0
    ref_mask: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.cls_score <= 1.0:
            raise ContractError(f"classification score {self.cls_score} lies outside [0, 1]")
        if self.ref_mask is not None:
            self.ref_mask = np.asarray(self.ref_mask, dtype=bool)


def neck_grids(image_hw: tuple, f_neck: int) -> dict:
    """``{level: (gh, gw)}`` of the neck over an ``image_hw`` image.

    Raises ``SchemaError`` for a non-positive image side, or for a neck of more
    than ``MAX_NECK_ELEMENTS`` values, so an oversized request fails before
    anything is allocated.
    """
    ih, iw = image_hw
    if ih < 1 or iw < 1:
        raise SchemaError(f"image size {iw}x{ih} must be positive")
    grids = {level: (-(-ih // 2**level), -(-iw // 2**level)) for level in NECK_LEVELS}
    elements = f_neck * sum(gh * gw for gh, gw in grids.values())
    if elements > MAX_NECK_ELEMENTS:
        raise SchemaError(f"neck of a {iw}x{ih} image with F={f_neck} holds {elements} values, "
                          f"over the {MAX_NECK_ELEMENTS} cap")
    return grids


def _draw_channel_last(rng: np.random.Generator, gh: int, gw: int, f: int) -> np.ndarray:
    """The values of ``rng.standard_normal((f, gh, gw))`` as a C-contiguous
    ``[gh, gw, f]`` array.

    The stream is drawn in order into one reused chunk buffer of at most
    ``ops.CHUNK_VALUES`` values (whole channels, or part of one channel that
    is larger) and copied into place, so the draw is never held whole beside
    the level. Splitting the stream leaves its values unchanged.
    """
    level = np.empty((gh, gw, f))
    planes = level.reshape(-1, f).T  # [f, gh * gw]: its C order is the stream order
    cells = gh * gw
    span = min(cells, ops.CHUNK_VALUES)  # cells per chunk
    step = max(1, ops.CHUNK_VALUES // cells)  # channels per chunk
    buffer = np.empty(min(step, f) * span)
    for c in range(0, f, step):
        for p in range(0, cells, span):
            block = planes[c:c + step, p:p + span]
            chunk = buffer[:block.size].reshape(block.shape)
            rng.standard_normal(out=chunk)
            block[...] = chunk
    return level


@dataclass
class NeckFeatures:
    """Image-level feature grids per pyramid level (stride ``2**level``).

    Each level is a C-contiguous ``[gh, gw, F]`` array (channel-last), so the
    ``F`` values of one cell are one contiguous row of ``level.reshape(-1, F)``.
    """

    levels: dict

    @classmethod
    def synthesize(cls, seed: int, image_hw: tuple, f_neck: int) -> "NeckFeatures":
        """Seeded standard-normal levels: each holds a ``[F, gh, gw]`` draw
        channel-last, drawn in place (:func:`_draw_channel_last`), so the
        neck cap bounds the draw too."""
        levels = {level: _draw_channel_last(seeded_rng(seed, "neck", level), gh, gw, f_neck)
                  for level, (gh, gw) in neck_grids(image_hw, f_neck).items()}
        return cls(levels=levels)

    def sample(self, level: int, ys: np.ndarray, xs: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """Bilinear sample at image coordinates; ``(n, F)``, zero outside.

        ``out``, if given, is the ``[n, F]`` block the samples are written
        into (see ``ops._bilinear``)."""
        if level not in self.levels:
            raise ContractError(f"no neck features for level {level}")
        grid = self.levels[level]
        gh, gw, f = grid.shape
        stride = float(2**level)
        return ops._bilinear(grid.reshape(-1, f), np.arange(gh * gw).reshape(gh, gw),
                             ys / stride - 0.5, xs / stride - 0.5, out)


def _layout(config: RunConfig) -> list[dict]:
    """The refinement head of ``config``, stated once: per stage of its plan,
    the ledger ops in run order, each mapped to the ``(name, widths,
    dilation)`` of the layer chains it runs (``neck_sample`` runs none).
    Weights are drawn, checked and counted in this order."""
    plan = config.stage_configs()
    fq, fe, f0 = config.f_query, config.f_neck, plan[0].f
    stages = [{"neck_sample": [],
               "ingest": [("stage0.ingest", [fe, f0], None)],
               "query_fuse": [("stage0.fuse", [f0 + fq, f0, f0], None)],
               "fcn": [(f"stage0.fcn.c{i}", [f0, f0], 1) for i in range(4)]}]
    for prev, cur in zip(plan, plan[1:]):
        s, f, g = cur.s, prev.f, cur.f
        stages.append({"subdivide": [(f"stage{s}.subdiv.m{c}", [f, f, f], None) for c in range(4)],
                       "neck_sample": [],
                       "neck_fuse": [(f"stage{s}.fuse", [f + fe, f, f], None)],
                       "halve": [(f"stage{s}.halve", [f, g], None)],
                       "sfm": [(f"stage{s}.sfm.d{d}", [g, g], d) for d in (1, 3, 5)]})
    for stage, st in zip(stages, plan):  # every stage ends in its two heads
        for op, name in (("seg_head", "seg"), ("refine_head", "refine")):
            stage[op] = [(f"stage{st.s}.{name}", [st.f, st.f, 1], None)]
    return stages


def _chain_arrays(name: str, widths: Sequence[int], dilation: int | None) -> list[tuple]:
    """``(array name, shape)`` of the weight and bias of each layer of a
    :func:`_layout` chain: linear layers ``{name}.l{i}`` through ``widths``,
    or, given a dilation, the one 3x3 convolution ``{name}``."""
    if dilation is not None:  # widths [f_in, f_out]
        return [(f"{name}.weight", (widths[1], widths[0], 3, 3)), (f"{name}.bias", (widths[1],))]
    return [array for i, (f_in, f_out) in enumerate(zip(widths[:-1], widths[1:]))
            for array in ((f"{name}.l{i}.weight", (f_out, f_in)), (f"{name}.l{i}.bias", (f_out,)))]


def _head_arrays(config: RunConfig) -> list[tuple]:
    """``(array name, shape)`` of every weight array of ``config``'s head, in draw order."""
    return [array for stage in _layout(config) for specs in stage.values()
            for spec in specs for array in _chain_arrays(*spec)]


class _WeightArrays:
    """Named arrays: loaded if the bundle holds them, else a seeded draw.

    Raises ``SchemaError`` for a bundle array that no layer of a three-stage
    head reads, and, before any array is drawn, for the array that takes the
    values of ``config``'s head over ``MAX_WEIGHT_ELEMENTS``."""

    def __init__(self, arrays: Mapping | None, config: RunConfig):
        self.arrays = dict(arrays or {})
        self.seed = config.seed
        known = {name for name, _ in _head_arrays(RunConfig(stages=3))}
        stray = next((name for name in self.arrays if name not in known), None)
        if stray is not None:
            raise SchemaError(f"weight array {stray} is read by no layer of the refinement head")
        elements = 0
        for name, shape in _head_arrays(config):
            elements += math.prod(shape)
            if elements > MAX_WEIGHT_ELEMENTS:
                raise SchemaError(f"weight array {name} {shape} takes the weights to "
                                  f"{elements} values, over the {MAX_WEIGHT_ELEMENTS} cap")

    def array(self, name: str, shape: tuple) -> np.ndarray:
        if name in self.arrays:
            arr = self.arrays[name]
            if np.shape(arr) != tuple(shape):
                raise ContractError(f"array {name} has shape {np.shape(arr)}, expected {shape}")
            return arr
        return seeded_rng(self.seed, "init", name).normal(0.0, 0.01, size=shape)

    def chain(self, name: str, widths: Sequence[int], dilation: int | None) -> list[ops.Layer]:
        """The layers of one :func:`_layout` chain; linear ones relu all but the last."""
        values = [self.array(*array) for array in _chain_arrays(name, widths, dilation)]
        pairs = list(zip(values[::2], values[1::2]))  # (weight, bias) of each layer
        if dilation is not None:
            return [ops.ConvKernel(weights=w, bias=b, dilation=dilation) for w, b in pairs]
        acts = ["relu"] * (len(pairs) - 1) + ["none"]
        return [ops.LinearTransform(weights=w, bias=b, activation=act)
                for (w, b), act in zip(pairs, acts)]


class PipelineWeights:
    """The layers of the refinement head, loaded or seeded by name:
    ``stages[s][op]`` lists the layer chains that ledger op ``op`` runs at
    stage ``s``, as :func:`_layout` gives them."""

    def __init__(self, arrays: Mapping | None, config: RunConfig):
        src = _WeightArrays(arrays, config)
        self.stages = [{op: [src.chain(*spec) for spec in specs] for op, specs in stage.items()}
                       for stage in _layout(config)]


def _check_weights(w: PipelineWeights, config: RunConfig):
    """Raise ``ContractError`` unless ``w`` holds the chains and widths of ``config``'s layout."""
    layout = _layout(config)
    held = [{op: len(chains) for op, chains in stage.items()} for stage in w.stages]
    want = [{op: len(specs) for op, specs in stage.items()} for stage in layout]
    if held != want:
        raise ContractError(f"weights hold the chains {held}, the run needs {want}")
    for stage, specs_of in zip(w.stages, layout):
        for op, specs in specs_of.items():
            for chain, (name, widths, _) in zip(stage[op], specs):
                ends = ops._chain_ends(chain)
                if ends != (widths[0], widths[-1]):
                    raise ContractError(f"weights {name} map {ends[0]} -> {ends[1]} features, "
                                        f"the run needs {widths[0]} -> {widths[-1]}")


def _check_neck(neck: NeckFeatures, f_neck: int):
    """Raise ``ContractError`` unless ``neck`` holds every pyramid level as a
    ``[gh, gw, f_neck]`` grid."""
    missing = sorted(set(NECK_LEVELS) - set(neck.levels))
    if missing:
        raise ContractError(f"neck lacks levels {missing}")
    for level in NECK_LEVELS:
        shape = np.shape(neck.levels[level])
        if len(shape) != 3 or shape[2] != f_neck:
            raise ContractError(f"neck level {level} is {shape}, the run needs [gh, gw, {f_neck}]")


# --- the refinement engine ---------------------------------------------------


@dataclass
class RoiResult:
    probs: np.ndarray
    score: float
    class_id: int


@dataclass
class RefinementResult:
    per_roi: list
    stage_masks: list  # stage -> list of per-RoI probability grids
    ledger: CostLedger


def _macs(rows: int, *chains) -> int:
    """MACs of ``rows`` rows through every layer of ``chains``; a linear layer is a 1 x 1 conv."""
    return sum(macs_conv(rows, layer.k, layer.f_in, layer.f_out)
               for chain in chains for layer in ops._layers(chain))


def _stage_entries(ledger: CostLedger, w: PipelineWeights, s: int, active: int, total: int,
                   f_neck: int, rows: Mapping):
    """Stage s: each op runs its chains on the ``active`` rows, and on the
    ``total`` rows with every cell active, or on the ``rows[op]`` pair of
    those counts where given (``subdivide`` on the parents, ``halve`` on every
    held row); ``neck_sample`` samples ``f_neck`` features per row."""
    for op, chains in w.stages[s].items():
        macs = [macs_bilinear(n, f_neck) if op == "neck_sample" else _macs(n, *chains)
                for n in rows.get(op, (active, total))]
        ledger.add(op, s, *macs, active, total)


class _Engine:
    """One refinement over one image's RoIs, run once by :meth:`run`.

    The engine holds its own ``NeckFeatures``: a new dict of the given (or
    synthesized) neck's levels. ``run`` drops a level from it as soon as no
    later stage samples that level, so a caller's neck is never changed, and
    a level is freed there unless something else holds it: always for a
    synthesized neck, and for a given one that no caller still references.
    """

    def __init__(self, rois: Sequence[RoiInput], config: RunConfig,
                 weights: PipelineWeights | None, neck: NeckFeatures | None):
        if not rois:
            raise ContractError("need at least one RoI")
        self.rois = list(rois)
        self.config = config
        self.plan = config.stage_configs()
        self.oracle_targets = []  # oracle mode: per RoI, [(seg, refine) of stage s]
        if config.mode == "oracle":
            for i, r in enumerate(self.rois):
                if r.ref_mask is None:
                    raise ContractError(f"oracle mode needs a reference mask for RoI {i}")
                self.oracle_targets.append([make_targets(r.ref_mask, st.hw) for st in self.plan])
        self.weights = weights or PipelineWeights(None, config)  # capped before any draw
        _check_weights(self.weights, config)
        if neck is None:
            image_hw = config.image_hw or self._default_image_hw()
            neck = NeckFeatures.synthesize(config.seed, image_hw, config.f_neck)
        _check_neck(neck, config.f_neck)
        self.neck = NeckFeatures(levels=dict(neck.levels))  # run prunes this dict only
        self.k0 = [assign_level(r.box) for r in self.rois]
        self.queries = [seeded_rng(config.seed, "query", i).standard_normal(config.f_query)
                        for i in range(len(self.rois))]
        # --threads, but never more workers than there are RoIs or CPUs the
        # process may run on (its affinity mask, where the OS keeps one)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        self.workers = min(config.threads, len(self.rois), cpus)

    def _default_image_hw(self) -> tuple:
        h = max(int(np.ceil(r.box.y1)) for r in self.rois)
        w = max(int(np.ceil(r.box.x1)) for r in self.rois)
        return max(h, 1), max(w, 1)

    def _map(self, fn) -> list:
        """``fn(i)`` for every RoI index, in order, on ``workers`` threads."""
        items = range(len(self.rois))
        if self.workers == 1:
            return [fn(i) for i in items]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(fn, items))

    def _neck_rows(self, i: int, s: int, coords: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Neck features of RoI i's level at stage s, at the centers of
        ``coords``; written into ``out`` if given."""
        box, (h, w) = self.rois[i].box, self.plan[s].hw
        ys = cell_centers(box.y0, box.y1, h)[coords[:, 0]]
        xs = cell_centers(box.x0, box.x1, w)[coords[:, 1]]
        return self.neck.sample(stage_level(self.k0[i], s), ys, xs, out=out)

    def _child_maps(self, s: int) -> list:
        return [lambda rows, m=m: ops.apply_chain(m, rows)
                for m in self.weights.stages[s]["subdivide"]]

    def run(self, stage0, stage, top_n: int | None) -> RefinementResult:
        """The stage loop of both routes; stage 0 is its first pass.

        ``stage0(i)`` runs RoI i on every stage-0 cell, ``stage(i, s, feats,
        cells)`` on the children of its selected ``cells``. Both return ``(feats,
        feature rows, coords, seg, refine)``, one seg and refine value per coord.
        Each RoI's step replaces its own features: a RoI holds one stage of them.
        Stage s starts by dropping every neck level that no stage ``t >= s``
        samples (:func:`stage_level` of each RoI's ``k0``), so the engine holds
        only the levels a later stage reads; it can run only once.
        """
        cfg, w = self.config, self.weights
        ledger = CostLedger()
        n = len(self.rois)
        cells = [n * st.h * st.w for st in self.plan]
        feats, rows, masks, refine_grids = [None] * n, [0] * n, [None] * n, [None] * n
        stage_masks = []

        for s, st in enumerate(self.plan):
            later = {stage_level(k0, t) for k0 in self.k0 for t in range(s, len(self.plan))}
            for level in set(self.neck.levels) - later:
                del self.neck.levels[level]
            selected = select_active(refine_grids, top_n) if s else None

            def step(i: int):
                out = stage(i, s, feats[i], selected[i]) if s else stage0(i)
                feats[i], rows[i], coords, seg, refine = out
                if cfg.mode == "oracle":  # the targets at the coords the body returns
                    seg_grid, refine_grid = self.oracle_targets[i][s]
                    ys, xs = coords.T
                    seg = np.where(seg_grid[ys, xs], ORACLE_LOGIT, -ORACLE_LOGIT)
                    refine = refine_grid[ys, xs]
                if s == 0:
                    masks[i] = sigmoid(seg).reshape(st.hw)
                    refine_grids[i] = np.asarray(refine, dtype=np.float64).reshape(st.hw)
                else:
                    masks[i] = assemble_mask(masks[i], coords, seg)
                    refine_grids[i] = assemble_grid(refine_grids[i], coords, refine)

            self._map(step)
            if s == 0:  # stage 0 runs every cell on both routes
                _stage_entries(ledger, w, 0, cells[0], cells[0], cfg.f_neck, {})
            else:
                n_selected = int(sum(len(c) for c in selected))
                _stage_entries(ledger, w, s, 4 * n_selected, cells[s], cfg.f_neck,
                               {"subdivide": (n_selected, cells[s - 1]),
                                "halve": (sum(rows), cells[s])})
            stage_masks.append(list(masks))

        per_roi = [RoiResult(probs=masks[i], score=seg_score(self.rois[i].cls_score, masks[i]),
                             class_id=self.rois[i].class_id) for i in range(n)]
        return RefinementResult(per_roi=per_roi, stage_masks=stage_masks, ledger=ledger)

    # -- sparse route: SPS operators at the selected cells ----------------------

    def sparse_stage0(self, i: int):
        cfg, grid0, w = self.config, self.plan[0].hw, self.weights.stages[0]
        x = w["ingest"][0][0].apply(self._neck_rows(i, 0, _all_cells(grid0)))
        index = np.arange(grid0[0] * grid0[1]).reshape(grid0)
        t = SpsTensor(active=x, passive=np.zeros((0, cfg.f0)), index_map=index)
        t = ops.fuse_external(t, lambda block: np.copyto(block, self.queries[i]),
                              w["query_fuse"][0])
        for (kernel,) in w["fcn"]:
            t = ops.relu_active(ops.conv2d_sparse(t, kernel))
        seg = ops.apply_chain(w["seg_head"][0], t.active).ravel()
        refine = ops.apply_chain(w["refine_head"][0], t.active).ravel()
        return t, t.n_active + t.n_passive, _all_cells(grid0), seg, refine

    def sparse_stage(self, i: int, s: int, t: SpsTensor, cells: np.ndarray):
        w = self.weights.stages[s]
        t = subdivide(reselect(t, cells), self._child_maps(s))
        coords = t.active_coords()
        t = ops.fuse_external(t, lambda block: self._neck_rows(i, s, coords, block),
                              w["neck_fuse"][0])
        t = ops.halve_features(t, w["halve"][0][0])
        t = ops.sfm(t, *(kernel for (kernel,) in w["sfm"]))
        seg = ops.apply_chain(w["seg_head"][0], t.active).ravel()
        refine = ops.apply_chain(w["refine_head"][0], t.active).ravel()
        return t, t.n_active + t.n_passive, coords, seg, refine

    # -- dense route: plain [F, H, W] operators at every cell -------------------

    def dense_stage0(self, i: int):
        cfg, grid0, w = self.config, self.plan[0].hw, self.weights.stages[0]
        neck = self._neck_rows(i, 0, _all_cells(grid0)).reshape(grid0 + (cfg.f_neck,))
        x = ops.dense_pointwise(neck.transpose(2, 0, 1), w["ingest"][0][0])
        x = ops.dense_fuse(x, lambda band: np.broadcast_to(
            self.queries[i], (band.stop - band.start, cfg.f_query)), w["query_fuse"][0])
        for (kernel,) in w["fcn"]:
            x = np.maximum(ops.dense_conv2d(x, kernel), 0.0)
        seg = ops.dense_chain(x, w["seg_head"][0])[0].ravel()
        refine = ops.dense_chain(x, w["refine_head"][0])[0].ravel()
        return x, x.shape[1] * x.shape[2], _all_cells(grid0), seg, refine

    def dense_stage(self, i: int, s: int, x: np.ndarray, cells: np.ndarray):
        w = self.weights.stages[s]
        x = ops.dense_subdivide(x, self._child_maps(s))
        grid = _all_cells(self.plan[s].hw)
        x = ops.dense_fuse(x, lambda band: self._neck_rows(i, s, grid[band]), w["neck_fuse"][0])
        x = ops.dense_pointwise(x, w["halve"][0][0])
        x = ops.dense_sfm(x, *(kernel for (kernel,) in w["sfm"]))
        seg = ops.dense_chain(x, w["seg_head"][0])[0].ravel()
        refine = ops.dense_chain(x, w["refine_head"][0])[0].ravel()
        return x, x.shape[1] * x.shape[2], grid, seg, refine


def run_refinement(rois: Sequence[RoiInput], config: RunConfig,
                   weights: PipelineWeights | None = None, neck: NeckFeatures | None = None,
                   sparse: bool = True) -> RefinementResult:
    """Run the staged refinement over one image's RoIs.

    ``weights`` must be built for ``config``'s stages and feature sizes, and
    ``neck`` must hold every level at ``config.f_neck`` features; a mismatch
    raises ``ContractError``. They default to the seeded sets of ``config``.
    ``sparse=False`` runs the dense baseline route (every cell active, plain
    array operators) with identical weights and shapes.

    The run drops its ``neck`` argument once the engine has copied the level
    dict, so a neck that the caller hands over (keeps no reference to) is
    freed level by level as the run stops sampling it; a neck the caller
    keeps stays whole and unchanged. (CPython 3.10 keeps a call's arguments
    referenced by its caller until the call returns, so there a neck is
    never handed over.)
    """
    engine = _Engine(rois, config, weights, neck)
    del neck  # the engine holds the levels it still samples
    if sparse:
        return engine.run(engine.sparse_stage0, engine.sparse_stage, config.top_n_active)
    return engine.run(engine.dense_stage0, engine.dense_stage, None)
