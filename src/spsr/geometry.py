"""Axis-aligned boxes, anchors, IoU variants, matching and suppression.

All tie-breaking (equal IoUs, equal scores) is by ascending index, making
every operation here deterministic. Boxes are ``(x0, y0, x1, y1)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError

# k presets used by the two matching stages of the anchor-based detector.
TOPK_STAGE1 = 5
TOPK_STAGE2 = 15

# Box-NMS IoU thresholds: the classic default, plus the values that worked
# best at small and large experiment scales respectively.
NMS_THRESHOLD_DEFAULT = 0.50
NMS_THRESHOLD_SMALL_SCALE = 0.65
NMS_THRESHOLD_LARGE_SCALE = 0.70


def _as_boxes(b) -> np.ndarray:
    arr = np.asarray(b, dtype=np.float64)
    if arr.shape[-1] != 4:
        raise ContractError(f"boxes must have 4 coordinates, got shape {arr.shape}")
    return arr


def box_area(b) -> np.ndarray:
    b = _as_boxes(b)
    return np.maximum(b[..., 2] - b[..., 0], 0.0) * np.maximum(b[..., 3] - b[..., 1], 0.0)


def iou(a, b) -> float:
    """Intersection over union; 0 when the union has zero area."""
    return float(iou_matrix(_as_boxes(a)[None], _as_boxes(b)[None])[0, 0])


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU, shape ``[len(a), len(b)]``."""
    a = _as_boxes(a).reshape(-1, 4)
    b = _as_boxes(b).reshape(-1, 4)
    ix0 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy0 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix1 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy1 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.maximum(ix1 - ix0, 0.0) * np.maximum(iy1 - iy0, 0.0)
    union = box_area(a)[:, None] + box_area(b)[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)
    return out


def iou_variants(a, b) -> dict:
    """Scalar GIoU / DIoU / CIoU / EIoU values for a box pair.

    Penalty terms with a zero denominator (coincident enclosing boxes) are
    taken as zero, so all variants equal plain IoU for identical boxes.
    """
    a = _as_boxes(a)
    b = _as_boxes(b)
    base = iou(a, b)

    ex0, ey0 = min(a[0], b[0]), min(a[1], b[1])
    ex1, ey1 = max(a[2], b[2]), max(a[3], b[3])
    enclose_w, enclose_h = ex1 - ex0, ey1 - ey0
    enclose_area = enclose_w * enclose_h
    enclose_diag2 = enclose_w**2 + enclose_h**2

    inter_w = max(min(a[2], b[2]) - max(a[0], b[0]), 0.0)
    inter_h = max(min(a[3], b[3]) - max(a[1], b[1]), 0.0)
    union = float(box_area(a) + box_area(b) - inter_w * inter_h)

    giou = base if enclose_area <= 0.0 else base - (enclose_area - union) / enclose_area

    ca = ((a[0] + a[2]) / 2.0, (a[1] + a[3]) / 2.0)
    cb = ((b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0)
    center_dist2 = (ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2
    dist_penalty = 0.0 if enclose_diag2 <= 0.0 else center_dist2 / enclose_diag2
    diou = base - dist_penalty

    wa, ha = a[2] - a[0], a[3] - a[1]
    wb, hb = b[2] - b[0], b[3] - b[1]
    if ha > 0 and hb > 0:
        v = (4.0 / np.pi**2) * (np.arctan(wb / hb) - np.arctan(wa / ha)) ** 2
    else:
        v = 0.0
    alpha = 0.0 if v == 0.0 else v / ((1.0 - base) + v)
    ciou = diou - alpha * v

    w_pen = 0.0 if enclose_w <= 0.0 else (wa - wb) ** 2 / enclose_w**2
    h_pen = 0.0 if enclose_h <= 0.0 else (ha - hb) ** 2 / enclose_h**2
    eiou = diou - w_pen - h_pen

    return {"giou": float(giou), "diou": float(diou), "ciou": float(ciou), "eiou": float(eiou)}


@dataclass
class AnchorSpec:
    """Anchor shapes per pyramid cell: one anchor per (size, ratio) pair.

    The anchor attached to a cell at pyramid level ``l`` (stride ``2**l``) has
    area ``(base_scale * stride * size)**2`` and aspect ratio ``ratio``.
    """

    sizes: tuple = (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0))
    ratios: tuple = (0.5, 1.0, 2.0)
    base_scale: float = 4.0

    def __post_init__(self):
        if not self.sizes or not self.ratios:
            raise ContractError("anchor spec needs at least one size and one ratio")
        if min(self.sizes) <= 0 or min(self.ratios) <= 0 or self.base_scale <= 0:
            raise ContractError("anchor sizes, ratios and base scale must be positive")

    @property
    def num_types(self) -> int:
        return len(self.sizes) * len(self.ratios)


def gen_anchors(spec: AnchorSpec, grid_dims: Mapping[int, tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Anchors for every (level cell, size, ratio); returns (boxes, type ids).

    Ordering is level-ascending, then cell row-major, then size, then ratio.
    """
    boxes = []
    types = []
    for level in sorted(grid_dims):
        h, w = grid_dims[level]
        stride = float(2**level)
        base = spec.base_scale * stride
        shapes = []
        for size in spec.sizes:
            side = base * size
            for ratio in spec.ratios:
                shapes.append((side * np.sqrt(ratio), side / np.sqrt(ratio)))
        shapes = np.asarray(shapes)  # [T, 2] = (w, h)
        cy, cx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        centers = np.stack([(cx.ravel() + 0.5) * stride, (cy.ravel() + 0.5) * stride], axis=1)
        for center in centers:
            half = shapes / 2.0
            cell_boxes = np.concatenate([center - half, center + half], axis=1)
            boxes.append(cell_boxes)
            types.append(np.arange(spec.num_types))
    return np.concatenate(boxes, axis=0), np.concatenate(types, axis=0)


def encode_box(anchor, gt) -> np.ndarray:
    """Center/log-size deltas of ``gt`` relative to ``anchor``."""
    anchor = _as_boxes(anchor)
    gt = _as_boxes(gt)
    aw = anchor[..., 2] - anchor[..., 0]
    ah = anchor[..., 3] - anchor[..., 1]
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ContractError("anchor must have positive extent")
    gw = gt[..., 2] - gt[..., 0]
    gh = gt[..., 3] - gt[..., 1]
    if np.any(gw <= 0) or np.any(gh <= 0):
        raise ContractError("target box must have positive extent")
    dx = ((gt[..., 0] + gt[..., 2]) / 2 - (anchor[..., 0] + anchor[..., 2]) / 2) / aw
    dy = ((gt[..., 1] + gt[..., 3]) / 2 - (anchor[..., 1] + anchor[..., 3]) / 2) / ah
    return np.stack([dx, dy, np.log(gw / aw), np.log(gh / ah)], axis=-1)


def decode_box(anchor, deltas) -> np.ndarray:
    anchor = _as_boxes(anchor)
    deltas = np.asarray(deltas, dtype=np.float64)
    aw = anchor[..., 2] - anchor[..., 0]
    ah = anchor[..., 3] - anchor[..., 1]
    cx = (anchor[..., 0] + anchor[..., 2]) / 2 + deltas[..., 0] * aw
    cy = (anchor[..., 1] + anchor[..., 3]) / 2 + deltas[..., 1] * ah
    w = aw * np.exp(deltas[..., 2])
    h = ah * np.exp(deltas[..., 3])
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


@dataclass
class MatchResult:
    """Static anchor assignment: ``labels[i]`` is a gt index or -1 (negative)."""

    labels: np.ndarray
    per_gt: list = field(default_factory=list)


def topk_match(anchors, gts, k: int) -> MatchResult:
    """Assign each gt its k highest-IoU anchors (static: predictions unused).

    Only anchors with strictly positive IoU are candidates. An anchor claimed
    by several gts goes to the one it overlaps most (ties: lower gt index).
    """
    if k < 1:
        raise ContractError("k must be >= 1")
    anchors = _as_boxes(anchors).reshape(-1, 4)
    gts = _as_boxes(gts).reshape(-1, 4)
    labels = np.full(len(anchors), -1, dtype=np.int64)
    if len(gts) == 0 or len(anchors) == 0:
        return MatchResult(labels=labels, per_gt=[[] for _ in range(len(gts))])

    ious = iou_matrix(anchors, gts)  # [N, M]
    best_iou = np.full(len(anchors), 0.0)
    for g in range(gts.shape[0]):
        col = ious[:, g]
        candidates = np.nonzero(col > 0.0)[0]
        if len(candidates) == 0:
            continue
        order = candidates[np.lexsort((candidates, -col[candidates]))][:k]
        for a in order:
            # higher IoU wins; ties go to the lower gt index (strict > keeps it)
            if col[a] > best_iou[a]:
                best_iou[a] = col[a]
                labels[a] = g
    per_gt = [sorted(np.nonzero(labels == g)[0].tolist()) for g in range(gts.shape[0])]
    return MatchResult(labels=labels, per_gt=per_gt)


def nms(boxes, scores, thresh: float) -> list[int]:
    """Greedy suppression: drop any box overlapping a kept higher-scored box
    with IoU strictly above ``thresh``. Returns kept indices, best first."""
    if not 0.0 <= thresh <= 1.0:
        raise ContractError("nms threshold must lie in [0, 1]")
    boxes = _as_boxes(boxes).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(scores)), -scores))
    ious = iou_matrix(boxes, boxes)
    keep: list[int] = []
    for i in order:
        if all(ious[i, j] <= thresh for j in keep):
            keep.append(int(i))
    return keep


def mask_nms(masks: Sequence[np.ndarray], scores, thresh: float) -> list[int]:
    """Greedy NMS using pixel-mask IoU instead of box IoU."""
    if not 0.0 <= thresh <= 1.0:
        raise ContractError("nms threshold must lie in [0, 1]")
    masks = [np.asarray(m, dtype=bool) for m in masks]
    if masks and any(m.shape != masks[0].shape for m in masks):
        raise ContractError("mask canvases differ")
    areas = [int(m.sum()) for m in masks]
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(scores)), -scores))
    keep: list[int] = []
    for i in order:
        suppressed = False
        for j in keep:
            inter = int(np.logical_and(masks[i], masks[j]).sum())
            union = areas[i] + areas[j] - inter
            if union > 0 and inter / union > thresh:
                suppressed = True
                break
        if not suppressed:
            keep.append(int(i))
    return keep


def multiclass_inference(boxes, class_scores, top: int = 100,
                         nms_thresh: float = NMS_THRESHOLD_DEFAULT):
    """Expand every box to one detection per class label, suppress per class,
    keep the global ``top`` by score. Returns (boxes, classes, scores)."""
    boxes = _as_boxes(boxes).reshape(-1, 4)
    class_scores = np.asarray(class_scores, dtype=np.float64)
    if np.any(class_scores < 0) or np.any(class_scores > 1):
        raise ContractError("class scores must lie in [0, 1]")
    out_boxes, out_classes, out_scores = [], [], []
    for c in range(class_scores.shape[1]):
        kept = nms(boxes, class_scores[:, c], nms_thresh)
        for i in kept:
            out_boxes.append(boxes[i])
            out_classes.append(c)
            out_scores.append(class_scores[i, c])
    out_scores = np.asarray(out_scores)
    order = np.lexsort((np.arange(len(out_scores)), -out_scores))[:top]
    return (
        np.asarray(out_boxes).reshape(-1, 4)[order],
        np.asarray(out_classes, dtype=np.int64)[order],
        out_scores[order],
    )


def upbnd_removal(boxes, scores, gts, overlap_thresh: float) -> list[int]:
    """Ground-truth-guided duplicate removal (diagnostic upper bound).

    In score order, a detection is removed iff it (1) fails to overlap at
    least ``overlap_thresh`` with any still-unmatched gt and (2) overlaps a
    kept higher-scoring detection with IoU >= 0.5. A kept detection that does
    overlap sufficiently claims its best unmatched gt.
    """
    boxes = _as_boxes(boxes).reshape(-1, 4)
    gts = _as_boxes(gts).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((np.arange(len(scores)), -scores))
    det_gt = iou_matrix(boxes, gts)
    det_det = iou_matrix(boxes, boxes)
    unmatched = set(range(len(gts)))
    keep: list[int] = []
    for i in order:
        best_gt, best_iou = -1, 0.0
        for g in sorted(unmatched):
            if det_gt[i, g] > best_iou:
                best_gt, best_iou = g, det_gt[i, g]
        if best_iou >= overlap_thresh and best_gt >= 0:
            unmatched.discard(best_gt)
            keep.append(int(i))
            continue
        duplicate = any(det_det[i, j] >= 0.5 for j in keep)
        if not duplicate:
            keep.append(int(i))
    return keep
