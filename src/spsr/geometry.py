"""Axis-aligned boxes: IoU, the box codec, top-k matching, NMS and mask NMS.

Every score order comes from :func:`rank`, and equal IoUs go to the lower
index, so every operation is deterministic. Boxes are ``(x0, y0, x1, y1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError

# The k of the two top-k matching stages that criterion 7 checks.
TOPK_STAGE1 = 5
TOPK_STAGE2 = 15


def _as_boxes(b) -> np.ndarray:
    arr = np.asarray(b, dtype=np.float64)
    if arr.shape[-1] != 4:
        raise ContractError(f"boxes must have 4 coordinates, got shape {arr.shape}")
    return arr


def rank(scores) -> np.ndarray:
    """Indices of ``scores`` from highest to lowest, equal scores in ascending
    index order and NaN last: the one ranking rule of the package."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


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
        order = candidates[rank(col[candidates])][:k]
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
    order = rank(scores)
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
    order = rank(scores)
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
