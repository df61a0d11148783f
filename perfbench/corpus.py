"""Seeded inputs for the benchmark workloads.

Every input is derived from the workload seed and a pool index, so the same
seed always yields the same files. The program under test only ever sees the
files written here (or, for ``bench``, the seed on its command line).
"""

from __future__ import annotations

import os

import numpy as np

from spsr import io
from spsr.metrics import rle_encode
from spsr.synthetic import SyntheticShapeSpec, gen_synthetic, reference_mask


def _rng(seed: int, k: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, k, sum(map(ord, tag))])


def write_refine_image(directory: str, seed: int, k: int, n_rois: int, canvas: int,
                       side: int) -> tuple[str, str]:
    """One image of ``n_rois`` blob RoIs: writes the RoI file and RoI-frame reference masks."""
    rng = _rng(seed, k, "refine")
    rois, masks = [], []
    for i in range(n_rois):
        spec = SyntheticShapeSpec(shape="blob", canvas_h=canvas, canvas_w=canvas,
                                  seed=int(rng.integers(2**31)))
        _, box, shape = gen_synthetic(spec)
        rois.append({"box": [box.x0, box.y0, box.x1, box.y1], "class": i % 3,
                     "score": float(rng.uniform(0.5, 1.0))})
        masks.append(io.rle_to_dict(rle_encode(reference_mask(shape, box, side))))
    rois_path = os.path.join(directory, "rois.json")
    refs_path = os.path.join(directory, "refs.json")
    io.dump_json(rois_path, rois)
    io.dump_json(refs_path, {"format": io.MASK_FORMAT, "masks": masks})
    return rois_path, refs_path


# Eval instances are blobs rasterized on a sub-canvas, pasted into the image and
# kept only when their area lies inside COCO's medium bucket with a margin, so
# every seed yields the same bucket mix and the same number of candidate pairs.
EVAL_SUB_CANVAS = 128
EVAL_AREA_BAND = (1400, 8000)
# Every prediction is its ground truth moved by one of these (dy, dx): up to 3 px
# per axis, always 3 px in L1 norm.
EVAL_SHIFTS = ((3, 0), (-3, 0), (0, 3), (0, -3), (2, 1), (2, -1), (-2, 1), (-2, -1),
               (1, 2), (1, -2), (-1, 2), (-1, -2))


def _shifted(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(mask)
    h, w = mask.shape
    out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
        mask[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    return out


def _instance(rng: np.random.Generator, canvas: int) -> np.ndarray:
    while True:
        spec = SyntheticShapeSpec(shape="blob", canvas_h=EVAL_SUB_CANVAS,
                                  canvas_w=EVAL_SUB_CANVAS, seed=int(rng.integers(2**31)))
        sub, _, _ = gen_synthetic(spec)
        if EVAL_AREA_BAND[0] <= sub.sum() <= EVAL_AREA_BAND[1]:
            break
    full = np.zeros((canvas, canvas), dtype=bool)
    oy, ox = (int(v) for v in rng.integers(0, canvas - EVAL_SUB_CANVAS + 1, size=2))
    full[oy:oy + EVAL_SUB_CANVAS, ox:ox + EVAL_SUB_CANVAS] = sub
    return full


def _box(mask: np.ndarray) -> list:
    ys, xs = np.nonzero(mask)
    return [float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1)]


def _disjoint(masks: list, classes: list) -> list:
    """Panoptic segments: later instances win contested pixels; empty ones drop out."""
    label = np.zeros(masks[0].shape, dtype=np.int64)
    for i, m in enumerate(masks):
        label[m] = i + 1
    segments = []
    for i, c in enumerate(classes):
        seg = label == i + 1
        if seg.any():
            segments.append({"class": c, "is_thing": True, "rle": io.rle_to_dict(rle_encode(seg))})
    return segments


def write_eval_corpus(directory: str, seed: int, k: int, canvas: int, classes: int,
                      per_class: int, images: dict) -> dict:
    """Ground truth and shifted, randomly scored predictions for the eval tasks.

    ``images`` maps each file kind to its image count: ``masks`` (box and RLE
    records, for seg and boundary), ``det`` (box records) and ``panoptic``
    (disjoint segments). All kinds draw from one sequence of images, so a kind
    with fewer images holds a prefix of another's. Returns kind -> (preds path,
    gts path).
    """
    rng = _rng(seed, k, "eval")
    records = {kind: ([], []) for kind in images}
    for image_id in range(max(images.values())):
        gt_masks, pred_masks, labels = [], [], []
        for c in range(classes):
            for _ in range(per_class):
                gt = _instance(rng, canvas)
                dy, dx = EVAL_SHIFTS[int(rng.integers(len(EVAL_SHIFTS)))]
                gt_masks.append(gt)
                pred_masks.append(_shifted(gt, dy, dx))
                labels.append(c)
        scores = [float(s) for s in rng.random(len(labels))]
        for kind, (preds, gts) in records.items():
            if image_id >= images[kind]:
                continue
            if kind == "panoptic":
                preds.append({"image_id": image_id, "segments": _disjoint(pred_masks, labels)})
                gts.append({"image_id": image_id, "segments": _disjoint(gt_masks, labels)})
                continue
            for masks, out, with_score in ((gt_masks, gts, False), (pred_masks, preds, True)):
                for i, (m, c) in enumerate(zip(masks, labels)):
                    rec = {"image_id": image_id, "class": c, "box": _box(m)}
                    if kind != "det":
                        rec["rle"] = io.rle_to_dict(rle_encode(m))
                    if with_score:
                        rec["score"] = scores[i]
                    out.append(rec)
    paths = {}
    for kind, (preds, gts) in records.items():
        paths[kind] = (os.path.join(directory, f"{kind}_preds.json"),
                       os.path.join(directory, f"{kind}_gts.json"))
        io.dump_json(paths[kind][0], preds)
        io.dump_json(paths[kind][1], gts)
    return paths
