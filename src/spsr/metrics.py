"""Evaluation metrics: average precision, boundary IoU, panoptic quality.

Masks travel as run-length encodings (column-major counts, alternating
background/foreground and starting with background). AP decodes them to bool
arrays and counts pixels only inside mask boxes; panoptic quality reads the
runs themselves.

AP matches by one greedy rule, which ``_match`` states once. At each IoU
threshold, the predictions of a class are taken in descending score order
(``geometry.rank``). Each claims the free gt of its own image with the highest
IoU, the first listed on a tie, and is a true positive iff that IoU is above
the threshold (strictly); the claimed gt is then no longer free. An unmatched
prediction is left out of the ranking when it overlaps an ignore-listed gt of
its image above the threshold, or when the run leaves it out (a prediction
outside the area bucket under evaluation); otherwise it is a false positive.
Matching never crosses images, so ``_match`` takes the k-th ranked prediction
of every image in one step, for every threshold and area bucket at once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractError
from .geometry import box_area, iou as box_iou, iou_matrix, rank

AP_IOU_THRESHOLDS = tuple(float(t) for t in np.round(np.arange(0.5, 1.0, 0.05), 2))
SMALL_AREA = 32**2
LARGE_AREA = 96**2
BOUNDARY_FRACTION = 0.02
PQ_CODE_SPACE = 4  # pq bins an image's (gt, prediction) codes directly up to this many per piece


# --- RLE codec -------------------------------------------------------------


@dataclass(frozen=True)
class Rle:
    """Column-major run-length counts; first run counts background pixels."""

    height: int
    width: int
    counts: tuple

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ContractError("mask dims must be positive")
        if min(self.counts, default=0) < 0:
            raise ContractError("run lengths must be non-negative")
        if (total := sum(self.counts)) != self.height * self.width:
            raise ContractError(f"run lengths sum to {total}, expected {self.height * self.width}")

    @cached_property
    def area(self) -> int:
        return int(sum(self.counts[1::2]))


def rle_encode(mask: np.ndarray) -> Rle:
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.size == 0:
        raise ContractError("mask must be a non-empty 2D array")
    flat = mask.T.ravel()  # column-major
    changes = np.nonzero(flat[1:] != flat[:-1])[0] + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    counts = np.diff(bounds).tolist()
    if flat[0]:
        counts = [0] + counts
    return Rle(height=mask.shape[0], width=mask.shape[1], counts=tuple(counts))


def rle_decode(rle: Rle) -> np.ndarray:
    counts = rle.counts
    inner = len(counts) - len(counts) % 2  # drops a trailing background run
    fill = np.repeat(np.arange(1, inner) % 2 == 1, counts[1:inner])
    # Only the span from the first to the last foreground run is written, so
    # the leading and trailing background stay untouched zero pages.
    flat = np.zeros(rle.height * rle.width, dtype=bool)
    flat[counts[0]:counts[0] + fill.size] = fill
    return flat.reshape(rle.width, rle.height).T


def _check_canvas(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ContractError(f"mask canvases differ: {a.shape} vs {b.shape}")


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    _check_canvas(a, b)
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    return inter / union if union else 0.0


# --- average precision -----------------------------------------------------


@dataclass
class EvalEntry:
    """One prediction or ground truth with a box and/or mask geometry."""

    image_id: int
    class_id: int
    score: float = 1.0
    box: np.ndarray | None = None
    mask: Rle | None = None

    def area(self) -> float:
        return float(_areas([self])[0])


def _areas(entries: Sequence[EvalEntry]) -> np.ndarray:
    """Each entry's area: its mask's pixel count, or else its box's area, all
    boxes in one ``box_area`` call."""
    areas = np.zeros(len(entries))
    boxed = []
    for i, e in enumerate(entries):
        if e.mask is not None:
            areas[i] = e.mask.area
        elif e.box is None:
            raise ContractError("entry carries neither box nor mask")
        else:
            boxed.append(i)
    if boxed:
        areas[boxed] = box_area(np.array([entries[i].box for i in boxed], dtype=np.float64))
    return areas


def geometry_iou_fn(kind: str) -> Callable[[EvalEntry, EvalEntry], float]:
    """Pairwise IoU of two entries' boxes, masks or mask boundaries.

    The mask and boundary callables decode each entry's mask, and find its box
    and boundary band, once and keep them for the callable's lifetime (keyed by
    entry identity), so take a fresh callable per group of entries.
    """
    if kind == "box":
        return lambda p, g: box_iou(p.box, g.box)
    if kind not in ("mask", "boundary"):
        raise ContractError(f"unknown geometry kind {kind!r}")
    prepared: dict = {}

    def prepare(e: EvalEntry) -> tuple:
        if id(e) not in prepared:
            geometry = _geometry(rle_decode(e.mask), banded=kind == "boundary")
            prepared[id(e)] = (geometry, e)  # holding e keeps its id from being reused
        return prepared[id(e)][0]

    return lambda p, g: _boxed_iou(prepare(p), prepare(g))


def _iou_table(iou_fn: Callable, preds: Sequence[EvalEntry],
               gts: Sequence[EvalEntry]) -> np.ndarray:
    """``[len(preds), len(gts)]`` IoUs, one ``iou_fn`` call per pair."""
    table = [[iou_fn(p, g) for g in gts] for p in preds]
    return np.array(table, dtype=np.float64).reshape(len(preds), len(gts))


def _image_ious(kind: str) -> Callable:
    """The IoU block of one image's predictions and gts. Boxes take one
    ``iou_matrix``, the elementwise formula of ``geometry.iou``. Masks and
    boundaries take a fresh ``geometry_iou_fn`` callable, so the image's decoded
    masks and bands are dropped with its block."""
    if kind == "box":
        return lambda ps, gs: iou_matrix([p.box for p in ps], [g.box for g in gs])
    return lambda ps, gs: _iou_table(geometry_iou_fn(kind), ps, gs)


def _iou_blocks(preds: Sequence[EvalEntry], cols: Sequence[EvalEntry],
                image_ious: Callable) -> tuple:
    """Rank ``preds`` and hold their IoUs one block per image: ``(order,
    blocks)``, one ``(rows, col_ids, ious)`` per image with both predictions and
    columns: its predictions' rank positions (ascending), its columns' indices
    into ``cols`` and their ``[len(rows), len(col_ids)]`` IoUs."""
    order = rank([p.score for p in preds])
    ranked = order.tolist()
    rows_by_image: dict = {}
    for position, i in enumerate(ranked):
        rows_by_image.setdefault(preds[i].image_id, []).append(position)
    cols_by_image: dict = {}
    for c, g in enumerate(cols):
        cols_by_image.setdefault(g.image_id, []).append(c)
    blocks = []
    for image_id, rows in rows_by_image.items():
        if col_ids := cols_by_image.get(image_id):
            ious = image_ious([preds[ranked[r]] for r in rows], [cols[c] for c in col_ids])
            blocks.append((np.array(rows), np.array(col_ids), ious))
    return order, blocks


def _claim(free_ious: np.ndarray, starts: np.ndarray, widths: np.ndarray,
           floor: np.ndarray) -> tuple:
    """One greedy step. The images' columns lie side by side, ``widths`` of
    them from ``starts``; ``free_ious[..., j]`` is the IoU of column j with its
    image's current prediction, or ``-inf`` where the column is not free. Each
    image's prediction claims its free column of highest IoU, the first on a
    tie, and hits iff that IoU is above ``floor``, the threshold or 0 if that
    is larger. Returns ``(hit, first)`` per image: whether it hits, and the
    column it claims."""
    best = np.fmax.reduceat(free_ious, starts, axis=-1)  # NaN never wins
    width = free_ious.shape[-1]
    at_best = free_ious == np.repeat(best, widths, axis=-1)
    first = np.minimum.reduceat(np.where(at_best, np.arange(width), width), starts, axis=-1)
    return best > floor, first


def _match(n_preds: int, blocks: list, real: np.ndarray, out: np.ndarray,
           thresholds: Sequence[float]) -> tuple:
    """The greedy rule (module docstring) for V runs of T thresholds at once.

    ``blocks`` come from ``_iou_blocks``. Run v matches the columns of
    ``real[v]`` and ignore-lists the others; ``out[v]`` marks, by rank position,
    the predictions it leaves out of the ranking when they are unmatched.
    Returns ``(tp, ig)``, ``[V, T, n_preds]`` flags by rank position; a
    prediction that is neither is a false positive. Step k takes the k-th
    prediction of every image, with the images ordered by their prediction
    counts, so the images still matching are a prefix and the steps number the
    most predictions in one image.
    """
    thr = np.asarray(thresholds, dtype=np.float64)[:, None]  # [T, 1] against [V, T, images]
    tp = np.zeros((len(real), len(thr), n_preds), dtype=bool)
    over = np.zeros_like(tp)  # above the threshold on an ignore-listed column
    blocks = sorted(blocks, key=lambda b: -len(b[0]))
    if blocks:
        heights = np.array([len(rows) for rows, _, _ in blocks])
        widths = np.array([len(col_ids) for _, col_ids, _ in blocks])
        starts = np.cumsum(widths) - widths  # each image's first column, side by side
        ranked = np.concatenate([rows for rows, _, _ in blocks])
        real = real[:, np.concatenate([col_ids for _, col_ids, _ in blocks])]
        # every IoU block by block, row by row: each one's block, row and column
        ious = np.concatenate([block.ravel() for _, _, block in blocks])
        sizes = heights * widths
        of_block = np.repeat(np.arange(len(blocks)), sizes)
        row, col = np.divmod(np.arange(ious.size) - np.repeat(np.cumsum(sizes) - sizes, sizes),
                             widths[of_block])
        ignored = np.fmax.reduceat(np.where(real[:, starts[of_block] + col], -np.inf, ious),
                                   np.flatnonzero(col == 0), axis=-1)  # per row
        over[..., ranked] = ignored[:, None] > thr
        ious = ious[np.argsort(row, kind="stable")]  # step by step: row k of every block
        free = np.repeat(real[:, None], len(thr), axis=1)
        floor = np.maximum(thr, 0.0)
        row_starts = np.cumsum(heights) - heights
        offset = 0
        for k, n in enumerate(np.searchsorted(-heights, -np.arange(heights[0])).tolist()):
            width = starts[n - 1] + widths[n - 1]  # the columns of the first n images
            step = ious[offset:offset + width]
            offset += width
            hit, first = _claim(np.where(free[..., :width], step, -np.inf), starts[:n],
                                widths[:n], floor)
            v, t, i = np.nonzero(hit)
            free[v, t, first[v, t, i]] = False
            tp[..., ranked[row_starts[:n] + k]] = hit
    return tp, ~tp & (over | out[:, None])


def match_predictions(preds: Sequence[EvalEntry], gts: Sequence[EvalEntry],
                      iou_thresh: float, iou_fn: Callable,
                      ignore_gts: Sequence[EvalEntry] = (),
                      ignore_pred: Callable[[EvalEntry], bool] | None = None):
    """Greedy score-order matching at one threshold. Returns (order, flags)
    with one flag of ``tp``/``fp``/``ig`` per prediction, in descending-score
    order. ``ignore_pred`` marks the predictions left out of the ranking when
    unmatched (area-bucket exclusion); ``iou_fn`` is called once per same-image
    pair of a prediction and a gt or ignore-listed gt."""
    cols = [*gts, *ignore_gts]
    order, blocks = _iou_blocks(preds, cols, lambda ps, gs: _iou_table(iou_fn, ps, gs))
    out = [ignore_pred is not None and bool(ignore_pred(preds[i])) for i in order.tolist()]
    real = np.arange(len(cols)) < len(gts)
    tp, ig = _match(len(preds), blocks, real[None], np.array([out], dtype=bool), (iou_thresh,))
    return order, np.where(tp[0, 0], "tp", np.where(ig[0, 0], "ig", "fp")).tolist()


@dataclass
class PrCurve:
    """Rank-by-rank (recall, precision) points plus the monotone envelope,
    along the last axis (one curve, or a stack of them).

    ``envelope[k]`` is the highest precision at any recall >= ``recall[k]``;
    it is non-increasing by construction and carries the whole AP area.
    """

    recall: np.ndarray
    precision: np.ndarray
    envelope: np.ndarray

    def area(self):
        """Exact area under each envelope, zero beyond the last recall point.

        The envelope is constant between consecutive achieved recalls (on a
        recall-increasing step precision always rises into the step, so the
        piecewise-linear curve never exceeds its right endpoint's suffix max),
        which makes the step sum exact. The steps are summed rank by rank, in
        order, so a rank that adds no recall adds exactly zero.
        """
        steps = np.diff(self.recall, axis=-1, prepend=0.0) * self.envelope
        if not steps.shape[-1]:
            return np.zeros(steps.shape[:-1])
        return np.cumsum(steps, axis=-1)[..., -1]


def pr_curve(tp_flags, n_gt: int, counted=None) -> PrCurve:
    """The curve of ``tp_flags``, in rank order along the last axis, against
    ``n_gt`` gts. ``counted`` (default: all) marks the ranked predictions; one
    left out adds no point: recall carries over it and its precision reads 0,
    below every envelope value."""
    tp_flags = np.asarray(tp_flags, dtype=bool)
    counted = np.ones_like(tp_flags) if counted is None else np.asarray(counted, dtype=bool)
    tp = np.cumsum(tp_flags & counted, axis=-1)
    precision = np.where(counted, tp / np.maximum(np.cumsum(counted, axis=-1), 1), 0.0)
    return PrCurve(recall=tp / n_gt, precision=precision,
                   envelope=np.maximum.accumulate(precision[..., ::-1], axis=-1)[..., ::-1])


def ap_single(preds: Sequence[EvalEntry], gts: Sequence[EvalEntry],
              iou_thresh: float, iou_fn: Callable,
              ignore_gts: Sequence[EvalEntry] = (),
              ignore_pred: Callable[[EvalEntry], bool] | None = None) -> float:
    """Area under the monotone precision-recall envelope for one class.

    The envelope extends flat from the first rank back to recall zero and is
    taken as zero beyond the highest achieved recall; the area is exact (the
    envelope is piecewise constant between achieved recall values).
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise ContractError("iou threshold must lie in (0, 1]")
    if not gts:
        return 0.0
    _, flags = match_predictions(preds, gts, iou_thresh, iou_fn, ignore_gts, ignore_pred)
    flags = np.array(flags)
    return float(pr_curve(flags == "tp", len(gts), counted=flags != "ig").area())


def _in_bucket(area, bucket: str):
    """Whether ``area`` (a number or an array) lies in ``bucket``."""
    if bucket == "small":
        return area < SMALL_AREA
    if bucket == "medium":
        return (SMALL_AREA <= area) & (area <= LARGE_AREA)
    if bucket == "large":
        return area > LARGE_AREA
    raise ContractError(f"unknown bucket {bucket!r}")


def ap_suite(preds: Sequence[EvalEntry], gts: Sequence[EvalEntry], kind: str = "box") -> dict:
    """COCO-style AP report: 10-threshold mean plus AP50/75 and size buckets.

    Per-class APs are averaged over the classes present in the ground truth;
    a bucket with no ground truth anywhere reports -1. Each class is matched
    once: one ``_match`` call takes every threshold, for all of the class's gts
    and for each populated bucket (whose other gts of the class are
    ignore-listed), from IoUs held one (image, class) block at a time and areas
    computed once per entry.
    """
    classes = sorted({g.class_id for g in gts})
    buckets = (("small", "AP_S"), ("medium", "AP_M"), ("large", "AP_L"))
    image_ious = _image_ious(kind)

    def class_mean(values):
        return float(np.mean(values)) if values else -1.0

    per_threshold = {t: [] for t in AP_IOU_THRESHOLDS}
    all_threshold_means = []
    bucket_means = {key: [] for _, key in buckets}
    for c in classes:
        class_preds = [p for p in preds if p.class_id == c]
        class_gts = [g for g in gts if g.class_id == c]
        order, blocks = _iou_blocks(class_preds, class_gts, image_ious)
        gt_area, pred_area = _areas(class_gts), _areas(class_preds)[order]
        # (report key, gts matched, predictions left out when unmatched) per run
        runs = [(None, np.ones(len(class_gts), dtype=bool), np.zeros(len(class_preds), dtype=bool))]
        for bucket, key in buckets:
            if (real := _in_bucket(gt_area, bucket)).any():
                runs.append((key, real, ~_in_bucket(pred_area, bucket)))
        keys, real, out = zip(*runs)
        tp, ig = _match(len(class_preds), blocks, np.array(real), np.array(out), AP_IOU_THRESHOLDS)
        aps = [pr_curve(flags, int(n_gt), counted=~left_out).area()
               for flags, n_gt, left_out in zip(tp, np.sum(real, axis=1), ig)]
        for t, ap in zip(AP_IOU_THRESHOLDS, aps[0].tolist()):
            per_threshold[t].append(ap)
        all_threshold_means.append(float(np.mean(aps[0])))
        for key, values in zip(keys[1:], aps[1:]):
            bucket_means[key].append(float(np.mean(values)))

    report = {
        "AP": class_mean(all_threshold_means),
        "AP50": class_mean(per_threshold[0.5]),
        "AP75": class_mean(per_threshold[0.75]),
    }
    for _, key in buckets:
        report[key] = class_mean(bucket_means[key])
    return report


# --- boundary IoU ----------------------------------------------------------


def _box(mask: np.ndarray) -> tuple:
    """The tight (rows, columns) slices around a mask's pixels; empty slices
    for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def _box_union(a: tuple, b: tuple) -> tuple:
    if a[0].start == a[0].stop:
        return b
    if b[0].start == b[0].stop:
        return a
    return tuple(slice(min(s.start, t.start), max(s.stop, t.stop)) for s, t in zip(a, b))


def _erode(crop: np.ndarray, d: int) -> np.ndarray:
    """Erosion of a bool array by the square of side ``2d+1``, reading False
    outside the array.

    Each axis takes one pass of shifted ANDs over the array padded by ``d``:
    the window span doubles while it fits in ``2d+1``, and two overlapping
    windows of that span cover the rest (the logarithmic line decomposition of
    van den Boomgaard & van Balen, 1992). A pass holds at most two arrays the
    size of the padded one.
    """
    k = 2 * d + 1
    a = np.pad(crop, d)
    for _ in range(2):  # rows, then (transposed) columns
        span = 1
        while 2 * span <= k:
            a = a[:-span] & a[span:]  # row i: the AND of rows i .. i + 2*span - 1
            span *= 2
        a = (a[:len(a) - (k - span)] & a[k - span:]).T
    return a


def _band_in_box(mask: np.ndarray, box: tuple, d: int) -> np.ndarray:
    """Boundary band of a bool mask whose pixels all lie in ``box``: the mask
    pixels within Chebyshev distance ``d`` of background or of the canvas
    border.

    Only the crop is eroded. Every pixel outside the box is background, as is
    every pixel off the canvas, so a window that leaves the crop sees a zero
    either way.
    """
    crop = mask[box]
    if not crop.size:
        return np.zeros(mask.shape, dtype=bool)
    eroded = _erode(crop, d)
    band = np.zeros(mask.shape, dtype=bool)
    np.greater(crop, eroded, out=band[box])  # crop & ~eroded, written in place
    return band


def _band_width(shape: tuple) -> int:
    return max(1, int(round(BOUNDARY_FRACTION * float(np.hypot(*shape)))))


def _geometry(mask: np.ndarray, banded: bool) -> tuple:
    """``(mask, band, box)`` of one bool mask: its boundary band (``None``
    unless ``banded``; the width comes from the canvas) and its tight box."""
    box = _box(mask)
    band = _band_in_box(mask, box, _band_width(mask.shape)) if banded else None
    return mask, band, box


def _boxed_iou(ga: tuple, gb: tuple) -> float:
    """IoU of two :func:`_geometry` tuples: the mask IoU, or, when both carry
    bands, the mask IoU inside ``band_a | band_b`` (the one boundary-IoU
    formula). Pixels are counted on the union of the two boxes; every pixel
    outside it is background in both masks and both bands, so each count
    equals the whole canvas's."""
    (a, band_a, box_a), (b, band_b, box_b) = ga, gb
    _check_canvas(a, b)
    u = _box_union(box_a, box_b)
    a, b = a[u], b[u]
    if band_a is not None:
        band = band_a[u] | band_b[u]
        a, b = a & band, b & band
    return mask_iou(a, b)


def boundary_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Mask IoU restricted to the union of both masks' contour bands.

    The band width is ``round(BOUNDARY_FRACTION * diagonal)`` pixels (at least one).
    """
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    return _boxed_iou(_geometry(a, banded=True), _geometry(b, banded=True))


# --- panoptic quality ------------------------------------------------------


@dataclass
class PanopticSegment:
    """A labeled, non-overlapping region of one image: a bool mask or an ``Rle``."""

    class_id: int
    mask: np.ndarray | Rle


@dataclass
class PqClassStats:
    iou_sum: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def denom(self) -> float:
        return self.tp + 0.5 * self.fp + 0.5 * self.fn

    @property
    def pq(self) -> float:
        return self.iou_sum / self.denom if self.denom else 0.0

    @property
    def sq(self) -> float:
        return self.iou_sum / self.tp if self.tp else 0.0

    @property
    def rq(self) -> float:
        return self.tp / self.denom if self.denom else 0.0


@dataclass
class PqReport:
    per_class: dict
    pq: float
    sq: float
    rq: float
    pq_thing: float
    pq_stuff: float

    def to_dict(self) -> dict:
        return {
            "PQ": self.pq,
            "SQ": self.sq,
            "RQ": self.rq,
            "PQ_thing": self.pq_thing,
            "PQ_stuff": self.pq_stuff,
            "per_class": {
                str(c): {"PQ": s.pq, "SQ": s.sq, "RQ": s.rq,
                         "TP": s.tp, "FP": s.fp, "FN": s.fn}
                for c, s in sorted(self.per_class.items())
            },
        }


def _label_runs(rles: Sequence[Rle], shape: tuple, what: str) -> tuple:
    """One side's segments of one image as a label map in run form: sorted run
    ``bounds`` on the flat column-major canvas, and ``values[i]``, the label (0
    void, ``k + 1`` segment ``k``) of the pixels from ``bounds[i - 1]`` up to
    ``bounds[i]``. Raises for mixed canvases and for overlapping segments."""
    if any((r.height, r.width) != shape for r in rles):
        raise ContractError(f"{what} segment canvases differ")
    size = shape[0] * shape[1]
    # Laid end to end (segment k from pixel k * size) and each padded to an even
    # length, the count lists' running sums pair up as foreground [start, end).
    counts = chain.from_iterable(r.counts + (0,) * (len(r.counts) % 2) for r in rles)
    starts, ends = np.cumsum(np.fromiter(counts, dtype=np.int64)).reshape(-1, 2).T
    keep = ends > starts  # nonempty runs
    segment, local = np.divmod(starts[keep], size)
    order = np.argsort(local, kind="stable")
    bounds = np.column_stack([local, local + ends[keep] - starts[keep]])[order].ravel()
    if np.any(bounds[2::2] < bounds[1:-1:2]):  # a run starts before the previous one ends
        raise ContractError(f"{what} segments overlap")
    values = np.zeros(bounds.size + 1, dtype=np.int64)  # gap, run, gap, ..., run, gap
    values[1::2] = segment[order] + 1
    return bounds, values


def pq(preds: Mapping[int, Sequence[PanopticSegment]],
       gts: Mapping[int, Sequence[PanopticSegment]],
       thing_classes: set, stuff_classes: set) -> PqReport:
    """Panoptic quality with IoU > 0.5 segment matching.

    Segments must be pixel-disjoint per image (matching is then unique).
    Report averages run over the classes present in the ground truth.
    """
    stats: defaultdict[int, PqClassStats] = defaultdict(PqClassStats)
    for image_id in sorted(set(preds) | set(gts)):
        p_segs = list(preds.get(image_id, []))
        g_segs = list(gts.get(image_id, []))
        if not (p_segs or g_segs):
            continue
        p_rles = [s.mask if isinstance(s.mask, Rle) else rle_encode(s.mask) for s in p_segs]
        g_rles = [s.mask if isinstance(s.mask, Rle) else rle_encode(s.mask) for s in g_segs]
        shape = next((r.height, r.width) for r in p_rles + g_rles)
        p_bounds, p_values = _label_runs(p_rles, shape, "predicted")
        g_bounds, g_values = _label_runs(g_rles, shape, "ground-truth")
        for g in g_segs:
            stats[g.class_id].fn += 1
        for p in p_segs:
            stats[p.class_id].fp += 1
        # Both labels are constant between consecutive bounds of either side, so a
        # pair's intersection sums its pieces' lengths. A piece starts at 0 and at
        # each distinct bound, and each side's label there follows the count of that
        # side's bounds at or before it. Codes sort gts in order.
        bounds = np.concatenate((g_bounds, p_bounds, [0]))
        order = np.argsort(bounds, kind="stable")  # merges the two sorted sides
        at = bounds[order]
        last = np.flatnonzero(np.diff(at, append=at[-1] + 1))  # each distinct bound's last place
        g_seen = np.cumsum(order < g_bounds.size)[last]
        p_seen = np.cumsum((order >= g_bounds.size) & (order < bounds.size - 1))[last]
        stride = len(p_segs) + 1
        codes = g_values[g_seen] * stride + p_values[p_seen]
        lengths = np.diff(at[last], append=shape[0] * shape[1])
        if stride * (len(g_segs) + 1) <= PQ_CODE_SPACE * last.size:  # one bin per code
            inters = np.bincount(codes, weights=lengths)
            codes = np.flatnonzero(inters)  # a code of empty pieces only adds nothing
            inters = inters[codes]
        else:  # more segment pairs than pieces: one bin per code present
            codes, piece_codes = np.unique(codes, return_inverse=True)
            inters = np.bincount(piece_codes, weights=lengths)
        for code, inter in zip(codes.tolist(), inters.astype(np.int64).tolist()):
            gi, pi = divmod(code, stride)  # label k + 1 is segment k, 0 is void
            if gi and pi and g_segs[gi - 1].class_id == p_segs[pi - 1].class_id:
                v = inter / (g_rles[gi - 1].area + p_rles[pi - 1].area - inter)
                if v > 0.5:  # disjointness makes the match unique
                    s = stats[g_segs[gi - 1].class_id]  # one FN and one FP become a TP
                    s.tp, s.fn, s.fp = s.tp + 1, s.fn - 1, s.fp - 1
                    s.iou_sum += v

    gt_classes = {c for c, s in stats.items() if s.tp + s.fn}  # every gt is a TP or an FN

    def mean(name: str, classes: set = gt_classes) -> float:
        """One per-class value averaged over ``classes`` in sorted order; 0 for none."""
        values = [getattr(stats[c], name) for c in sorted(classes)]
        return float(np.mean(values)) if values else 0.0

    return PqReport(per_class=dict(stats), pq=mean("pq"), sq=mean("sq"), rq=mean("rq"),
                    pq_thing=mean("pq", gt_classes & set(thing_classes)),
                    pq_stuff=mean("pq", gt_classes & set(stuff_classes)))
