"""Evaluation metrics: average precision, boundary IoU, panoptic quality.

Masks travel as run-length encodings (column-major counts, alternating
background/foreground and starting with background). AP decodes them to bool
arrays and counts pixels only inside mask boxes; panoptic quality reads the
runs themselves.
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
        if self.mask is not None:
            return float(self.mask.area)
        if self.box is None:
            raise ContractError("entry carries neither box nor mask")
        return float(box_area(np.asarray(self.box, dtype=np.float64)))


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


def _by_image(entries: Sequence[EvalEntry]) -> dict:
    groups: dict = {}
    for e in entries:
        groups.setdefault(e.image_id, []).append(e)
    return groups


def _pair_ious(preds: Sequence[EvalEntry], gts: Sequence[EvalEntry],
               kind: str) -> Callable[[EvalEntry, EvalEntry], float]:
    """Evaluate every same-image (pred, gt) pair once; returns a table lookup.

    Boxes take one ``iou_matrix`` per image, the elementwise formula of
    ``geometry.iou``. Masks and boundaries take a fresh ``geometry_iou_fn``
    callable per image, so its decoded masks and bands are dropped once that
    image's pairs are filled.
    """
    preds_by_image = _by_image(preds)
    table = {}
    for image_id, image_gts in _by_image(gts).items():
        image_preds = preds_by_image.get(image_id, [])
        if kind == "box":
            ious = (iou_matrix([p.box for p in image_preds], [g.box for g in image_gts]).tolist()
                    if image_preds else [])
        else:
            iou_fn = geometry_iou_fn(kind)
            ious = [[iou_fn(p, g) for g in image_gts] for p in image_preds]
        for p, row in zip(image_preds, ious):
            for g, value in zip(image_gts, row):
                table[id(p), id(g)] = value
    return lambda p, g: table[id(p), id(g)]


def match_predictions(preds: Sequence[EvalEntry], gts: Sequence[EvalEntry],
                      iou_thresh: float, iou_fn: Callable,
                      ignore_gts: Sequence[EvalEntry] = (),
                      ignore_pred: Callable[[EvalEntry], bool] | None = None):
    """Greedy score-order matching. Returns (order, flags) with one flag of
    ``tp``/``fp``/``ig`` per prediction, in descending-score order.

    Each prediction claims the unmatched same-image gt with the highest IoU
    and is a TP iff that IoU strictly surpasses the threshold; the claimed gt
    then leaves the pool. Failed predictions are excluded from ranking
    (``ig``) when they overlap an ignore-listed gt above the threshold, or
    when ``ignore_pred`` says so (area-bucket exclusion).
    """
    order = rank([p.score for p in preds])
    by_image: dict = {}
    for gi, g in enumerate(gts):
        by_image.setdefault(g.image_id, []).append(gi)
    ignore_by_image = _by_image(ignore_gts)
    matched = np.zeros(len(gts), dtype=bool)

    flags = []
    for pi in order:
        p = preds[pi]
        best_gt, best_iou = -1, 0.0
        for gi in by_image.get(p.image_id, []):
            if matched[gi]:
                continue
            v = iou_fn(p, gts[gi])
            if v > best_iou:
                best_gt, best_iou = gi, v
        if best_gt >= 0 and best_iou > iou_thresh:
            matched[best_gt] = True
            flags.append("tp")
            continue
        if any(iou_fn(p, g) > iou_thresh for g in ignore_by_image.get(p.image_id, [])):
            flags.append("ig")
        elif ignore_pred is not None and ignore_pred(p):
            flags.append("ig")
        else:
            flags.append("fp")
    return order, flags


@dataclass
class PrCurve:
    """Rank-by-rank (recall, precision) points plus the monotone envelope.

    ``envelope[k]`` is the highest precision at any recall >= ``recall[k]``;
    it is non-increasing by construction and carries the whole AP area.
    """

    recall: np.ndarray
    precision: np.ndarray
    envelope: np.ndarray

    def area(self) -> float:
        """Exact area under the envelope, zero beyond the last recall point.

        The envelope is constant between consecutive achieved recalls (on a
        recall-increasing step precision always rises into the step, so the
        piecewise-linear curve never exceeds its right endpoint's suffix max),
        which makes the step sum exact.
        """
        total = 0.0
        r_prev = 0.0
        for r, m in zip(self.recall, self.envelope):
            total += (r - r_prev) * m
            r_prev = r
        return float(total)


def pr_curve(tp_flags: Sequence[bool], n_gt: int) -> PrCurve:
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    ranks = np.arange(1, len(tp_flags) + 1, dtype=np.float64)
    precision = tp / ranks
    return PrCurve(recall=tp / n_gt, precision=precision,
                   envelope=np.maximum.accumulate(precision[::-1])[::-1])


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
    tp_flags = [f == "tp" for f in flags if f != "ig"]
    if not tp_flags:
        return 0.0
    return pr_curve(tp_flags, len(gts)).area()


def _in_bucket(area: float, bucket: str) -> bool:
    if bucket == "small":
        return area < SMALL_AREA
    if bucket == "medium":
        return SMALL_AREA <= area <= LARGE_AREA
    if bucket == "large":
        return area > LARGE_AREA
    raise ContractError(f"unknown bucket {bucket!r}")


def ap_suite(preds: Sequence[EvalEntry], gts: Sequence[EvalEntry], kind: str = "box") -> dict:
    """COCO-style AP report: 10-threshold mean plus AP50/75 and size buckets.

    Per-class APs are averaged over the classes present in the ground truth;
    a bucket with no ground truth anywhere reports -1. Each class's pairwise
    IoUs are evaluated once and shared by all of its threshold and bucket
    passes (the bucket passes' ignore-listed gts are gts of the same class).
    """
    classes = sorted({g.class_id for g in gts})
    buckets = (("small", "AP_S"), ("medium", "AP_M"), ("large", "AP_L"))

    def class_mean(values):
        return float(np.mean(values)) if values else -1.0

    per_threshold = {t: [] for t in AP_IOU_THRESHOLDS}
    all_threshold_means = []
    bucket_means = {key: [] for _, key in buckets}
    for c in classes:
        class_preds = [p for p in preds if p.class_id == c]
        class_gts = [g for g in gts if g.class_id == c]
        iou_fn = _pair_ious(class_preds, class_gts, kind)
        aps = [ap_single(class_preds, class_gts, t, iou_fn) for t in AP_IOU_THRESHOLDS]
        for t, v in zip(AP_IOU_THRESHOLDS, aps):
            per_threshold[t].append(v)
        all_threshold_means.append(float(np.mean(aps)))

        for bucket, key in buckets:
            real = [g for g in class_gts if _in_bucket(g.area(), bucket)]
            if not real:
                continue
            ignore = [g for g in class_gts if not _in_bucket(g.area(), bucket)]
            pred_out = lambda p: not _in_bucket(p.area(), bucket)  # noqa: E731
            aps = [ap_single(class_preds, real, t, iou_fn, ignore, pred_out)
                   for t in AP_IOU_THRESHOLDS]
            bucket_means[key].append(float(np.mean(aps)))

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
        # pair's intersection sums its pieces' lengths. Codes sort gts in order.
        cuts = np.sort(np.concatenate(([0], p_bounds, g_bounds)))  # piece starts
        stride = len(p_segs) + 1
        codes = (g_values[np.searchsorted(g_bounds, cuts, side="right")] * stride
                 + p_values[np.searchsorted(p_bounds, cuts, side="right")])
        codes, piece_codes = np.unique(codes, return_inverse=True)
        inters = np.bincount(piece_codes, weights=np.diff(cuts, append=shape[0] * shape[1]))
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
