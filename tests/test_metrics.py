import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from spsr import metrics as me
from spsr.errors import ContractError

from conftest import traced_peak


def box_entry(image_id, class_id, box, score=1.0):
    return me.EvalEntry(image_id=image_id, class_id=class_id, score=score,
                        box=np.asarray(box, dtype=float))


def envelope_ap_by_grid(preds, gts, thresh, n_grid=200001):
    """Independent AP oracle: sample the monotone envelope on a fine recall grid."""
    order, flags = me.match_predictions(preds, gts, thresh, me.geometry_iou_fn("box"))
    tp_flags = [f == "tp" for f in flags if f != "ig"]
    if not gts or not tp_flags:
        return 0.0
    tp = np.cumsum(tp_flags)
    recall = tp / len(gts)
    precision = tp / np.arange(1, len(tp) + 1)
    rs = np.linspace(0.0, recall[-1], n_grid)
    env = np.zeros_like(rs)
    for i, r in enumerate(rs):
        ok = precision[recall >= r - 1e-15]
        env[i] = ok.max() if len(ok) else 0.0
    return float(np.trapezoid(env, rs))


def loop_decode(rle):
    """Reference decoder: one slice assignment per foreground run."""
    flat = np.zeros(rle.height * rle.width, dtype=bool)
    pos = 0
    for i, count in enumerate(rle.counts):
        if i % 2 == 1:
            flat[pos:pos + count] = True
        pos += count
    return flat.reshape(rle.width, rle.height).T


class TestRleCodec:
    def test_empty_mask(self):
        rle = me.rle_encode(np.zeros((2, 3), dtype=bool))
        assert rle.counts == (6,)

    def test_full_mask(self):
        rle = me.rle_encode(np.ones((2, 3), dtype=bool))
        assert rle.counts == (0, 6)

    def test_column_major_order(self):
        mask = np.array([[1, 0], [0, 0]], dtype=bool)
        rle = me.rle_encode(mask)
        assert rle.counts == (0, 1, 3)

    def test_area_summed_once(self, monkeypatch):
        rle = me.Rle(height=2, width=3, counts=(1, 2, 1, 2))
        entry = me.EvalEntry(image_id=0, class_id=1, mask=rle)
        assert entry.area() == rle.area == 4
        monkeypatch.setattr(me, "sum", lambda counts: -1, raising=False)
        assert entry.area() == rle.area == 4  # cached: the counts are not summed again

    def test_roundtrip_1000_random(self, rng):
        for _ in range(1000):
            mask = rng.random((16, 16)) < rng.uniform(0.05, 0.95)
            np.testing.assert_array_equal(me.rle_decode(me.rle_encode(mask)), mask)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, h, w, seed):
        mask = np.random.default_rng(seed).random((h, w)) < 0.5
        back = me.rle_decode(me.rle_encode(mask))
        np.testing.assert_array_equal(back, mask)

    def test_decode_matches_run_loop(self, rng):
        cases = [(6,), (0, 6), (0, 2, 0, 3, 1), (1, 5), (5, 1), (0, 0, 6), (6, 0), (2, 0, 0, 4)]
        for counts in cases:
            rle = me.Rle(height=2, width=3, counts=counts)
            np.testing.assert_array_equal(me.rle_decode(rle), loop_decode(rle))
        for _ in range(300):  # arbitrary runs, zero-length ones included
            counts = tuple(int(c) for c in rng.integers(0, 4, size=int(rng.integers(1, 12))))
            if sum(counts):
                rle = me.Rle(height=1, width=sum(counts), counts=counts)
                np.testing.assert_array_equal(me.rle_decode(rle), loop_decode(rle))

    def test_count_sum_mismatch_rejected(self):
        with pytest.raises(ContractError):
            me.Rle(height=2, width=3, counts=(4,))


def hand_instance():
    """Two gts; scores 0.9 (TP), 0.8 (FP), 0.7 (TP), both TPs at IoU 1."""
    gts = [box_entry(0, 1, [0, 0, 10, 10]), box_entry(0, 1, [20, 20, 30, 30])]
    preds = [box_entry(0, 1, [0, 0, 10, 10], 0.9),
             box_entry(0, 1, [50, 50, 60, 60], 0.8),
             box_entry(0, 1, [20, 20, 30, 30], 0.7)]
    return preds, gts


class TestApSingle:
    IOU = staticmethod(me.geometry_iou_fn("box"))

    def test_single_exact_match(self):
        gts = [box_entry(0, 1, [0, 0, 4, 4])]
        preds = [box_entry(0, 1, [0, 0, 4, 4], 0.9)]
        assert me.ap_single(preds, gts, 0.5, self.IOU) == pytest.approx(1.0, abs=1e-12)

    def test_seven_step_hand_oracle(self):
        preds, gts = hand_instance()
        ap = me.ap_single(preds, gts, 0.5, self.IOU)
        assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-9)
        assert ap == pytest.approx(envelope_ap_by_grid(preds, gts, 0.5), abs=2e-3)

    def test_all_false_positives(self):
        gts = [box_entry(0, 1, [0, 0, 4, 4])]
        preds = [box_entry(0, 1, [50, 50, 60, 60], s) for s in (0.9, 0.4)]
        assert me.ap_single(preds, gts, 0.5, self.IOU) == 0.0

    def test_matched_gt_removed_from_pool(self):
        # second exact duplicate cannot re-match the same gt
        gts = [box_entry(0, 1, [0, 0, 4, 4])]
        preds = [box_entry(0, 1, [0, 0, 4, 4], 0.9),
                 box_entry(0, 1, [0, 0, 4, 4], 0.8)]
        _, flags = me.match_predictions(preds, gts, 0.5, self.IOU)
        assert flags == ["tp", "fp"]

    def test_matching_is_per_image(self):
        gts = [box_entry(0, 1, [0, 0, 4, 4])]
        preds = [box_entry(1, 1, [0, 0, 4, 4], 0.9)]  # right box, wrong image
        assert me.ap_single(preds, gts, 0.5, self.IOU) == 0.0

    def test_score_rank_invariance(self, rng):
        preds, gts = random_instance(rng)
        base = me.ap_single(preds, gts, 0.5, self.IOU)
        transformed = [me.EvalEntry(p.image_id, p.class_id, 0.1 + 0.5 * p.score**3, box=p.box)
                       for p in preds]
        assert me.ap_single(transformed, gts, 0.5, self.IOU) == pytest.approx(base, abs=1e-12)

    def test_fp_deletion_monotonicity(self, rng):
        for _ in range(40):
            preds, gts = random_instance(rng)
            base = me.ap_single(preds, gts, 0.5, self.IOU)
            order, flags = me.match_predictions(preds, gts, 0.5, self.IOU)
            fp_positions = [order[i] for i, f in enumerate(flags) if f == "fp"]
            if not fp_positions:
                continue
            drop = fp_positions[int(rng.integers(len(fp_positions)))]
            pruned = [p for i, p in enumerate(preds) if i != drop]
            assert me.ap_single(pruned, gts, 0.5, self.IOU) >= base - 1e-12

    def test_envelope_monotone_and_bounded(self, rng):
        for _ in range(50):
            preds, gts = random_instance(rng)
            _, flags = me.match_predictions(preds, gts, 0.5, self.IOU)
            tp_flags = [f == "tp" for f in flags]
            if not tp_flags:
                continue
            curve = me.pr_curve(tp_flags, len(gts))
            assert np.all(np.diff(curve.envelope) <= 1e-15)
            assert curve.area() == pytest.approx(
                me.ap_single(preds, gts, 0.5, self.IOU), abs=1e-15)
            ap = me.ap_single(preds, gts, 0.5, self.IOU)
            assert 0.0 <= ap <= 1.0 + 1e-12


def random_instance(rng, n_preds=None, n_gts=None):
    n_gts = n_gts or int(rng.integers(1, 6))
    n_preds = n_preds or int(rng.integers(1, 10))
    gts, preds = [], []
    for _ in range(n_gts):
        p = rng.uniform(0, 40, 2)
        gts.append(box_entry(0, 1, [p[0], p[1], p[0] + rng.uniform(2, 10), p[1] + rng.uniform(2, 10)]))
    for _ in range(n_preds):
        if rng.random() < 0.6 and gts:
            g = gts[int(rng.integers(len(gts)))].box
            jitter = rng.uniform(-1.5, 1.5, 4)
            box = g + jitter
            box = [min(box[0], box[2] - 0.5), min(box[1], box[3] - 0.5), box[2], box[3]]
        else:
            p = rng.uniform(0, 40, 2)
            box = [p[0], p[1], p[0] + rng.uniform(2, 10), p[1] + rng.uniform(2, 10)]
        preds.append(box_entry(0, 1, box, float(rng.uniform(0.05, 0.99))))
    return preds, gts


class TestApSuite:
    def test_perfect_single_class(self):
        gts = [box_entry(0, 3, [0, 0, 40, 40])]
        preds = [box_entry(0, 3, [0, 0, 40, 40], 0.9)]
        report = me.ap_suite(preds, gts, "box")
        assert report["AP"] == report["AP50"] == report["AP75"] == 1.0

    def test_small_bucket_assignment(self):
        gts = [box_entry(0, 1, [0, 0, 10, 10])]  # 100 px: small
        preds = [box_entry(0, 1, [0, 0, 10, 10], 0.9)]
        report = me.ap_suite(preds, gts, "box")
        assert report["AP_S"] == 1.0
        assert report["AP_M"] == -1.0 and report["AP_L"] == -1.0

    def test_suite_equals_mean_over_thresholds(self, rng):
        preds, gts = random_instance(rng)
        report = me.ap_suite(preds, gts, "box")
        fn = me.geometry_iou_fn("box")
        mean = np.mean([me.ap_single(preds, gts, t, fn) for t in me.AP_IOU_THRESHOLDS])
        assert report["AP"] == pytest.approx(float(mean), abs=1e-12)

    def test_cross_bucket_pred_not_penalized(self):
        # small gt matched; an extra large pred is ignored in the small bucket
        gts = [box_entry(0, 1, [0, 0, 10, 10]),
               box_entry(0, 1, [50, 50, 200, 200])]  # large gt
        preds = [box_entry(0, 1, [0, 0, 10, 10], 0.8),
                 box_entry(0, 1, [50, 50, 200, 200], 0.9)]
        report = me.ap_suite(preds, gts, "box")
        assert report["AP_S"] == 1.0 and report["AP_L"] == 1.0

    def test_mask_geometry(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[4:12, 4:12] = True
        rle = me.rle_encode(mask)
        gts = [me.EvalEntry(0, 1, 1.0, mask=rle)]
        preds = [me.EvalEntry(0, 1, 0.9, mask=rle)]
        assert me.ap_suite(preds, gts, "mask")["AP"] == 1.0


def reference_ap_suite(preds, gts, kind):
    """The per-pair path: ap_single per threshold and bucket, with an IoU that
    decodes both masks (and builds both bands) for every pair it is asked for."""
    iou_fn = {
        "box": lambda p, g: me.box_iou(p.box, g.box),
        "mask": lambda p, g: me.mask_iou(me.rle_decode(p.mask), me.rle_decode(g.mask)),
        "boundary": lambda p, g: me.boundary_iou(me.rle_decode(p.mask), me.rle_decode(g.mask)),
    }[kind]
    classes = sorted({g.class_id for g in gts})
    preds_by_class = {c: [p for p in preds if p.class_id == c] for c in classes}
    gts_by_class = {c: [g for g in gts if g.class_id == c] for c in classes}

    def class_mean(values):
        return float(np.mean(values)) if values else -1.0

    per_threshold = {t: [] for t in me.AP_IOU_THRESHOLDS}
    all_threshold_means = []
    for c in classes:
        aps = [me.ap_single(preds_by_class[c], gts_by_class[c], t, iou_fn)
               for t in me.AP_IOU_THRESHOLDS]
        for t, v in zip(me.AP_IOU_THRESHOLDS, aps):
            per_threshold[t].append(v)
        all_threshold_means.append(float(np.mean(aps)))
    report = {"AP": class_mean(all_threshold_means),
              "AP50": class_mean(per_threshold[0.5]),
              "AP75": class_mean(per_threshold[0.75])}
    for bucket, key in (("small", "AP_S"), ("medium", "AP_M"), ("large", "AP_L")):
        bucket_means = []
        for c in classes:
            real = [g for g in gts_by_class[c] if me._in_bucket(g.area(), bucket)]
            if not real:
                continue
            ignore = [g for g in gts_by_class[c] if not me._in_bucket(g.area(), bucket)]
            pred_out = lambda p: not me._in_bucket(p.area(), bucket)  # noqa: E731
            aps = [me.ap_single(preds_by_class[c], real, t, iou_fn, ignore, pred_out)
                   for t in me.AP_IOU_THRESHOLDS]
            bucket_means.append(float(np.mean(aps)))
        report[key] = class_mean(bucket_means)
    return report


# (h, w, extra pixels): mask areas 1023/1024/1025 and 9215/9216/9217 straddle
# the bucket limits, and box areas 1023/1024 and 9216/9312 do too
RECTS = [(31, 33, 0), (32, 32, 0), (32, 32, 1), (96, 96, -1), (96, 96, 0), (96, 96, 1),
         (97, 96, 0), (20, 24, 0), (48, 60, 0), (32, 32, -1)]
CANVAS = 112


def rect_entry(image_id, class_id, y0, x0, rect, score, kind):
    h, w, extra = rect
    y0 = int(np.clip(y0, 0, CANVAS - h))
    x0 = int(np.clip(x0, 0, CANVAS - w - 1))
    mask = np.zeros((CANVAS, CANVAS), dtype=bool)
    mask[y0:y0 + h, x0:x0 + w] = True
    if extra > 0:
        mask[y0, x0 + w] = True
    elif extra < 0:
        mask[y0, x0] = False
    if kind == "box":
        return box_entry(image_id, class_id, [x0, y0, x0 + w, y0 + h], score)
    return me.EvalEntry(image_id, class_id, score, mask=me.rle_encode(mask))


def table_instance(rng, kind, n_images=3, classes=(1, 2, 3)):
    """Multi-image, multi-class gts with shifted, duplicated and spurious
    predictions; scores come from a small set, so ties are common."""
    scores = (0.2, 0.5, 0.5, 0.8)
    gts, preds = [], []
    k = 0
    for image_id in range(n_images):
        for c in classes:
            for _ in range(int(rng.integers(1, 4))):
                rect = RECTS[k % len(RECTS)]
                k += 1
                y0, x0 = (int(v) for v in rng.integers(0, CANVAS, 2))
                gts.append(rect_entry(image_id, c, y0, x0, rect, 1.0, kind))
                for _ in range(int(rng.integers(0, 3))):  # shifted, often duplicated
                    dy, dx = (int(v) for v in rng.integers(-3, 4, 2))
                    preds.append(rect_entry(image_id, c, y0 + dy, x0 + dx, rect,
                                            float(rng.choice(scores)), kind))
            spurious = RECTS[int(rng.integers(len(RECTS)))]
            y0, x0 = (int(v) for v in rng.integers(0, CANVAS, 2))
            preds.append(rect_entry(image_id, c, y0, x0, spurious, float(rng.choice(scores)), kind))
    # a class and an image without any ground truth
    preds.append(rect_entry(0, 9, 5, 5, RECTS[0], 0.9, kind))
    preds.append(rect_entry(n_images, 1, 5, 5, RECTS[0], 0.9, kind))
    return preds, gts


KINDS = ("box", "mask", "boundary")


class TestApSuiteTables:
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_per_pair_reference(self, rng, kind):
        for _ in range(2):
            preds, gts = table_instance(rng, kind)
            report = me.ap_suite(preds, gts, kind)
            assert report == reference_ap_suite(preds, gts, kind)
            assert all(v >= 0.0 for v in report.values())  # every bucket populated

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_pair_evaluated_once(self, rng, kind, monkeypatch):
        preds, gts = table_instance(rng, kind)
        evaluated, decoded, matrices = [], Counter(), []
        real_iou_fn, real_decode, real_matrix = me.geometry_iou_fn, me.rle_decode, me.iou_matrix

        def counting_iou_fn(k):
            fn = real_iou_fn(k)

            def counted(p, g):
                evaluated.append((id(p), id(g)))
                return fn(p, g)

            return counted

        def counting_decode(rle):
            decoded[id(rle)] += 1
            return real_decode(rle)

        def counting_matrix(a, b):
            matrices.append((len(a), len(b)))
            return real_matrix(a, b)

        monkeypatch.setattr(me, "geometry_iou_fn", counting_iou_fn)
        monkeypatch.setattr(me, "rle_decode", counting_decode)
        monkeypatch.setattr(me, "iou_matrix", counting_matrix)
        me.ap_suite(preds, gts, kind)
        pairs = {(id(p), id(g)) for p in preds for g in gts
                 if (p.image_id, p.class_id) == (g.image_id, g.class_id)}
        if kind == "box":
            # one [preds, gts] matrix per (image, class) group, and no pair by pair call
            group_preds = Counter((p.image_id, p.class_id) for p in preds)
            group_gts = Counter((g.image_id, g.class_id) for g in gts)
            assert sorted(matrices) == sorted((n, group_gts[key]) for key, n in group_preds.items()
                                              if group_gts[key])
            assert sum(a * b for a, b in matrices) == len(pairs)
            assert not evaluated and not decoded
        else:
            assert len(evaluated) == len(pairs) and set(evaluated) == pairs
            assert not matrices
            assert max(decoded.values()) == 1
            assert len(decoded) == len({i for pair in evaluated for i in pair})

    def test_box_pair_ious_bits_equal_geometry_iou(self, rng):
        for _ in range(5):
            preds, gts = table_instance(rng, "box")
            lookup = me._pair_ious(preds, gts, "box")
            for p in preds:
                for g in gts:
                    if p.image_id == g.image_id:
                        want = me.box_iou(p.box, g.box)
                        assert type(lookup(p, g)) is float
                        assert lookup(p, g).hex() == want.hex()

    @pytest.mark.parametrize("kind", ("mask", "boundary"))
    def test_canvas_mismatch_rejected(self, kind):
        small = me.rle_encode(np.ones((20, 20), dtype=bool))
        large = me.rle_encode(np.ones((30, 30), dtype=bool))
        with pytest.raises(ContractError):
            me.ap_suite([me.EvalEntry(0, 1, 0.9, mask=small)],
                        [me.EvalEntry(0, 1, mask=large)], kind)


class TestBoundaryIou:
    def brute_band(self, mask, d):
        h, w = mask.shape
        out = np.zeros_like(mask)
        for y in range(h):
            for x in range(w):
                if not mask[y, x]:
                    continue
                for dy in range(-d, d + 1):
                    for dx in range(-d, d + 1):
                        ny, nx = y + dy, x + dx
                        if not (0 <= ny < h and 0 <= nx < w) or not mask[ny, nx]:
                            out[y, x] = True
        return out

    def test_band_matches_brute_force(self, rng):
        for _ in range(20):
            mask = rng.random((24, 24)) < 0.6
            for d in (1, 2, 3):
                np.testing.assert_array_equal(me._band_in_box(mask, me._box(mask), d),
                                              self.brute_band(mask, d))

    def test_identical_masks(self, rng):
        mask = rng.random((32, 32)) < 0.4
        mask[3, 3] = True  # ensure non-empty
        assert me.boundary_iou(mask, mask) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((64, 64), dtype=bool)
        a[4:20, 4:20] = True
        b = np.zeros((64, 64), dtype=bool)
        b[40:60, 40:60] = True
        assert me.boundary_iou(a, b) == 0.0

    def test_interior_defect_invisible(self):
        # 64x64 canvas: d = round(0.02 * 90.5) = 2; a deep interior hole
        # is farther than d from every contour band
        a = np.zeros((64, 64), dtype=bool)
        a[8:56, 8:56] = True
        b = a.copy()
        b[30:34, 30:34] = False
        assert me.boundary_iou(a, b) > me.mask_iou(a, b)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = rng.random((40, 40)) < 0.5
            b = rng.random((40, 40)) < 0.5
            assert me.boundary_iou(a, b) == pytest.approx(me.boundary_iou(b, a), abs=1e-12)


def full_canvas_band(mask, d):
    """The full-canvas band: the whole canvas eroded with a (2d+1)^2 square."""
    eroded = ndimage.binary_erosion(mask, structure=np.ones((2 * d + 1, 2 * d + 1), dtype=bool),
                                    border_value=0)
    return mask & ~eroded


def full_canvas_mask_iou(a, b):
    if a.shape != b.shape:
        raise ContractError(f"mask canvases differ: {a.shape} vs {b.shape}")
    inter = int(np.logical_and(a, b).sum())
    union = int(np.logical_or(a, b).sum())
    return inter / union if union else 0.0


def full_canvas_banded_iou(a, band_a, b, band_b):
    band = band_a | band_b
    return full_canvas_mask_iou(a & band, b & band)


def full_canvas_width(shape):
    return max(1, int(round(me.BOUNDARY_FRACTION * float(np.hypot(*shape)))))


def full_canvas_boundary_iou(a, b):
    d = full_canvas_width(a.shape)
    return full_canvas_banded_iou(a, full_canvas_band(a, d), b, full_canvas_band(b, d))


def full_canvas_iou_fn(kind):
    """``geometry_iou_fn`` with every count taken over whole canvases."""
    if kind == "box":
        return lambda p, g: me.box_iou(p.box, g.box)
    prepared = {}

    def prepare(e):
        if id(e) not in prepared:
            mask = me.rle_decode(e.mask)
            band = full_canvas_band(mask, full_canvas_width(mask.shape)) if kind == "boundary" else None
            prepared[id(e)] = (mask, band, e)
        return prepared[id(e)][:2]

    if kind == "mask":
        return lambda p, g: full_canvas_mask_iou(prepare(p)[0], prepare(g)[0])
    return lambda p, g: full_canvas_banded_iou(*prepare(p), *prepare(g))


def edge_mask(rng, h, w):
    """One mask of a kind that stresses box-local counting: at the canvas
    edges and corners, empty, one pixel, thinner than a band window, ragged."""
    mask = np.zeros((h, w), dtype=bool)
    kind = rng.choice(["rect", "corner", "edge", "empty", "pixel", "thin", "ragged", "full"])
    mh, mw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
    y0, x0 = int(rng.integers(0, h - mh + 1)), int(rng.integers(0, w - mw + 1))
    if kind == "corner":
        y0, x0 = (0, h - mh)[int(rng.integers(2))], (0, w - mw)[int(rng.integers(2))]
    elif kind == "edge":
        if rng.random() < 0.5:
            y0 = (0, h - mh)[int(rng.integers(2))]
        else:
            x0 = (0, w - mw)[int(rng.integers(2))]
    elif kind == "pixel":
        mh = mw = 1
        y0, x0 = int(rng.choice([0, h - 1, rng.integers(h)])), int(rng.choice([0, w - 1, rng.integers(w)]))
    elif kind == "thin":  # thinner than 2d + 1 across one axis
        d = full_canvas_width((h, w))
        if rng.random() < 0.5:
            mh = int(rng.integers(1, min(2 * d + 1, h) + 1))
            y0 = int(rng.integers(0, h - mh + 1))
        else:
            mw = int(rng.integers(1, min(2 * d + 1, w) + 1))
            x0 = int(rng.integers(0, w - mw + 1))
    elif kind == "full":
        mh, mw, y0, x0 = h, w, 0, 0
    if kind == "ragged":
        mask[y0:y0 + mh, x0:x0 + mw] = rng.random((mh, mw)) < 0.7
    elif kind != "empty":
        mask[y0:y0 + mh, x0:x0 + mw] = True
    return mask


def related_mask(rng, gt):
    """A prediction for ``gt``: shifted (boxes overlap), shrunk (nested boxes),
    grown (nesting the other way), holed, unrelated (often disjoint boxes)."""
    h, w = gt.shape
    how = rng.choice(["shift", "shrink", "grow", "hole", "other"])
    if how == "shift":
        dy, dx = (int(v) for v in rng.integers(-3, 4, 2))
        out = np.zeros_like(gt)
        out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
            gt[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
        return out
    if how == "shrink":
        return ndimage.binary_erosion(gt, iterations=int(rng.integers(1, 4)))
    if how == "grow":
        return ndimage.binary_dilation(gt, iterations=int(rng.integers(1, 4)))
    if how == "hole":
        out = gt.copy()
        out[rng.random(gt.shape) < 0.1] = False
        return out
    return edge_mask(rng, h, w)


def edge_instance(rng, kind):
    """Multi-image, multi-class entries; each image has its own canvas, from
    band width 1 up to 4."""
    preds, gts = [], []
    for image_id in range(int(rng.integers(1, 4))):
        h, w = int(rng.integers(1, 160)), int(rng.integers(1, 160))
        for c in (1, 2, 3)[:int(rng.integers(1, 4))]:
            for _ in range(int(rng.integers(1, 4))):
                gt = edge_mask(rng, h, w)
                gts.append(me.EvalEntry(image_id, c, mask=me.rle_encode(gt)))
                for _ in range(int(rng.integers(0, 3))):
                    preds.append(me.EvalEntry(image_id, c, float(rng.choice([0.2, 0.5, 0.9])),
                                              mask=me.rle_encode(related_mask(rng, gt))))
            preds.append(me.EvalEntry(image_id, c, float(rng.random()),
                                      mask=me.rle_encode(edge_mask(rng, h, w))))
    return preds, gts


def bits(x):
    return type(x), float(x).hex()


class TestBoxLocalReference:
    """Box-local bands and pair IoUs against the full-canvas reference above:
    byte-identical reports and bit-identical boundary IoUs."""

    @pytest.mark.parametrize("kind", ("mask", "boundary"))
    def test_reports_equal_full_canvas_reference(self, rng, kind, monkeypatch):
        for _ in range(40):
            preds, gts = edge_instance(rng, kind)
            report = json.dumps(me.ap_suite(preds, gts, kind), sort_keys=True)
            with monkeypatch.context() as m:
                m.setattr(me, "geometry_iou_fn", full_canvas_iou_fn)
                reference = json.dumps(me.ap_suite(preds, gts, kind), sort_keys=True)
            assert report == reference

    def test_pair_ious_equal_full_canvas_reference(self, rng):
        seen = Counter()
        for _ in range(30):
            preds, gts = edge_instance(rng, "boundary")
            for kind in ("mask", "boundary"):
                fn, ref = me.geometry_iou_fn(kind), full_canvas_iou_fn(kind)
                for p in preds:
                    for g in gts:
                        if p.image_id == g.image_id:
                            assert bits(fn(p, g)) == bits(ref(p, g))
                            seen[kind, 0.0 < ref(p, g) < 1.0] += 1
        assert min(seen.values()) > 50  # partial overlaps and 0/1 both occur

    def test_boundary_iou_bits_equal_full_canvas_reference(self, rng):
        for _ in range(300):
            h, w = int(rng.integers(1, 160)), int(rng.integers(1, 160))
            a = edge_mask(rng, h, w)
            b = related_mask(rng, a) if rng.random() < 0.7 else edge_mask(rng, h, w)
            assert bits(me.boundary_iou(a, b)) == bits(full_canvas_boundary_iou(a, b))
            assert bits(me.mask_iou(a, b)) == bits(full_canvas_mask_iou(a, b))

    def test_band_equals_full_canvas_band(self, rng):
        for _ in range(150):
            h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            mask = edge_mask(rng, h, w)
            for d in (1, 2, 5, 15):  # up to a window wider than the canvas
                np.testing.assert_array_equal(me._band_in_box(mask, me._box(mask), d),
                                              full_canvas_band(mask, d))

    def test_fixed_edge_cases(self):
        h, w = 150, 130  # d = 4
        corner = np.zeros((h, w), dtype=bool)
        corner[:20, :20] = True
        far = np.zeros((h, w), dtype=bool)
        far[-1, -1] = True
        thin = np.zeros((h, w), dtype=bool)
        thin[40:43, 10:120] = True  # 3 rows, thinner than the 9-px window
        nested = np.zeros((h, w), dtype=bool)
        nested[30:120, 5:125] = True
        nested[60:80, 40:90] = False
        inner = np.zeros((h, w), dtype=bool)
        inner[60:80, 40:90] = True
        empty = np.zeros((h, w), dtype=bool)
        masks = [corner, far, thin, nested, inner, empty, np.ones((h, w), dtype=bool)]
        for a in masks:
            for b in masks:
                assert bits(me.boundary_iou(a, b)) == bits(full_canvas_boundary_iou(a, b))
                assert bits(me.mask_iou(a, b)) == bits(full_canvas_mask_iou(a, b))
        assert me.boundary_iou(empty, empty) == 0.0
        assert 0.0 < me.boundary_iou(thin, nested) < 1.0

    def test_canvas_mismatch_rejected(self):
        with pytest.raises(ContractError, match="canvases differ"):
            me.boundary_iou(np.ones((8, 8), dtype=bool), np.ones((8, 9), dtype=bool))


def minimum_filter_band_in_box(mask, box, d):
    """``me._band_in_box`` as a SciPy minimum filter of the crop, reading zero
    outside it."""
    band = np.zeros(mask.shape, dtype=bool)
    crop = mask[box]
    if crop.size:
        eroded = ndimage.minimum_filter(crop.view(np.uint8), size=2 * d + 1,
                                        mode="constant", cval=0)
        band[box] = crop & (eroded == 0)
    return band


def assert_band_matches_minimum_filter(mask, d):
    want = minimum_filter_band_in_box(mask, me._box(mask), d)
    np.testing.assert_array_equal(me._band_in_box(mask, me._box(mask), d), want)
    whole = (slice(0, mask.shape[0]), slice(0, mask.shape[1]))  # any box holding every pixel
    np.testing.assert_array_equal(me._band_in_box(mask, whole, d), want)


class TestErosion:
    """The shifted-AND erosion of boundary bands against a SciPy minimum filter."""

    def test_one_pixel_wide_crops(self, rng):
        for h, w in ((1, 1), (1, 9), (9, 1), (1, 40), (40, 1)):
            for d in (1, 2, 3, 4, 5, 8, 20, 41):  # up to a window wider than the crop
                for _ in range(4):
                    mask = np.zeros((h + 6, w + 6), dtype=bool)
                    mask[3:3 + h, 3:3 + w] = rng.random((h, w)) < 0.8
                    mask[3, 3] = mask[2 + h, 2 + w] = True  # the box is the h x w crop
                    assert_band_matches_minimum_filter(mask, d)

    def test_crops_narrower_than_the_window(self, rng):
        for d in range(1, 13):
            for _ in range(20):
                h, w = (int(v) for v in rng.integers(1, 2 * d + 1, 2))
                if rng.random() < 0.5:  # one side at least as wide as the window
                    w = int(rng.integers(2 * d + 1, 4 * d + 3))
                mask = rng.random((h, w)) < rng.random()
                assert_band_matches_minimum_filter(mask, d)

    def test_random_crops(self, rng):
        for _ in range(600):
            h, w = (int(v) for v in rng.integers(1, 40, 2))
            mask = rng.random((h, w)) < rng.random()
            assert_band_matches_minimum_filter(mask, int(rng.integers(1, 12)))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 34),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_minimum_filter_property(self, h, w, d, density, seed):
        mask = np.random.default_rng(seed).random((h, w)) < density
        assert_band_matches_minimum_filter(mask, d)

    @pytest.mark.parametrize("d", [7, 58])  # 58: the band width of a 2048 x 2048 canvas
    def test_large_crop_memory(self, d):
        mask = np.ones((2048, 2048), dtype=bool)
        mask[1000:1040, 500:1500] = False
        box = me._box(mask)
        band, peak = traced_peak(me._band_in_box, mask, box, d)
        assert peak <= 2.5 * (2048 + 2 * d) ** 2
        np.testing.assert_array_equal(band, minimum_filter_band_in_box(mask, box, d))


def partition_segments(rng, classes, shape=(12, 12), n=3):
    labels = rng.integers(0, n + 1, size=shape)
    segs = []
    for i in range(1, n + 1):
        mask = labels == i
        if mask.any():
            segs.append(me.PanopticSegment(class_id=int(rng.choice(classes)), mask=mask))
    return segs


class TestPq:
    def toy(self):
        g1 = np.zeros((10, 10), dtype=bool)
        g1[:5] = True
        g2 = np.zeros((10, 10), dtype=bool)
        g2[5:, :5] = True
        p1 = np.zeros((10, 10), dtype=bool)
        p1[:4] = True  # IoU vs g1 = 40/50 = 0.8
        p2 = np.zeros((10, 10), dtype=bool)
        p2[5:, 5:] = True  # unmatched
        gts = {0: [me.PanopticSegment(1, g1), me.PanopticSegment(1, g2)]}
        preds = {0: [me.PanopticSegment(1, p1), me.PanopticSegment(1, p2)]}
        return preds, gts

    def test_perfect_prediction(self, rng):
        segs = partition_segments(rng, [1, 2])
        report = me.pq({0: segs}, {0: segs}, {1, 2}, set())
        assert report.pq == report.sq == report.rq == 1.0

    def test_formula_trace(self):
        preds, gts = self.toy()
        report = me.pq(preds, gts, {1}, set())
        assert report.pq == pytest.approx(0.4, abs=1e-12)
        assert report.sq == pytest.approx(0.8, abs=1e-12)
        assert report.rq == pytest.approx(0.5, abs=1e-12)
        assert report.pq_thing == pytest.approx(0.4, abs=1e-12)

    def test_identity_on_random_instances(self, rng):
        for _ in range(200):
            gts = {0: partition_segments(rng, [1, 2, 3])}
            preds = {0: partition_segments(rng, [1, 2, 3])}
            report = me.pq(preds, gts, {1, 2}, {3})
            for stats in report.per_class.values():
                assert stats.pq == pytest.approx(stats.sq * stats.rq, abs=1e-12)

    def test_overlapping_preds_rejected(self):
        m = np.ones((4, 4), dtype=bool)
        segs = [me.PanopticSegment(1, m), me.PanopticSegment(2, m)]
        with pytest.raises(ContractError):
            me.pq({0: segs}, {0: []}, {1, 2}, set())

    @pytest.mark.parametrize("pred_class", [1, 2])
    @pytest.mark.parametrize("swap", [False, True])
    def test_canvas_mismatch_rejected_for_any_class_pair(self, pred_class, swap):
        small = [me.PanopticSegment(pred_class, np.ones((4, 4), dtype=bool))]
        large = [me.PanopticSegment(2, np.ones((8, 8), dtype=bool))]
        preds, gts = (large, small) if swap else (small, large)
        with pytest.raises(ContractError, match="canvases differ"):
            me.pq({0: preds}, {0: gts}, {1, 2}, set())

    def test_canvas_mismatch_within_one_side_rejected(self):
        segs = [me.PanopticSegment(1, np.ones((4, 4), dtype=bool)),
                me.PanopticSegment(2, np.zeros((8, 8), dtype=bool))]
        with pytest.raises(ContractError, match="canvases differ"):
            me.pq({0: segs}, {0: []}, {1, 2}, set())
        with pytest.raises(ContractError, match="canvases differ"):
            me.pq({0: []}, {0: segs}, {1, 2}, set())

    def test_canvases_may_differ_between_images(self):
        a = [me.PanopticSegment(1, np.ones((4, 4), dtype=bool))]
        b = [me.PanopticSegment(1, np.ones((8, 8), dtype=bool))]
        assert me.pq({0: a, 1: b}, {0: a, 1: b}, {1}, set()).pq == 1.0

    def test_added_fp_decreases_pq_and_rq(self):
        preds, gts = self.toy()
        base = me.pq(preds, gts, {1}, set())
        extra = np.zeros((10, 10), dtype=bool)
        extra[5:7, 5:7] = True
        smaller_p2 = np.zeros((10, 10), dtype=bool)
        smaller_p2[8:, 8:] = True
        preds2 = {0: [preds[0][0], me.PanopticSegment(1, smaller_p2),
                      me.PanopticSegment(1, extra)]}
        more = me.pq(preds2, gts, {1}, set())
        assert more.pq < base.pq
        assert more.rq < base.rq

    def test_matching_threshold_strict(self):
        g = np.zeros((10, 10), dtype=bool)
        g[:5] = True
        p = np.zeros((10, 10), dtype=bool)
        p[:5, :5] = True  # IoU vs g exactly 25/75... no: inter 25, union 75
        gts = {0: [me.PanopticSegment(1, g)]}
        preds = {0: [me.PanopticSegment(1, p)]}
        report = me.pq(preds, gts, {1}, set())
        assert report.per_class[1].tp == 0  # 1/3 < 0.5: no match

    def test_stuff_split(self, rng):
        g1 = np.zeros((8, 8), dtype=bool)
        g1[:4] = True
        g2 = ~g1
        gts = {0: [me.PanopticSegment(1, g1), me.PanopticSegment(7, g2)]}
        report = me.pq(gts, gts, {1}, {7})
        assert report.pq_thing == 1.0 and report.pq_stuff == 1.0


# --- pq against the decode-and-mask_iou reference ----------------------------


def _reference_check_disjoint(preds, gts):
    """Segments of one image share one canvas on both sides; each side's are disjoint."""
    segments = [*preds, *gts]
    if not segments:
        return
    total = np.zeros(segments[0].mask.shape, dtype=np.int64)  # one count canvas for both sides
    for segs, what in ((preds, "predicted"), (gts, "ground-truth")):
        total.fill(0)
        for s in segs:
            if s.mask.shape != total.shape:
                raise ContractError(f"{what} segment canvases differ")
            total += s.mask
        if np.any(total > 1):
            raise ContractError(f"{what} segments overlap")


def reference_pq(preds, gts, thing_classes, stuff_classes):
    """The earlier ``pq``: every mask decoded to a bool canvas, disjointness
    checked on an int64 count canvas, each same-class pair scored by ``mask_iou``."""
    def decoded(segs):
        return [me.PanopticSegment(s.class_id, me.rle_decode(s.mask) if isinstance(s.mask, me.Rle)
                                   else np.asarray(s.mask, dtype=bool)) for s in segs]

    stats = {}

    def stat(c):
        return stats.setdefault(c, me.PqClassStats())

    gt_classes = set()
    for image_id in sorted(set(preds) | set(gts)):
        p_segs = decoded(preds.get(image_id, []))
        g_segs = decoded(gts.get(image_id, []))
        _reference_check_disjoint(p_segs, g_segs)
        gt_classes.update(g.class_id for g in g_segs)
        matched_p, matched_g = set(), set()
        for gi, g in enumerate(g_segs):
            for pi, p in enumerate(p_segs):
                if pi in matched_p or p.class_id != g.class_id:
                    continue
                v = me.mask_iou(p.mask, g.mask)
                if v > 0.5:
                    s = stat(g.class_id)
                    s.tp += 1
                    s.iou_sum += v
                    matched_p.add(pi)
                    matched_g.add(gi)
                    break
        for gi, g in enumerate(g_segs):
            if gi not in matched_g:
                stat(g.class_id).fn += 1
        for pi, p in enumerate(p_segs):
            if pi not in matched_p:
                stat(p.class_id).fp += 1

    def average(classes):
        present = [c for c in classes if c in stats]
        if not present:
            return 0.0, 0.0, 0.0
        return (float(np.mean([stats[c].pq for c in present])),
                float(np.mean([stats[c].sq for c in present])),
                float(np.mean([stats[c].rq for c in present])))

    pq_all, sq_all, rq_all = average(sorted(gt_classes))
    pq_th, _, _ = average(sorted(gt_classes & set(thing_classes)))
    pq_st, _, _ = average(sorted(gt_classes & set(stuff_classes)))
    return me.PqReport(per_class=stats, pq=pq_all, sq=sq_all, rq=rq_all,
                       pq_thing=pq_th, pq_stuff=pq_st)


def outcome(fn, *args):
    """The sorted-key JSON report, or the exception's type and message."""
    try:
        return json.dumps(fn(*args).to_dict(), sort_keys=True)
    except Exception as e:  # compared, not handled
        return type(e), str(e)


def padded_rle(mask, rng):
    """``rle_encode(mask)`` with zero-length runs spliced into random runs."""
    counts = list(me.rle_encode(mask).counts)
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(len(counts)))
        cut = int(rng.integers(counts[i] + 1))
        counts[i:i + 1] = [cut, 0, counts[i] - cut]
    return me.Rle(mask.shape[0], mask.shape[1], tuple(counts))


def random_panoptic(rng, broken=False):
    """Multi-image preds and gts as bool masks. Predictions relabel and shift
    the ground truth so matches happen; images may sit on one side only, hold
    empty segments, or cover the first and last pixel of the canvas. With
    ``broken``, one side of one image gets an overlap or a foreign canvas."""
    preds, gts = {}, {}
    for image_id in rng.permutation(6)[:int(rng.integers(1, 5))].tolist():
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        n = int(rng.integers(0, 6))
        labels = rng.integers(0, n + 1, size=(h, w))
        labels[0, 0] = labels[-1, -1] = n  # runs at pixel 0 and at the last pixel
        shifted = np.roll(labels, int(rng.integers(0, 2)), axis=int(rng.integers(0, 2)))
        shifted[rng.random((h, w)) < 0.15] = 0
        classes = rng.integers(1, 4, size=n + 1)
        side = int(rng.integers(0, 4))  # 0: gts only, 1: preds only, else both
        if side != 1:
            gts[image_id] = [me.PanopticSegment(int(classes[k]), labels == k)
                             for k in range(1, n + 1)]
        if side != 0:
            pred_classes = np.where(rng.random(n + 1) < 0.8, classes, rng.integers(1, 4, n + 1))
            preds[image_id] = [me.PanopticSegment(int(pred_classes[k]), shifted == k)
                               for k in range(1, n + 1)]
    if broken:
        target = preds if (rng.random() < 0.5 and preds) or not gts else gts
        segs = target[list(target)[int(rng.integers(len(target)))]]
        if segs and rng.random() < 0.5:  # covers every pixel: overlaps any nonempty segment
            extra = me.PanopticSegment(1, np.ones_like(segs[0].mask))
        else:  # no image in these inputs is 9x10
            extra = me.PanopticSegment(2, np.zeros((9, 10), dtype=bool))
        segs.insert(int(rng.integers(len(segs) + 1)), extra)
    return preds, gts


def as_rles(segments_by_image, rng):
    return {i: [me.PanopticSegment(s.class_id, padded_rle(s.mask, rng)) for s in segs]
            for i, segs in segments_by_image.items()}


class TestPqReference:
    """``pq`` from label maps against the decode-and-``mask_iou`` reference,
    byte for byte, with masks given as bool arrays and as ``Rle``."""

    def test_reports_equal_reference(self, rng):
        matched = 0
        for _ in range(400):
            preds, gts = random_panoptic(rng)
            want = outcome(reference_pq, preds, gts, {1, 2}, {3})
            assert isinstance(want, str)
            assert outcome(me.pq, preds, gts, {1, 2}, {3}) == want
            assert outcome(me.pq, as_rles(preds, rng), as_rles(gts, rng), {1, 2}, {3}) == want
            matched += sum(s.tp for s in me.pq(preds, gts, {1, 2}, {3}).per_class.values())
        assert matched > 200  # the inputs do exercise matching

    def test_errors_equal_reference(self, rng):
        messages = {}
        for _ in range(300):
            preds, gts = random_panoptic(rng, broken=True)
            want = outcome(reference_pq, preds, gts, {1, 2}, {3})
            assert outcome(me.pq, preds, gts, {1, 2}, {3}) == want
            assert outcome(me.pq, as_rles(preds, rng), as_rles(gts, rng), {1, 2}, {3}) == want
            if not isinstance(want, str):  # an insert can miss: no segment to overlap
                assert want[0] is ContractError
                messages[want[1]] = messages.get(want[1], 0) + 1
        assert sum(messages.values()) > 200
        assert set(messages) == {f"{side} {what}" for side in ("predicted", "ground-truth")
                            for what in ("segment canvases differ", "segments overlap")}

    def test_edge_runs(self):
        first_last = np.zeros((3, 4), dtype=bool)
        first_last[0, 0] = first_last[-1, -1] = True
        rle = me.rle_encode(first_last)
        assert rle.counts[0] == 0 and len(rle.counts) % 2 == 0  # pixel 0 and the last pixel
        empty = np.zeros((3, 4), dtype=bool)
        zero_runs = me.Rle(3, 4, (0, 1, 0, 0, 10, 0, 0, 1))  # the same mask, with empty runs
        assert np.array_equal(me.rle_decode(zero_runs), first_last)
        gts = {0: [me.PanopticSegment(1, first_last), me.PanopticSegment(2, empty)]}
        for mask in (first_last, rle, zero_runs):
            preds = {0: [me.PanopticSegment(2, empty), me.PanopticSegment(1, mask)]}
            got = outcome(me.pq, preds, gts, {1, 2}, set())
            assert got == outcome(reference_pq, preds, gts, {1, 2}, set())
            assert json.loads(got)["per_class"]["1"]["TP"] == 1

    def test_many_segments_on_a_small_canvas(self, rng):
        """More segment pairs than pixels: one-pixel segments on a 4x4 canvas."""
        cells = [np.eye(16, dtype=bool)[k].reshape(4, 4) for k in range(16)]
        gts = {0: [me.PanopticSegment(1, c) for c in cells]}
        preds = {0: [me.PanopticSegment(1 + (k % 2), cells[k]) for k in rng.permutation(16)]}
        got = outcome(me.pq, preds, gts, {1, 2}, set())
        assert got == outcome(reference_pq, preds, gts, {1, 2}, set())
        assert json.loads(got)["per_class"]["1"]["TP"] == 8

    def test_cli_panoptic_decodes_no_mask(self, tmp_path, capsys, monkeypatch, rng):
        from spsr import io
        from spsr.cli import main

        preds, gts = random_panoptic(rng)
        while not (preds and gts):
            preds, gts = random_panoptic(rng)
        for name, segments in (("p", preds), ("g", gts)):
            io.dump_json(str(tmp_path / f"{name}.json"), [
                {"image_id": i, "segments": [{"class": s.class_id, "is_thing": s.class_id != 3,
                                              "rle": io.rle_to_dict(me.rle_encode(s.mask))}
                                             for s in segs]}
                for i, segs in segments.items()])
        want = tmp_path / "want.json"
        io.dump_json(str(want), reference_pq(preds, gts, {1, 2}, {3}).to_dict())

        def no_decode(rle):
            raise AssertionError("panoptic eval decodes no mask")

        monkeypatch.setattr(me, "rle_decode", no_decode)
        monkeypatch.setattr(io, "rle_decode", no_decode)
        out = tmp_path / "r.json"
        code = main(["eval", "--task", "panoptic", "--preds", str(tmp_path / "p.json"),
                     "--gts", str(tmp_path / "g.json"), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == want.read_bytes()
