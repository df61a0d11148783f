import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spsr import geometry as geo
from spsr.errors import ContractError


def pixel_count_iou(a, b, scale=10):
    """Integer-grid oracle: count unit cells at a subdivided resolution."""
    def cells(box):
        x0, y0, x1, y1 = (int(round(v * scale)) for v in box)
        return {(x, y) for x in range(x0, x1) for y in range(y0, y1)}
    ca, cb = cells(a), cells(b)
    union = len(ca | cb)
    return len(ca & cb) / union if union else 0.0


class TestIou:
    def test_identical(self):
        assert geo.iou([0, 0, 2, 2], [0, 0, 2, 2]) == 1.0

    def test_disjoint(self):
        assert geo.iou([0, 0, 1, 1], [5, 5, 6, 6]) == 0.0

    def test_sixth_overlap(self):
        a, b = [0, 0, 2, 2], [1, 1, 3, 3]
        assert geo.iou(a, b) == pytest.approx(1 / 7, abs=1e-12)
        assert geo.iou(a, b) == pytest.approx(pixel_count_iou(a, b), abs=1e-12)

    def test_symmetry_and_degenerate(self, rng):
        for _ in range(100):
            a = np.sort(rng.uniform(0, 10, 4).reshape(2, 2), axis=0).T.ravel()[[0, 2, 1, 3]]
            b = np.sort(rng.uniform(0, 10, 4).reshape(2, 2), axis=0).T.ravel()[[0, 2, 1, 3]]
            assert geo.iou(a, b) == pytest.approx(geo.iou(b, a), abs=1e-12)
        assert geo.iou([1, 1, 1, 1], [0, 0, 5, 5]) == 0.0
        assert geo.iou([1, 1, 1, 1], [1, 1, 1, 1]) == 0.0


class TestBoxCodec:
    def test_same_box_zero_deltas(self):
        d = geo.encode_box([0, 0, 4, 2], [0, 0, 4, 2])
        np.testing.assert_allclose(d, np.zeros(4), atol=1e-12)

    def test_half_width_shift(self):
        d = geo.encode_box([0, 0, 4, 2], [2, 0, 6, 2])
        assert d[0] == pytest.approx(0.5, abs=1e-12)
        assert d[1] == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_random(self, rng):
        for _ in range(1000):
            a = rng.uniform(0, 50, 2)
            anchor = np.array([a[0], a[1], a[0] + rng.uniform(0.5, 20), a[1] + rng.uniform(0.5, 20)])
            g = rng.uniform(0, 50, 2)
            gt = np.array([g[0], g[1], g[0] + rng.uniform(0.5, 20), g[1] + rng.uniform(0.5, 20)])
            back = geo.decode_box(anchor, geo.encode_box(anchor, gt))
            np.testing.assert_allclose(back, gt, rtol=1e-9, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.floats(-100, 100) for _ in range(2)]),
           st.tuples(*[st.floats(0.1, 50) for _ in range(2)]),
           st.tuples(*[st.floats(-100, 100) for _ in range(2)]),
           st.tuples(*[st.floats(0.1, 50) for _ in range(2)]))
    def test_roundtrip_property(self, a_pos, a_dim, g_pos, g_dim):
        anchor = np.array([a_pos[0], a_pos[1], a_pos[0] + a_dim[0], a_pos[1] + a_dim[1]])
        gt = np.array([g_pos[0], g_pos[1], g_pos[0] + g_dim[0], g_pos[1] + g_dim[1]])
        back = geo.decode_box(anchor, geo.encode_box(anchor, gt))
        np.testing.assert_allclose(back, gt, rtol=1e-9, atol=1e-7)

    def test_nonpositive_gt_rejected(self):
        with pytest.raises(ContractError):
            geo.encode_box([0, 0, 2, 2], [1, 1, 1, 3])


def reference_rank(x):
    """The lexsort form of ``geo.rank``, kept as its reference: the negated
    score as the primary key, the index as the tie key."""
    x = np.asarray(x, dtype=np.float64)
    return np.lexsort((np.arange(len(x)), -x))


# Values that sort unusually or tie: NaN of either sign, the infinities, both
# zeros, and subnormal and extreme finite values.
SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
           np.finfo(np.float64).max, -np.finfo(np.float64).max]
tied_scores = st.lists(st.sampled_from(SPECIAL) | st.sampled_from([0.25, 0.5]), max_size=60)
any_scores = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=60)


class TestRank:
    @settings(max_examples=300, deadline=None)
    @given(tied_scores | any_scores)
    def test_equals_lexsort_reference(self, scores):
        got = geo.rank(scores)
        np.testing.assert_array_equal(got, reference_rank(scores))
        assert got.dtype == np.intp

    @settings(max_examples=300, deadline=None)
    @given(tied_scores | any_scores, st.data())
    def test_candidate_subset_as_topk_match_ranks(self, scores, data):
        """``topk_match`` ranks a subset of indices and keeps the subset's own
        indices as the tie key."""
        col = np.asarray(scores, dtype=np.float64)
        candidates = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(col),
                                                       max_size=len(col))))
        want = candidates[np.lexsort((candidates, -col[candidates]))]
        np.testing.assert_array_equal(candidates[geo.rank(col[candidates])], want)

    def test_examples(self):
        assert geo.rank([]).tolist() == []
        assert geo.rank([0.5, np.nan, 0.9, 0.5, -0.0, 0.0]).tolist() == [2, 0, 3, 4, 5, 1]
        assert geo.rank([-np.inf, np.inf, 1]).tolist() == [1, 2, 0]


def ladder_anchors(heights):
    """Anchors [0,0,10,h]: IoU vs gt [0,0,10,10] is exactly h/10 for h <= 10."""
    return np.array([[0.0, 0.0, 10.0, h] for h in heights])


class TestTopkMatch:
    GT = np.array([[0.0, 0.0, 10.0, 10.0]])

    def test_sorted_topk(self):
        anchors = ladder_anchors([9, 8, 7, 2])
        result = geo.topk_match(anchors, self.GT, k=2)
        assert result.per_gt[0] == [0, 1]
        np.testing.assert_array_equal(result.labels, [0, 0, -1, -1])

    def test_saturation_excludes_zero_iou(self):
        anchors = np.vstack([ladder_anchors([9, 8]), [[50, 50, 60, 60]]])
        result = geo.topk_match(anchors, self.GT, k=10)
        assert result.per_gt[0] == [0, 1]
        assert result.labels[2] == -1

    def test_presets(self):
        assert geo.TOPK_STAGE1 == 5
        assert geo.TOPK_STAGE2 == 15

    def test_conflict_higher_iou_wins(self):
        # one anchor overlapping two gts, better with the second
        anchors = np.array([[0.0, 0.0, 10.0, 10.0]])
        gts = np.array([[0.0, 0.0, 10.0, 5.0], [0.0, 0.0, 10.0, 9.0]])
        result = geo.topk_match(anchors, gts, k=1)
        assert result.labels[0] == 1
        assert result.per_gt == [[], [0]]

    def test_conflict_tie_lower_gt_index(self):
        anchors = np.array([[0.0, 0.0, 10.0, 10.0]])
        gts = np.array([[0.0, 0.0, 10.0, 5.0], [0.0, 5.0, 10.0, 10.0]])
        result = geo.topk_match(anchors, gts, k=1)
        assert result.labels[0] == 0

    def test_static_wrt_scores(self, rng):
        anchors = ladder_anchors(rng.uniform(1, 10, 20))
        gts = np.array([[0, 0, 10, 10], [0, 0, 10, 4]], dtype=float)
        before = geo.topk_match(anchors, gts, k=3)
        _ = rng.permutation(20)  # any prediction reshuffling is invisible
        after = geo.topk_match(anchors, gts, k=3)
        np.testing.assert_array_equal(before.labels, after.labels)

    def test_match_counts_bounded(self, rng):
        for _ in range(50):
            anchors = rng.uniform(0, 20, size=(30, 2))
            anchors = np.concatenate([anchors, anchors + rng.uniform(1, 8, size=(30, 2))], axis=1)
            gts = rng.uniform(0, 20, size=(3, 2))
            gts = np.concatenate([gts, gts + rng.uniform(1, 8, size=(3, 2))], axis=1)
            k = int(rng.integers(1, 6))
            result = geo.topk_match(anchors, gts, k)
            for matched in result.per_gt:
                assert 0 <= len(matched) <= k

    def test_non_competing_exact_count(self):
        # two gts far apart: each gets min(k, positive-IoU anchors)
        anchors = np.vstack([ladder_anchors([9, 8, 7]),
                             ladder_anchors([9, 8]) + 100.0])
        gts = np.array([[0, 0, 10, 10], [100, 100, 110, 110]], dtype=float)
        result = geo.topk_match(anchors, gts, k=5)
        assert len(result.per_gt[0]) == 3
        assert len(result.per_gt[1]) == 2


class TestNms:
    def test_single_detection_kept(self):
        assert geo.nms([[0, 0, 1, 1]], [0.5], 0.5) == [0]

    def test_greedy_trace(self):
        boxes = [[0, 0, 10, 10], [0, 2.5, 10, 12.5]]  # IoU exactly 0.6
        assert geo.iou(boxes[0], boxes[1]) == pytest.approx(0.6)
        assert geo.nms(boxes, [0.9, 0.8], 0.5) == [0]
        assert geo.nms(boxes, [0.9, 0.8], 0.6) == [0, 1]  # strict > drops only above

    def test_kept_pairwise_iou_bounded(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 12))
            pos = rng.uniform(0, 20, size=(n, 2))
            boxes = np.concatenate([pos, pos + rng.uniform(0.5, 10, size=(n, 2))], axis=1)
            scores = rng.uniform(0, 1, n)
            thresh = float(rng.uniform(0.1, 0.9))
            kept = geo.nms(boxes, scores, thresh)
            for i_pos, i in enumerate(kept):
                for j in kept[:i_pos]:
                    assert geo.iou(boxes[i], boxes[j]) <= thresh + 1e-12

    def test_order_independence_with_distinct_scores(self, rng):
        n = 10
        pos = rng.uniform(0, 20, size=(n, 2))
        boxes = np.concatenate([pos, pos + rng.uniform(1, 8, size=(n, 2))], axis=1)
        scores = np.linspace(0.1, 0.9, n)
        kept = geo.nms(boxes, scores, 0.5)
        perm = rng.permutation(n)
        kept_perm = geo.nms(boxes[perm], scores[perm], 0.5)
        assert sorted(perm[kept_perm].tolist()) == sorted(kept)


class TestMaskNms:
    def _masks(self):
        a = np.zeros((10, 10), dtype=bool)
        a[:8] = True  # 80 px
        b = np.zeros((10, 10), dtype=bool)
        b[:] = True  # 100 px; IoU(a, b) = 0.8
        c = np.zeros((10, 10), dtype=bool)
        return a, b, c

    def test_identical_masks_one_kept(self):
        a, _, _ = self._masks()
        assert geo.mask_nms([a, a.copy()], [0.9, 0.8], 0.75) == [0]

    def test_disjoint_masks_all_kept(self):
        a = np.zeros((6, 6), dtype=bool)
        a[:3] = True
        b = ~a
        assert sorted(geo.mask_nms([a, b], [0.9, 0.8], 0.75)) == [0, 1]

    def test_point_eight_pair_suppressed(self):
        a, b, _ = self._masks()
        assert geo.mask_nms([b, a], [0.9, 0.8], 0.75) == [0]
        assert sorted(geo.mask_nms([b, a], [0.9, 0.8], 0.85)) == [0, 1]

    def test_canvas_mismatch_rejected(self):
        with pytest.raises(ContractError):
            geo.mask_nms([np.zeros((3, 3), bool), np.zeros((4, 4), bool)], [1, 1], 0.5)
