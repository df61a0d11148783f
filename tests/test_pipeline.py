import dataclasses
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spsr import ops
from spsr import pipeline as pl
from spsr.cli import main
from spsr.cost import CostLedger, compare, macs_bilinear, macs_conv
from spsr.errors import ContractError, SchemaError
from spsr.metrics import boundary_iou
from spsr.synthetic import SyntheticShapeSpec, gen_synthetic, reference_mask

from conftest import traced_peak


def small_config(**kwargs):
    defaults = dict(stages=3, top_n_active=10000, seed=3, mode="oracle",
                    f0=16, f_query=8, f_neck=8, image_hw=(160, 160))
    defaults.update(kwargs)
    return pl.RunConfig(**defaults)


def active_fractions(result):
    """Each refinement stage's active fraction, as the ledger report gives it."""
    report = compare(result.ledger)
    return {st["stage"]: st["active_fraction"] for st in report["stages"][1:]}


def stage_macs(ledger: CostLedger, column: str = "macs") -> dict:
    """Per stage, the sum of the entries' ``macs`` or ``dense_macs``."""
    out: dict = {}
    for e in ledger.entries:
        out[e.stage] = out.get(e.stage, 0) + getattr(e, column)
    return out


def disk_roi(seed=11, canvas=160, side=112):
    spec = SyntheticShapeSpec(shape="disk", canvas_h=canvas, canvas_w=canvas, seed=seed)
    _, box, shape = gen_synthetic(spec)
    return pl.RoiInput(box=box, ref_mask=reference_mask(shape, box, side))


class TestAssignLevel:
    @pytest.mark.parametrize("side,expected", [(56, 2), (224, 4), (3584, 5)])
    def test_formula(self, side, expected):
        assert pl.assign_level(pl.RoiBox(0, 0, side, side)) == expected

    def test_clamped_below(self):
        assert pl.assign_level(pl.RoiBox(0, 0, 14, 14)) == 2

    def test_degenerate_box_rejected(self):
        with pytest.raises(ContractError):
            pl.RoiBox(0, 0, 0, 10)


class TestStageLevel:
    @pytest.mark.parametrize("k0,s,expected", [(4, 1, 3), (2, 3, 2), (5, 3, 2), (5, 0, 5)])
    def test_cases(self, k0, s, expected):
        assert pl.stage_level(k0, s) == expected


class TestSelectActive:
    def test_saturation(self):
        cells = pl.select_active([np.zeros((1, 5))], top_n=10)
        assert len(cells[0]) == 5

    def test_topk_by_score(self):
        cells = pl.select_active([np.array([[0.9, 0.1, 0.5]])], top_n=2)
        assert cells[0].tolist() == [[0, 0], [0, 2]]

    def test_tie_breaks_canonical(self):
        cells = pl.select_active([np.ones((2, 2))], top_n=1)
        assert cells[0].tolist() == [[0, 0]]

    def test_cross_roi_budget(self):
        a = np.full((1, 2), 0.2)
        b = np.array([[0.9, 0.1]])
        cells = pl.select_active([a, b], top_n=2)
        assert len(cells[0]) == 1 and len(cells[1]) == 1
        assert cells[0].tolist() == [[0, 0]]  # tie vs b's 0.1? no: 0.2 > 0.1
        assert cells[1].tolist() == [[0, 0]]

    def test_zero_budget(self):
        cells = pl.select_active([np.ones((3, 3))], top_n=0)
        assert len(cells[0]) == 0

    def test_none_selects_all(self):
        cells = pl.select_active([np.zeros((2, 3))], top_n=None)
        assert len(cells[0]) == 6


def reference_select_active(scores, top_n):
    """The lexsort form of ``select_active``, kept as its reference: one lexsort
    on (score, RoI index, cell index), then a sort of each RoI's chosen cells."""
    grids = [np.asarray(s, dtype=np.float64) for s in scores]
    sizes = [g.size for g in grids]
    total = int(sum(sizes))
    if top_n is None or top_n >= total:
        return [pl._all_cells(g.shape) for g in grids]
    if top_n <= 0:
        return [np.zeros((0, 2), dtype=np.int64) for _ in grids]
    flat = np.concatenate([g.ravel() for g in grids])
    roi_ids = np.repeat(np.arange(len(grids)), sizes)
    cell_ids = np.concatenate([np.arange(n) for n in sizes])
    chosen = np.lexsort((cell_ids, roi_ids, -flat))[:top_n]
    out = []
    for i, g in enumerate(grids):
        cells = np.sort(cell_ids[chosen[roi_ids[chosen] == i]])
        out.append(np.stack(np.unravel_index(cells, g.shape), axis=1))
    return out


# Small value sets, so most scores tie with others, within and across RoIs.
PALETTES = st.sampled_from([[0.0], [0.0, 1.0], [0.25, 0.5, 0.75], [-0.0, 0.0, 0.5],
                            [np.nan, 0.5, np.inf, -np.inf]])


@st.composite
def score_grids(draw):
    """1-8 RoI grids with sides 1-28, filled from a small palette or uniformly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = draw(st.none() | PALETTES)
    grids = []
    for _ in range(draw(st.integers(1, 8))):
        shape = (draw(st.integers(1, 28)), draw(st.integers(1, 28)))
        grids.append(rng.uniform(size=shape) if palette is None else rng.choice(palette, shape))
    return grids


class TestSelectActiveReference:
    @settings(max_examples=200, deadline=None)
    @given(score_grids(), st.sampled_from(["none", -1, 0, 1, "half", "total-1", "total",
                                           "total+5"]))
    def test_equals_lexsort_reference(self, grids, budget):
        total = sum(g.size for g in grids)
        top_n = {"none": None, "half": total // 2, "total-1": total - 1, "total": total,
                 "total+5": total + 5}.get(budget, budget)
        got = pl.select_active(grids, top_n)
        want = reference_select_active(grids, top_n)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_no_grids(self):
        for top_n in (None, 0, 3):
            assert pl.select_active([], top_n) == []


class TestMakeTargets:
    def test_all_foreground(self):
        seg, refine = pl.make_targets(np.ones((8, 8), dtype=bool), (4, 4))
        assert seg.all() and not refine.any()

    def test_aligned_half_plane_has_no_mixed_cells(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[:, :4] = True
        seg, refine = pl.make_targets(mask, (4, 4))
        assert not refine.any()
        np.testing.assert_array_equal(seg[:, :2], True)
        np.testing.assert_array_equal(seg[:, 2:], False)

    def test_diagonal_edge_matches_footprint_oracle(self):
        mask = np.tri(16, 16, dtype=bool)
        seg, refine = pl.make_targets(mask, (4, 4))
        for i in range(4):
            for j in range(4):
                block = mask[4 * i:4 * (i + 1), 4 * j:4 * (j + 1)]
                assert refine[i, j] == (block.any() and not block.all())
                assert seg[i, j] == mask[4 * i + 2, 4 * j + 2]

    def test_empty_mask_allowed(self):
        seg, refine = pl.make_targets(np.zeros((8, 8), dtype=bool), (4, 4))
        assert not seg.any() and not refine.any()

    def test_coarser_mask_rejected(self):
        with pytest.raises(ContractError):
            pl.make_targets(np.zeros((3, 3), dtype=bool), (4, 4))

    def test_non_integer_ratio_footprints(self):
        # 7 rows over a 4-cell grid: footprints 1-2 pixels, centers by floor
        mask = np.zeros((7, 7), dtype=bool)
        mask[3:] = True
        seg, refine = pl.make_targets(mask, (4, 4))
        by = [0, 1, 3, 5, 7]
        for i in range(4):
            block = mask[by[i]:by[i + 1]]
            assert refine[i, 0] == (block.any() and not block.all())


def brute_force_targets(mask, grid_hw):
    """Cell by cell: the centre pixel, and whether the ``by``/``bx`` footprint
    holds both values."""
    (rows, cols), (h, w) = mask.shape, grid_hw
    by = [int(np.floor(i * rows / h)) for i in range(h + 1)]
    bx = [int(np.floor(j * cols / w)) for j in range(w + 1)]
    seg = np.zeros(grid_hw, dtype=bool)
    refine = np.zeros(grid_hw, dtype=bool)
    for i in range(h):
        for j in range(w):
            seg[i, j] = mask[int(np.floor((i + 0.5) * rows / h)), int(np.floor((j + 0.5) * cols / w))]
            block = mask[by[i]:by[i + 1], bx[j]:bx[j + 1]]
            refine[i, j] = block.any() and not block.all()
    return seg, refine


@st.composite
def masks_and_grids(draw):
    """A mask with sides 1-300 (noise, a disk, or a sparse scatter) and a grid
    no larger than it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["noise", "disk", "scatter"]))
    if kind == "disk":
        yy, xx = np.mgrid[:rows, :cols]
        mask = (yy - rows * rng.random()) ** 2 + (xx - cols * rng.random()) ** 2 \
            < (max(rows, cols) * rng.random()) ** 2
    else:
        mask = rng.random((rows, cols)) < (rng.random() if kind == "noise" else 0.002)
    return mask, (draw(st.integers(1, rows)), draw(st.integers(1, cols)))


class TestMakeTargetsReference:
    """``make_targets`` counts pixels a few row bands at a time; the targets
    match a cell-by-cell reference for any chunk size, down to one band per chunk."""

    @staticmethod
    def check(mask, grid_hw):
        for got, want in zip(pl.make_targets(mask, grid_hw), brute_force_targets(mask, grid_hw)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(masks_and_grids())
    def test_matches_brute_force(self, case):
        self.check(*case)

    @settings(max_examples=150, deadline=None)
    @given(masks_and_grids(), st.integers(1, 2000))
    def test_matches_brute_force_in_small_chunks(self, case, chunk):
        with mock.patch.object(ops, "CHUNK_VALUES", chunk):
            self.check(*case)


class TestCellCenters:
    """``cell_centers`` is bit-equal to the per-cell forms it replaced: neck
    sampling's ``y0 + (y + 0.5) * h / n`` and the oracle's centre pixel
    ``floor((i + 0.5) * rows / n)``."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e4, 1e4), st.floats(1e-3, 1e3), st.integers(1, 112),
           st.integers(1, 2000), st.randoms(use_true_random=False))
    def test_bit_equal_to_the_per_cell_forms(self, lo, span, n, rows, py_rng):
        box = pl.RoiBox(x0=0.0, y0=lo, x1=1.0, y1=lo + span)
        ys = np.array([py_rng.randrange(n) for _ in range(20)])
        want = box.y0 + (ys + 0.5) * box.h / n
        assert pl.cell_centers(box.y0, box.y1, n)[ys].tobytes() == want.tobytes()
        rows = max(rows, n)
        want = np.floor((np.arange(n) + 0.5) * rows / n)
        assert np.floor(pl.cell_centers(0, rows, n)).tobytes() == want.tobytes()


class TestAssembleMask:
    def test_no_active_cells_pure_upsample(self):
        prev = np.array([[0.25, 0.75]])
        out = pl.assemble_mask(prev, np.zeros((0, 2)), np.zeros(0))
        np.testing.assert_array_equal(out, [[0.25, 0.25, 0.75, 0.75],
                                            [0.25, 0.25, 0.75, 0.75]])

    def test_all_cells_overwritten(self, rng):
        prev = rng.random((2, 2))
        cells = np.array([(y, x) for y in range(4) for x in range(4)])
        logits = np.full(16, 3.0)
        out = pl.assemble_mask(prev, cells, logits)
        np.testing.assert_allclose(out, pl.sigmoid(np.full((4, 4), 3.0)))

    def test_single_zero_logit_becomes_half(self):
        prev = np.ones((1, 1))
        out = pl.assemble_mask(prev, np.array([[0, 1]]), np.array([0.0]))
        np.testing.assert_array_equal(out, [[1.0, 0.5], [1.0, 1.0]])

    def test_out_of_grid_cell_rejected(self):
        with pytest.raises(ContractError):
            pl.assemble_mask(np.ones((2, 2)), np.array([[4, 0]]), np.array([1.0]))


class TestPasteMask:
    def test_all_ones_integer_box(self):
        probs = np.ones((112, 112))
        out = pl.paste_mask(probs, pl.RoiBox(4, 6, 24, 18), (32, 40))
        expected = np.zeros((32, 40), dtype=bool)
        expected[6:18, 4:24] = True
        np.testing.assert_array_equal(out, expected)

    def test_all_zeros_empty(self):
        out = pl.paste_mask(np.zeros((112, 112)), pl.RoiBox(0, 0, 20, 20), (32, 32))
        assert not out.any()

    def test_half_split_even_width(self):
        probs = np.zeros((112, 112))
        probs[:, :56] = 1.0
        box = pl.RoiBox(10, 10, 30, 30)  # width 20, even
        out = pl.paste_mask(probs, box, (40, 40))
        np.testing.assert_array_equal(out[10:30, 10:20], True)
        np.testing.assert_array_equal(out[10:30, 20:30], False)

    def test_bilinear_oracle_pointwise(self):
        # direct bilinear formula at one interior pixel
        probs = np.zeros((4, 4))
        probs[1, 1] = 1.0
        box = pl.RoiBox(0, 0, 8, 8)
        # pixel (2, 2) samples position (0.75, 0.75): weights 0.25/0.75 across
        # cells 0 and 1, so it reads 0.75 * 0.75 * scale, and the 0.5 threshold
        # flips exactly where that value crosses 0.5
        at_half = 0.5 / (0.75 * 0.75)
        assert pl.paste_mask(probs * at_half * (1 + 1e-9), box, (8, 8))[2, 2]
        assert not pl.paste_mask(probs * at_half * (1 - 1e-9), box, (8, 8))[2, 2]
        out = pl.paste_mask(probs, box, (8, 8))
        assert out[2, 2] == (0.75 * 0.75 >= 0.5)

    def test_outside_image_empty(self):
        out = pl.paste_mask(np.ones((14, 14)), pl.RoiBox(50, 50, 60, 60), (32, 32))
        assert not out.any()


class TestPasteMaskReference:
    """``paste_mask`` samples through ``ops._bilinear`` at clamped positions;
    SciPy's edge-replicating ``map_coordinates`` is the independent reference."""

    BOXES = [
        (0.0, 0.0, 7.0, 5.0),      # one pixel per cell: positions on every edge
        (3.0, 2.0, 31.0, 22.0),    # 4x upsampling: past every edge by up to 0.375
        (-5.3, 1.7, 20.9, 30.2),   # fractional, clipped at the image's left edge
        (10.6, -4.2, 39.4, 12.8),  # fractional, clipped at the top and right
        (2.2, 3.9, 5.1, 6.3),      # downsampling
    ]

    @pytest.mark.parametrize("box", BOXES)
    def test_sampling_matches_scipy_nearest(self, monkeypatch, rng, box):
        from scipy.ndimage import map_coordinates
        probs = rng.random((5, 7))
        bilinear, seen = pl.ops._bilinear, []

        def spy(*args):
            seen.append(bilinear(*args))
            return seen[-1]

        monkeypatch.setattr(pl.ops, "_bilinear", spy)
        b = pl.RoiBox(*box)
        out = pl.paste_mask(probs, b, (24, 32))
        x_lo, x_hi = max(0, int(np.ceil(b.x0 - 0.5))), min(32, int(np.ceil(b.x1 - 0.5)))
        y_lo, y_hi = max(0, int(np.ceil(b.y0 - 0.5))), min(24, int(np.ceil(b.y1 - 0.5)))
        u = (np.arange(x_lo, x_hi) + 0.5 - b.x0) / b.w * 7 - 0.5
        v = (np.arange(y_lo, y_hi) + 0.5 - b.y0) / b.h * 5 - 0.5
        vv, uu = np.meshgrid(v, u, indexing="ij")
        want = map_coordinates(probs, [vv, uu], order=1, mode="nearest")
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0][:, :, 0], want, rtol=0, atol=1e-12)
        expected = np.zeros((24, 32), dtype=bool)
        expected[y_lo:y_hi, x_lo:x_hi] = seen[0][:, :, 0] >= 0.5
        np.testing.assert_array_equal(out, expected)


class TestSegScore:
    def test_perfect(self):
        assert pl.seg_score(1.0, np.ones((4, 4))) == 1.0

    def test_weighted_mean(self):
        probs = np.array([[0.6, 1.0], [0.1, 0.2]])
        assert pl.seg_score(0.8, probs) == pytest.approx(0.64, abs=1e-12)

    def test_empty_foreground(self):
        assert pl.seg_score(0.9, np.full((3, 3), 0.2)) == 0.0


class TestPanopticPostprocess:
    def canvas_det(self, rows, cls=1, cls_score=0.9, mask_score=0.9, size=(20, 20)):
        mask = np.zeros(size, dtype=bool)
        mask[rows] = True
        return pl.PanopticDet(mask=mask, class_id=cls, cls_score=cls_score,
                              mask_score=mask_score)

    def test_single_high_score_survives(self):
        det = self.canvas_det(slice(0, 10))
        segs = pl.panoptic_postprocess([det])
        assert len(segs) == 1
        np.testing.assert_array_equal(segs[0].mask, det.mask)

    def test_low_cls_score_dropped(self):
        det = self.canvas_det(slice(0, 10), cls_score=0.2)
        assert pl.panoptic_postprocess([det]) == []

    def test_duplicate_removed_by_mask_nms(self):
        a = self.canvas_det(slice(0, 10), cls_score=0.9)
        b = self.canvas_det(slice(0, 10), cls_score=0.8, cls=2)
        segs = pl.panoptic_postprocess([a, b])
        assert len(segs) == 1 and segs[0].class_id == 1

    def test_tiny_segment_dropped(self):
        det = pl.PanopticDet(mask=np.pad(np.ones((10, 10), dtype=bool), ((0, 10), (0, 10))),
                             class_id=1, cls_score=0.9, mask_score=0.9)
        assert pl.panoptic_postprocess([det]) == []  # 100 px < 150

    def test_pixel_floor_leaves_unlabeled(self):
        det = self.canvas_det(slice(0, 20), cls_score=0.5, mask_score=0.5)
        assert pl.panoptic_postprocess([det]) == []  # 0.25 < 0.35 everywhere

    def test_resemblance_drop(self):
        # the loser of a big overlap keeps too little of its original mask
        a = self.canvas_det(slice(0, 14), cls_score=0.9)
        b = self.canvas_det(slice(0, 20), cls_score=0.8, cls=2)
        segs = pl.panoptic_postprocess([a, b], pl.PanopticParams(mask_nms_thresh=0.95))
        assert [s.class_id for s in segs] == [1]

    def test_stuff_merge_and_disjointness(self):
        left = np.zeros((20, 20), dtype=bool)
        left[:, :8] = True
        right = np.zeros((20, 20), dtype=bool)
        right[:, 12:] = True
        a = pl.PanopticDet(mask=left, class_id=7, cls_score=0.9, mask_score=0.9)
        b = pl.PanopticDet(mask=right, class_id=7, cls_score=0.8, mask_score=0.9)
        segs = pl.panoptic_postprocess([a, b], pl.PanopticParams(stuff_classes=frozenset({7})))
        assert len(segs) == 1
        assert segs[0].mask.sum() == left.sum() + right.sum()

    def test_output_pixel_disjoint(self, rng):
        dets = []
        for i in range(6):
            mask = np.zeros((24, 24), dtype=bool)
            y, x = rng.integers(0, 6), rng.integers(0, 6)
            mask[y:y + 16, x:x + 16] = True
            dets.append(pl.PanopticDet(mask=mask, class_id=int(rng.integers(1, 4)),
                                       cls_score=float(rng.uniform(0.4, 1.0)),
                                       mask_score=float(rng.uniform(0.6, 1.0))))
        segs = pl.panoptic_postprocess(dets, pl.PanopticParams(min_pixels=10))
        total = np.zeros((24, 24), dtype=np.int64)
        for s in segs:
            total += s.mask
        assert np.all(total <= 1)


class TestRefinementEngine:
    def test_structural_grid_progression(self):
        cfg = small_config()
        res = pl.run_refinement([disk_roi()], cfg)
        sides = [m[0].shape for m in res.stage_masks]
        assert sides == [(14, 14), (28, 28), (56, 56), (112, 112)]
        assert res.per_roi[0].probs.shape == (112, 112)

    def test_full_active_sparse_equals_dense(self):
        cfg = small_config(mode="weights", top_n_active=None)
        roi = disk_roi()
        sparse = pl.run_refinement([roi], cfg, sparse=True)
        dense = pl.run_refinement([roi], cfg, sparse=False)
        for s in range(cfg.stages + 1):
            a, b = sparse.stage_masks[s][0], dense.stage_masks[s][0]
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)
            # every probability sits within ~1e-7 of 0.5, under the tolerance
            # above, so a misplaced cell shows only in the deviations
            np.testing.assert_allclose(a - 0.5, b - 0.5, rtol=1e-6, atol=1e-15)
        assert stage_macs(sparse.ledger) == stage_macs(dense.ledger)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_dense_route_bookkeeping(self, threads):
        rois = [disk_roi(seed=70 + i) for i in range(3)]
        cfg = small_config(threads=threads)  # the dense route ignores the budget
        res = pl.run_refinement(rois, cfg, sparse=False)
        assert active_fractions(res) == {s: 1.0 for s in range(1, cfg.stages + 1)}
        for e in res.ledger.entries:
            assert e.macs == e.dense_macs and e.active_cells == e.total_cells

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_stage_plan_drives_every_stage(self, stages):
        rois = [disk_roi(seed=80 + i) for i in range(2)]
        cfg = small_config(stages=stages, mode="weights", top_n_active=None)
        plan = cfg.stage_configs()
        assert [(st.s, st.h, st.w, st.f) for st in plan] == [
            (0, 14, 14, 16), (1, 28, 28, 8), (2, 56, 56, 4), (3, 112, 112, 2)][:stages + 1]
        assert cfg.final_side == plan[-1].h
        sparse = pl.run_refinement(rois, cfg, sparse=True)
        dense = pl.run_refinement(rois, cfg, sparse=False)
        assert len(sparse.stage_masks) == len(dense.stage_masks) == len(plan)
        for st, sparse_masks, dense_masks in zip(plan, sparse.stage_masks, dense.stage_masks):
            for a, b in zip(sparse_masks, dense_masks):
                assert a.shape == b.shape == st.hw
                np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)
                # seeded weights keep every probability within ~1e-7 of 0.5, under
                # the tolerance above, so a misplaced cell shows only in the deviations
                np.testing.assert_allclose(a - 0.5, b - 0.5, rtol=1e-6, atol=1e-15)
        for e in dense.ledger.entries:
            assert e.macs == e.dense_macs and e.active_cells == e.total_cells
        assert ({e.stage: e.total_cells for e in dense.ledger.entries}
                == {st.s: 2 * st.h * st.w for st in plan})
        stages = pl.PipelineWeights(None, cfg).stages
        halve = {s: stage["halve"][0][0] for s, stage in enumerate(stages) if "halve" in stage}
        assert sorted(halve) == [st.s for st in plan[1:]]
        for prev, cur in zip(plan, plan[1:]):
            assert halve[cur.s].weights.shape == (cur.f, prev.f)

    def test_full_active_ledger_matches_analytic(self):
        cfg = small_config(mode="weights", top_n_active=None)
        res = pl.run_refinement([disk_roi()], cfg, sparse=True)
        assert stage_macs(res.ledger) == stage_macs(res.ledger, "dense_macs")

    def test_constant_block_mask_final_equals_upsample(self):
        # reference constant per 14x14 cell: stage 0 is already exact
        blocks = (np.arange(14 * 14).reshape(14, 14) % 3) == 0
        ref = np.repeat(np.repeat(blocks, 8, 0), 8, 1)
        box = pl.RoiBox(10, 10, 122, 122)
        cfg = small_config()
        res = pl.run_refinement([pl.RoiInput(box=box, ref_mask=ref)], cfg)
        final = res.per_roi[0].probs >= 0.5
        np.testing.assert_array_equal(final, ref)
        stage0 = res.stage_masks[0][0] >= 0.5
        np.testing.assert_array_equal(stage0, blocks)

    def test_oracle_boundary_improvement_on_disk(self):
        roi = disk_roi(seed=21)
        res = pl.run_refinement([roi], small_config())
        refined = res.per_roi[0].probs >= 0.5
        coarse = np.repeat(np.repeat(res.stage_masks[0][0] >= 0.5, 8, 0), 8, 1)
        assert boundary_iou(refined, roi.ref_mask) > boundary_iou(coarse, roi.ref_mask)

    @pytest.mark.parametrize("top_n", [-1, -5])
    def test_negative_budget_rejected(self, top_n):
        with pytest.raises(ContractError, match="top_n_active"):
            small_config(top_n_active=top_n)
        small_config(top_n_active=0)
        small_config(top_n_active=None)

    def test_zero_budget_is_pure_upsampling(self):
        roi = disk_roi(seed=5)
        res = pl.run_refinement([roi], small_config(top_n_active=0))
        upsampled = np.repeat(np.repeat(res.stage_masks[0][0], 8, 0), 8, 1)
        np.testing.assert_allclose(res.per_roi[0].probs, upsampled, atol=1e-12)

    def test_thread_count_invariance(self):
        rois = [disk_roi(seed=s) for s in (31, 32, 33)]
        res1 = pl.run_refinement(rois, small_config(threads=1, top_n_active=500))
        res4 = pl.run_refinement(rois, small_config(threads=4, top_n_active=500))
        for a, b in zip(res1.per_roi, res4.per_roi):
            np.testing.assert_array_equal(a.probs, b.probs)
            assert a.score == b.score
        assert res1.ledger == res4.ledger

    def test_oracle_targets_use_each_rois_own_mask(self):
        rois = []
        for seed in (61, 62, 63):
            _, box, shape = gen_synthetic(SyntheticShapeSpec(shape="blob", canvas_h=160,
                                                             canvas_w=160, seed=seed))
            rois.append(pl.RoiInput(box=box, ref_mask=reference_mask(shape, box, 112)))
        got = pl.run_refinement(rois, small_config(top_n_active=400))
        for roi, probs in zip(rois, got.stage_masks[0]):
            np.testing.assert_array_equal(probs >= 0.5, pl.make_targets(roi.ref_mask, (14, 14))[0])

    def test_oracle_targets_come_from_make_targets(self, monkeypatch):
        """The engine's one target rule is ``make_targets``, called once per
        (RoI, stage), in that order, on the RoI's own mask."""
        rois = [disk_roi(seed=s) for s in (71, 72)]
        calls = []
        make_targets = pl.make_targets

        def spy(gt_mask, grid_hw):
            calls.append((next(i for i, r in enumerate(rois) if r.ref_mask is gt_mask), grid_hw))
            return make_targets(gt_mask, grid_hw)

        monkeypatch.setattr(pl, "make_targets", spy)
        pl.run_refinement(rois, small_config(top_n_active=400))
        assert calls == [(i, (side, side)) for i in range(2) for side in (14, 28, 56, 112)]

    def test_budget_binds_and_fractions_decay(self):
        rois = [disk_roi(seed=40 + i) for i in range(4)]
        cfg = small_config(top_n_active=500)
        f = active_fractions(pl.run_refinement(rois, cfg))
        assert f[3] < f[2] < f[1] <= 1.0

    def test_sparse_macs_below_dense_when_budget_binds(self):
        rois = [disk_roi(seed=50 + i) for i in range(3)]
        cfg = small_config(top_n_active=300)
        res = pl.run_refinement(rois, cfg)
        dense_stage = stage_macs(res.ledger, "dense_macs")
        for s, macs in stage_macs(res.ledger).items():
            if s >= 2:  # budget binds from stage 2 here
                assert macs < dense_stage[s]

    def test_oracle_requires_reference(self):
        with pytest.raises(ContractError):
            pl.run_refinement([pl.RoiInput(box=pl.RoiBox(0, 0, 50, 50))], small_config())

    def test_oracle_mode_deterministic(self):
        roi = disk_roi(seed=61)
        a = pl.run_refinement([roi], small_config(seed=9))
        b = pl.run_refinement([roi], small_config(seed=9))
        np.testing.assert_array_equal(a.per_roi[0].probs, b.per_roi[0].probs)

    def test_oracle_selection_reads_no_feature(self):
        """In oracle mode the reference masks alone choose the cells: feature
        widths and the seed of the weights, queries and neck change the MACs,
        never a probability or which cells a stage runs."""
        rois = []
        for seed in (120, 121, 122, 123):
            _, box, shape = gen_synthetic(SyntheticShapeSpec(shape="blob", canvas_h=224,
                                                             canvas_w=224, seed=seed))
            rois.append(pl.RoiInput(box=box, ref_mask=reference_mask(shape, box, 112)))
        runs = [pl.run_refinement(rois, small_config(f0=f0, f_neck=f_neck, f_query=f_query,
                                                     seed=seed, top_n_active=700,
                                                     image_hw=(224, 224)))
                for f0, f_neck, f_query, seed in ((16, 8, 8, 0), (32, 16, 64, 7), (64, 8, 32, 3))]
        first = runs[0]
        cells = [(e.op, e.stage, e.active_cells, e.total_cells) for e in first.ledger.entries]
        assert all(a < t for _, s, a, t in cells if s >= 1)  # the budget binds at stages 1-3
        for run in runs[1:]:
            for a, b in zip(first.per_roi, run.per_roi):
                np.testing.assert_array_equal(a.probs, b.probs)
            assert [(e.op, e.stage, e.active_cells, e.total_cells)
                    for e in run.ledger.entries] == cells
            assert run.ledger.total_macs() != first.ledger.total_macs()

    def test_weights_mode_runs_without_bundle(self):
        roi = pl.RoiInput(box=pl.RoiBox(8, 8, 100, 100))
        res = pl.run_refinement([roi], small_config(mode="weights", top_n_active=200))
        assert res.per_roi[0].probs.shape == (112, 112)
        assert res.ledger.total_macs() > 0


# The ledger as formulas over the config's widths: a reference that states each
# width apart from ``PipelineWeights``, whose layers the pipeline's ledger counts.
# Each formula entry is (op, stage, macs, active cells, total cells).
def formula_stage0_entries(out: list, cells: int, cfg: pl.RunConfig):
    f0, fq, fe = cfg.f0, cfg.f_query, cfg.f_neck
    out += [
        ("neck_sample", 0, macs_bilinear(cells, fe), cells, cells),
        ("ingest", 0, macs_conv(cells, 1, fe, f0), cells, cells),
        ("query_fuse", 0,
         macs_conv(cells, 1, f0 + fq, f0) + macs_conv(cells, 1, f0, f0), cells, cells),
        ("fcn", 0, 4 * macs_conv(cells, 3, f0, f0), cells, cells),
        ("seg_head", 0, macs_conv(cells, 1, f0, f0) + macs_conv(cells, 1, f0, 1), cells, cells),
        ("refine_head", 0,
         macs_conv(cells, 1, f0, f0) + macs_conv(cells, 1, f0, 1), cells, cells),
    ]


def formula_stage_entries(out: list, prev: pl.StageConfig, cur: pl.StageConfig,
                          parents: int, halve_rows: int, total: int, cfg: pl.RunConfig):
    s, f_in, f_out, fe = cur.s, prev.f, cur.f, cfg.f_neck
    children = 4 * parents
    out += [
        ("subdivide", s, 8 * macs_conv(parents, 1, f_in, f_in), children, total),
        ("neck_sample", s, macs_bilinear(children, fe), children, total),
        ("neck_fuse", s,
         macs_conv(children, 1, f_in + fe, f_in) + macs_conv(children, 1, f_in, f_in),
         children, total),
        ("halve", s, macs_conv(halve_rows, 1, f_in, f_out), children, total),
        ("sfm", s, 3 * macs_conv(children, 3, f_out, f_out), children, total),
    ]
    for head in ("seg_head", "refine_head"):
        out.append((head, s,
                    macs_conv(children, 1, f_out, f_out) + macs_conv(children, 1, f_out, 1),
                    children, total))


def formula_dense_entries(config: pl.RunConfig, n_rois: int) -> list:
    out: list = []
    plan = config.stage_configs()
    cells = [n_rois * st.h * st.w for st in plan]
    formula_stage0_entries(out, cells[0], config)
    for prev, cur in zip(plan, plan[1:]):
        formula_stage_entries(out, prev, cur, cells[prev.s], cells[cur.s], cells[cur.s], config)
    return out


def entries(ledger: CostLedger, every_cell: bool = False) -> list:
    """The ledger's (op, stage, macs, active cells, total cells), as run or,
    with ``every_cell``, from its ``dense_macs`` column."""
    if every_cell:
        return [(e.op, e.stage, e.dense_macs, e.total_cells, e.total_cells)
                for e in ledger.entries]
    return [(e.op, e.stage, e.macs, e.active_cells, e.total_cells) for e in ledger.entries]


class TestLedgerCountsLayers:
    """The ledger counts the MACs of the layers each op runs; the widths it
    reads are those of the run's weights, and they must agree with the
    formulas over the run's config."""

    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("f0,f_query,f_neck", [(16, 8, 8), (32, 64, 16), (64, 256, 256)])
    def test_equals_the_formulas(self, monkeypatch, stages, f0, f_query, f_neck):
        rois = [disk_roi(seed=90 + i) for i in range(2)]
        cfg = small_config(stages=stages, f0=f0, f_query=f_query, f_neck=f_neck,
                           top_n_active=300)
        halved = []  # rows each sparse halving holds, per RoI and stage in run order
        halve_features = ops.halve_features
        monkeypatch.setattr(ops, "halve_features", lambda t, transform: halved.append(
            t.n_active + t.n_passive) or halve_features(t, transform))
        sparse = pl.run_refinement(rois, cfg)
        dense = pl.run_refinement(rois, cfg, sparse=False)
        want = formula_dense_entries(cfg, len(rois))
        for got in (entries(sparse.ledger, every_cell=True), entries(dense.ledger, every_cell=True),
                    entries(dense.ledger)):
            assert got == want

        # the budgeted ledger: parents are the selected cells, halving runs on every row
        plan = cfg.stage_configs()
        ref: list = []
        formula_stage0_entries(ref, len(rois) * plan[0].h * plan[0].w, cfg)
        for prev, cur in zip(plan, plan[1:]):
            children = next(e.active_cells for e in sparse.ledger.entries
                            if e.stage == cur.s and e.op == "subdivide")
            rows = sum(halved[(cur.s - 1) * len(rois):cur.s * len(rois)])
            formula_stage_entries(ref, prev, cur, children // 4, rows,
                                  len(rois) * cur.h * cur.w, cfg)
        assert entries(sparse.ledger) == ref
        assert sparse.ledger.total_macs() < dense.ledger.total_macs()

    def test_counts_the_weights_it_is_given(self):
        rois = [disk_roi(seed=95)]
        cfg = small_config(mode="weights")
        weights = pl.PipelineWeights(None, cfg)
        del weights.stages[2]["neck_fuse"][0][-1]  # a run with one fusion layer fewer at stage 2
        got = {(e.op, e.stage): e.dense_macs
               for e in pl.run_refinement(rois, cfg, weights=weights).ledger.entries}
        want = {(op, s): macs for op, s, macs, _, _ in formula_dense_entries(cfg, len(rois))}
        plan = cfg.stage_configs()
        dropped = {("neck_fuse", 2): plan[2].h * plan[2].w * plan[1].f * plan[1].f}
        assert got == {k: v - dropped.get(k, 0) for k, v in want.items()}


class TestWorkers:
    """``--threads`` never starts more workers than there are RoIs or CPUs."""

    @pytest.mark.parametrize("threads,cpus,pools", [
        (1, 8, []), (2, 8, [2]), (1 << 20, 8, [3]), (1 << 20, 2, [2]), (1 << 20, None, [])])
    def test_bounded_by_rois_and_cpus(self, monkeypatch, threads, cpus, pools):
        rois = [disk_roi(seed=s) for s in (31, 32, 33)]
        want = pl.run_refinement(rois, small_config(top_n_active=500))
        started = []

        class Recorder:  # runs the map serially: no thread is started
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(pl, "ThreadPoolExecutor", Recorder)
        if cpus is None:  # no affinity mask and an unknown CPU count: one worker
            monkeypatch.delattr(pl.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(pl.os, "cpu_count", lambda: None)
        else:  # the CPUs the process may use bound the workers, not the 64 installed
            monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(pl.os, "cpu_count", lambda: 64)
        got = pl.run_refinement(rois, small_config(threads=threads, top_n_active=500))
        assert started == pools * (1 + small_config().stages)  # one pool per stage pass
        for a, b in zip(want.per_roi, got.per_roi):
            np.testing.assert_array_equal(a.probs, b.probs)
        assert got.ledger == want.ledger


class TestNeckFeatures:
    def test_levels_are_the_seeded_draw_channel_last(self):
        # level 2 of a 448 x 448 image draws 20 channels a chunk, which does not
        # divide F = 30; level 2 of a 2100 x 2048 image has more cells than a chunk
        assert 30 % (ops.CHUNK_VALUES // (112 * 112)) != 0
        assert 525 * 512 > ops.CHUNK_VALUES
        for seed, (ih, iw), f in ((5, (150, 97), 12), (1, (448, 448), 30), (2, (2100, 2048), 2)):
            neck = pl.NeckFeatures.synthesize(seed, (ih, iw), f)
            assert sorted(neck.levels) == [2, 3, 4, 5]
            for level, grid in neck.levels.items():
                stride = 2**level
                gh, gw = -(-ih // stride), -(-iw // stride)
                draw = pl.seeded_rng(seed, "neck", level).standard_normal((f, gh, gw))
                assert grid.shape == (gh, gw, f) and grid.flags.c_contiguous
                np.testing.assert_array_equal(grid, draw.transpose(1, 2, 0))

    def test_draw_holds_the_neck_plus_one_chunk(self):
        # a level-2 draw held whole beside the level (6.4 MB here) breaks the bound
        neck, peak = traced_peak(pl.NeckFeatures.synthesize, 3, (448, 448), 64)
        neck_bytes = sum(grid.nbytes for grid in neck.levels.values())
        assert peak <= neck_bytes + 8 * ops.CHUNK_VALUES

    def test_sample_at_cell_centers_reads_cells(self):
        neck = pl.NeckFeatures.synthesize(2, (64, 48), 5)
        grid = neck.levels[3]
        ys, xs = np.array([4.0, 12.0, 60.0]), np.array([4.0, 44.0, 20.0])
        got = neck.sample(3, ys, xs)
        np.testing.assert_array_equal(got, grid[(ys // 8).astype(int), (xs // 8).astype(int)])


class TestFusionMemory:
    def test_stage3_holds_one_fusion_block(self):
        # every stage-2 parent selected: 12,544 children, whose neck rows are
        # sampled into the [n, F + F_neck] fusion input, not held beside it
        cfg = pl.RunConfig(mode="weights", f0=64, f_query=256, f_neck=256, image_hw=(448, 448))
        engine = pl._Engine([pl.RoiInput(box=pl.RoiBox(40, 40, 400, 400))], cfg, None, None)
        t = engine.sparse_stage0(0)[0]
        for s in (1, 2):
            t = engine.sparse_stage(0, s, t, pl._all_cells(engine.plan[s - 1].hw))[0]
        (t, *_), peak = traced_peak(engine.sparse_stage, 0, 3, t,
                                    pl._all_cells(engine.plan[2].hw))
        n = t.n_active
        assert n == 12544
        block, neck_rows = 8 * n * (engine.plan[2].f + cfg.f_neck), 8 * n * cfg.f_neck
        assert peak < block + neck_rows // 2


class TestDenseFusionMemory:
    def test_stage3_holds_no_neck_grid(self):
        # the same RoI on the dense route: its stage-3 fusion reads the neck a
        # band of grid rows at a time. Measured: 10.3 MiB, set by the sfm im2col
        # block; holding the [h*w, F_e] neck grid (24.5 MiB) made it 29.4 MiB
        cfg = pl.RunConfig(mode="weights", f0=64, f_query=256, f_neck=256, image_hw=(448, 448))
        engine = pl._Engine([pl.RoiInput(box=pl.RoiBox(40, 40, 400, 400))], cfg, None, None)
        x = engine.dense_stage0(0)[0]
        for s in (1, 2):
            x = engine.dense_stage(0, s, x, None)[0]
        _, peak = traced_peak(engine.dense_stage, 0, 3, x, None)
        h, w = engine.plan[3].hw
        assert peak < 8 * h * w * cfg.f_neck // 2


class TestOneStageStep:
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_a_roi_drops_its_previous_features_once_its_step_returns(self, monkeypatch, sparse):
        # when RoI i's stage-s step starts, RoI i-1's step has replaced its
        # stage-(s-1) features, so nothing holds them any more
        name = "sparse_stage" if sparse else "dense_stage"
        body = getattr(pl._Engine, name)
        incoming = {}  # (roi, stage) -> weakref to the features its stage body got
        alive = []  # (roi, stage) whose previous RoI's incoming features outlived its step

        def watched(self, i, s, feats, cells):
            if i > 0 and incoming[i - 1, s]() is not None:
                alive.append((i, s))
            incoming[i, s] = weakref.ref(feats)
            return body(self, i, s, feats, cells)

        monkeypatch.setattr(pl._Engine, name, watched)
        rois = [disk_roi(seed=k) for k in (11, 12, 13)]
        pl.run_refinement(rois, small_config(threads=1), sparse=sparse)
        assert sorted(incoming) == [(i, s) for i in range(3) for s in (1, 2, 3)]
        assert alive == []


LEVEL_IMAGE = (480, 480)


def level_rois():
    """Box-only RoIs of a ``LEVEL_IMAGE`` image, of k0 2, 3, 4 and 5."""
    return [pl.RoiInput(box=pl.RoiBox(10, 10, 10 + side, 10 + side))
            for side in (60, 120, 240, 460)]


class TestNeckLevelLifetime:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_a_level_lives_while_a_later_stage_samples_it(self, monkeypatch, sparse, stages,
                                                          threads):
        rois = level_rois()
        k0s = [pl.assign_level(r.box) for r in rois]
        assert k0s == [2, 3, 4, 5]
        synthesize = pl.NeckFeatures.synthesize
        drawn = {}  # level -> weakref to the grid synthesize drew

        def watched_synthesize(*args):
            neck = synthesize(*args)
            drawn.update((level, weakref.ref(grid)) for level, grid in neck.levels.items())
            return neck

        alive = {}  # stage -> the drawn levels alive when its first step started
        lock = threading.Lock()
        route = "sparse_" if sparse else "dense_"
        for name in ("stage0", "stage"):
            def watched(self, i, *rest, body=getattr(pl._Engine, route + name)):
                with lock:
                    alive.setdefault(rest[0] if rest else 0,
                                     {level for level, ref in drawn.items() if ref() is not None})
                return body(self, i, *rest)

            monkeypatch.setattr(pl._Engine, route + name, watched)
        monkeypatch.setattr(pl.NeckFeatures, "synthesize", watched_synthesize)
        cfg = small_config(mode="weights", stages=stages, threads=threads, top_n_active=300,
                           image_hw=LEVEL_IMAGE)
        pl.run_refinement(rois, cfg, sparse=sparse)
        assert sorted(drawn) == [2, 3, 4, 5]
        assert alive == {s: {pl.stage_level(k0, t) for k0 in k0s for t in range(s, stages + 1)}
                         for s in range(stages + 1)}

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="CPython 3.10 keeps a call's arguments referenced by its caller "
                               "until the call returns")
    def test_bench_hands_its_sparse_run_the_neck(self, monkeypatch):
        # bench draws one neck for both routes; its sparse run, the last one,
        # holds the only reference, so it prunes levels as refine does
        synthesize = pl.NeckFeatures.synthesize
        drawn = {}  # level -> weakref to the grid synthesize drew

        def watched_synthesize(*args):
            neck = synthesize(*args)
            drawn.update((level, weakref.ref(grid)) for level, grid in neck.levels.items())
            return neck

        alive, wanted = {}, {}  # stage -> the drawn levels alive at its first step, needed
        for name in ("sparse_stage0", "sparse_stage"):
            def watched(self, i, *rest, body=getattr(pl._Engine, name)):
                s = rest[0] if rest else 0
                alive.setdefault(s, {level for level, ref in drawn.items() if ref() is not None})
                wanted[s] = {pl.stage_level(k0, t) for k0 in self.k0
                             for t in range(s, len(self.plan))}
                return body(self, i, *rest)

            monkeypatch.setattr(pl._Engine, name, watched)
        monkeypatch.setattr(pl.NeckFeatures, "synthesize", watched_synthesize)
        assert main(["bench", "--count", "4", "--canvas", "480", "--f0", "16", "--f-neck", "8",
                     "--f-query", "8", "--top-n", "300"]) == 0
        assert sorted(drawn) == [2, 3, 4, 5] and sorted(alive) == [0, 1, 2, 3]
        assert alive == wanted
        assert wanted[0] != {2, 3, 4, 5}  # some level is dropped
        assert all(ref() is None for ref in drawn.values())  # gone once bench returns

    def test_a_given_neck_keeps_its_levels(self):
        cfg = small_config(mode="weights", top_n_active=300, image_hw=LEVEL_IMAGE)
        neck = pl.NeckFeatures.synthesize(cfg.seed, cfg.image_hw, cfg.f_neck)
        held = dict(neck.levels)
        values = {level: grid.copy() for level, grid in held.items()}
        for sparse in (True, False):
            pl.run_refinement(level_rois(), cfg, neck=neck, sparse=sparse)
        assert sorted(neck.levels) == [2, 3, 4, 5]
        for level, grid in neck.levels.items():
            assert grid is held[level]
            np.testing.assert_array_equal(grid, values[level])

    def test_stage3_peak_holds_level2_and_one_fusion_block(self):
        # the TestFusionMemory RoI (k0 4) samples level 2 from stage 2 on, so
        # levels 3-5 (8.0 MiB) are gone when its 26 MiB stage-3 fusion block is
        # allocated; holding them breaks the bound
        import scipy.sparse  # noqa: F401  (a first import would count about 10 MiB here)
        cfg = pl.RunConfig(mode="weights", f0=64, f_query=256, f_neck=256, image_hw=(448, 448))
        weights = pl.PipelineWeights(None, cfg)
        roi = pl.RoiInput(box=pl.RoiBox(40, 40, 400, 400))
        result, peak = traced_peak(pl.run_refinement, [roi], cfg, weights)
        n = 4 * 56 * 56
        assert [(e.active_cells, e.total_cells) for e in result.ledger.entries
                if e.stage == 3 and e.op == "neck_fuse"] == [(n, n)]  # every parent selected
        level_bytes = {level: 8 * gh * gw * cfg.f_neck
                       for level, (gh, gw) in pl.neck_grids(cfg.image_hw, cfg.f_neck).items()}
        block = 8 * n * (cfg.stage_configs()[2].f + cfg.f_neck)
        # one sampling chunk, and the RoI's tensors, coordinates and chain
        # outputs (5.5 MiB together, measured)
        slack = 8 * ops.CHUNK_VALUES + (4 << 20)
        assert slack < level_bytes[3] + level_bytes[4] + level_bytes[5]
        assert peak < level_bytes[2] + block + slack


class TestGivenNeckMatchesSynthesized:
    """A run given the neck it would synthesize gives the same masks and
    ledger, so dropping levels never drops one a later stage reads."""

    # box sides of k0 2, 3, 4 and 5 on a LEVEL_IMAGE image
    sides = st.one_of(st.integers(20, 111), st.integers(112, 223), st.integers(224, 447),
                      st.integers(448, 460))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(sides, st.integers(0, 19), st.integers(0, 19)),
                    min_size=1, max_size=4),
           st.integers(1, 3), st.sampled_from([None, 0, 40, 300, 100000]), st.booleans(),
           st.integers(0, 3))
    def test_same_probs_and_ledger(self, boxes, stages, top_n, sparse, seed):
        rois = [pl.RoiInput(box=pl.RoiBox(x, y, x + side, y + side)) for side, x, y in boxes]
        cfg = small_config(mode="weights", stages=stages, top_n_active=top_n, seed=seed,
                           image_hw=LEVEL_IMAGE)
        neck = pl.NeckFeatures.synthesize(seed, cfg.image_hw, cfg.f_neck)
        want = pl.run_refinement(rois, cfg, sparse=sparse)
        got = pl.run_refinement(rois, cfg, neck=neck, sparse=sparse)
        for a, b in zip(want.per_roi, got.per_roi):
            assert a.probs.tobytes() == b.probs.tobytes()
        assert got.ledger == want.ledger


class TestGivenWeightsAndNeck:
    """``run_refinement`` refuses, on both routes, weights or a neck that do not
    fit the run's config."""

    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    @pytest.mark.parametrize("run,built", [
        ({}, {"f0": 32}),
        ({}, {"stages": 1}),
        ({"stages": 2}, {"stages": 3}),
        ({}, {"f_query": 16}),
        ({}, {"f_neck": 16}),
    ], ids=["f0", "fewer-stages", "more-stages", "f_query", "f_neck"])
    def test_weights_built_for_another_config(self, sparse, run, built):
        cfg = small_config(mode="weights", top_n_active=300, **run)
        weights = pl.PipelineWeights(None, dataclasses.replace(cfg, **built))
        with pytest.raises(ContractError):
            pl.run_refinement([disk_roi(seed=12)], cfg, weights=weights, sparse=sparse)

    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_chain_with_a_broken_link(self, sparse):
        cfg = small_config(mode="weights", top_n_active=300)
        weights = pl.PipelineWeights(None, cfg)
        f = cfg.stage_configs()[1].f
        weights.stages[2]["neck_fuse"][0][-1] = ops.LinearTransform(np.zeros((f, f + 1)),
                                                                   np.zeros(f))
        with pytest.raises(ContractError):
            pl.run_refinement([disk_roi(seed=12)], cfg, weights=weights, sparse=sparse)

    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_neck_of_another_width_or_missing_a_level(self, sparse):
        cfg = small_config(mode="weights", top_n_active=300)
        wide = pl.NeckFeatures.synthesize(0, cfg.image_hw, 16)
        short = pl.NeckFeatures.synthesize(0, cfg.image_hw, cfg.f_neck)
        del short.levels[5]  # the RoI never samples level 5
        for neck in (wide, short):
            with pytest.raises(ContractError):
                pl.run_refinement([disk_roi(seed=12)], cfg, neck=neck, sparse=sparse)


class TestNeckBounds:
    def test_benchmark_canvas_and_test_canvases_pass(self):
        assert pl.neck_grids((448, 448), 256)[2] == (112, 112)
        for side in (160, 320, 1333):
            pl.neck_grids((side, side), 256)

    @pytest.mark.parametrize("image_hw", [(0, 10), (10, 0), (-5, -5)])
    def test_non_positive_image_rejected(self, image_hw):
        with pytest.raises(SchemaError):
            pl.neck_grids(image_hw, 8)
        with pytest.raises(SchemaError):
            small_config(image_hw=image_hw)

    def test_cap_is_on_the_element_count(self):
        # a 1 x W image has one row per level: W/4 + W/8 + W/16 + W/32 cells at W = 32k
        w = 32 * 2**12
        cells = sum(-(-w // 2**level) for level in pl.NECK_LEVELS)
        f = pl.MAX_NECK_ELEMENTS // cells
        pl.neck_grids((1, w), f)
        with pytest.raises(SchemaError):
            pl.neck_grids((1, w), f + 1)
        with pytest.raises(SchemaError):
            pl.NeckFeatures.synthesize(0, (10**7, 10**7), 8)

    @pytest.mark.parametrize("field", ["f0", "f_query", "f_neck"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_feature_sizes_must_be_positive(self, field, value):
        with pytest.raises(ContractError):
            small_config(**{field: value})


def weight_values(node) -> int:
    """Values held by the transforms under one ``PipelineWeights`` attribute."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        return sum(weight_values(n) for n in node)
    return node.weights.size + node.bias.size


class TestWeightBounds:
    def test_cap_is_on_the_element_count(self, monkeypatch):
        cfg = small_config()
        weights = pl.PipelineWeights(None, cfg)
        total = sum(weight_values(v) for v in vars(weights).values())
        drawn = []  # names of the arrays drawn, in order
        seeded_rng = pl.seeded_rng

        class Recorded:
            def __init__(self, *parts):
                self.parts = parts

            def normal(self, *args, **kwargs):
                drawn.append(self.parts[-1])
                return seeded_rng(*self.parts).normal(*args, **kwargs)

        monkeypatch.setattr(pl, "seeded_rng", Recorded)
        monkeypatch.setattr(pl, "MAX_WEIGHT_ELEMENTS", total)
        pl.PipelineWeights(None, cfg)
        every_array = list(drawn)
        drawn.clear()
        monkeypatch.setattr(pl, "MAX_WEIGHT_ELEMENTS", total - 1)
        with pytest.raises(SchemaError, match=every_array[-1]):
            pl.PipelineWeights(None, cfg)
        assert every_array[-1] not in drawn  # the array over the cap is never drawn
        assert drawn == []

    @pytest.mark.parametrize("f0,millions", [(256, 4.4), (512, 17.1), (1024, None)])
    def test_default_widths_and_f0_limit(self, monkeypatch, f0, millions):
        class ZeroDraws:
            def normal(self, loc, scale, size):
                return np.broadcast_to(0.0, size)

        monkeypatch.setattr(pl, "seeded_rng", lambda *parts: ZeroDraws())
        cfg = pl.RunConfig(f0=f0)
        if millions is None:
            with pytest.raises(SchemaError, match="cap"):
                pl.PipelineWeights(None, cfg)
            return
        weights = pl.PipelineWeights(None, cfg)
        assert round(sum(weight_values(v) for v in vars(weights).values()) / 1e6, 1) == millions

    def test_engine_rejects_before_the_neck_is_drawn(self, monkeypatch):
        def no_neck(*args):
            raise AssertionError("the weights must be rejected before the neck is drawn")

        monkeypatch.setattr(pl.NeckFeatures, "synthesize", no_neck)
        with pytest.raises(SchemaError):
            pl.run_refinement([disk_roi()], small_config(mode="weights", f0=1 << 30))
