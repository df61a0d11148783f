import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spsr import ops
from spsr import pipeline as pl
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
    report = compare(result.dense_ledger, result.ledger)
    return {st["stage"]: st["active_fraction"] for st in report["stages"][1:]}


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
        assert sparse.ledger.stage_macs() == dense.ledger.stage_macs()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_dense_route_bookkeeping(self, threads):
        rois = [disk_roi(seed=70 + i) for i in range(3)]
        cfg = small_config(threads=threads)  # the dense route ignores the budget
        res = pl.run_refinement(rois, cfg, sparse=False)
        assert active_fractions(res) == {s: 1.0 for s in range(1, cfg.stages + 1)}
        want = res.dense_ledger.entries
        assert [e.to_dict() for e in res.ledger.entries] == [e.to_dict() for e in want]

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
        want = dense.dense_ledger.entries
        assert [e.to_dict() for e in dense.ledger.entries] == [e.to_dict() for e in want]
        assert {e.stage: e.total_cells for e in want} == {st.s: 2 * st.h * st.w for st in plan}
        stages = pl.PipelineWeights(None, cfg).stages
        halve = {s: stage["halve"][0][0] for s, stage in enumerate(stages) if "halve" in stage}
        assert sorted(halve) == [st.s for st in plan[1:]]
        for prev, cur in zip(plan, plan[1:]):
            assert halve[cur.s].weights.shape == (cur.f, prev.f)

    def test_full_active_ledger_matches_analytic(self):
        cfg = small_config(mode="weights", top_n_active=None)
        res = pl.run_refinement([disk_roi()], cfg, sparse=True)
        analytic = res.dense_ledger
        assert res.ledger.stage_macs() == analytic.stage_macs()

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
        assert res1.ledger.to_dict() == res4.ledger.to_dict()

    def test_oracle_targets_use_each_rois_own_mask(self, monkeypatch):
        rois = []
        for seed in (61, 62, 63):
            _, box, shape = gen_synthetic(SyntheticShapeSpec(shape="blob", canvas_h=160,
                                                             canvas_w=160, seed=seed))
            rois.append(pl.RoiInput(box=box, ref_mask=reference_mask(shape, box, 112)))
        got = pl.run_refinement(rois, small_config(top_n_active=400))
        for roi, probs in zip(rois, got.stage_masks[0]):
            np.testing.assert_array_equal(probs >= 0.5, pl.make_targets(roi.ref_mask, (14, 14))[0])
        # summed-area tables are built once per RoI; a run that rebuilds the
        # table of the mask at hand for every stage must give the same masks
        cell_targets = pl._cell_targets
        monkeypatch.setattr(pl, "_cell_targets", lambda gt, sat, grid_hw:
                            cell_targets(gt, pl._summed_area(gt), grid_hw))
        want = pl.run_refinement(rois, small_config(top_n_active=400))
        for got_masks, want_masks in zip(got.stage_masks, want.stage_masks):
            for g, w in zip(got_masks, want_masks):
                np.testing.assert_array_equal(g, w)

    def test_budget_binds_and_fractions_decay(self):
        rois = [disk_roi(seed=40 + i) for i in range(4)]
        cfg = small_config(top_n_active=500)
        f = active_fractions(pl.run_refinement(rois, cfg))
        assert f[3] < f[2] < f[1] <= 1.0

    def test_sparse_macs_below_dense_when_budget_binds(self):
        rois = [disk_roi(seed=50 + i) for i in range(3)]
        cfg = small_config(top_n_active=300)
        res = pl.run_refinement(rois, cfg)
        dense = res.dense_ledger
        dense_stage = dense.stage_macs()
        for s, macs in res.ledger.stage_macs().items():
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

    def test_weights_mode_runs_without_bundle(self):
        roi = pl.RoiInput(box=pl.RoiBox(8, 8, 100, 100))
        res = pl.run_refinement([roi], small_config(mode="weights", top_n_active=200))
        assert res.per_roi[0].probs.shape == (112, 112)
        assert res.ledger.total_macs() > 0


# The ledger as formulas over the config's widths: a reference that states each
# width apart from ``PipelineWeights``, whose layers the pipeline's ledger counts.
def formula_stage0_entries(ledger: CostLedger, cells: int, cfg: pl.RunConfig):
    f0, fq, fe = cfg.f0, cfg.f_query, cfg.f_neck
    ledger.add("neck_sample", 0, macs_bilinear(cells, fe), cells, cells)
    ledger.add("ingest", 0, macs_conv(cells, 1, fe, f0), cells, cells)
    ledger.add("query_fuse", 0,
               macs_conv(cells, 1, f0 + fq, f0) + macs_conv(cells, 1, f0, f0), cells, cells)
    ledger.add("fcn", 0, 4 * macs_conv(cells, 3, f0, f0), cells, cells)
    ledger.add("seg_head", 0,
               macs_conv(cells, 1, f0, f0) + macs_conv(cells, 1, f0, 1), cells, cells)
    ledger.add("refine_head", 0,
               macs_conv(cells, 1, f0, f0) + macs_conv(cells, 1, f0, 1), cells, cells)


def formula_stage_entries(ledger: CostLedger, prev: pl.StageConfig, cur: pl.StageConfig,
                          parents: int, halve_rows: int, total: int, cfg: pl.RunConfig):
    s, f_in, f_out, fe = cur.s, prev.f, cur.f, cfg.f_neck
    children = 4 * parents
    ledger.add("subdivide", s, 8 * macs_conv(parents, 1, f_in, f_in), children, total)
    ledger.add("neck_sample", s, macs_bilinear(children, fe), children, total)
    ledger.add("neck_fuse", s,
               macs_conv(children, 1, f_in + fe, f_in) + macs_conv(children, 1, f_in, f_in),
               children, total)
    ledger.add("halve", s, macs_conv(halve_rows, 1, f_in, f_out), children, total)
    ledger.add("sfm", s, 3 * macs_conv(children, 3, f_out, f_out), children, total)
    for head in ("seg_head", "refine_head"):
        ledger.add(head, s,
                   macs_conv(children, 1, f_out, f_out) + macs_conv(children, 1, f_out, 1),
                   children, total)


def formula_dense_ledger(config: pl.RunConfig, n_rois: int) -> CostLedger:
    ledger = CostLedger()
    plan = config.stage_configs()
    cells = [n_rois * st.h * st.w for st in plan]
    formula_stage0_entries(ledger, cells[0], config)
    for prev, cur in zip(plan, plan[1:]):
        formula_stage_entries(ledger, prev, cur, cells[prev.s], cells[cur.s], cells[cur.s], config)
    return ledger


def entries(ledger: CostLedger) -> list:
    return [e.to_dict() for e in ledger.entries]


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
        want = entries(formula_dense_ledger(cfg, len(rois)))
        for ledger in (sparse.dense_ledger, dense.dense_ledger, dense.ledger):
            assert entries(ledger) == want

        # the budgeted ledger: parents are the selected cells, halving runs on every row
        plan = cfg.stage_configs()
        ref = CostLedger()
        formula_stage0_entries(ref, len(rois) * plan[0].h * plan[0].w, cfg)
        for prev, cur in zip(plan, plan[1:]):
            children = next(e.active_cells for e in sparse.ledger.entries
                            if e.stage == cur.s and e.op == "subdivide")
            rows = sum(halved[(cur.s - 1) * len(rois):cur.s * len(rois)])
            formula_stage_entries(ref, prev, cur, children // 4, rows,
                                  len(rois) * cur.h * cur.w, cfg)
        assert entries(sparse.ledger) == entries(ref)
        assert sparse.ledger.total_macs() < dense.ledger.total_macs()

    def test_counts_the_weights_it_is_given(self):
        rois = [disk_roi(seed=95)]
        cfg = small_config(mode="weights")
        weights = pl.PipelineWeights(None, cfg)
        del weights.stages[2]["neck_fuse"][0][-1]  # a run with one fusion layer fewer at stage 2
        got = {(e.op, e.stage): e.macs
               for e in pl.run_refinement(rois, cfg, weights=weights).dense_ledger.entries}
        want = {(e.op, e.stage): e.macs for e in formula_dense_ledger(cfg, len(rois)).entries}
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
        assert got.ledger.to_dict() == want.ledger.to_dict()


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
        assert drawn == every_array[:-1]

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
