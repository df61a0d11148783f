"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criteria 2 and 3 share a single 50-blob benchmark run.
"""

import json
import time

import numpy as np
import pytest

from spsr import geometry as geo
from spsr import io, ops, tensor
from spsr import metrics as me
from spsr import pipeline as pl
from spsr.cli import main
from spsr.metrics import boundary_iou, rle_encode
from spsr.synthetic import SyntheticShapeSpec, gen_synthetic, reference_mask

from conftest import grid_bands, random_kernel, random_linear, random_sps, writes

FAST = ["--f0", "16", "--f-neck", "8", "--f-query", "8"]


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


# --- criterion 1: sparse == dense per operator ------------------------------


def _passive_bytes(s):
    return np.ascontiguousarray(s.passive).tobytes()


def _check_active(s_in, s_out, dense_out, rtol=1e-6):
    coords = s_in.active_coords()
    got = tensor.to_dense(s_out)[:, coords[:, 0], coords[:, 1]]
    want = dense_out[:, coords[:, 0], coords[:, 1]]
    np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-9)


def test_criterion_1_sparse_dense_equivalence(rng):
    started = time.perf_counter()
    n_cases = 1000
    for name in ("pointwise", "halve_features", "conv2d", "deform_conv", "sfm",
                 "fuse_external"):
        case_rng = np.random.default_rng([17, hash(name) % 2**32])
        for i in range(n_cases):
            f = int(case_rng.integers(1, 9))
            if name == "halve_features":
                f = 2 * int(case_rng.integers(1, 5))
            d, s = random_sps(case_rng, f=f)
            before = _passive_bytes(s)
            if name == "pointwise":
                t = random_linear(case_rng, f, f,
                                  activation="relu" if i % 2 else "none")
                out = ops.pointwise(s, t)
                ref = ops.dense_pointwise(d, t)
            elif name == "halve_features":
                t = random_linear(case_rng, f, f // 2)
                out = ops.halve_features(s, t)
                ref = ops.dense_pointwise(d, t)
            elif name == "conv2d":
                k = random_kernel(case_rng, f, dilation=(1, 3, 5)[i % 3])
                out = ops.conv2d_sparse(s, k)
                ref = ops.dense_conv2d(d, k)
            elif name == "deform_conv":
                k = random_kernel(case_rng, f)
                off = ops.OffsetField(case_rng.uniform(-2, 2, size=(s.n_active, 9, 2)))
                out = ops.deform_conv_sparse(s, k, off)
                dense_off = np.zeros((s.h, s.w, 9, 2))
                coords = s.active_coords()
                if len(coords):
                    dense_off[coords[:, 0], coords[:, 1]] = off.offsets
                ref = ops.dense_deform_conv(d, k, dense_off)
            elif name == "sfm":
                ks = tuple(random_kernel(case_rng, f, dilation=dd) for dd in (1, 3, 5))
                out = ops.sfm(s, *ks)
                ref = ops.dense_sfm(d, *ks)
            else:
                f_ext = int(case_rng.integers(1, 5))
                ext_grid = case_rng.standard_normal((f_ext, s.h, s.w))
                coords = s.active_coords()
                ext = ext_grid[:, coords[:, 0], coords[:, 1]].T
                chain = [random_linear(case_rng, f + f_ext, f, activation="relu"),
                         random_linear(case_rng, f, f)]
                out = ops.fuse_external(s, writes(ext), chain)
                ref = ops.dense_fuse(d, grid_bands(ext_grid), chain)

            _check_active(s, out, ref)
            if name == "halve_features":
                # feature halving transforms every row by contract; passive
                # rows must match the dense oracle instead of staying frozen
                coords = np.argwhere(s.index_map >= s.n_active)
                if len(coords):
                    got = tensor.to_dense(out)[:, coords[:, 0], coords[:, 1]]
                    np.testing.assert_allclose(
                        got, ref[:, coords[:, 0], coords[:, 1]], rtol=1e-6, atol=1e-9)
            else:
                assert _passive_bytes(out) == before
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    report(1, f"6 x {n_cases} randomized sparse==dense cases in {elapsed:.1f}s")


# --- criteria 2 + 3: benchmark reduction and active-fraction decay ----------


@pytest.fixture(scope="module")
def bench_report(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench") / "report.json")
    code = main(["bench", "--count", "50", "--shape", "blob", "--canvas", "448",
                 "--seed", "0", "--f0", "64", "--out", out])
    assert code == 0
    return json.load(open(out))


def test_criterion_2_flop_reduction(bench_report):
    started = time.perf_counter()
    red = bench_report["reduction_fraction"]
    # published head-only reference: 85.3 G vs 285.6 G, a 70% reduction;
    # the desk-scale target is >= 50%
    assert red >= 0.50, f"reduction {red:.3f} below 0.50"
    assert time.perf_counter() - started < 300
    report(2, f"50-blob MAC reduction {red:.3f} (>= 0.50; large-scale reference 0.70)")


def test_criterion_3_active_fraction_decay(bench_report):
    fr = {s["stage"]: s["active_fraction"] for s in bench_report["stages"]
          if "active_fraction" in s}
    assert fr[3] < fr[2] < fr[1]
    report(3, f"active fractions {fr[1]:.3f} > {fr[2]:.3f} > {fr[3]:.3f}")


# --- criterion 4: oracle refinement improves boundary quality ---------------


def test_criterion_4_boundary_improvement():
    rois = []
    for i in range(40):
        kind = "disk" if i % 2 == 0 else "ellipse"
        spec = SyntheticShapeSpec(shape=kind, canvas_h=320, canvas_w=320, seed=900 + i)
        _, box, shape = gen_synthetic(spec)
        rois.append(pl.RoiInput(box=box, ref_mask=reference_mask(shape, box, 112)))
    cfg = pl.RunConfig(stages=3, top_n_active=10000, seed=4, mode="oracle",
                       f0=16, f_query=8, f_neck=8, image_hw=(320, 320))
    res = pl.run_refinement(rois, cfg)
    improved = 0
    for roi, out, mask0 in zip(rois, res.per_roi, res.stage_masks[0]):
        refined = out.probs >= 0.5
        coarse = np.repeat(np.repeat(mask0 >= 0.5, 8, 0), 8, 1)
        if boundary_iou(refined, roi.ref_mask) > boundary_iou(coarse, roi.ref_mask):
            improved += 1
    assert improved >= 0.95 * len(rois)
    report(4, f"boundary IoU improved on {improved}/{len(rois)} shapes")


# --- criterion 5: AP oracle and ranking properties ---------------------------


def _random_ap_instance(rng):
    n_gts = int(rng.integers(1, 6))
    n_preds = int(rng.integers(1, 10))
    gts, preds = [], []
    for _ in range(n_gts):
        p = rng.uniform(0, 40, 2)
        gts.append(me.EvalEntry(0, 1, box=np.array(
            [p[0], p[1], p[0] + rng.uniform(2, 10), p[1] + rng.uniform(2, 10)])))
    for _ in range(n_preds):
        if rng.random() < 0.6:
            g = gts[int(rng.integers(n_gts))].box
            box = g + rng.uniform(-1.5, 1.5, 4)
            box = np.array([min(box[0], box[2] - 0.5), min(box[1], box[3] - 0.5),
                            box[2], box[3]])
        else:
            p = rng.uniform(0, 40, 2)
            box = np.array([p[0], p[1], p[0] + rng.uniform(2, 10), p[1] + rng.uniform(2, 10)])
        preds.append(me.EvalEntry(0, 1, float(rng.uniform(0.05, 0.99)), box=box))
    return preds, gts


def test_criterion_5_ap_oracle():
    iou_fn = me.geometry_iou_fn("box")
    gts = [me.EvalEntry(0, 1, box=np.array([0, 0, 10, 10.0])),
           me.EvalEntry(0, 1, box=np.array([20, 20, 30, 30.0]))]
    preds = [me.EvalEntry(0, 1, 0.9, box=np.array([0, 0, 10, 10.0])),
             me.EvalEntry(0, 1, 0.8, box=np.array([50, 50, 60, 60.0])),
             me.EvalEntry(0, 1, 0.7, box=np.array([20, 20, 30, 30.0]))]
    ap = me.ap_single(preds, gts, 0.5, iou_fn)
    assert abs(ap - (0.5 + 0.5 * 2 / 3)) <= 1e-9

    rng = np.random.default_rng(55)
    checked_deletions = 0
    for _ in range(200):
        preds, gts = _random_ap_instance(rng)
        base = me.ap_single(preds, gts, 0.5, iou_fn)
        warped = [me.EvalEntry(p.image_id, p.class_id, 0.05 + 0.9 * p.score**3, box=p.box)
                  for p in preds]
        assert me.ap_single(warped, gts, 0.5, iou_fn) == pytest.approx(base, abs=1e-12)
        order, flags = me.match_predictions(preds, gts, 0.5, iou_fn)
        fps = [order[i] for i, f in enumerate(flags) if f == "fp"]
        if fps:
            drop = fps[int(rng.integers(len(fps)))]
            pruned = [p for i, p in enumerate(preds) if i != drop]
            assert me.ap_single(pruned, gts, 0.5, iou_fn) >= base - 1e-12
            checked_deletions += 1
    assert checked_deletions > 50
    report(5, f"hand AP 0.8333 exact; invariance + {checked_deletions} FP deletions")


# --- criterion 6: PQ oracle and identity -------------------------------------


def test_criterion_6_pq_oracle(rng):
    g1 = np.zeros((10, 10), dtype=bool)
    g1[:5] = True
    g2 = np.zeros((10, 10), dtype=bool)
    g2[5:, :5] = True
    p1 = np.zeros((10, 10), dtype=bool)
    p1[:4] = True
    p2 = np.zeros((10, 10), dtype=bool)
    p2[5:, 5:] = True
    rep = me.pq({0: [me.PanopticSegment(1, p1), me.PanopticSegment(1, p2)]},
                {0: [me.PanopticSegment(1, g1), me.PanopticSegment(1, g2)]},
                {1}, set())
    assert rep.pq == pytest.approx(0.4, abs=1e-15)
    assert rep.sq == pytest.approx(0.8, abs=1e-15)
    assert rep.rq == pytest.approx(0.5, abs=1e-15)

    for _ in range(200):
        def segments():
            labels = rng.integers(0, 4, size=(12, 12))
            return [me.PanopticSegment(int(rng.integers(1, 4)), labels == v)
                    for v in range(1, 4) if (labels == v).any()]
        rep = me.pq({0: segments()}, {0: segments()}, {1, 2}, {3})
        for stats in rep.per_class.values():
            assert stats.pq == pytest.approx(stats.sq * stats.rq, abs=1e-12)
    report(6, "toy PQ/SQ/RQ = 0.4/0.8/0.5 exact; PQ == SQ*RQ on 200 instances")


# --- criterion 7: matching and NMS invariants --------------------------------


def test_criterion_7_matching_and_nms(rng):
    anchors = np.array([[0.0, 0.0, 10.0, h] for h in np.linspace(1, 10, 20)])
    gts = np.array([[0, 0, 10, 10], [0, 0, 10, 4.0]])
    first = geo.topk_match(anchors, gts, k=3)
    again = geo.topk_match(anchors, gts, k=3)  # scores are not even an input
    np.testing.assert_array_equal(first.labels, again.labels)

    assert geo.TOPK_STAGE1 == 5 and geo.TOPK_STAGE2 == 15
    one_gt = np.array([[0.0, 0.0, 10.0, 10.0]])
    for k in (geo.TOPK_STAGE1, geo.TOPK_STAGE2):
        match = geo.topk_match(anchors, one_gt, k=k)
        assert len(match.per_gt[0]) == min(k, len(anchors))

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

    for _ in range(1000):
        a = rng.uniform(0, 50, 2)
        anchor = np.array([a[0], a[1], a[0] + rng.uniform(0.5, 20), a[1] + rng.uniform(0.5, 20)])
        g = rng.uniform(0, 50, 2)
        gt = np.array([g[0], g[1], g[0] + rng.uniform(0.5, 20), g[1] + rng.uniform(0.5, 20)])
        back = geo.decode_box(anchor, geo.encode_box(anchor, gt))
        np.testing.assert_allclose(back, gt, rtol=1e-9, atol=1e-9)
    report(7, "static top-k, k presets 5/15, 500 NMS instances, codec round-trip")


# --- criterion 8: byte-identical outputs across thread counts ----------------


def _refine_files(tmp_path, seed, threads, tag):
    rois, masks = [], []
    for i in range(2):
        spec = SyntheticShapeSpec(shape="blob", canvas_h=160, canvas_w=160,
                                  seed=seed * 100 + i)
        _, box, shape = gen_synthetic(spec)
        rois.append({"box": [box.x0, box.y0, box.x1, box.y1], "class": 0, "score": 0.9})
        masks.append(io.rle_to_dict(rle_encode(reference_mask(shape, box, 112))))
    roi_path = str(tmp_path / f"{tag}-rois.json")
    mask_path = str(tmp_path / f"{tag}-refs.json")
    io.dump_json(roi_path, rois)
    io.dump_json(mask_path, {"format": io.MASK_FORMAT, "masks": masks})
    out = tmp_path / f"{tag}-out"
    code = main(["refine", "--mode", "oracle", "--rois", roi_path, "--ref-masks",
                 mask_path, "--out", str(out), "--seed", str(seed),
                 "--top-n", "300", "--threads", str(threads)] + FAST)
    assert code == 0
    return (out / "masks.json").read_bytes(), (out / "ledger.json").read_bytes()


def test_criterion_8_thread_determinism(tmp_path):
    for seed in range(10):
        a = _refine_files(tmp_path, seed, threads=1, tag=f"r{seed}t1")
        b = _refine_files(tmp_path, seed, threads=8, tag=f"r{seed}t8")
        assert a == b
        outs = []
        for threads in (1, 8):
            out = str(tmp_path / f"b{seed}t{threads}.json")
            code = main(["bench", "--count", "2", "--canvas", "160",
                         "--seed", str(seed), "--top-n", "300",
                         "--threads", str(threads), "--out", out] + FAST)
            assert code == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]
    report(8, "refine + bench byte-identical for threads 1 vs 8 on 10 seeds")


# --- criterion 9: structural constants ---------------------------------------


def test_criterion_9_structural_constants():
    cfg = pl.RunConfig()  # defaults: f0=256, stages=3, top_n=10000
    sides = [sc.h for sc in cfg.stage_configs()]
    features = [sc.f for sc in cfg.stage_configs()]
    assert sides == [14, 28, 56, 112]
    assert features == [256, 128, 64, 32]

    spec = SyntheticShapeSpec(shape="disk", canvas_h=320, canvas_w=320, seed=77)
    _, box, shape = gen_synthetic(spec)
    roi = pl.RoiInput(box=box, ref_mask=reference_mask(shape, box, 112))
    res = pl.run_refinement([roi], pl.RunConfig(image_hw=(320, 320)))
    assert [m[0].shape for m in res.stage_masks] == [(14, 14), (28, 28), (56, 56), (112, 112)]
    weights = pl.PipelineWeights(None, pl.RunConfig())
    halve = {s: weights.stages[s]["halve"][0][0] for s in (1, 2, 3)}
    halve_dims = [(halve[s].f_in, halve[s].f_out) for s in (1, 2, 3)]
    assert halve_dims == [(256, 128), (128, 64), (64, 32)]
    report(9, "grids 14->28->56->112 and features 256->128->64->32 by default")
