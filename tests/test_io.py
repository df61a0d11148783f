import re
import struct

import numpy as np
import pytest

from spsr import cli, io
from spsr import pipeline as pl
from spsr.cli import main
from spsr.errors import SchemaError
from spsr.metrics import rle_encode
from spsr.pipeline import PipelineWeights, RunConfig
from spsr.tensor import SpsTensor

from conftest import traced_peak

# The weight bundle of ``RunConfig(f0=16, f_query=8, f_neck=8)``: (name, shape)
# of the arrays of stage 0 and of each refinement stage, in the order the run
# draws the ones a bundle leaves out. A run of k stages reads stages 0..k.
SMALL_BUNDLE = {
    0: [
        ("stage0.ingest.l0.weight", (16, 8)), ("stage0.ingest.l0.bias", (16,)),
        ("stage0.fuse.l0.weight", (16, 24)), ("stage0.fuse.l0.bias", (16,)),
        ("stage0.fuse.l1.weight", (16, 16)), ("stage0.fuse.l1.bias", (16,)),
        ("stage0.fcn.c0.weight", (16, 16, 3, 3)), ("stage0.fcn.c0.bias", (16,)),
        ("stage0.fcn.c1.weight", (16, 16, 3, 3)), ("stage0.fcn.c1.bias", (16,)),
        ("stage0.fcn.c2.weight", (16, 16, 3, 3)), ("stage0.fcn.c2.bias", (16,)),
        ("stage0.fcn.c3.weight", (16, 16, 3, 3)), ("stage0.fcn.c3.bias", (16,)),
        ("stage0.seg.l0.weight", (16, 16)), ("stage0.seg.l0.bias", (16,)),
        ("stage0.seg.l1.weight", (1, 16)), ("stage0.seg.l1.bias", (1,)),
        ("stage0.refine.l0.weight", (16, 16)), ("stage0.refine.l0.bias", (16,)),
        ("stage0.refine.l1.weight", (1, 16)), ("stage0.refine.l1.bias", (1,)),
    ],
    1: [
        ("stage1.subdiv.m0.l0.weight", (16, 16)), ("stage1.subdiv.m0.l0.bias", (16,)),
        ("stage1.subdiv.m0.l1.weight", (16, 16)), ("stage1.subdiv.m0.l1.bias", (16,)),
        ("stage1.subdiv.m1.l0.weight", (16, 16)), ("stage1.subdiv.m1.l0.bias", (16,)),
        ("stage1.subdiv.m1.l1.weight", (16, 16)), ("stage1.subdiv.m1.l1.bias", (16,)),
        ("stage1.subdiv.m2.l0.weight", (16, 16)), ("stage1.subdiv.m2.l0.bias", (16,)),
        ("stage1.subdiv.m2.l1.weight", (16, 16)), ("stage1.subdiv.m2.l1.bias", (16,)),
        ("stage1.subdiv.m3.l0.weight", (16, 16)), ("stage1.subdiv.m3.l0.bias", (16,)),
        ("stage1.subdiv.m3.l1.weight", (16, 16)), ("stage1.subdiv.m3.l1.bias", (16,)),
        ("stage1.fuse.l0.weight", (16, 24)), ("stage1.fuse.l0.bias", (16,)),
        ("stage1.fuse.l1.weight", (16, 16)), ("stage1.fuse.l1.bias", (16,)),
        ("stage1.halve.l0.weight", (8, 16)), ("stage1.halve.l0.bias", (8,)),
        ("stage1.sfm.d1.weight", (8, 8, 3, 3)), ("stage1.sfm.d1.bias", (8,)),
        ("stage1.sfm.d3.weight", (8, 8, 3, 3)), ("stage1.sfm.d3.bias", (8,)),
        ("stage1.sfm.d5.weight", (8, 8, 3, 3)), ("stage1.sfm.d5.bias", (8,)),
        ("stage1.seg.l0.weight", (8, 8)), ("stage1.seg.l0.bias", (8,)),
        ("stage1.seg.l1.weight", (1, 8)), ("stage1.seg.l1.bias", (1,)),
        ("stage1.refine.l0.weight", (8, 8)), ("stage1.refine.l0.bias", (8,)),
        ("stage1.refine.l1.weight", (1, 8)), ("stage1.refine.l1.bias", (1,)),
    ],
    2: [
        ("stage2.subdiv.m0.l0.weight", (8, 8)), ("stage2.subdiv.m0.l0.bias", (8,)),
        ("stage2.subdiv.m0.l1.weight", (8, 8)), ("stage2.subdiv.m0.l1.bias", (8,)),
        ("stage2.subdiv.m1.l0.weight", (8, 8)), ("stage2.subdiv.m1.l0.bias", (8,)),
        ("stage2.subdiv.m1.l1.weight", (8, 8)), ("stage2.subdiv.m1.l1.bias", (8,)),
        ("stage2.subdiv.m2.l0.weight", (8, 8)), ("stage2.subdiv.m2.l0.bias", (8,)),
        ("stage2.subdiv.m2.l1.weight", (8, 8)), ("stage2.subdiv.m2.l1.bias", (8,)),
        ("stage2.subdiv.m3.l0.weight", (8, 8)), ("stage2.subdiv.m3.l0.bias", (8,)),
        ("stage2.subdiv.m3.l1.weight", (8, 8)), ("stage2.subdiv.m3.l1.bias", (8,)),
        ("stage2.fuse.l0.weight", (8, 16)), ("stage2.fuse.l0.bias", (8,)),
        ("stage2.fuse.l1.weight", (8, 8)), ("stage2.fuse.l1.bias", (8,)),
        ("stage2.halve.l0.weight", (4, 8)), ("stage2.halve.l0.bias", (4,)),
        ("stage2.sfm.d1.weight", (4, 4, 3, 3)), ("stage2.sfm.d1.bias", (4,)),
        ("stage2.sfm.d3.weight", (4, 4, 3, 3)), ("stage2.sfm.d3.bias", (4,)),
        ("stage2.sfm.d5.weight", (4, 4, 3, 3)), ("stage2.sfm.d5.bias", (4,)),
        ("stage2.seg.l0.weight", (4, 4)), ("stage2.seg.l0.bias", (4,)),
        ("stage2.seg.l1.weight", (1, 4)), ("stage2.seg.l1.bias", (1,)),
        ("stage2.refine.l0.weight", (4, 4)), ("stage2.refine.l0.bias", (4,)),
        ("stage2.refine.l1.weight", (1, 4)), ("stage2.refine.l1.bias", (1,)),
    ],
    3: [
        ("stage3.subdiv.m0.l0.weight", (4, 4)), ("stage3.subdiv.m0.l0.bias", (4,)),
        ("stage3.subdiv.m0.l1.weight", (4, 4)), ("stage3.subdiv.m0.l1.bias", (4,)),
        ("stage3.subdiv.m1.l0.weight", (4, 4)), ("stage3.subdiv.m1.l0.bias", (4,)),
        ("stage3.subdiv.m1.l1.weight", (4, 4)), ("stage3.subdiv.m1.l1.bias", (4,)),
        ("stage3.subdiv.m2.l0.weight", (4, 4)), ("stage3.subdiv.m2.l0.bias", (4,)),
        ("stage3.subdiv.m2.l1.weight", (4, 4)), ("stage3.subdiv.m2.l1.bias", (4,)),
        ("stage3.subdiv.m3.l0.weight", (4, 4)), ("stage3.subdiv.m3.l0.bias", (4,)),
        ("stage3.subdiv.m3.l1.weight", (4, 4)), ("stage3.subdiv.m3.l1.bias", (4,)),
        ("stage3.fuse.l0.weight", (4, 12)), ("stage3.fuse.l0.bias", (4,)),
        ("stage3.fuse.l1.weight", (4, 4)), ("stage3.fuse.l1.bias", (4,)),
        ("stage3.halve.l0.weight", (2, 4)), ("stage3.halve.l0.bias", (2,)),
        ("stage3.sfm.d1.weight", (2, 2, 3, 3)), ("stage3.sfm.d1.bias", (2,)),
        ("stage3.sfm.d3.weight", (2, 2, 3, 3)), ("stage3.sfm.d3.bias", (2,)),
        ("stage3.sfm.d5.weight", (2, 2, 3, 3)), ("stage3.sfm.d5.bias", (2,)),
        ("stage3.seg.l0.weight", (2, 2)), ("stage3.seg.l0.bias", (2,)),
        ("stage3.seg.l1.weight", (1, 2)), ("stage3.seg.l1.bias", (1,)),
        ("stage3.refine.l0.weight", (2, 2)), ("stage3.refine.l0.bias", (2,)),
        ("stage3.refine.l1.weight", (1, 2)), ("stage3.refine.l1.bias", (1,)),
    ],
}


def small_config(stages: int) -> RunConfig:
    return RunConfig(stages=stages, f0=16, f_query=8, f_neck=8)


def small_bundle(rng, stages: int = 3) -> dict:
    """Random float32-exact arrays for every name of ``SMALL_BUNDLE`` up to ``stages``."""
    return {name: rng.normal(0.0, 0.3, shape).astype(np.float32).astype(np.float64)
            for s in range(stages + 1) for name, shape in SMALL_BUNDLE[s]}


def held_arrays(weights: PipelineWeights) -> list:
    """Weight and bias of every layer the run holds, stage by stage, op by op."""
    return [array for stage in weights.stages for chains in stage.values() for chain in chains
            for layer in chain for array in (layer.weights, layer.bias)]


class TestWeightBundle:
    def test_roundtrip(self, tmp_path, rng):
        arrays = {
            "stage0.fcn.c0.weight": rng.standard_normal((4, 4, 3, 3)).astype(np.float32),
            "stage0.fcn.c0.bias": rng.standard_normal(4).astype(np.float32),
        }
        path = str(tmp_path / "w.bin")
        io.save_weights(path, arrays)
        back = io.load_weights(path)
        assert set(back) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(back[name], arrays[name].astype(np.float64))

    def test_exact_layout(self, tmp_path):
        path = str(tmp_path / "w.bin")
        io.save_weights(path, {"ab": np.array([1.0, 2.0], dtype=np.float32)})
        data = open(path, "rb").read()
        assert data[:2] == struct.pack("<H", 2)
        assert data[2:4] == b"ab"
        assert data[4:5] == struct.pack("<B", 1)
        assert data[5:9] == struct.pack("<I", 2)
        np.testing.assert_array_equal(np.frombuffer(data[9:], dtype="<f4"), [1.0, 2.0])

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(struct.pack("<H", 5) + b"ab")
        with pytest.raises(SchemaError):
            io.load_weights(str(path))

    def test_pipeline_accepts_bundle_and_validates_shapes(self, rng):
        cfg = RunConfig(f0=16, f_query=8, f_neck=8)
        seeded = PipelineWeights(None, cfg)
        bundle = {"stage0.ingest.l0.weight": rng.standard_normal((16, 8))}
        loaded = PipelineWeights(bundle, cfg)
        np.testing.assert_array_equal(loaded.stages[0]["ingest"][0][0].weights,
                                      bundle["stage0.ingest.l0.weight"])
        # untouched arrays fall back to the same seeded initialization
        np.testing.assert_array_equal(loaded.stages[1]["halve"][0][0].weights,
                                      seeded.stages[1]["halve"][0][0].weights)
        with pytest.raises(Exception):
            PipelineWeights({"stage0.ingest.l0.weight": np.zeros((3, 3))}, cfg)


class TestBundleFormat:
    """The names and shapes a bundle must use, and the arrays no layer reads."""

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_names_shapes_and_draw_order(self, monkeypatch, stages):
        drawn = []
        seeded_rng = pl.seeded_rng

        class Recorded:
            def __init__(self, *parts):
                self.parts = parts

            def normal(self, loc, scale, size):
                drawn.append((self.parts[-1], tuple(size)))
                return seeded_rng(*self.parts).normal(loc, scale, size)

        monkeypatch.setattr(pl, "seeded_rng", Recorded)
        weights = PipelineWeights(None, small_config(stages))
        want = [array for s in range(stages + 1) for array in SMALL_BUNDLE[s]]
        assert drawn == want
        assert [a.shape for a in held_arrays(weights)] == [shape for _, shape in want]

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_full_bundle_fills_every_layer(self, tmp_path, rng, stages):
        """A three-stage bundle, through the binary file, serves every stage count."""
        arrays = small_bundle(rng)
        io.save_weights(str(tmp_path / "w.bin"), arrays)
        weights = PipelineWeights(io.load_weights(str(tmp_path / "w.bin")), small_config(stages))
        want = [arrays[name] for s in range(stages + 1) for name, _ in SMALL_BUNDLE[s]]
        held = held_arrays(weights)
        assert len(held) == len(want)
        for got, expected in zip(held, want):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("stray", ["garbage", "stage0.ingest.l0.wieght", "stage0.fcn.c4.weight",
                                       "stage1.halve.l1.weight", "stage4.seg.l0.weight",
                                       "stage0.fcn.c0.l0.weight"])
    def test_array_no_layer_reads_is_refused(self, stray):
        bundle = {"stage0.ingest.l0.weight": np.zeros((16, 8)), stray: np.zeros(3),
                  "zzz": np.zeros(3)}
        for stages in (1, 3):
            with pytest.raises(SchemaError, match=re.escape(f"weight array {stray} ")):
                PipelineWeights(bundle, small_config(stages))


class TestSpsBinary:
    def test_exact_header_layout(self, tmp_path):
        t = SpsTensor(active=[[1.0, 2.0]], passive=[[3.0, 4.0]], index_map=[[0, 1, 1]])
        path = str(tmp_path / "t.bin")
        io.save_sps(path, t)
        data = open(path, "rb").read()
        assert data[:4] == b"SPS1"
        f, h, w, n_a, n_p = struct.unpack_from("<5I", data, 4)
        assert (f, h, w, n_a, n_p) == (2, 1, 3, 1, 1)
        floats = np.frombuffer(data[24:24 + 16], dtype="<f4")
        np.testing.assert_array_equal(floats, [1.0, 2.0, 3.0, 4.0])
        index = np.frombuffer(data[40:], dtype="<u4")
        np.testing.assert_array_equal(index, [0, 1, 1])

    def test_binary_roundtrip(self, tmp_path, rng):
        t = SpsTensor(active=rng.standard_normal((3, 5)).astype(np.float32),
                      passive=rng.standard_normal((2, 5)).astype(np.float32),
                      index_map=[[0, 1, 3], [2, 4, 4]])
        path = str(tmp_path / "t.bin")
        io.save_sps(path, t)
        back = io.load_sps(path)
        np.testing.assert_array_equal(back.active, t.active)
        np.testing.assert_array_equal(back.passive, t.passive)
        np.testing.assert_array_equal(back.index_map, t.index_map)


class TestRefineWithWeights:
    def test_weights_mode_with_bundle(self, tmp_path, rng):
        rois = [{"box": [10.0, 10.0, 90.0, 90.0], "class": 0, "score": 0.8}]
        roi_path = str(tmp_path / "rois.json")
        io.dump_json(roi_path, rois)
        bundle_path = str(tmp_path / "w.bin")
        io.save_weights(bundle_path, {
            "stage0.ingest.l0.weight": rng.standard_normal((16, 8)).astype(np.float32)})
        out = str(tmp_path / "out")
        code = main(["refine", "--mode", "weights", "--rois", roi_path,
                     "--weights", bundle_path, "--out", out,
                     "--f0", "16", "--f-neck", "8", "--f-query", "8"])
        assert code == 0
        masks = io.load_ref_masks(out + "/masks.json")
        assert masks[0].shape == (112, 112)

    @staticmethod
    def refine(tmp_path, out, bundle_path, *extra):
        rois = [{"box": [10.0 + 20 * i, 12.0, 90.0 + 15 * i, 96.0], "class": i, "score": 0.8}
                for i in range(3)]
        roi_path = str(tmp_path / "rois.json")
        io.dump_json(roi_path, rois)
        return main(["refine", "--mode", "weights", "--rois", roi_path, "--weights", bundle_path,
                     "--out", str(out), "--f0", "16", "--f-neck", "8", "--f-query", "8",
                     "--top-n", "600", *extra])

    def test_full_bundle_bytes_equal_across_threads(self, tmp_path, rng):
        bundle_path = str(tmp_path / "w.bin")
        io.save_weights(bundle_path, small_bundle(rng))
        outs = [tmp_path / f"t{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            assert self.refine(tmp_path, out, bundle_path, "--threads", str(threads)) == 0
        io.save_weights(str(tmp_path / "empty.bin"), {})
        assert self.refine(tmp_path, tmp_path / "seeded", str(tmp_path / "empty.bin")) == 0
        for name in ("masks.json", "ledger.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # the bundle's values, not the seeded ones, made the masks
        seeded = (tmp_path / "seeded" / "masks.json").read_bytes()
        assert (outs[0] / "masks.json").read_bytes() != seeded

    def test_full_bundle_serves_two_stages(self, tmp_path, rng):
        bundle_path = str(tmp_path / "w.bin")
        io.save_weights(bundle_path, small_bundle(rng))
        assert self.refine(tmp_path, tmp_path / "out", bundle_path, "--stages", "2") == 0
        assert io.load_ref_masks(str(tmp_path / "out" / "masks.json"))[0].shape == (56, 56)

    def test_stray_array_exit_2_before_the_run(self, tmp_path, rng, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the bundle must be refused before the run")

        monkeypatch.setattr(cli, "run_refinement", no_run)
        bundle = small_bundle(rng)
        bundle["stage2.halve.l0.wieght"] = bundle.pop("stage2.halve.l0.weight")
        bundle_path = str(tmp_path / "w.bin")
        io.save_weights(bundle_path, bundle)
        out = tmp_path / "out"
        assert self.refine(tmp_path, out, bundle_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: weight array stage2.halve.l0.wieght ")
        assert not out.exists()

    def test_stray_array_refused_within_the_file_size(self, tmp_path, rng):
        """The bundle is held as the file's bytes until a layer takes an array:
        a large stray one is refused without a float64 copy of it."""
        bundle = small_bundle(rng)
        bundle["stray"] = np.ones((2048, 1024), dtype=np.float32)
        bundle_path = tmp_path / "w.bin"
        io.save_weights(str(bundle_path), bundle)
        code, peak = traced_peak(self.refine, tmp_path, tmp_path / "out", str(bundle_path))
        assert code == 2 and not (tmp_path / "out").exists()
        assert peak <= bundle_path.stat().st_size + (1 << 20)


class TestPanopticFile:
    @staticmethod
    def write(path, records):
        rle = io.rle_to_dict(rle_encode(np.ones((10, 10), dtype=bool)))
        io.dump_json(path, [{"image_id": image_id,
                             "segments": [{"class": 1, "rle": rle}] * n_segs}
                            for image_id, n_segs in records])

    def test_pixel_cap_counts_every_segment_of_the_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "pan.json")
        monkeypatch.setattr(io, "MAX_PANOPTIC_PIXELS", 300)
        self.write(path, [(0, 2), (1, 1)])  # 300 px: at the cap
        by_image, things, stuffs = io.load_panoptic(path)
        assert [len(by_image[i]) for i in (0, 1)] == [2, 1]
        assert things == {1} and stuffs == set()
        self.write(path, [(0, 2), (1, 2)])  # 400 px
        with pytest.raises(SchemaError, match="400 pixels"):
            io.load_panoptic(path)

    def test_repeated_image_id_rejected(self, tmp_path):
        path = str(tmp_path / "pan.json")
        self.write(path, [(3, 1), (4, 1), (3, 1)])
        with pytest.raises(SchemaError, match="bad panoptic record 2: image_id 3"):
            io.load_panoptic(path)


class TestRoiValues:
    @pytest.mark.parametrize("cls,want", [(0, 0), (3.0, 3), (2**31 - 1, 2**31 - 1),
                                          (-2**31, -2**31), ("7", 7)])
    def test_class_in_int32_range_accepted(self, tmp_path, cls, want):
        path = str(tmp_path / "rois.json")
        io.dump_json(path, [{"box": [1.0, 2.0, 30.0, 40.0], "class": cls}])
        assert io.load_rois(path)[0].class_id == want

    @pytest.mark.parametrize("cls", [2**31, -2**31 - 1, 1e30, 0.5, float("inf"), [1]])
    def test_class_outside_int32_rejected(self, tmp_path, cls):
        path = str(tmp_path / "rois.json")
        io.dump_json(path, [{"box": [1.0, 2.0, 30.0, 40.0], "class": cls}])
        with pytest.raises(SchemaError, match="bad RoI record 0"):
            io.load_rois(path)

    @pytest.mark.parametrize("score", [0.0, 0.25, 1.0, "0.5"])
    def test_score_in_unit_interval_accepted(self, tmp_path, score):
        path = str(tmp_path / "rois.json")
        io.dump_json(path, [{"box": [1.0, 2.0, 30.0, 40.0], "score": score}])
        assert io.load_rois(path)[0].cls_score == float(score)

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf"), 1.5, -0.1,
                                       1 + 1e-12, None, "high"])
    def test_score_outside_unit_interval_rejected(self, tmp_path, score):
        path = str(tmp_path / "rois.json")
        io.dump_json(path, [{"box": [1.0, 2.0, 30.0, 40.0], "score": 0.5},
                            {"box": [1.0, 2.0, 30.0, 40.0], "score": score}])
        with pytest.raises(SchemaError, match="bad RoI record 1"):
            io.load_rois(path)

    def test_roi_count_cap(self, tmp_path):
        path = str(tmp_path / "rois.json")
        io.dump_json(path, [{"box": [1.0, 2.0, 30.0, 40.0]}] * io.MAX_ROIS)
        assert len(io.load_rois(path)) == io.MAX_ROIS
        io.dump_json(path, [{"box": [1.0, 2.0, 30.0, 40.0]}] * (io.MAX_ROIS + 1))
        with pytest.raises(SchemaError, match="cap"):
            io.load_rois(path)
