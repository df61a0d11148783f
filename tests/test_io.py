import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spsr import cli, io
from spsr import pipeline as pl
from spsr.cli import main
from spsr.errors import SchemaError
from spsr.metrics import rle_encode
from spsr.pipeline import PipelineWeights, RunConfig

from conftest import cli_peak, traced_peak

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

    def test_not_a_regular_file_rejected(self):
        with pytest.raises(SchemaError, match="must be a regular file"):
            io.load_weights(os.devnull)

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

    def test_repeated_array_exit_2(self, tmp_path, capsys):
        """Two records of one name are refused, not resolved to the last one."""
        parts = []
        for i, value in enumerate((0.0, 1.0)):
            io.save_weights(str(tmp_path / f"p{i}.bin"),
                            {"stage0.ingest.l0.bias": np.full(16, value, dtype=np.float32)})
            parts.append((tmp_path / f"p{i}.bin").read_bytes())
        bundle_path = tmp_path / "w.bin"
        bundle_path.write_bytes(b"".join(parts))
        out = tmp_path / "out"
        assert self.refine(tmp_path, out, str(bundle_path)) == 2
        err = capsys.readouterr().err
        assert "holds array stage0.ingest.l0.bias twice" in err
        assert not out.exists()

    def test_sparse_stray_refused_unread(self, tmp_path, rng):
        """The bundle is mapped, not read: a 1 GiB stray array (a hole in a
        sparse file, so it takes no disk) is refused with a small footprint."""
        bundle_path = tmp_path / "w.bin"
        io.save_weights(str(bundle_path), small_bundle(rng))
        with open(bundle_path, "ab") as f:
            f.write(struct.pack("<H", 5) + b"stray" + struct.pack("<B3I", 3, 256, 1024, 1024))
            f.truncate(f.tell() + (1 << 30))
        roi_path = tmp_path / "rois.json"
        io.dump_json(str(roi_path), [{"box": [10.0, 12.0, 90.0, 96.0], "class": 0, "score": 0.8}])
        out = tmp_path / "out"
        proc, peak_kb = cli_peak(["refine", "--mode", "weights", "--rois", str(roi_path),
                                  "--weights", str(bundle_path), "--out", str(out),
                                  "--f0", "16", "--f-neck", "8", "--f-query", "8"])
        assert proc.returncode == 2, proc.stderr
        assert "weight array stray " in proc.stderr and not out.exists()
        assert peak_kb < 200 * 1024


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

    @pytest.mark.parametrize("is_thing", ["false", 0, None, 1, "true"])
    def test_is_thing_must_be_a_json_boolean(self, tmp_path, capsys, is_thing):
        path = str(tmp_path / "pan.json")
        rle = io.rle_to_dict(rle_encode(np.ones((10, 10), dtype=bool)))
        ok = {"class": 1, "rle": rle}
        io.dump_json(path, [{"image_id": 0, "segments": [ok]},
                            {"image_id": 1, "segments": [ok, dict(ok, is_thing=is_thing)]}])
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: bad panoptic record 1: is_thing must be true or false, "
                f"not {json.dumps(is_thing)}")):
            io.load_panoptic(path)
        assert main(["eval", "--task", "panoptic", "--preds", path, "--gts", path]) == 2
        assert "bad panoptic record 1" in capsys.readouterr().err

    def test_is_thing_true_false_or_absent(self, tmp_path):
        path = str(tmp_path / "pan.json")
        rle = io.rle_to_dict(rle_encode(np.ones((10, 10), dtype=bool)))
        io.dump_json(path, [{"image_id": 0, "segments": [{"class": 1, "rle": rle}]},
                            {"image_id": 1, "segments": [{"class": 2, "is_thing": True, "rle": rle}]},
                            {"image_id": 2, "segments": [{"class": 3, "is_thing": False, "rle": rle}]}])
        _, things, stuffs = io.load_panoptic(path)
        assert things == {1, 2} and stuffs == {3}


# What ``_integers`` and ``_integer`` make of one value in [LO, HI]: the int it
# becomes, or the exception and its message.
LO, HI = -5, 9
INTEGER_TABLE = [
    ("int", 3, 3),
    ("lo", LO, LO),
    ("hi", HI, HI),
    ("true", True, 1),
    ("false", False, 0),
    ("integral-float", 2.0, 2),
    ("string", "7", 7),
    ("bad-string", "x", (ValueError, "invalid literal for int() with base 10: 'x'")),
    ("fraction", 1.5, (ValueError, "n 1.5 is not an integer")),
    ("nan", float("nan"), (ValueError, "n nan is not an integer")),
    ("inf", float("inf"), (ValueError, "n inf is not an integer")),
    ("-inf", float("-inf"), (ValueError, "n -inf is not an integer")),
    ("1e400", json.loads("1e400"), (ValueError, "n inf is not an integer")),
    ("lo-1", LO - 1, (ValueError, "n -6 lies outside [-5, 9]")),
    ("hi+1", HI + 1, (ValueError, "n 10 lies outside [-5, 9]")),
    ("float-lo-1", float(LO - 1), (ValueError, "n -6 lies outside [-5, 9]")),
    ("huge", 2**70, (ValueError, f"n {2**70} lies outside [-5, 9]")),
    ("null", None, (TypeError, "int() argument must be a string, a bytes-like object or a "
                               "real number, not 'NoneType'")),
]


class TestIntegerTable:
    """Each value alone, among plain ints (the one-scan path when it is an int)
    and beside a float (the checked path): the same int, or the same refusal."""

    @staticmethod
    def outcome(fn, *args):
        try:
            value = fn(*args)
        except (TypeError, ValueError) as e:
            return type(e), str(e)
        items = value if isinstance(value, tuple) else (value,)
        assert all(type(v) is int for v in items)
        return value

    @pytest.mark.parametrize("name,value,want", INTEGER_TABLE, ids=[c[0] for c in INTEGER_TABLE])
    def test_accepts_and_refuses_as_before(self, name, value, want):
        refused = isinstance(want, tuple)
        for fn, arg, accepted in ((io._integer, value, want),
                                  (io._integers, [value], (want,)),
                                  (io._integers, [1, value, 2], (1, want, 2)),
                                  (io._integers, [2.0, value], (2, want))):
            assert self.outcome(fn, arg, "n", LO, HI) == (want if refused else accepted)

    def test_empty_list_and_non_lists(self):
        assert io._integers([], "n", LO, HI) == ()
        for values in ((1, 2), {"a": 1}, 3, "12", None):
            with pytest.raises(TypeError, match=f"n must be a list, not {type(values).__name__}"):
                io._integers(values, "n", LO, HI)


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


def _rle_4x4() -> dict:
    return io.rle_to_dict(rle_encode(np.ones((4, 4), dtype=bool)))


# One valid input per loader: (what to write, how to write it, how to load it).
# The four record lists sit under ``LIST_KINDS`` with each one's record noun.
LOADER_INPUTS = {
    "rois": ([{"box": [1.0, 2.0, 30.0, 40.0], "class": 1, "score": 0.5}], io.dump_json,
             io.load_rois),
    "ref_masks": ({"format": io.MASK_FORMAT, "masks": [_rle_4x4()]}, io.dump_json,
                  io.load_ref_masks),
    "eval": ([{"image_id": 0, "class": 1, "score": 0.9, "box": [0, 0, 4, 4], "rle": _rle_4x4()}],
             io.dump_json, lambda p: io.load_eval_entries(p, need_score=True, need_mask=True)),
    "panoptic": ([{"image_id": 0, "segments": [{"class": 1, "is_thing": True,
                                                "rle": _rle_4x4()}]}],
                 io.dump_json, io.load_panoptic),
    "weights": ({"a.weight": np.ones((2, 3)), "a.bias": np.zeros(2)}, io.save_weights,
                io.load_weights),
}
LIST_KINDS = {"rois": "RoI", "ref_masks": "mask", "eval": "evaluation", "panoptic": "panoptic"}


class TestLoaderRule:
    @pytest.mark.parametrize("kind", sorted(LOADER_INPUTS))
    def test_each_loader_opens_its_file_once_through_map_file(self, tmp_path, monkeypatch,
                                                              kind):
        doc, save, load = LOADER_INPUTS[kind]
        path = str(tmp_path / "input")
        save(path, doc)
        maps, opens = [], []
        real_map = io._map_file

        def spy_map(p, *args):
            maps.append(p)
            return real_map(p, *args)

        def spy_open(p, *args, **kwargs):
            opens.append(p)
            return open(p, *args, **kwargs)

        monkeypatch.setattr(io, "_map_file", spy_map)
        monkeypatch.setattr(io, "open", spy_open, raising=False)  # shadows the builtin in io
        load(path)
        assert maps == [path] and opens == [path]

    @pytest.mark.parametrize("kind", sorted(LIST_KINDS))
    @pytest.mark.parametrize("record", [5, "x", []])
    def test_record_that_is_not_an_object_is_refused_by_index(self, tmp_path, kind, record):
        doc, save, load = LOADER_INPUTS[kind]
        doc = {**doc, "masks": doc["masks"] + [record]} if kind == "ref_masks" else doc + [record]
        path = str(tmp_path / "input.json")
        save(path, doc)
        want = f"{path}: bad {LIST_KINDS[kind]} record 1: a record must be a JSON object"
        with pytest.raises(SchemaError, match=re.escape(want)):
            load(path)

    @pytest.mark.parametrize("data,want", [
        ('{"s": "é",\r\n "n": [1, 2]}\r\n'.encode(), {"s": "é", "n": [1, 2]}),
        (b"\xef\xbb\xbf[1]", None),  # a byte-order mark, as text-mode UTF-8 reading refuses it
        ("[1]".encode("utf-16"), None),  # no encoding is sniffed
        (b'["\xff"]', None),
    ])
    def test_json_is_decoded_as_utf8_only(self, tmp_path, data, want):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        if want is None:
            with pytest.raises(SchemaError, match="cannot read JSON from"):
                io.load_json(str(path))
        else:
            assert io.load_json(str(path)) == want


# --- writers -------------------------------------------------------------------

_NUMBER_KEYS = st.integers(-(1 << 70), 1 << 70) | st.floats() | st.booleans()
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(1 << 63, 1 << 80)
            | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
            | st.text())
# Keys of one dict are of one sortable kind: strings, numbers (ints, floats,
# bools) or the one None key.
_DOCS = st.recursive(_SCALARS, lambda children: (
    st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.dictionaries(_NUMBER_KEYS, children, max_size=3)
    | st.dictionaries(st.none(), children, max_size=1)), max_leaves=40)
MIB = 1 << 20


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_dump_json_writes_the_stdlib_bytes(obj):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        io.dump_json(path, obj)
        with open(path, "rb") as f:
            assert f.read() == (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _large_masks_doc(n: int = 150) -> dict:
    """``refine``'s masks document for ``n`` seeded 112x112 masks of noise, whose
    runs are a few pixels long: about 10 MB as pretty-printed JSON."""
    rng = np.random.default_rng(0)
    masks = [rng.random((112, 112)) < 0.5 for _ in range(n)]
    return io.masks_to_dict(masks, [0.5 + i / (2 * n) for i in range(n)], list(range(n)))


class TestWriters:
    def test_dump_json_holds_the_file_about_once(self, tmp_path):
        path = tmp_path / "t.json"
        doc = _large_masks_doc()  # the document ``refine`` writes
        _, peak = traced_peak(io.dump_json, str(path), doc)
        size = path.stat().st_size
        assert size >= 10_000_000
        assert peak <= 1.25 * size + MIB
        assert path.read_bytes() == (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()

    def test_save_weights_holds_its_payload_once(self, tmp_path, rng):
        arrays = {f"stage0.fcn.c{i}.weight": rng.standard_normal((256, 256, 3, 3))
                  for i in range(5)}
        path = tmp_path / "w.bin"
        _, peak = traced_peak(io.save_weights, str(path), arrays)
        size = path.stat().st_size
        assert size >= 10_000_000 and peak <= size + MIB
        back = io.load_weights(str(path))
        for name, arr in arrays.items():
            np.testing.assert_array_equal(back[name], arr.astype(np.float32))

    def test_save_weights_with_empty_and_scalar_arrays(self, tmp_path):
        path = str(tmp_path / "w.bin")
        io.save_weights(path, {"a": np.zeros((0, 3)), "b": np.float64(1.5), "c": np.zeros(0)})
        back = io.load_weights(path)
        assert {name: arr.shape for name, arr in back.items()} == {"a": (0, 3), "b": (1,),
                                                                 "c": (0,)}
        assert back["b"][0] == 1.5

    @pytest.mark.parametrize("obj", [{"a": object()}, [1, {2: "x", "y": 3}]])
    def test_unserializable_value_raises_and_leaves_no_file(self, tmp_path, obj):
        path = tmp_path / "out" / "r.json"
        path.parent.mkdir()
        with pytest.raises(TypeError):
            io.dump_json(str(path), obj)
        assert os.listdir(path.parent) == []


# --- the JSON byte cap bounds the parse -----------------------------------------


def _records(piece: bytes, size: int, head: bytes = b"") -> bytes:
    """A JSON list of about ``size`` bytes: ``head``, then copies of ``piece``."""
    return b"[" + head + b",".join([piece] * ((size - len(head)) // (len(piece) + 1))) + b"]"


_NESTED_LIST = b"[" * 50 + b"]" * 50
_SHAPES = {  # a file of about ``size`` bytes of each shape
    "nested-lists": lambda size: _records(_NESTED_LIST, size),
    "nested-objects": lambda size: _records(b'{"":' * 100 + b"0" + b"}" * 100, size),
    "records": lambda size: _records(b'{"":0}', size),
    "empty-objects": lambda size: _records(b"{}", size),
    "strings": lambda size: _records(b'"abcd"', size),
    "escaped-astral": lambda size: b'"' + b"a" * (size - 14) + b'\\ud83d\\ude00"',
    "astral-then-lists": lambda size: _records(_NESTED_LIST, size, '"\U0001F600",'.encode()),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_parse_peaks_within_56x_the_file(tmp_path, shape):
    """No JSON text parses into more than 56x its size, so ``MAX_JSON_BYTES``
    bounds the parse: nested one-element lists after one astral character,
    which makes the decoded text 4 bytes a character, peak highest (47.3x)."""
    data = _SHAPES[shape](1 << 20)
    path = tmp_path / "input.json"
    path.write_bytes(data)
    doc, peak = traced_peak(io.load_json, str(path))
    assert doc and peak <= 56 * len(data)
