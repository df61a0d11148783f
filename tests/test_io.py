import struct

import numpy as np
import pytest

from spsr import io
from spsr.cli import main
from spsr.errors import SchemaError
from spsr.metrics import rle_encode
from spsr.pipeline import PipelineWeights, RunConfig
from spsr.tensor import SpsTensor


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
        np.testing.assert_array_equal(loaded.ingest.weights, bundle["stage0.ingest.l0.weight"])
        # untouched arrays fall back to the same seeded initialization
        np.testing.assert_array_equal(loaded.halve[1].weights, seeded.halve[1].weights)
        with pytest.raises(Exception):
            PipelineWeights({"stage0.ingest.l0.weight": np.zeros((3, 3))}, cfg)


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
