import numpy as np
import pytest
from scipy import ndimage

from spsr.errors import ContractError
from spsr.metrics import rle_encode
from spsr.synthetic import (SyntheticShape, SyntheticShapeSpec, gen_synthetic,
                            reference_mask, sample_shape)

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


class TestGenSynthetic:
    def test_same_seed_identical_rle(self):
        spec = SyntheticShapeSpec(shape="blob", seed=77)
        a, _, _ = gen_synthetic(spec)
        b, _, _ = gen_synthetic(spec)
        assert rle_encode(a) == rle_encode(b)

    def test_different_seeds_differ(self):
        a, _, _ = gen_synthetic(SyntheticShapeSpec(seed=1))
        b, _, _ = gen_synthetic(SyntheticShapeSpec(seed=2))
        assert rle_encode(a) != rle_encode(b)

    @pytest.mark.parametrize("seed", range(25))
    def test_blob_single_4connected_component(self, seed):
        mask, _, _ = gen_synthetic(SyntheticShapeSpec(shape="blob", seed=seed))
        _, n = ndimage.label(mask, structure=FOUR_CONNECTED)
        assert n == 1

    @pytest.mark.parametrize("shape", ["disk", "ellipse", "blob"])
    def test_fully_inside_canvas(self, shape):
        for seed in range(10):
            mask, _, _ = gen_synthetic(SyntheticShapeSpec(shape=shape, seed=seed))
            assert not mask[0].any() and not mask[-1].any()
            assert not mask[:, 0].any() and not mask[:, -1].any()

    def test_box_is_tight(self):
        mask, box, _ = gen_synthetic(SyntheticShapeSpec(shape="disk", seed=4))
        ys, xs = np.nonzero(mask)
        assert box.x0 == xs.min() and box.x1 == xs.max() + 1
        assert box.y0 == ys.min() and box.y1 == ys.max() + 1

    @pytest.mark.parametrize("shape", ["disk", "ellipse", "blob"])
    @pytest.mark.parametrize("canvas", [(448, 448), (256, 192), (40, 90)])
    def test_window_equals_full_canvas_rasterization(self, shape, canvas):
        h, w = canvas
        for seed in range(12):
            mask, box, shp = gen_synthetic(SyntheticShapeSpec(shape=shape, canvas_h=h,
                                                              canvas_w=w, seed=seed))
            full = shp.rasterize(0.0, 0.0, float(w), float(h), (h, w))
            np.testing.assert_array_equal(mask, full)
            ys, xs = np.nonzero(full)
            assert (box.x0, box.y0, box.x1, box.y1) == (xs.min(), ys.min(),
                                                        xs.max() + 1, ys.max() + 1)
            assert np.hypot(xs + 0.5 - shp.cx, ys + 0.5 - shp.cy).max() <= shp.reach

    def test_zero_radius_rejected(self):
        with pytest.raises(ContractError):
            SyntheticShape(kind="disk", cx=10, cy=10, rx=0.0, ry=0.0,
                           angle=0.0, harmonics=(), phases=())

    def test_bad_shape_name_rejected(self):
        with pytest.raises(ContractError):
            SyntheticShapeSpec(shape="pentagon")


class TestReferenceMask:
    def test_matches_analytic_membership(self):
        spec = SyntheticShapeSpec(shape="ellipse", seed=9)
        _, box, shape = gen_synthetic(spec)
        ref = reference_mask(shape, box, 56)
        xs = box.x0 + (np.arange(56) + 0.5) * box.w / 56
        ys = box.y0 + (np.arange(56) + 0.5) * box.h / 56
        gx, gy = np.meshgrid(xs, ys)
        np.testing.assert_array_equal(ref, shape.contains(gx, gy))

    def test_disk_is_round(self):
        shape = sample_shape(SyntheticShapeSpec(shape="disk", seed=31))
        assert shape.rx == shape.ry
