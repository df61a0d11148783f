import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from spsr import io
from spsr.errors import ContractError
from spsr.metrics import rle_encode
from spsr.pipeline import RoiBox
from spsr.synthetic import (BAND_PIXELS, SHAPES, SyntheticShape, SyntheticShapeSpec,
                            gen_synthetic, reference_mask, sample_shape)

from conftest import traced_peak

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


# --- the direct membership formula, kept as the reference -------------------
#
# ``hypot``, ``arctan2`` and the whole bound sum at every point of a meshgrid,
# and the tight box from ``np.nonzero`` over the canvas. ``contains`` decides
# most points without them, and must return exactly what this returns.


def direct_contains(shape, xs, ys):
    dx = np.asarray(xs, dtype=np.float64) - shape.cx
    dy = np.asarray(ys, dtype=np.float64) - shape.cy
    c, s = np.cos(shape.angle), np.sin(shape.angle)
    u = (c * dx + s * dy) / shape.rx
    v = (-s * dx + c * dy) / shape.ry
    rho = np.hypot(u, v)
    if not shape.harmonics:
        return rho <= 1.0
    theta = np.arctan2(v, u)
    bound = np.ones_like(rho)
    for h, (amp, phase) in enumerate(zip(shape.harmonics, shape.phases), start=2):
        bound = bound + amp * np.cos(h * theta + phase)
    return rho <= bound


def direct_centers(lo, hi, n):
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def direct_rasterize(shape, x0, y0, x1, y1, out_hw):
    h, w = out_hw
    gx, gy = np.meshgrid(direct_centers(x0, x1, w), direct_centers(y0, y1, h))
    return direct_contains(shape, gx, gy)


def direct_gen_synthetic(spec):
    shape = sample_shape(spec)
    h, w = spec.canvas_h, spec.canvas_w
    r = shape.reach + 1.0
    rows = slice(max(0, int(np.floor(shape.cy - r))), min(h, int(np.ceil(shape.cy + r))))
    cols = slice(max(0, int(np.floor(shape.cx - r))), min(w, int(np.ceil(shape.cx + r))))
    gx, gy = np.meshgrid(direct_centers(0.0, float(w), w)[cols],
                         direct_centers(0.0, float(h), h)[rows])
    mask = np.zeros((h, w), dtype=bool)
    mask[rows, cols] = direct_contains(shape, gx, gy)
    ys, xs = np.nonzero(mask)
    box = RoiBox(x0=float(xs.min()), y0=float(ys.min()),
                 x1=float(xs.max() + 1), y1=float(ys.max() + 1))
    return mask, box


def assert_same_membership(shape, xs, ys):
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = shape.contains(xs, ys), direct_contains(shape, xs, ys)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(got, want)


def outline_points(shape, theta, radii):
    """Image-space points at unit-frame radii ``radii[i, j]`` along ``theta[i]``."""
    u, v = radii * np.cos(theta)[:, None], radii * np.sin(theta)[:, None]
    c, s = np.cos(shape.angle), np.sin(shape.angle)
    du, dv = shape.rx * u, shape.ry * v
    return shape.cx + (c * du - s * dv), shape.cy + (s * du + c * dv)


class TestMatchesDirectFormula:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SHAPES), st.integers(0, 2**31 - 1), st.integers(16, 1024),
           st.integers(16, 1024), st.data())
    def test_every_output(self, kind, seed, h, w, data):
        spec = SyntheticShapeSpec(shape=kind, canvas_h=h, canvas_w=w, seed=seed)
        try:
            shape = sample_shape(spec)
        except ContractError:
            assume(False)
        mask, box, got_shape = gen_synthetic(spec)
        want_mask, want_box = direct_gen_synthetic(spec)
        assert got_shape == shape
        np.testing.assert_array_equal(mask, want_mask)
        assert box == want_box
        side = data.draw(st.integers(1, 160), label="side")
        np.testing.assert_array_equal(
            reference_mask(shape, box, side),
            direct_rasterize(shape, box.x0, box.y0, box.x1, box.y1, (side, side)))

        # any frame near the shape, at any resolution, even one inverted or empty
        span = 2.0 * shape.reach
        coord = st.floats(-span, span, allow_nan=False)
        x0, y0, x1, y1 = (data.draw(coord, label=name) for name in ("x0", "y0", "x1", "y1"))
        out_hw = (data.draw(st.integers(0, 300), label="out_h"),
                  data.draw(st.integers(0, 300), label="out_w"))
        frame = (shape.cx + x0, shape.cy + y0, shape.cx + x1, shape.cy + y1)
        np.testing.assert_array_equal(shape.rasterize(*frame, out_hw),
                                      direct_rasterize(shape, *frame, out_hw))

        # loose points, finite or not, as arrays and one at a time
        near = st.floats(-1.5 * shape.reach, 1.5 * shape.reach)
        anywhere = st.floats(allow_nan=True, allow_infinity=True)
        point = st.tuples(st.one_of(near, anywhere), st.one_of(near, anywhere))
        points = data.draw(st.lists(point, min_size=1, max_size=64), label="points")
        xs = shape.cx + np.array([p[0] for p in points])
        ys = shape.cy + np.array([p[1] for p in points])
        assert_same_membership(shape, xs, ys)
        assert_same_membership(shape, xs[:, None], ys[None, :])
        assert_same_membership(shape, float(xs[0]), float(ys[0]))

    @pytest.mark.parametrize("kind", SHAPES)
    def test_dense_near_outline_sweep(self, kind):
        """Points on, just off and one to three ulps off the outline, and on
        the radii where the radius tier hands over to the angle tier."""
        rel = np.array([-1e-3, -1e-6, -1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9, 1e-6,
                        1e-3])
        theta = np.linspace(-np.pi, np.pi, 4001)
        for seed in range(6):
            for canvas in (16, 448, 1024):
                try:
                    shape = sample_shape(SyntheticShapeSpec(shape=kind, canvas_h=canvas,
                                                            canvas_w=canvas, seed=seed))
                except ContractError:
                    continue
                a = sum(abs(amp) for amp in shape.harmonics)
                bound = np.ones_like(theta)
                for h, (amp, phase) in enumerate(zip(shape.harmonics, shape.phases), start=2):
                    bound = bound + amp * np.cos(h * theta + phase)
                for radius in (bound[:, None], np.full((len(theta), 1), 1.0 - a),
                               np.full((len(theta), 1), 1.0 + a)):
                    xs, ys = outline_points(shape, theta, radius * (1.0 + rel))
                    assert_same_membership(shape, xs, ys)
                    for ulps in (1, 2, 3):
                        for direction in (-np.inf, np.inf):
                            nx, ny = xs, ys
                            for _ in range(ulps):
                                nx, ny = np.nextafter(nx, direction), np.nextafter(ny, -direction)
                            assert_same_membership(shape, nx, ys)
                            assert_same_membership(shape, xs, ny)
                            assert_same_membership(shape, nx, ny)
                on = direct_contains(shape, *outline_points(shape, theta, bound[:, None]))
                assert 0 < on.sum() < on.size  # the sweep straddles the outline

    @pytest.mark.parametrize("kind", SHAPES)
    def test_extreme_points(self, kind):
        shape = sample_shape(SyntheticShapeSpec(shape=kind, seed=3))
        offsets = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, 1e154, -1e154, 1e-300,
                            0.0, -0.0, 5e-324])
        assert_same_membership(shape, offsets[:, None], offsets[None, :])
        assert_same_membership(shape, shape.cx + offsets[:, None], shape.cy + offsets[None, :])


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

    def test_canvas_over_mask_cap_rejected(self):
        side = int(np.sqrt(io.MAX_MASK_PIXELS)) + 1
        with pytest.raises(ContractError):
            SyntheticShapeSpec(canvas_h=side, canvas_w=side)
        with pytest.raises(ContractError):
            SyntheticShapeSpec(canvas_h=16, canvas_w=io.MAX_MASK_PIXELS // 16 + 1)
        SyntheticShapeSpec(canvas_h=16, canvas_w=io.MAX_MASK_PIXELS // 16)

    @pytest.mark.parametrize("kind", SHAPES)
    def test_rasterization_holds_bounded_bands(self, kind):
        """Beside its boolean output, a rasterization holds a few float arrays
        of one row band, however large the frame."""
        spec = SyntheticShapeSpec(shape=kind, canvas_h=2048, canvas_w=2048, seed=5)
        shape = sample_shape(spec)
        bands = 8 * (8 * BAND_PIXELS)  # eight float64 arrays of one band
        for out_hw in ((2048, 2048), (3000, 700), (5, BAND_PIXELS * 2)):
            mask, peak = traced_peak(shape.rasterize, 0.0, 0.0, 2048.0, 2048.0, out_hw)
            assert mask.shape == out_hw
            assert peak <= mask.nbytes + bands * max(1, out_hw[1] // BAND_PIXELS)
        (mask, _, _), peak = traced_peak(gen_synthetic, spec)
        assert peak <= mask.nbytes + bands


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
