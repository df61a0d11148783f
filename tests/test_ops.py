import numpy as np
import pytest

from spsr import ops, pipeline, tensor
from spsr.cost import compare, macs_conv
from spsr.errors import ContractError
from spsr.synthetic import SyntheticShapeSpec, gen_synthetic

from conftest import (grid_bands, identity_transform, random_kernel, random_linear, random_sps,
                      row_bands, traced_peak)


def active_values(s):
    coords = s.active_coords()
    dense = tensor.to_dense(s)
    return dense[:, coords[:, 0], coords[:, 1]]


def assert_sparse_matches_dense(s_out, dense_out, s_in, rtol=1e-6):
    """Master check: active cells match the dense oracle, passive untouched."""
    coords = s_in.active_coords()
    got = tensor.to_dense(s_out)[:, coords[:, 0], coords[:, 1]]
    want = dense_out[:, coords[:, 0], coords[:, 1]]
    np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-9)
    np.testing.assert_array_equal(s_out.passive, s_in.passive)
    np.testing.assert_array_equal(s_out.index_map, s_in.index_map)


class TestPointwise:
    def test_identity_noop(self, rng):
        _, s = random_sps(rng, f=4)
        out = ops.pointwise(s, identity_transform(4))
        np.testing.assert_array_equal(out.active, s.active)
        np.testing.assert_array_equal(out.passive, s.passive)

    def test_fully_active_equals_dense_1x1(self, rng):
        d, s = random_sps(rng, h=6, w=5, f=4, n_active=30)
        t = random_linear(rng, 4, 4)
        out = ops.pointwise(s, t)
        assert_sparse_matches_dense(out, ops.dense_pointwise(d, t), s)

    def test_relu_zeroes_negative_features(self):
        s = tensor.SpsTensor(active=[[-1.0, -2.0]], passive=np.zeros((0, 2)),
                             index_map=[[0]])
        t = ops.LinearTransform(weights=np.eye(2), bias=np.zeros(2), activation="relu")
        out = ops.pointwise(s, t)
        np.testing.assert_array_equal(out.active, [[0.0, 0.0]])

    def test_feature_change_needs_fully_active(self, rng):
        _, s = random_sps(rng, h=3, w=3, f=4, n_active=5)
        t = random_linear(rng, 4, 2)
        with pytest.raises(ContractError):
            ops.pointwise(s, t)


class TestHalveFeatures:
    def test_averaging_weights(self):
        s = tensor.SpsTensor(active=[[2.0, 4.0]], passive=[[10.0, 20.0]],
                             index_map=[[0, 1]])
        t = ops.LinearTransform(weights=[[0.5, 0.5]], bias=[0.0])
        out = ops.halve_features(s, t)
        np.testing.assert_array_equal(out.active, [[3.0]])
        np.testing.assert_array_equal(out.passive, [[15.0]])

    def test_truncating_weights(self, rng):
        _, s = random_sps(rng, f=4)
        w = np.zeros((2, 4))
        w[0, 0] = w[1, 1] = 1.0
        out = ops.halve_features(s, ops.LinearTransform(weights=w, bias=np.zeros(2)))
        np.testing.assert_array_equal(out.active, s.active[:, :2])
        np.testing.assert_array_equal(out.passive, s.passive[:, :2])

    def test_dense_oracle_equivalence(self, rng):
        d, s = random_sps(rng, h=4, w=4, f=6, n_active=16)
        t = random_linear(rng, 6, 3)
        out = ops.halve_features(s, t)
        ref = ops.dense_pointwise(d, t)
        np.testing.assert_allclose(tensor.to_dense(out), ref, rtol=1e-6)

    def test_odd_f_rejected(self, rng):
        _, s = random_sps(rng, f=3)
        with pytest.raises(ContractError):
            ops.halve_features(s, random_linear(rng, 3, 1))


class TestConv2dSparse:
    def test_centered_delta_kernel_is_identity(self, rng):
        _, s = random_sps(rng, f=3)
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = ops.conv2d_sparse(s, ops.ConvKernel(weights=w, bias=np.zeros(3)))
        np.testing.assert_allclose(out.active, s.active, atol=1e-12)

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_fully_active_equals_dense(self, rng, dilation):
        d, s = random_sps(rng, h=7, w=7, f=4, n_active=49)
        k = random_kernel(rng, 4, dilation=dilation)
        out = ops.conv2d_sparse(s, k)
        assert_sparse_matches_dense(out, ops.dense_conv2d(d, k), s)

    def test_partial_active_matches_dense_at_active_cells(self, rng):
        for _ in range(50):
            d, s = random_sps(rng)
            if s.f < 1:
                continue
            k = random_kernel(rng, s.f, dilation=int(rng.integers(1, 4)))
            out = ops.conv2d_sparse(s, k)
            assert_sparse_matches_dense(out, ops.dense_conv2d(d, k), s)

    def test_mac_hook(self, rng):
        _, s = random_sps(rng, h=8, w=8, f=4, n_active=10)
        assert macs_conv(s.n_active, 3, s.f, s.f) == 10 * 9 * 16


class TestDeformConv:
    def test_zero_offsets_collapse_to_conv(self, rng):
        d, s = random_sps(rng, h=6, w=6, f=3, n_active=20)
        k = random_kernel(rng, 3, dilation=1)
        off = ops.OffsetField(np.zeros((s.n_active, 9, 2)))
        a = ops.deform_conv_sparse(s, k, off)
        b = ops.conv2d_sparse(s, k)
        np.testing.assert_array_equal(a.active, b.active)

    @pytest.mark.parametrize("target_dilation", [2, 3])
    def test_integer_offsets_collapse_to_dilation(self, rng, target_dilation):
        d, s = random_sps(rng, h=9, w=9, f=3, n_active=25)
        k = random_kernel(rng, 3, dilation=1)
        pattern = ops._tap_offsets(3, target_dilation - 1).astype(float)
        off = ops.OffsetField(np.broadcast_to(pattern, (s.n_active, 9, 2)).copy())
        a = ops.deform_conv_sparse(s, k, off)
        b = ops.conv2d_sparse(s, ops.ConvKernel(k.weights, k.bias, target_dilation))
        np.testing.assert_allclose(a.active, b.active, rtol=1e-12)

    def test_fractional_offsets_match_dense_oracle(self, rng):
        d, s = random_sps(rng, h=6, w=6, f=3, n_active=36)
        k = random_kernel(rng, 3)
        off = ops.OffsetField(rng.uniform(-1.5, 1.5, size=(36, 9, 2)))
        out = ops.deform_conv_sparse(s, k, off)
        coords = s.active_coords()
        dense_off = np.zeros((6, 6, 9, 2))
        dense_off[coords[:, 0], coords[:, 1]] = off.offsets
        ref = ops.dense_deform_conv(d, k, dense_off)
        assert_sparse_matches_dense(out, ref, s)

    def test_offset_count_mismatch_rejected(self, rng):
        _, s = random_sps(rng, h=4, w=4, f=2, n_active=5)
        with pytest.raises(ContractError):
            ops.deform_conv_sparse(s, random_kernel(rng, 2),
                                   ops.OffsetField(np.zeros((4, 9, 2))))


class TestSfm:
    def _kernels(self, rng, f):
        return tuple(random_kernel(rng, f, dilation=d) for d in (1, 3, 5))

    def test_zero_kernels_zero_output(self, rng):
        _, s = random_sps(rng, f=3, h=5, w=5, n_active=10)
        zero = lambda d: ops.ConvKernel(np.zeros((3, 3, 3, 3)), np.zeros(3), d)
        out = ops.sfm(s, zero(1), zero(3), zero(5))
        np.testing.assert_array_equal(out.active, np.zeros_like(out.active))

    def test_branch_collapse(self, rng):
        _, s = random_sps(rng, f=3, h=6, w=6, n_active=12)
        k1 = random_kernel(rng, 3, dilation=1)
        zero = lambda d: ops.ConvKernel(np.zeros((3, 3, 3, 3)), np.zeros(3), d)
        out = ops.sfm(s, k1, zero(3), zero(5))
        ref = ops.conv2d_sparse(s, k1)
        np.testing.assert_allclose(out.active, ref.active, rtol=1e-12)

    def test_fully_active_dense_oracle(self, rng):
        d, s = random_sps(rng, h=8, w=8, f=4, n_active=64)
        ks = self._kernels(rng, 4)
        out = ops.sfm(s, *ks)
        assert_sparse_matches_dense(out, ops.dense_sfm(d, *ks), s)

    def test_wrong_dilations_rejected(self, rng):
        _, s = random_sps(rng, f=3)
        k = random_kernel(rng, 3, dilation=2)
        with pytest.raises(ContractError):
            ops.sfm(s, k, k, k)


def both_fusions(rng, f, side, n_active):
    """``fuse(ext, transform)`` of ``fuse_external`` on a random ``[f, side,
    side]`` SPS tensor with ``n_active`` active cells, then of ``dense_fuse``
    on its dense twin."""
    d, s = random_sps(rng, f=f, h=side, w=side, n_active=n_active)
    return [lambda ext, t: ops.fuse_external(s, ext, t), lambda ext, t: ops.dense_fuse(d, ext, t)]


class TestFuseExternal:
    def test_zero_transform_is_identity(self, rng):
        _, s = random_sps(rng, f=4, h=4, w=4, n_active=8)
        t = ops.LinearTransform(weights=np.zeros((4, 6)), bias=np.zeros(4))
        out = ops.fuse_external(s, row_bands(rng.standard_normal((8, 2))), t)
        np.testing.assert_array_equal(out.active, s.active)

    def test_ignoring_ext_equals_pointwise_residual(self, rng):
        _, s = random_sps(rng, f=3, h=4, w=4, n_active=6)
        w_core = rng.standard_normal((3, 3))
        w = np.concatenate([w_core, np.zeros((3, 2))], axis=1)  # block ignores ext
        t = ops.LinearTransform(weights=w, bias=np.zeros(3))
        out = ops.fuse_external(s, row_bands(np.zeros((6, 2))), t)
        expected = s.active + s.active @ w_core.T
        np.testing.assert_allclose(out.active, expected, rtol=1e-12)

    def test_fully_active_dense_oracle(self, rng):
        d, s = random_sps(rng, h=5, w=5, f=3, n_active=25)
        ext_grid = rng.standard_normal((2, 5, 5))
        coords = s.active_coords()
        ext_rows = ext_grid[:, coords[:, 0], coords[:, 1]].T
        chain = [random_linear(rng, 5, 4, activation="relu"), random_linear(rng, 4, 3)]
        out = ops.fuse_external(s, row_bands(ext_rows), chain)
        ref = ops.dense_fuse(d, grid_bands(ext_grid), chain)
        assert_sparse_matches_dense(out, ref, s)

    def test_row_count_mismatch_rejected(self, rng):
        # the neck sampler as the band source of both fusions: 2 samples for a
        # band of 4 active rows, or of 9 cells
        rows, index_map = rng.standard_normal((9, 2)), np.arange(9).reshape(3, 3)
        ext = lambda band: ops._bilinear(rows, index_map, np.ones(2), np.ones(2))  # noqa: E731
        for fuse in both_fusions(rng, 3, 3, 4):
            with pytest.raises(ContractError):
                fuse(ext, random_linear(rng, 5, 3))

    def test_width_mismatch_rejected(self, rng):
        # 2-feature samples for a 3-feature external band on both fusions, and
        # a transform that leaves no external block at all
        rows, index_map = rng.standard_normal((9, 2)), np.arange(9).reshape(3, 3)

        def ext(band):
            ys = np.ones(band.stop - band.start)
            return ops._bilinear(rows, index_map, ys, ys)

        for fuse in both_fusions(rng, 3, 3, 4):
            with pytest.raises(ContractError):
                fuse(ext, random_linear(rng, 6, 3))
        _, s = random_sps(rng, f=3, h=3, w=3, n_active=4)
        with pytest.raises(ContractError):
            ops.fuse_external(s, row_bands(np.zeros((4, 0))), random_linear(rng, 3, 3))

    BANDS = {"fewer-rows": lambda n: (n - 1, 2), "more-rows": lambda n: (n + 1, 2),
             "narrower": lambda n: (n, 1), "wider": lambda n: (n, 3), "3-d": lambda n: (n, 1, 2),
             "one-row": lambda n: (1, 2), "vector": lambda n: (2,)}

    @pytest.mark.parametrize("case", BANDS)
    @pytest.mark.parametrize("fusion", [0, 1], ids=["fuse_external", "dense_fuse"])
    def test_wrong_band_rejected(self, rng, fusion, case):
        # a band of n rows, F_e = 2, must be [n, 2]: one row or one vector
        # would broadcast over the band, so they are refused too
        fuse = both_fusions(rng, 3, 3, 4)[fusion]
        ext = lambda band: np.zeros(self.BANDS[case](band.stop - band.start))  # noqa: E731
        with pytest.raises(ContractError, match="external band"):
            fuse(ext, random_linear(rng, 5, 3))

    def test_fusion_input_built_once(self, rng, monkeypatch):
        # the transform reads one C-contiguous [N_A, F + F_e] array whose right
        # block holds the band source's rows
        _, s = random_sps(rng, f=3, h=5, w=5, n_active=9)
        ext_rows = rng.standard_normal((9, 4))
        seen = {}

        def chain(transform, rows):
            seen["rows"] = rows
            return ops.LinearTransform.apply(transform, rows)

        monkeypatch.setattr(ops, "apply_chain", chain)
        transform = random_linear(rng, 7, 3)
        out = ops.fuse_external(s, row_bands(ext_rows), transform)
        rows = seen["rows"]
        assert rows.shape == (9, 7) and rows.flags.c_contiguous
        np.testing.assert_array_equal(rows, np.concatenate([s.active, ext_rows], axis=1))
        np.testing.assert_array_equal(out.active, s.active + transform.apply(rows))


class TestLinearity:
    """Bias-free, activation-free ops are linear in the features."""

    def test_conv_linearity(self, rng):
        d1, s1 = random_sps(rng, h=5, w=5, f=3, n_active=10)
        k = ops.ConvKernel(rng.standard_normal((3, 3, 3, 3)), np.zeros(3))
        a, b = 2.5, -1.25
        s2 = tensor.SpsTensor(active=a * s1.active, passive=a * s1.passive,
                              index_map=s1.index_map)
        out1 = ops.conv2d_sparse(s1, k)
        out2 = ops.conv2d_sparse(s2, k)
        np.testing.assert_allclose(out2.active, a * out1.active, rtol=1e-9, atol=1e-9)
        t = ops.LinearTransform(rng.standard_normal((3, 3)), np.zeros(3))
        np.testing.assert_allclose(ops.pointwise(s2, t).active,
                                   a * ops.pointwise(s1, t).active, rtol=1e-9, atol=1e-9)
        del b


class TestDegenerate:
    def test_ops_are_noops_on_zero_active(self, rng):
        d = rng.standard_normal((4, 4, 4))
        s = tensor.from_dense(d, [])
        k = random_kernel(rng, 4)
        assert ops.conv2d_sparse(s, k).n_active == 0
        assert ops.sfm(s, random_kernel(rng, 4, dilation=1), random_kernel(rng, 4, dilation=3),
                       random_kernel(rng, 4, dilation=5)).n_active == 0
        fused = ops.fuse_external(s, row_bands(np.zeros((0, 2))), random_linear(rng, 6, 4))
        assert fused.n_active == 0
        out = ops.halve_features(s, random_linear(rng, 4, 2))
        assert out.n_passive == 16 and out.f == 2


class TestBilinearReference:
    """``dense_bilinear`` and ``deform_conv_sparse`` share one bilinear kernel, so
    SciPy's ``map_coordinates`` is the independent reference for both."""

    def _positions(self, rng, h, w, n):
        """n fractional, n integer and 5 out-of-grid (y, x) positions."""
        frac = np.stack([rng.uniform(-1.5, h + 0.5, n), rng.uniform(-1.5, w + 0.5, n)], axis=1)
        integer = np.stack([rng.integers(-1, h + 1, n), rng.integers(-1, w + 1, n)], axis=1)
        outside = np.array([[-3.0, 2.0], [2.0, w + 2.5], [h + 4.0, -6.0], [-1.0, -1.0], [h, w]])
        return np.concatenate([frac, integer.astype(float), outside])

    def _scipy(self, features, pos):
        from scipy.ndimage import map_coordinates
        return np.stack([map_coordinates(c, pos.T, order=1, mode="grid-constant", cval=0.0)
                         for c in features], axis=1)

    def test_dense_bilinear_matches_scipy(self, rng):
        d = rng.standard_normal((4, 7, 9))
        pos = self._positions(rng, 7, 9, 60)
        got = ops.dense_bilinear(d, pos[:, 0], pos[:, 1])
        np.testing.assert_allclose(got, self._scipy(d, pos), rtol=0, atol=1e-12)

    def test_deform_conv_sparse_matches_scipy(self, rng):
        d, s = random_sps(rng, h=7, w=9, f=4, n_active=45)
        pos = self._positions(rng, 7, 9, 20)
        # a 1x1 identity kernel turns the deformable conv into one bilinear sample per cell
        k = ops.ConvKernel(np.eye(4)[:, :, None, None], np.zeros(4))
        off = ops.OffsetField((pos - s.active_coords())[:, None, :])
        got = ops.deform_conv_sparse(s, k, off).active
        np.testing.assert_allclose(got, self._scipy(d, pos), rtol=0, atol=1e-12)


def pipeline_shaped_sps(rng, f=32, side=112, n_inside=1500):
    """An SPS tensor shaped like refinement stage 3: ``side x side`` cells, F=32,
    passive rows shared by the 2x2 children of a coarse cell, and active cells
    on every border and corner as well as up to ``n_inside`` drawn anywhere."""
    coarse = tensor.from_dense(rng.standard_normal((f, side // 2, side // 2)), [])
    fine = tensor.subdivide(coarse, [lambda rows: rows] * 4)
    last, edge = side - 1, range(0, side, 3)
    cells = {(0, 0), (0, last), (last, 0), (last, last)}
    cells |= {(0, x) for x in edge} | {(last, x) for x in edge}
    cells |= {(y, 0) for y in edge} | {(y, last) for y in edge}
    cells |= {(int(y), int(x)) for y, x in rng.integers(0, side, size=(n_inside, 2))}
    s = tensor.reselect(fine, sorted(cells))
    assert s.n_passive < side * side - s.n_active  # passive rows are shared
    return tensor.to_dense(s), s


class TestPipelineShapes:
    """sparse == dense at the shapes the refinement stages run, with criterion 1's tolerance."""

    @pytest.mark.parametrize("dilation", [1, 3, 5])
    def test_conv2d_sparse_equals_dense(self, rng, dilation):
        dense, s = pipeline_shaped_sps(rng)
        k = random_kernel(rng, 32, dilation=dilation)
        assert_sparse_matches_dense(ops.conv2d_sparse(s, k), ops.dense_conv2d(dense, k), s)

    def test_sfm_equals_dense(self, rng):
        dense, s = pipeline_shaped_sps(rng)
        ks = tuple(random_kernel(rng, 32, dilation=d) for d in (1, 3, 5))
        assert_sparse_matches_dense(ops.sfm(s, *ks), ops.dense_sfm(dense, *ks), s)


def four_corner_bilinear(rows, index_map, py, px):
    """The bilinear kernel as a four-corner loop of masked gathers: the reference
    that the sparse-matrix kernel must reproduce bit for bit."""
    h, w = index_map.shape
    y0 = np.floor(py).astype(np.int64)
    x0 = np.floor(px).astype(np.int64)
    wy = py - y0
    wx = px - x0
    out = np.zeros(py.shape + (rows.shape[1],))
    for cy, weight_y in ((y0, 1.0 - wy), (y0 + 1, wy)):
        for cx, weight_x in ((x0, 1.0 - wx), (x0 + 1, wx)):
            weight = weight_y * weight_x
            inside = (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)
            use = inside & (weight != 0.0)
            if not np.any(use):
                continue
            vals = rows[index_map[cy.clip(0, h - 1), cx.clip(0, w - 1)]]
            vals[~use] = 0.0
            out += weight[..., None] * vals
    return out


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBilinearKernel:
    """``ops._bilinear`` == the four-corner loop, bit for bit, on neck-like shapes."""

    H, W, F = 23, 31, 256

    def _neck(self, rng):
        rows = rng.standard_normal((self.H * self.W, self.F))
        return rows, np.arange(self.H * self.W).reshape(self.H, self.W)

    def _check(self, rows, index_map, py, px):
        got = ops._bilinear(rows, index_map, py, px)
        assert_bit_identical(got, four_corner_bilinear(rows, index_map, py, px))
        return got

    def test_fractional_positions(self, rng):
        rows, index_map = self._neck(rng)
        py = rng.uniform(0, self.H - 1, (40, 25))
        px = rng.uniform(0, self.W - 1, (40, 25))
        assert self._check(rows, index_map, py, px).shape == (40, 25, self.F)

    def test_integer_positions_drop_zero_weight_corners(self, rng):
        rows, index_map = self._neck(rng)
        py = rng.integers(0, self.H, 500).astype(float)
        px = rng.integers(0, self.W, 500).astype(float)
        px[:250] += rng.uniform(0, 1, 250)  # integer y only: two corners weigh zero
        got = self._check(rows, index_map, py, px)
        exact = index_map[py[250:].astype(int), px[250:].astype(int)]
        np.testing.assert_array_equal(got[250:], rows[exact])
        # a zero-weight corner adds nothing (not 0 * row): a NaN row beside exact samples stays out
        rows[index_map[5, 7]] = np.nan
        got = self._check(rows, index_map, np.array([4.0, 5.0, 4.0]), np.array([6.0, 6.0, 7.0]))
        assert np.all(np.isfinite(got))

    def test_on_and_past_every_edge(self, rng):
        rows, index_map = self._neck(rng)
        ys = [-1.5, -1.0, -0.5, -0.25, 0.0, 0.5, self.H - 1.5, self.H - 1.0,
              self.H - 0.75, self.H - 0.5, self.H, self.H + 0.5]
        xs = [-1.5, -1.0, -0.5, -0.25, 0.0, 0.5, self.W - 1.5, self.W - 1.0,
              self.W - 0.75, self.W - 0.5, self.W, self.W + 0.5]
        py, px = (a.astype(float) for a in np.meshgrid(ys, xs, indexing="ij"))
        self._check(rows, index_map, py, px)

    def test_all_outside_is_positive_zero(self, rng):
        rows, index_map = self._neck(rng)
        py = np.array([-3.0, -1.0, self.H, self.H + 7.5, 4.0, 4.0, -2.5])
        px = np.array([2.0, -1.0, 3.0, 1.0, -1.0, self.W, self.W + 2.5])
        got = self._check(rows, index_map, py, px)
        assert np.all(got == 0.0) and not np.any(np.signbit(got))

    def test_negative_zero_rows(self, rng):
        # -0.0 features: a sum that starts from +0.0 never ends in -0.0
        rows, index_map = self._neck(rng)
        rows[:, :8] = -0.0
        py = rng.uniform(-1, self.H, 300)
        px = rng.uniform(-1, self.W, 300)
        self._check(rows, index_map, py, px)

    CHUNK = ops.CHUNK_VALUES // F  # samples per CSR product

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 12544])
    def test_writes_a_strided_column_block(self, rng, monkeypatch, n):
        # as fuse_external's band source, the sampler fills the right-hand
        # block of the fusion input, a strided column block, band by band
        rows, index_map = self._neck(rng)
        py = rng.uniform(-1, self.H, n)
        px = rng.uniform(-1, self.W, n)
        want = four_corner_bilinear(rows, index_map, py, px)
        assert_bit_identical(ops._bilinear(rows, index_map, py, px), want)
        s = tensor.from_dense(np.full((7, 112, 112), -7.0), [divmod(c, 112) for c in range(n)])
        fused = []

        def chain(transform, block):
            fused.append(block)
            return np.zeros((n, 7))

        monkeypatch.setattr(ops, "apply_chain", chain)
        ops.fuse_external(s, lambda band: ops._bilinear(rows, index_map, py[band], px[band]),
                          ops.LinearTransform(np.zeros((7, 7 + self.F)), np.zeros(7)))
        if n:
            assert np.all(fused[0][:, :7] == -7.0)
            assert_bit_identical(fused[0][:, 7:], want)

    def test_one_chunk_holds_one_output(self, rng):
        # one band's samples are one CSR product, which is the output; a
        # 112x112 neck grid's 13 bands are a new output beside one band's product
        rows, index_map = self._neck(rng)
        for n in (self.CHUNK, 12544):
            py = rng.uniform(-1, self.H, n)
            px = rng.uniform(-1, self.W, n)
            ops._bilinear(rows, index_map, py, px)  # scipy.sparse is imported before tracing
            got, peak = traced_peak(ops._bilinear, rows, index_map, py, px)
            assert_bit_identical(got, four_corner_bilinear(rows, index_map, py, px))
            assert peak < 1.15 * n * self.F * 8

    def test_new_output_past_one_product_fills_in_chunks(self, rng, monkeypatch):
        # with CHUNK_VALUES = 4F, a new array is filled 4 samples at a time,
        # the last band holding the 1 to 4 left
        monkeypatch.setattr(ops, "CHUNK_VALUES", 4 * self.F)
        rows, index_map = self._neck(rng)
        for n in (self.F, self.F + 1, 3 * self.F + 2):
            self._check(rows, index_map, rng.uniform(-1, self.H, n), rng.uniform(-1, self.W, n))

    def test_shared_passive_rows_duplicate_columns(self, rng):
        # 2x2 children of a coarse cell share one passive row, so two corners
        # of one sample can resolve to the same row (duplicate CSR columns)
        coarse = tensor.from_dense(rng.standard_normal((self.F, 8, 8)), [])
        fine = tensor.subdivide(coarse, [lambda rows: rows] * 4)
        s = tensor.reselect(fine, [(int(y), int(x)) for y, x in rng.integers(0, 16, (30, 2))])
        py = rng.uniform(-1, 16, 400)
        px = rng.uniform(-1, 16, 400)
        y0, x0 = np.floor(py).astype(int), np.floor(px).astype(int)
        inside = (y0 >= 0) & (y0 < 15) & (x0 >= 0) & (x0 < 15)
        same = (s.index_map[y0[inside], x0[inside]] == s.index_map[y0[inside], x0[inside] + 1])
        assert np.count_nonzero(same) > 50
        self._check(s.rows(), s.index_map, py, px)


# --- the parent einsum contraction, kept as the bit-identity reference --------


def einsum_contract(gathered, k):
    """Row-major ``[n, T, F]`` taps contracted by ``einsum``: the form the
    feature-major GEMM replaced."""
    w = k.weights.reshape(k.f_out, k.f_in, k.k * k.k)
    return np.einsum("nti,oit->no", gathered, w, optimize=True) + k.bias


def einsum_conv2d_sparse(s, k):
    if s.n_active == 0:
        return s
    gathered = tensor.gather_taps(s.tap_rows(), s.index_map, s.active_coords(),
                                  ops._tap_offsets(k.k, k.dilation))
    return tensor.SpsTensor(active=einsum_contract(gathered, k), passive=s.passive,
                            index_map=s.index_map)


def einsum_sfm(s, k1, k3, k5):
    if s.n_active == 0:
        return s
    acc = np.zeros((s.n_active, s.f))
    for k in (k1, k3, k5):
        acc += einsum_conv2d_sparse(s, k).active
    return tensor.SpsTensor(active=acc, passive=s.passive, index_map=s.index_map)


def einsum_deform_conv_sparse(s, k, off):
    coords = s.active_coords()
    base = ops._tap_offsets(k.k, k.dilation)
    py = coords[:, 0:1] + base[None, :, 0] + off.offsets[:, :, 0]
    px = coords[:, 1:2] + base[None, :, 1] + off.offsets[:, :, 1]
    gathered = ops._bilinear(s.rows(), s.index_map, py, px)
    return tensor.SpsTensor(active=einsum_contract(gathered, k), passive=s.passive,
                            index_map=s.index_map)


def corner_sps(rng, f, side=9):
    """One active cell, in a corner, among passive rows shared by 2x2 children."""
    coarse = tensor.from_dense(rng.standard_normal((f, side, side)), [])
    fine = tensor.subdivide(coarse, [lambda rows: rows] * 4)
    return tensor.reselect(fine, [(2 * side - 1, 0)])


def fully_active_sps(rng, f, side):
    d = rng.standard_normal((f, side, side))
    return tensor.from_dense(d, [(y, x) for y in range(side) for x in range(side)])


class TestContractBitIdentity:
    """The feature-major GEMM of ``conv2d_sparse``, ``sfm`` and ``deform_conv_sparse``
    equals the einsum contraction bit for bit, sign bits included, at the shapes
    the pipeline runs: the stage-0 ``fcn`` (F=64, n=196), a fully active stage 1
    (F=32, n=784), stages 2-3 with shared passive rows and active cells on every
    border and corner (F=16 and 8, n about 800), and a single active cell."""

    SHAPES = {
        "fcn-f64-n196": lambda rng: fully_active_sps(rng, 64, 14),
        "f32-n784-no-passive": lambda rng: fully_active_sps(rng, 32, 28),
        "f16-n800-shared-passive": lambda rng: pipeline_shaped_sps(rng, 16, 56, n_inside=760)[1],
        "f8-n800-shared-passive": lambda rng: pipeline_shaped_sps(rng, 8, 112, n_inside=660)[1],
        "f16-n1": lambda rng: corner_sps(rng, 16),
    }

    @pytest.fixture(params=sorted(SHAPES))
    def sps(self, request, rng):
        s = self.SHAPES[request.param](rng)
        if request.param.endswith("-n1"):
            assert s.n_active == 1
        else:
            assert 190 <= s.n_active <= 850
        return s

    @staticmethod
    def _check(got, want):
        assert_bit_identical(got.active, want.active)
        np.testing.assert_array_equal(got.passive, want.passive)
        np.testing.assert_array_equal(got.index_map, want.index_map)

    @pytest.mark.parametrize("dilation", [1, 3, 5])
    def test_conv2d_sparse(self, rng, sps, dilation):
        k = random_kernel(rng, sps.f, dilation=dilation)
        self._check(ops.conv2d_sparse(sps, k), einsum_conv2d_sparse(sps, k))

    def test_sfm(self, rng, sps):
        ks = tuple(random_kernel(rng, sps.f, dilation=d) for d in (1, 3, 5))
        self._check(ops.sfm(sps, *ks), einsum_sfm(sps, *ks))

    def test_deform_conv_sparse(self, rng, sps):
        k = random_kernel(rng, sps.f, dilation=2)
        off = ops.OffsetField(rng.uniform(-2.5, 2.5, (sps.n_active, 9, 2)))
        self._check(ops.deform_conv_sparse(sps, k, off), einsum_deform_conv_sparse(sps, k, off))


def test_weights_mode_refinement_equals_einsum_reference(monkeypatch):
    """Every stage's probabilities of a weights-mode run at f0=64, with the
    budget binding at stages 2 and 3, equal a run on the einsum reference."""
    boxes = [gen_synthetic(SyntheticShapeSpec(canvas_h=224, canvas_w=224, seed=40 + i))[1]
             for i in range(6)]
    rois = [pipeline.RoiInput(box=box) for box in boxes]
    config = pipeline.RunConfig(mode="weights", f0=64, f_query=64, f_neck=64, seed=3,
                                top_n_active=1500, image_hw=(224, 224))
    got = pipeline.run_refinement(rois, config)
    cells = [(st["active_cells"], st["total_cells"]) for st in compare(got.ledger)["stages"]]
    assert cells[1][0] == cells[1][1]
    assert cells[2][0] < cells[2][1] and cells[3][0] < cells[3][1]

    calls = {"conv2d_sparse": 0, "sfm": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ops, "conv2d_sparse", counted("conv2d_sparse", einsum_conv2d_sparse))
    monkeypatch.setattr(ops, "sfm", counted("sfm", einsum_sfm))
    want = pipeline.run_refinement(rois, config)
    assert calls == {"conv2d_sparse": 4 * len(rois), "sfm": 3 * len(rois)}
    for s, (got_masks, want_masks) in enumerate(zip(got.stage_masks, want.stage_masks)):
        for g, w in zip(got_masks, want_masks):
            assert np.array_equal(g, w), f"stage {s} probabilities differ"


# --- the parent einsum/concat dense twins, kept as the reference of the GEMM forms --


def einsum_dense_pointwise(x, t):
    out = np.einsum("oi,ihw->ohw", t.weights, x, optimize=True) + t.bias[:, None, None]
    if t.activation == "relu":
        out = np.maximum(out, 0.0)
    return out


def einsum_dense_chain(x, transform):
    if isinstance(transform, ops.LinearTransform):
        return einsum_dense_pointwise(x, transform)
    for t in transform:
        x = einsum_dense_pointwise(x, t)
    return x


def einsum_dense_conv2d(x, k):
    f, h, w = x.shape
    r = (k.k // 2) * k.dilation
    padded = np.pad(x, ((0, 0), (r, r), (r, r)))
    out = np.zeros((k.f_out, h, w))
    for ky in range(k.k):
        for kx in range(k.k):
            oy, ox = ky * k.dilation, kx * k.dilation
            window = padded[:, oy:oy + h, ox:ox + w]
            out += np.einsum("oi,ihw->ohw", k.weights[:, :, ky, kx], window, optimize=True)
    return out + k.bias[:, None, None]


def einsum_dense_sfm(x, k1, k3, k5):
    return einsum_dense_conv2d(x, k1) + einsum_dense_conv2d(x, k3) + einsum_dense_conv2d(x, k5)


def einsum_dense_fuse(x, ext, transform):
    """The concat form, with the band source ``ext`` read whole in one call."""
    f, h, w = x.shape
    ext_grid = np.asarray(ext(slice(0, h * w))).T.reshape(-1, h, w)
    return x + einsum_dense_chain(np.concatenate([x, ext_grid], axis=0), transform)


def einsum_dense_deform_conv(x, k, offsets):
    f, h, w = x.shape
    base = ops._tap_offsets(k.k, k.dilation)
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    py = ys[:, :, None] + base[None, None, :, 0] + offsets[:, :, :, 0]
    px = xs[:, :, None] + base[None, None, :, 1] + offsets[:, :, :, 1]
    gathered = ops.dense_bilinear(x, py, px)
    wgt = k.weights.reshape(k.f_out, k.f_in, k.k * k.k)
    return np.einsum("hwti,oit->ohw", gathered, wgt, optimize=True) + k.bias[:, None, None]


def assert_close_to_reference(got, want):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestDenseGemmForms:
    """Each dense twin, one GEMM over ``[F, H*W]``, equals the einsum/concat form it
    replaced at the shapes the dense route runs: stage 0 (F=64 on 14x14), stage 1
    (F=32 on 28x28) and the stage-3 ``sfm`` (F=8 on 112x112)."""

    GRIDS = {"f64-14": (64, 14), "f32-28": (32, 28), "f8-112": (8, 112)}

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("activation", ["none", "relu"])
    def test_pointwise_and_halve(self, rng, grid, activation):
        f, side = self.GRIDS[grid]
        x = rng.standard_normal((f, side, side))
        for f_out in (f, f // 2):
            t = random_linear(rng, f, f_out, activation=activation)
            assert_close_to_reference(ops.dense_pointwise(x, t), einsum_dense_pointwise(x, t))
        chain = [random_linear(rng, f, f, "relu"), random_linear(rng, f, 1)]
        assert_close_to_reference(ops.dense_chain(x, chain), einsum_dense_chain(x, chain))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("dilation", [1, 3, 5])
    def test_conv2d(self, rng, grid, dilation):
        f, side = self.GRIDS[grid]
        x = rng.standard_normal((f, side, side))
        k = random_kernel(rng, f, dilation=dilation)
        assert_close_to_reference(ops.dense_conv2d(x, k), einsum_dense_conv2d(x, k))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_sfm(self, rng, grid):
        f, side = self.GRIDS[grid]
        x = rng.standard_normal((f, side, side))
        ks = tuple(random_kernel(rng, f, dilation=d) for d in (1, 3, 5))
        assert_close_to_reference(ops.dense_sfm(x, *ks), einsum_dense_sfm(x, *ks))

    def test_conv2d_kernel_larger_than_grid(self, rng):
        x = rng.standard_normal((3, 2, 5))
        k = ops.ConvKernel(rng.standard_normal((3, 3, 5, 5)), rng.standard_normal(3), dilation=2)
        assert_close_to_reference(ops.dense_conv2d(x, k), einsum_dense_conv2d(x, k))

    def test_deform_conv(self, rng):
        x = rng.standard_normal((8, 12, 12))
        k = random_kernel(rng, 8, dilation=2)
        offsets = rng.uniform(-2.5, 2.5, (12, 12, 9, 2))
        assert_close_to_reference(ops.dense_deform_conv(x, k, offsets),
                                  einsum_dense_deform_conv(x, k, offsets))

    FUSE = {"single": lambda rng, f, f_e: ops.LinearTransform(
                rng.standard_normal((f, f + f_e)), rng.standard_normal(f)),
            "relu-chain": lambda rng, f, f_e: [random_linear(rng, f + f_e, f, "relu"),
                                               random_linear(rng, f, f)]}

    @staticmethod
    def _neck_bands(rng, f_e, side):
        """The dense route's neck input: channel-last sample rows, one per cell,
        each band a new array, as the neck sampler returns it."""
        rows = rng.standard_normal((side * side, f_e))
        return lambda band: rows[band].copy()

    @pytest.mark.parametrize("chain", sorted(FUSE))
    @pytest.mark.parametrize("grid", [(64, 28), (16, 112)])
    def test_fuse_neck_view(self, rng, chain, grid):
        f, side = grid
        ext = self._neck_bands(rng, 256, side)
        x = rng.standard_normal((f, side, side))
        transform = self.FUSE[chain](rng, f, 256)
        got, peak = traced_peak(ops.dense_fuse, x, ext, transform)
        assert_close_to_reference(got, einsum_dense_fuse(x, ext, transform))
        # no [F_e, H*W] block is allocated: one band of neck values beside the
        # [F, H*W] products, which on the 112 grid is under a third of such a block
        bound = 8 * ops.CHUNK_VALUES + 4 * x.nbytes
        assert peak < bound
        assert side < 112 or 3 * bound < 8 * 256 * side * side

    @pytest.mark.parametrize("chain", sorted(FUSE))
    def test_fuse_broadcast_query(self, rng, chain):
        x = rng.standard_normal((64, 14, 14))
        query = rng.standard_normal(256)
        transform = self.FUSE[chain](rng, 64, 256)
        ext = lambda band: np.broadcast_to(query, (band.stop - band.start, 256))  # noqa: E731
        assert_close_to_reference(ops.dense_fuse(x, ext, transform),
                                  einsum_dense_fuse(x, ext, transform))

    @pytest.mark.parametrize("chain", sorted(FUSE))
    @pytest.mark.parametrize("ext_kind,grid,rows_per_band", [
        ("neck", (64, 28), 3), ("neck", (16, 112), 3), ("query", (64, 14), 13)])
    def test_fuse_in_uneven_bands(self, rng, monkeypatch, chain, ext_kind, grid, rows_per_band):
        # CHUNK_VALUES a little over rows_per_band grid rows of 256 values: the
        # bands are rows_per_band rows each, then a one-row tail, on both
        # fusions (fuse_external's rows are every cell, row-major)
        f, side = grid
        monkeypatch.setattr(ops, "CHUNK_VALUES", rows_per_band * side * 256 + 255)
        if ext_kind == "neck":
            source = self._neck_bands(rng, 256, side)
        else:
            query = rng.standard_normal(256)
            source = lambda band: np.broadcast_to(query, (band.stop - band.start, 256))  # noqa: E731
        bands = []

        def ext(band):
            bands.append((band.start, band.stop))
            return source(band)

        x = rng.standard_normal((f, side, side))
        transform = self.FUSE[chain](rng, f, 256)
        got = ops.dense_fuse(x, ext, transform)
        starts = range(0, side, rows_per_band)
        want_bands = [(lo * side, min(lo + rows_per_band, side) * side) for lo in starts]
        assert bands == want_bands
        assert side % rows_per_band == 1 and bands[-1][1] - bands[-1][0] == side
        assert_close_to_reference(got, einsum_dense_fuse(x, ext, transform))
        # fuse_external's bands fill the block that one whole-block fill gives
        s = tensor.from_dense(x, [divmod(c, side) for c in range(side * side)])
        bands.clear()
        got = ops.fuse_external(s, ext, transform)
        assert bands == want_bands
        whole = np.concatenate([s.active, source(slice(0, side * side))], axis=1)
        assert_bit_identical(got.active, ops.apply_chain(transform, whole) + s.active)


def weights_mode_run(rois, sparse):
    config = pipeline.RunConfig(mode="weights", f0=32, f_query=64, f_neck=64, seed=5,
                                image_hw=(224, 224))
    return pipeline.run_refinement(rois, config, sparse=sparse)


def synthetic_rois(count, seed0):
    return [pipeline.RoiInput(box=gen_synthetic(SyntheticShapeSpec(
        canvas_h=224, canvas_w=224, seed=seed0 + i))[1]) for i in range(count)]


def test_weights_mode_dense_route_equals_einsum_reference(monkeypatch):
    """Every stage's probabilities of a weights-mode dense run match a run with
    the einsum/concat dense twins patched in."""
    rois = synthetic_rois(3, 60)
    got = weights_mode_run(rois, sparse=False)
    for name, ref in (("dense_pointwise", einsum_dense_pointwise),
                      ("dense_chain", einsum_dense_chain), ("dense_conv2d", einsum_dense_conv2d),
                      ("dense_sfm", einsum_dense_sfm), ("dense_fuse", einsum_dense_fuse)):
        monkeypatch.setattr(ops, name, ref)
    want = weights_mode_run(rois, sparse=False)
    assert len(got.stage_masks) == 4
    for s, (got_masks, want_masks) in enumerate(zip(got.stage_masks, want.stage_masks)):
        for g, w in zip(got_masks, want_masks):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12,
                                       err_msg=f"stage {s} probabilities differ")


def test_dense_twins_use_no_sparse_helper(rng, monkeypatch):
    """The dense twins are the sparse operators' oracle, so none of them may reach
    the sparse gather or contraction helpers: every ``ops.dense_*`` call of a
    dense weights-mode run, and each twin called directly, runs with those
    helpers made to fail."""
    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"dense route reached {name}")
        return fail

    for owner, name in ((ops, "_contract"), (ops, "_im2col"), (ops, "_tap_columns"),
                        (ops, "_tap_index"), (tensor, "_tap_index"), (tensor, "gather_taps")):
        monkeypatch.setattr(owner, name, forbidden(name))
    calls = {}
    for name in [n for n in dir(ops) if n.startswith("dense_")]:
        def counted(*args, _fn=getattr(ops, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(ops, name, counted)
    weights_mode_run(synthetic_rois(2, 70), sparse=False)
    assert {"dense_pointwise", "dense_chain", "dense_conv2d", "dense_sfm", "dense_fuse",
            "dense_subdivide"} <= set(calls)

    x = rng.standard_normal((4, 9, 9))
    k = random_kernel(rng, 4, dilation=3)
    ops.dense_conv2d(x, k)
    ops.dense_sfm(x, *(random_kernel(rng, 4, dilation=d) for d in (1, 3, 5)))
    ops.dense_deform_conv(x, k, rng.uniform(-1, 1, (9, 9, 9, 2)))
    ops.dense_fuse(x, grid_bands(rng.standard_normal((6, 9, 9))), random_linear(rng, 10, 4))
    ops.dense_chain(x, [random_linear(rng, 4, 4, "relu"), random_linear(rng, 4, 2)])


def test_map_preserving_ops_skip_the_map_check(rng, monkeypatch):
    """Each op that keeps the index map reuses the input's checked map; only
    its new matrices are checked (``tensor._with_rows``)."""
    _, s = random_sps(rng, h=6, w=7, f=4, n_active=20)
    checks = []
    monkeypatch.setattr(tensor.SpsTensor, "_check_index_map", lambda self: checks.append(1))
    k = [random_kernel(rng, 4, dilation=d) for d in (1, 3, 5)]
    outs = [ops.conv2d_sparse(s, k[0]), ops.sfm(s, *k), ops.relu_active(s),
            ops.pointwise(s, random_linear(rng, 4, 4)),
            ops.halve_features(s, random_linear(rng, 4, 2)),
            ops.fuse_external(s, row_bands(rng.standard_normal((20, 3))), random_linear(rng, 7, 4)),
            ops.deform_conv_sparse(s, k[0], ops.OffsetField(rng.uniform(-1, 1, (20, 9, 2))))]
    assert not checks
    assert all(out.index_map is s.index_map for out in outs)


LAYERS = {"linear": (ops.LinearTransform, (3, 2)), "conv": (ops.ConvKernel, (3, 2, 3, 3))}


class TestLayerContract:
    """Both layer classes state one contract: float64 weights of the class's
    rank, an ``[F_out]`` bias and finite entries."""

    @pytest.mark.parametrize("layer", LAYERS)
    def test_valid_layer(self, layer):
        cls, shape = LAYERS[layer]
        t = cls(np.ones(shape, dtype=np.float32), [1, 2, 3])
        assert t.weights.dtype == t.bias.dtype == np.float64
        assert (t.f_in, t.f_out) == (2, 3) and ops._chain_ends(t) == (2, 3)

    @pytest.mark.parametrize("layer", LAYERS)
    @pytest.mark.parametrize("weights_shape", [lambda s: s[:-1], lambda s: s + (1,), lambda s: ()])
    def test_wrong_rank_rejected(self, layer, weights_shape):
        cls, shape = LAYERS[layer]
        with pytest.raises(ContractError, match="rank"):
            cls(np.zeros(weights_shape(shape)), np.zeros(3))

    @pytest.mark.parametrize("layer", LAYERS)
    @pytest.mark.parametrize("bias_shape", [(2,), (4,), (3, 1), ()])
    def test_wrong_bias_shape_rejected(self, layer, bias_shape):
        cls, shape = LAYERS[layer]
        with pytest.raises(ContractError, match="bias"):
            cls(np.zeros(shape), np.zeros(bias_shape))

    @pytest.mark.parametrize("layer", LAYERS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_non_finite_rejected(self, layer, value, where):
        cls, shape = LAYERS[layer]
        arrays = {"weights": np.zeros(shape), "bias": np.zeros(3)}
        arrays[where].flat[-1] = value
        with pytest.raises(ContractError, match="finite"):
            cls(**arrays)

    @pytest.mark.parametrize("k_shape", [(2, 2), (3, 5), (5, 3)])
    def test_conv_needs_square_odd_kernel(self, k_shape):
        with pytest.raises(ContractError, match="K odd"):
            ops.ConvKernel(np.zeros((3, 2) + k_shape), np.zeros(3))

    def test_linear_is_a_1x1_conv(self, rng):
        t = random_linear(rng, 5, 4)
        k = ops.ConvKernel(t.weights[:, :, None, None], t.bias)
        assert t.k == k.k == 1
        assert ops._chain_ends(k) == ops._chain_ends(t) == ops._chain_ends([t]) == (5, 4)
        assert pipeline._macs(7, t) == pipeline._macs(7, k) == 7 * 5 * 4

    def test_chain_ends_accepts_a_conv(self, rng):
        assert ops._chain_ends(random_kernel(rng, 6, k=5)) == (6, 6)
        with pytest.raises(ContractError, match="next reads"):
            ops._chain_ends([random_linear(rng, 6, 4), random_kernel(rng, 6)])
