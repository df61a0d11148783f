import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spsr import tensor
from spsr.errors import ContractError

from conftest import random_sps, traced_peak


def full_grid(h, w):
    return [(y, x) for y in range(h) for x in range(w)]


class TestFromDense:
    def test_fully_active(self, rng):
        d = rng.standard_normal((2, 3, 3))
        s = tensor.from_dense(d, full_grid(3, 3))
        assert s.n_active == 9 and s.n_passive == 0
        assert sorted(s.index_map.ravel().tolist()) == list(range(9))

    def test_fully_passive(self, rng):
        d = rng.standard_normal((2, 3, 3))
        s = tensor.from_dense(d, [])
        assert s.n_active == 0 and s.n_passive == 9

    def test_mixed_multiplicities(self, rng):
        d = rng.standard_normal((2, 3, 3))
        s = tensor.from_dense(d, [(0, 0), (0, 2), (1, 1), (2, 2)])
        counts = np.bincount(s.index_map.ravel(), minlength=9)
        assert s.n_active == 4 and s.n_passive == 5
        assert np.all(counts[:4] == 1) and np.all(counts[4:] >= 1)

    def test_out_of_range_cell_rejected(self, rng):
        d = rng.standard_normal((2, 3, 3))
        with pytest.raises(ContractError):
            tensor.from_dense(d, [(3, 0)])

    def test_active_rows_row_major(self, rng):
        d = rng.standard_normal((3, 4, 4))
        s = tensor.from_dense(d, [(2, 1), (0, 3), (1, 0)])
        # canonical order: (0,3), (1,0), (2,1)
        np.testing.assert_array_equal(s.active[0], d[:, 0, 3])
        np.testing.assert_array_equal(s.active[1], d[:, 1, 0])
        np.testing.assert_array_equal(s.active[2], d[:, 2, 1])

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((3, 3)), r"must be \[F, H, W\]"),
        (np.zeros((1, 2, 3, 3)), r"must be \[F, H, W\]"),
        (np.zeros((0, 3, 3)), "dims must be >= 1"),
        (np.zeros((2, 0, 3)), "dims must be >= 1"),
        (np.zeros((2, 3, 0)), "dims must be >= 1"),
        (np.where(np.arange(18).reshape(2, 3, 3) == 7, np.nan, 1.0), "finite"),
        (np.where(np.arange(18).reshape(2, 3, 3) == 0, np.inf, 1.0), "finite"),
        (np.where(np.arange(18).reshape(2, 3, 3) == 17, -np.inf, 1.0), "finite"),
    ])
    def test_bad_dense_rejected_before_building(self, bad, message, monkeypatch):
        built = []
        monkeypatch.setattr(tensor.SpsTensor, "__post_init__", lambda self: built.append(1))
        with pytest.raises(ContractError, match=message):
            tensor.from_dense(bad, [])
        assert not built


def per_cell_from_dense(d, active_cells):
    """Reference split: a Python bounds check per cell, then an active mask and
    an index map built cell by cell (active cells row-major, then every other
    cell row-major)."""
    h, w = d.shape[1:]
    pairs = []
    for c in active_cells:
        y, x = int(c[0]), int(c[1])
        if not (0 <= y < h and 0 <= x < w):
            raise ContractError(f"cell ({y}, {x}) outside {h}x{w} grid")
        pairs.append((y, x))
    cells = np.unique(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=0)
    active_mask = np.zeros((h, w), dtype=bool)
    active_mask[cells[:, 0], cells[:, 1]] = True
    index_map = np.empty((h, w), dtype=np.int64)
    index_map[cells[:, 0], cells[:, 1]] = np.arange(len(cells))
    pys, pxs = np.nonzero(~active_mask)
    index_map[pys, pxs] = len(cells) + np.arange(len(pys))
    active = d[:, cells[:, 0], cells[:, 1]].T
    passive = d[:, pys, pxs].T
    return active, passive, index_map


class TestFromDenseReference:
    """``from_dense`` (``reselect`` of the all-passive view) == the per-cell builder."""

    @staticmethod
    def assert_same_split(s, ref):
        active, passive, index_map = ref
        assert np.array_equal(s.active, active.reshape(-1, s.f))
        assert np.array_equal(s.passive, passive.reshape(-1, s.f))
        assert np.array_equal(s.index_map, index_map)

    @pytest.mark.parametrize("kind", ["ndarray", "list", "generator"])
    def test_random_cells(self, rng, kind):
        for _ in range(200):
            h, w, f = (int(v) for v in rng.integers(1, 13, size=3))
            d = rng.standard_normal((f, h, w))
            # duplicates included: up to 1.5x the grid, drawn with replacement
            cells = rng.integers(0, [h, w], size=(int(rng.integers(0, 3 * h * w // 2 + 1)), 2))
            given = {"ndarray": lambda: cells,
                     "list": lambda: [tuple(c) for c in cells.tolist()],
                     "generator": lambda: (tuple(c) for c in cells)}[kind]
            self.assert_same_split(tensor.from_dense(d, given()), per_cell_from_dense(d, given()))

    def test_duplicate_cells_collapse(self, rng):
        d = rng.standard_normal((2, 3, 4))
        cells = [(2, 3), (0, 1), (2, 3), (0, 1), (0, 1)]
        s = tensor.from_dense(d, cells)
        assert s.n_active == 2 and s.n_passive == 10
        self.assert_same_split(s, per_cell_from_dense(d, cells))

    @pytest.mark.parametrize("bad", [(3, 0), (0, 4), (-1, 2), (1, -1)])
    def test_out_of_grid_ndarray_rejected(self, rng, bad):
        d = rng.standard_normal((2, 3, 4))
        cells = np.array([(0, 0), bad, (1, 1)])
        with pytest.raises(ContractError, match=rf"cell \({bad[0]}, {bad[1]}\) outside 3x4"):
            tensor.from_dense(d, cells)
        with pytest.raises(ContractError, match=rf"cell \({bad[0]}, {bad[1]}\) outside 3x4"):
            per_cell_from_dense(d, cells)


class TestToDense:
    def test_roundtrip_exact(self, rng):
        for _ in range(20):
            d, s = random_sps(rng)
            np.testing.assert_array_equal(tensor.to_dense(s), d)

    def test_duplicated_passive_appears_everywhere(self):
        # one active row, one passive row shared by three cells
        s = tensor.SpsTensor(active=[[1.0]], passive=[[5.0]],
                             index_map=[[0, 1], [1, 1]])
        dense = tensor.to_dense(s)
        assert dense[0, 0, 0] == 1.0
        assert dense[0, 0, 1] == dense[0, 1, 0] == dense[0, 1, 1] == 5.0

    def test_empty_active_set(self, rng):
        d = rng.standard_normal((2, 4, 5))
        s = tensor.from_dense(d, [])
        np.testing.assert_array_equal(tensor.to_dense(s), d)

    def test_resolves_the_reference_split(self, rng):
        for _ in range(50):
            f, h, w = (int(v) for v in rng.integers(1, 9, size=3))
            d = rng.standard_normal((f, h, w))
            cells = rng.integers(0, [h, w], size=(int(rng.integers(0, h * w + 1)), 2))
            active, passive, index_map = per_cell_from_dense(d, cells)
            want = np.concatenate([active, passive])[index_map].transpose(2, 0, 1)
            got = tensor.to_dense(tensor.from_dense(d, cells))
            assert type(got) is np.ndarray and got.shape == (f, h, w)
            assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_from_dense_of_to_dense_roundtrips(self, rng):
        for _ in range(20):
            _, s = random_sps(rng)
            back = tensor.from_dense(tensor.to_dense(s), s.active_coords())
            for name in ("active", "passive", "index_map"):
                assert np.array_equal(getattr(back, name), getattr(s, name))
            # shared passive rows come back one per cell, with the same values
            shared = tensor.subdivide(s, [lambda r: r] * 4)
            back = tensor.from_dense(tensor.to_dense(shared), shared.active_coords())
            assert np.array_equal(back.index_map < back.n_active,
                                  shared.index_map < shared.n_active)
            assert np.array_equal(tensor.to_dense(back), tensor.to_dense(shared))


class TestInvariants:
    def test_active_exactly_once_rejected(self):
        with pytest.raises(ContractError):
            tensor.SpsTensor(active=[[1.0], [2.0]], passive=np.zeros((0, 1)),
                             index_map=[[0, 0], [1, 1]])

    def test_unreferenced_passive_rejected(self):
        with pytest.raises(ContractError):
            tensor.SpsTensor(active=[[1.0]], passive=[[2.0], [3.0]],
                             index_map=[[0, 1], [1, 1]])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ContractError):
            tensor.SpsTensor(active=[[1.0]], passive=[[2.0]],
                             index_map=[[0, 5], [1, 1]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 6),
           st.randoms(use_true_random=False))
    def test_roundtrip_property(self, h, w, f, py_rng):
        rng = np.random.default_rng(py_rng.getrandbits(32))
        dense = rng.standard_normal((f, h, w))
        n = int(rng.integers(0, h * w + 1))
        cells = [(y, x) for y in range(h) for x in range(w)]
        chosen = [cells[i] for i in rng.permutation(h * w)[:n]]
        s = tensor.from_dense(dense, chosen)
        assert s.n_active == n
        np.testing.assert_array_equal(tensor.to_dense(s), dense)


class TestGatherTaps:
    def test_zero_row_equals_masked_gather(self, rng):
        # reference: gather through a clipped map, then zero the out-of-grid taps
        taps = rng.integers(-4, 5, size=(9, 2))
        for _ in range(200):
            _, s = random_sps(rng)
            if s.n_active == 0:
                continue
            coords = s.active_coords()
            ny = coords[:, 0:1] + taps[None, :, 0]
            nx = coords[:, 1:2] + taps[None, :, 1]
            inside = (ny >= 0) & (ny < s.h) & (nx >= 0) & (nx < s.w)
            want = s.rows()[s.index_map[ny.clip(0, s.h - 1), nx.clip(0, s.w - 1)]]
            want[~inside] = 0.0
            got = tensor.gather_taps(s.tap_rows(), s.index_map, coords, taps)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_tap_rows_end_in_one_zero_row(self, rng):
        _, s = random_sps(rng, h=4, w=5, f=3, n_active=7)
        rows = s.tap_rows()
        np.testing.assert_array_equal(rows[:-1], s.rows())
        assert rows.shape == (s.n_active + s.n_passive + 1, 3) and not np.any(rows[-1])


class TestSubdivide:
    def test_identity_children_copy_parent(self, rng):
        d, s = random_sps(rng, h=4, w=4, f=3)
        out = tensor.subdivide(s, [lambda r: r] * 4)
        up = np.repeat(np.repeat(tensor.to_dense(s), 2, axis=1), 2, axis=2)
        np.testing.assert_array_equal(tensor.to_dense(out), up)

    def test_hand_enumerated_1x2(self):
        s = tensor.SpsTensor(active=[[1.0]], passive=[[9.0]], index_map=[[0, 1]])
        out = tensor.subdivide(s, [lambda r, i=i: r + i for i in range(4)])
        assert out.n_active == 4 and out.n_passive == 1
        np.testing.assert_array_equal(out.index_map, [[0, 1, 4, 4], [2, 3, 4, 4]])
        np.testing.assert_array_equal(out.active.ravel(), [1.0, 2.0, 3.0, 4.0])
        assert np.count_nonzero(out.index_map == 4) == 4

    def test_distinct_child_transforms_in_order(self, rng):
        d, s = random_sps(rng, h=2, w=2, f=2, n_active=4)
        mats = [rng.standard_normal((2, 2)) for _ in range(4)]
        out = tensor.subdivide(s, [lambda r, m=m: r @ m.T for m in mats])
        dense_in = tensor.to_dense(s)
        dense_out = tensor.to_dense(out)
        for y in range(2):
            for x in range(2):
                parent = dense_in[:, y, x]
                for c, m in enumerate(mats):
                    i, j = divmod(c, 2)
                    np.testing.assert_allclose(dense_out[:, 2 * y + i, 2 * x + j], m @ parent)

    def test_passive_storage_constant(self, rng):
        for _ in range(10):
            _, s = random_sps(rng)
            out = tensor.subdivide(s, [lambda r: r] * 4)
            assert out.n_passive == s.n_passive
            assert out.n_active == 4 * s.n_active
            np.testing.assert_array_equal(out.passive, s.passive)

    def test_wrong_arity_rejected(self, rng):
        _, s = random_sps(rng, h=2, w=2, f=2)
        with pytest.raises(ContractError):
            tensor.subdivide(s, [lambda r: r] * 3)


class TestReselect:
    def test_new_split_invariants(self, rng):
        for _ in range(30):
            _, s = random_sps(rng)
            n = int(rng.integers(0, s.h * s.w + 1))
            cells = [(y, x) for y in range(s.h) for x in range(s.w)]
            chosen = [cells[i] for i in rng.permutation(s.h * s.w)[:n]]
            out = tensor.reselect(s, chosen)
            assert out.n_active == n
            np.testing.assert_array_equal(tensor.to_dense(out),
                                          tensor.to_dense(s))

    def test_duplicated_passive_splits(self):
        s = tensor.SpsTensor(active=[[1.0]], passive=[[5.0]],
                             index_map=[[0, 1], [1, 1]])
        out = tensor.reselect(s, [(0, 1)])
        # the shared passive row: one copy becomes active, two cells keep sharing
        assert out.n_active == 1 and out.n_passive == 2
        np.testing.assert_array_equal(tensor.to_dense(out),
                                      tensor.to_dense(s))


class TestWithRows:
    """Ops that keep the index map build their output with ``_with_rows``,
    which checks the new matrices and reuses the source's checked map."""

    def sps(self, rng):
        _, s = random_sps(rng, h=5, w=6, f=4, n_active=12)
        return s

    @pytest.mark.parametrize("active_rows, passive_rows", [(11, None), (13, None), (12, 17),
                                                           (12, 19), (0, None)])
    def test_wrong_row_count_rejected(self, rng, active_rows, passive_rows):
        s = self.sps(rng)
        passive = None if passive_rows is None else np.zeros((passive_rows, 4))
        with pytest.raises(ContractError, match="differ from the index map"):
            tensor._with_rows(s, np.zeros((active_rows, 4)), passive)

    def test_wrong_ndim_or_width_rejected(self, rng):
        s = self.sps(rng)
        with pytest.raises(ContractError, match="2D"):
            tensor._with_rows(s, np.zeros(12))
        with pytest.raises(ContractError, match="feature sizes differ"):
            tensor._with_rows(s, np.zeros((12, 3)))
        with pytest.raises(ContractError, match="feature sizes differ"):
            tensor._with_rows(s, np.zeros((12, 2)), np.zeros((s.n_passive, 3)))

    def test_reuses_the_checked_map(self, rng, monkeypatch):
        s = self.sps(rng)
        checks = []
        monkeypatch.setattr(tensor.SpsTensor, "_check_index_map", lambda self: checks.append(1))
        out = tensor._with_rows(s, s.active * 2.0, s.passive + 1.0)
        assert not checks and out.index_map is s.index_map
        assert not (out.active.flags.writeable or out.passive.flags.writeable)
        np.testing.assert_array_equal(tensor.to_dense(out)[:, s.index_map < 12],
                                      2.0 * tensor.to_dense(s)[:, s.index_map < 12])

    def test_other_constructions_stay_checked(self, rng, monkeypatch):
        s = self.sps(rng)
        checks = []
        real = tensor.SpsTensor._check_index_map
        monkeypatch.setattr(tensor.SpsTensor, "_check_index_map",
                            lambda self: checks.append(1) or real(self))
        tensor.reselect(s, [(0, 0)])
        tensor.subdivide(s, [lambda rows: rows] * 4)
        tensor.SpsTensor(active=s.active, passive=s.passive, index_map=s.index_map)
        assert len(checks) == 3


def _bad_map(index_map):
    with pytest.raises(ContractError, match="index map"):
        tensor.SpsTensor(active=np.zeros((1, 2)), passive=np.zeros((0, 2)), index_map=index_map)


class TestIndexMapContract:
    """The tensor range-checks its own index map before it counts it, so a value
    that addresses no row raises at once instead of sizing a count table."""

    @pytest.mark.parametrize("index_map", [
        [[4000000000]], [[-1]], [[1]], [[2**70]],
        np.array([[0xFFFFFFFF]], dtype=np.uint32), np.array([[-1]], dtype=np.int8),
        [[0.0]], np.array([[0.5]]), [[True]], [["0"]],
    ], ids=["4e9", "-1", "one-past", "2^70", "u32-max", "i8-neg", "float-zero", "float",
            "bool", "str"])
    def test_bad_map_raises_without_a_table(self, index_map):
        _, peak = traced_peak(_bad_map, index_map)
        assert peak < 1 << 20

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64])
    def test_integer_maps_are_stored_as_uint32(self, dtype):
        s = tensor.SpsTensor(active=[[1.0], [2.0]], passive=[[3.0]],
                             index_map=np.array([[1, 2], [0, 2]], dtype=dtype))
        assert s.index_map.dtype == tensor.INDEX_DTYPE and not s.index_map.flags.writeable
        np.testing.assert_array_equal(s.index_map, [[1, 2], [0, 2]])
