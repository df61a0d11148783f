"""One tensor type, SPS, plus converters to and from dense ``[F, H, W]`` arrays.

A structure-preserving sparse (SPS) tensor splits a 2D feature grid into an
``N_A x F`` matrix of active features (one row per active cell), an
``N_P x F`` matrix of passive features (rows may be referenced by several
cells), and a dense ``[H, W]`` index map. Indices below ``N_A`` point into the
active matrix, the rest into the passive matrix, so any 2D neighborhood can
still be resolved while only active rows are ever recomputed.

``SpsTensor`` checks its contract on construction, for the file loaders too:
the map is range-checked before any value is converted or counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError

INDEX_DTYPE = np.uint32


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_rows(active, passive) -> tuple[np.ndarray, np.ndarray]:
    """Active and passive rows as read-only float64 matrices of one feature width."""
    act = np.asarray(active, dtype=np.float64)
    pas = np.asarray(passive, dtype=np.float64)
    if act.ndim != 2 or pas.ndim != 2:
        raise ContractError("active/passive must be 2D matrices")
    if act.shape[0] > 0 and pas.shape[0] > 0 and act.shape[1] != pas.shape[1]:
        raise ContractError("active and passive feature sizes differ")
    return _readonly(act), _readonly(pas)


@dataclass
class SpsTensor:
    """Active matrix, passive matrix and index map over an ``H x W`` grid.

    Invariants (checked on construction):
      * index values are integers in ``[0, N_A + N_P)``;
      * every active index appears exactly once in the map;
      * every passive index appears at least once (duplicates allowed).
    """

    active: np.ndarray
    passive: np.ndarray
    index_map: np.ndarray

    def __post_init__(self):
        self.active, self.passive = _checked_rows(self.active, self.passive)
        self.index_map = np.asarray(self.index_map)
        self._check_index_map()
        self.index_map = _readonly(self.index_map.astype(INDEX_DTYPE, copy=False))

    def _check_index_map(self):
        """The invariants above; the range before any value is converted or counted."""
        idx, n_a, n_p = self.index_map, self.n_active, self.n_passive
        if idx.ndim != 2 or idx.dtype.kind not in "iu":
            raise ContractError(f"index map must be a 2D integer array, not a {idx.ndim}D "
                                f"{idx.dtype} one")
        if idx.size and not (0 <= idx.min() and idx.max() < n_a + n_p):
            raise ContractError(f"index map values must lie in [0, {n_a + n_p})")
        counts = np.bincount(idx.ravel().astype(np.intp, copy=False), minlength=n_a + n_p)
        if n_a and not np.all(counts[:n_a] == 1):
            raise ContractError("each active index must appear exactly once in the index map")
        if n_p and not np.all(counts[n_a:] >= 1):
            raise ContractError("each passive index must appear at least once in the index map")

    @property
    def f(self) -> int:
        return self.active.shape[1] if self.n_active else self.passive.shape[1]

    @property
    def h(self) -> int:
        return self.index_map.shape[0]

    @property
    def w(self) -> int:
        return self.index_map.shape[1]

    @property
    def n_active(self) -> int:
        return self.active.shape[0]

    @property
    def n_passive(self) -> int:
        return self.passive.shape[0]

    def rows(self) -> np.ndarray:
        """All feature rows, active first; row ``i`` backs index-map value ``i``."""
        if self.n_active == 0:
            return self.passive
        if self.n_passive == 0:
            return self.active
        return np.concatenate([self.active, self.passive], axis=0)

    def tap_rows(self) -> np.ndarray:
        """:meth:`rows` followed by one zero row, the row that
        :func:`gather_taps` reads for out-of-grid taps."""
        n_a = self.n_active
        out = np.zeros((n_a + self.n_passive + 1, self.f))
        if n_a:
            out[:n_a] = self.active
        if self.n_passive:
            out[n_a:-1] = self.passive
        return out

    def active_coords(self) -> np.ndarray:
        """``(N_A, 2)`` array of (y, x), ordered by active row index."""
        ys, xs = np.nonzero(self.index_map < self.n_active)
        order = np.argsort(self.index_map[ys, xs], kind="stable")
        return np.stack([ys[order], xs[order]], axis=1)


def _with_rows(s: SpsTensor, active: np.ndarray, passive: np.ndarray | None = None) -> SpsTensor:
    """``s`` with new feature rows on its unchanged, already-checked index map.

    The map stays valid while the row counts stay the same, so only the new
    matrices are checked (2D, ``s``'s row counts, one feature width); the
    map's own check in ``SpsTensor.__post_init__`` is not run again.
    ``passive`` defaults to ``s``'s passive rows.
    """
    act, pas = _checked_rows(active, s.passive if passive is None else passive)
    if (act.shape[0], pas.shape[0]) != (s.n_active, s.n_passive):
        raise ContractError(f"derived rows {act.shape[0]}+{pas.shape[0]} differ from the "
                            f"index map's {s.n_active}+{s.n_passive}")
    out = object.__new__(SpsTensor)
    out.active, out.passive, out.index_map = act, pas, s.index_map
    return out


def _normalize_cells(cells: Iterable, h: int, w: int) -> np.ndarray:
    """Return unique (y, x) pairs in row-major order, bounds-checked."""
    arr = np.asarray(cells if isinstance(cells, np.ndarray) else list(cells))
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    arr = arr.astype(np.int64)
    inside = (arr[:, 0] >= 0) & (arr[:, 0] < h) & (arr[:, 1] >= 0) & (arr[:, 1] < w)
    if not inside.all():
        y, x = arr[np.argmin(inside), :2]
        raise ContractError(f"cell ({y}, {x}) outside {h}x{w} grid")
    return np.stack(np.divmod(np.unique(arr[:, 0] * w + arr[:, 1]), w), axis=1)


def from_dense(x: np.ndarray, active_cells: Iterable) -> SpsTensor:
    """Split a dense ``[F, H, W]`` array into active rows (given cells) and
    passive rows; ``ContractError`` unless ``x`` is 3D, non-empty in every
    dimension and finite.

    Active rows follow row-major order of the active cells; every non-active
    cell contributes its own passive row (no deduplication at construction).
    This is :func:`reselect` of the all-passive view of ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ContractError(f"dense features must be [F, H, W], got shape {x.shape}")
    if min(x.shape) < 1:
        raise ContractError(f"dense dims must be >= 1, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ContractError("dense features must be finite")
    f, h, w = x.shape
    view = SpsTensor(active=np.zeros((0, f)), passive=x.reshape(f, -1).T,
                     index_map=np.arange(h * w).reshape(h, w))
    return reselect(view, active_cells)


def to_dense(s: SpsTensor) -> np.ndarray:
    """The full ``[F, H, W]`` float64 array, each cell resolved through the index map."""
    return s.rows()[s.index_map.astype(np.int64)].transpose(2, 0, 1)


def _tap_index(index: np.ndarray, coords: np.ndarray, taps: np.ndarray, pad: int) -> np.ndarray:
    """Row of each tap ``coords + taps`` through the index map ``index``,
    tap-major ``[T, N]``; a tap outside the grid gets row ``pad``.

    The map is framed by a border of ``pad`` as wide as the longest tap, so a
    tap of an in-grid coord lands in the grid or in that border, and each
    index is one flat lookup.
    """
    h, w = index.shape
    r = int(np.abs(taps).max(initial=0))
    framed = np.full((h + 2 * r, w + 2 * r), pad, dtype=np.intp)
    framed[r:r + h, r:r + w] = index
    stride = w + 2 * r
    return framed.ravel()[taps[:, 0:1] * stride + taps[:, 1:2]
                          + ((coords[:, 0] + r) * stride + coords[:, 1] + r)]


def gather_taps(rows: np.ndarray, index: np.ndarray, coords: np.ndarray,
                taps: np.ndarray) -> np.ndarray:
    """Rows at ``coords + taps`` through the index map ``index``, ``[N, T, F]``;
    ``coords`` lie in the grid.

    ``rows`` ends in one zero row (:meth:`SpsTensor.tap_rows`), which every
    out-of-grid tap reads: the one padding policy of every gather in this
    package. The tap index comes from ``_tap_index``, which the sparse
    convolutions in ``ops`` call too.
    """
    return rows[_tap_index(index, coords, taps, len(rows) - 1).T]


def subdivide(s: SpsTensor, child_maps: Sequence[Callable[[np.ndarray], np.ndarray]]) -> SpsTensor:
    """Double the grid; each active cell becomes 4 active children.

    Child ``(i, j)`` of active row ``a`` gets row ``4a + 2i + j``, computed by
    ``child_maps[2i + j]`` from the parent row. Passive rows are untouched:
    all 4 children of a passive cell reference the parent's (renumbered) row.
    """
    if len(child_maps) != 4:
        raise ContractError(f"need exactly 4 child transforms, got {len(child_maps)}")
    n_a, n_p = s.n_active, s.n_passive
    if n_a:
        children = [np.asarray(m(s.active), dtype=np.float64) for m in child_maps]
        for ch in children:
            if ch.shape != s.active.shape:
                raise ContractError("child transform must map F -> F row-wise")
        # interleave so that row 4a + c is child c of parent a
        new_active = np.stack(children, axis=1).reshape(4 * n_a, s.f)
    else:
        new_active = np.zeros((0, s.f))

    idx = s.index_map.astype(np.int64)
    child_index = np.empty((2 * s.h, 2 * s.w), dtype=np.int64)
    active_part = idx < n_a
    for i in (0, 1):
        for j in (0, 1):
            block = np.where(active_part, 4 * idx + 2 * i + j, 3 * n_a + idx)
            child_index[i::2, j::2] = block
    return SpsTensor(active=new_active, passive=s.passive, index_map=child_index)


def reselect(s: SpsTensor, active_cells: Iterable) -> SpsTensor:
    """Re-split an SPS tensor around a new active set (index-map maintenance).

    Each newly active cell receives its own row (copied from whatever row the
    cell referenced, active or passive); surviving rows that are still
    referenced by non-active cells stay passive, keeping their relative order.
    Rows no longer referenced anywhere are dropped.
    """
    cells = _normalize_cells(active_cells, s.h, s.w)
    n_new = len(cells)
    rows = s.rows()
    idx = s.index_map.astype(np.int64)

    active_mask = np.zeros((s.h, s.w), dtype=bool)
    if n_new:
        active_mask[cells[:, 0], cells[:, 1]] = True

    new_active = rows[idx[cells[:, 0], cells[:, 1]]] if n_new else np.zeros((0, s.f))

    survivors = np.unique(idx[~active_mask])  # sorted == old row order preserved
    remap = np.full(s.n_active + s.n_passive, -1, dtype=np.int64)
    remap[survivors] = n_new + np.arange(len(survivors))
    new_passive = rows[survivors] if len(survivors) else np.zeros((0, s.f))

    new_index = np.where(active_mask, 0, remap[idx])
    if n_new:
        new_index[cells[:, 0], cells[:, 1]] = np.arange(n_new)
    return SpsTensor(active=new_active, passive=new_passive, index_map=new_index)
