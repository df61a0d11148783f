"""2D operators over SPS tensors, with dense reference implementations.

A layer's weights come as a :class:`LinearTransform` (``[F_out, F_in]``, a
``1 x 1`` convolution with ``k == 1``) or a :class:`ConvKernel`
(``[F_out, F_in, K, K]``). Both derive from :class:`Layer`, which states
their shared contract once (float64, the class's rank, an ``[F_out]`` bias,
finite entries) and owns ``f_in`` and ``f_out``, so width checks and MAC
counts read any layer alike.

Every sparse operator updates only the active rows; the passive rows and the
index map pass through untouched (feature halving is the one exception, since
it changes the feature size of every row). The index map and the row counts
never change, so each output reuses the input's checked map
(``tensor._with_rows``). Each operator has a dense twin
(``dense_*``) acting on a plain ``[F, H, W]`` array, used as the equivalence
oracle and as the dense pipeline route. Integer taps resolve through the one
tap index of ``tensor.gather_taps`` (out-of-grid taps read a zero row) and
real-valued samples through one bilinear kernel (:func:`_bilinear`), which the
dense twins reach through an identity index map.
The bilinear kernel is a sparse-matrix product: a CSR matrix of corner
weights, at most four per sample, times the feature rows, taken a chunk of
samples at a time and written into the caller's output block.

A sparse convolution is one GEMM (:func:`_contract`). Its input is
feature-major columns ``[F_in * T, n]``, row ``i * T + t`` holding feature ``i``
of tap ``t`` for each of the ``n`` active cells, and its weights are the
``[F_out, F_in * T]`` view of ``[F_out, F_in, K, K]``. The integer-tap
convolutions gather those columns with one ``np.take`` from the transposed
tap rows; the deformable one transposes its bilinear samples. This is exactly
the matmul that ``np.einsum("nti,oit->no", taps, w, optimize=True)`` runs on a
``[n, T, F_in]`` tap block, after copying that block into the same layout, so
the results are bit-identical to the einsum it replaces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError
from .tensor import SpsTensor, _tap_index, _with_rows

ACTIVATIONS = ("none", "relu")
# Values a chunked fill holds beside its output: bilinear samples of F features
# go CHUNK_VALUES // F at a time, and the neck is drawn this many at a time.
CHUNK_VALUES = 1 << 18


@dataclass
class Layer:
    """The contract every layer shares: float64 ``weights`` of rank ``RANK``,
    ``[F_out, F_in, ...]``, a ``[F_out]`` bias, and finite entries."""

    weights: np.ndarray
    bias: np.ndarray

    RANK: ClassVar[int]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != self.RANK or self.bias.shape != (self.f_out,):
            raise ContractError(f"{type(self).__name__} needs rank-{self.RANK} weights and an "
                                f"[F_out] bias, not {self.weights.shape} and {self.bias.shape}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ContractError(f"{type(self).__name__} entries must be finite")

    @property
    def f_in(self) -> int:
        return self.weights.shape[1]

    @property
    def f_out(self) -> int:
        return self.weights.shape[0]


@dataclass
class LinearTransform(Layer):
    """Affine map ``rows @ W.T + b`` with an optional relu: a ``1 x 1`` convolution."""

    activation: str = "none"

    RANK = 2
    k = 1

    def __post_init__(self):
        super().__post_init__()
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"unknown activation {self.activation!r}")

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1] != self.f_in:
            raise ContractError(f"expected {self.f_in} input features, got {rows.shape[-1]}")
        out = rows @ self.weights.T
        out += self.bias
        if self.activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out


TransformChain = LinearTransform | Sequence[LinearTransform]


def _layers(transform: Layer | Sequence[Layer]) -> list:
    """A single layer or a chain of them, as a list."""
    return [transform] if isinstance(transform, Layer) else list(transform)


def apply_chain(transform: TransformChain, rows: np.ndarray) -> np.ndarray:
    for t in _layers(transform):
        rows = t.apply(rows)
    return rows


def _chain_ends(transform: Layer | Sequence[Layer]) -> tuple[int, int]:
    """Input and output width of a layer, or of a chain whose every layer reads
    the width the layer before it writes."""
    ts = _layers(transform)
    if not ts:
        raise ContractError("empty transform chain")
    for a, b in zip(ts, ts[1:]):
        if a.f_out != b.f_in:
            raise ContractError(f"chain layer writes {a.f_out} features, the next reads {b.f_in}")
    return ts[0].f_in, ts[-1].f_out


@dataclass
class ConvKernel(Layer):
    """``[F_out, F_in, K, K]`` convolution weights with a dilation; K must be odd."""

    dilation: int = 1

    RANK = 4

    def __post_init__(self):
        super().__post_init__()
        if self.weights.shape[2] != self.weights.shape[3] or self.k % 2 != 1:
            raise ContractError(f"conv weights must be [F_out, F_in, K, K] with K odd, "
                                f"not {self.weights.shape}")
        if self.dilation < 1:
            raise ContractError("dilation must be >= 1")

    @property
    def k(self) -> int:
        return self.weights.shape[2]


@dataclass
class OffsetField:
    """Per-active-cell fractional sampling offsets, ``K*K`` (dy, dx) per cell.

    Offsets displace the kernel's regular (dilated) tap grid, so an all-zero
    field reproduces the plain convolution.
    """

    offsets: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        if self.offsets.ndim != 3 or self.offsets.shape[2] != 2:
            raise ContractError("offsets must be [N_active, K*K, 2]")
        if not np.all(np.isfinite(self.offsets)):
            raise ContractError("offsets must be finite")


@functools.cache
def _tap_offsets(k: int, dilation: int) -> np.ndarray:
    """``[K*K, 2]`` (dy, dx) of a dilated ``K x K`` kernel's taps, row-major;
    built once per (k, dilation) and read-only, as every call shares it."""
    r = k // 2
    grid = np.arange(-r, r + 1) * dilation
    dy, dx = np.meshgrid(grid, grid, indexing="ij")
    taps = np.stack([dy.ravel(), dx.ravel()], axis=1)
    taps.flags.writeable = False
    return taps


# the 25 distinct taps of sfm's dilation-1, -3 and -5 branches, and each branch's 9 of them
_SFM_TAPS, _SFM_BRANCHES = np.unique(np.concatenate([_tap_offsets(3, d) for d in (1, 3, 5)]),
                                     axis=0, return_inverse=True)
_SFM_BRANCHES = _SFM_BRANCHES.reshape(3, 9)


def _tap_columns(s: SpsTensor) -> np.ndarray:
    """:meth:`SpsTensor.tap_rows` feature-major, a C-contiguous ``[F, N + 1]``
    array, so that one ``np.take`` gathers a whole ``[F, T, n]`` column block.
    Each row is written once, straight into its column."""
    n_a = s.n_active
    columns = np.empty((s.f, n_a + s.n_passive + 1))
    columns[:, :n_a] = s.active.T
    columns[:, n_a:-1] = s.passive.T
    columns[:, -1] = 0.0
    return columns


def _im2col(columns: np.ndarray, tap_index: np.ndarray) -> np.ndarray:
    """Feature-major columns ``[F * T, n]`` (row ``i * T + t``) of a ``[T, n]`` tap index."""
    return np.take(columns, tap_index, axis=1).reshape(-1, tap_index.shape[1])


def _contract(cols: np.ndarray, k: ConvKernel) -> np.ndarray:
    """``[n, F_out]`` outputs of feature-major columns ``[F_in * T, n]``: one GEMM
    with the ``[F_out, F_in * T]`` weight view, then the bias, added in place."""
    out = np.matmul(k.weights.reshape(k.f_out, -1), cols).T
    out += k.bias
    return out


def pointwise(s: SpsTensor, t: LinearTransform) -> SpsTensor:
    """Apply a linear layer to the active rows only."""
    if t.f_in != s.f:
        raise ContractError(f"transform expects F={t.f_in}, tensor has F={s.f}")
    if t.f_out != s.f and s.n_passive > 0:
        raise ContractError("feature-size-changing pointwise is only legal on fully-active tensors")
    return _with_rows(s, t.apply(s.active))


def halve_features(s: SpsTensor, t: LinearTransform) -> SpsTensor:
    """Project every row (active and passive) from F to F/2 with one shared map."""
    if s.f % 2 != 0:
        raise ContractError(f"feature size {s.f} is odd, cannot halve")
    if t.f_in != s.f or t.f_out != s.f // 2:
        raise ContractError(f"halving transform must map {s.f} -> {s.f // 2}")
    return _with_rows(s, t.apply(s.active), t.apply(s.passive))


def conv2d_sparse(s: SpsTensor, k: ConvKernel) -> SpsTensor:
    """Dilated 2D convolution evaluated at the active cells via the index map."""
    if k.f_in != s.f:
        raise ContractError(f"kernel expects F_in={k.f_in}, tensor has F={s.f}")
    if k.f_out != s.f:
        raise ContractError("conv output feature size must equal input (residual-compatible)")
    if s.n_active == 0:
        return s
    columns = _tap_columns(s)
    taps = _tap_index(s.index_map, s.active_coords(), _tap_offsets(k.k, k.dilation),
                      columns.shape[1] - 1)
    return _with_rows(s, _contract(_im2col(columns, taps), k))


def deform_conv_sparse(s: SpsTensor, k: ConvKernel, off: OffsetField) -> SpsTensor:
    """Deformable convolution: taps displaced per cell, bilinear through the map.

    A tap landing exactly on integer coordinates hits that single cell with
    weight one; samples outside the grid read the zero vector.
    """
    if k.f_in != s.f or k.f_out != s.f:
        raise ContractError("kernel feature sizes must equal tensor F")
    if off.offsets.shape[:2] != (s.n_active, k.k * k.k):
        raise ContractError(
            f"offset field shape {off.offsets.shape[:2]} != (N_active={s.n_active}, taps={k.k * k.k})"
        )
    if s.n_active == 0:
        return s
    coords = s.active_coords()
    base = _tap_offsets(k.k, k.dilation)
    py = coords[:, 0:1] + base[None, :, 0] + off.offsets[:, :, 0]
    px = coords[:, 1:2] + base[None, :, 1] + off.offsets[:, :, 1]
    gathered = _bilinear(s.rows(), s.index_map, py, px)  # [n, T, F]
    cols = gathered.transpose(2, 1, 0).reshape(-1, s.n_active)
    return _with_rows(s, _contract(cols, k))


def _bilinear(rows: np.ndarray, index_map: np.ndarray, py: np.ndarray, px: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Sample the field that ``index_map`` resolves into ``rows`` at real
    positions; output ``py.shape + (F,)``, zero outside the grid.

    The samples are written into ``out``, a ``[py.size, F]`` float64 block of
    any strides (such as a column block of a wider array), or into a new
    array when ``out`` is None. A block of another shape raises
    ``ContractError``.

    Each chunk of ``CHUNK_VALUES // F`` samples is one product ``W @ rows`` with
    a sparse weight matrix ``W`` (one CSR row per sample), so only one chunk's
    product is held beside ``out``. With ``out`` None and every sample in one
    chunk, or at most ``CHUNK_VALUES // 4`` samples (so that the CSR index
    arrays hold at most ``CHUNK_VALUES`` entries), all samples are one product,
    which is returned itself, uncopied. Each row holds its corners in the
    order (y0, x0), (y0, x1), (y1, x0), (y1, x1), with column
    ``index_map[cy, cx]``; a corner outside the grid or with zero weight gets
    no entry, so an all-outside sample is a ``+0.0`` row. Two corners may
    share a column (cells that reference one passive row). The matrix is never
    canonicalised (no ``sum_duplicates``, ``sort_indices`` or
    ``eliminate_zeros``): the product then adds each row's terms in corner
    order from ``+0.0``, exactly as a four-corner loop of
    ``out += weight * row`` does, so results are bit-identical to it, however
    the samples are chunked.
    """
    from scipy.sparse import csr_array  # loaded only where samples are taken

    h, w = index_map.shape
    shape = np.shape(py)
    py, px = np.ravel(py), np.ravel(px)
    n, f = len(py), rows.shape[1]
    if out is not None and (out.shape != (n, f) or out.dtype != np.float64):
        raise ContractError(f"output block {out.shape} of {out.dtype} cannot hold {n} "
                            f"float64 samples of {f} features")
    step = max(1, CHUNK_VALUES // max(f, 1))
    if out is None and 0 < n <= max(step, CHUNK_VALUES // 4):
        step = n  # one product is the output
    elif out is None:
        out = np.empty((n, f))
    for lo in range(0, n, step):
        y, x = py[lo:lo + step], px[lo:lo + step]
        y0 = np.floor(y).astype(np.int64)
        x0 = np.floor(x).astype(np.int64)
        wy = y - y0
        wx = x - x0
        ay, ax = 1.0 - wy, 1.0 - wx
        cy = y0[:, None] + (0, 0, 1, 1)  # corners (y0, x0), (y0, x1), (y1, x0), (y1, x1)
        cx = x0[:, None] + (0, 1, 0, 1)
        weight = np.empty(cy.shape)
        for c, (a, b) in enumerate(((ay, ax), (ay, wx), (wy, ax), (wy, wx))):
            np.multiply(a, b, out=weight[:, c])
        # viewed as unsigned, a negative coordinate exceeds every side: one compare per axis
        keep = (cy.view(np.uint64) < h) & (cx.view(np.uint64) < w) & (weight != 0.0)
        cells = cy * w
        cells += cx
        # int32 index arrays, which SciPy takes as they are, neither scanned nor cast
        indptr = np.zeros(len(y0) + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(keep.ravel(), dtype=np.int32)[3::4]
        columns = index_map.take(cells[keep]).astype(np.int32)
        matrix = csr_array((weight[keep], columns, indptr), shape=(len(y0), rows.shape[0]))
        if out is None:
            out = matrix @ rows
        else:
            out[lo:lo + step] = matrix @ rows
    return out.reshape(shape + (f,))


def sfm(s: SpsTensor, k1: ConvKernel, k3: ConvKernel, k5: ConvKernel) -> SpsTensor:
    """Fuse three parallel 3x3 convolutions at dilations 1, 3 and 5 by addition."""
    for expected, k in ((1, k1), (3, k3), (5, k5)):
        if k.k != 3:
            raise ContractError("fusion branches must use 3x3 kernels")
        if k.dilation != expected:
            raise ContractError(f"branch dilation {k.dilation}, expected {expected}")
        if k.f_in != s.f or k.f_out != s.f:
            raise ContractError("branch feature sizes must equal tensor F")
    if s.n_active == 0:
        return s
    columns = _tap_columns(s)
    taps = _tap_index(s.index_map, s.active_coords(), _SFM_TAPS, columns.shape[1] - 1)
    acc = np.zeros((s.n_active, s.f))
    for k, branch in zip((k1, k3, k5), _SFM_BRANCHES):
        acc += _contract(_im2col(columns, taps[branch]), k)
    return _with_rows(s, acc)


def fuse_external(s: SpsTensor, ext: Callable[[np.ndarray], object],
                  transform: TransformChain) -> SpsTensor:
    """Residual fusion: each active row beside its external vector, mapped, added.

    The fusion input ``[N_A, F + F_e]`` is allocated once, with ``F + F_e`` the
    transform's input width. The active rows fill its left block, and
    ``ext(block)`` writes the external rows into the ``[N_A, F_e]`` right
    block, a strided view. ``ext`` is not called when no row is active.
    """
    f_in, f_out = _chain_ends(transform)
    if f_in <= s.f or f_out != s.f:
        raise ContractError(f"fusion transform maps {f_in} -> {f_out}, not {s.f}+F_e -> {s.f}")
    if s.n_active == 0:
        return s
    fused = np.empty((s.n_active, f_in))
    fused[:, :s.f] = s.active
    ext(fused[:, s.f:])
    update = apply_chain(transform, fused)
    update += s.active
    return _with_rows(s, update)


def relu_active(s: SpsTensor) -> SpsTensor:
    """Elementwise relu on active rows (MAC-free; used between conv layers)."""
    if s.n_active == 0:
        return s
    return _with_rows(s, np.maximum(s.active, 0.0))


# --- dense reference implementations -------------------------------------
#
# These act on plain [F, H, W] arrays, and each layer is one GEMM over the
# [F, H*W] view: a pointwise layer is ``W @ x.reshape(F, -1)``, a convolution
# multiplies the ``[F_out, F_in*K*K]`` weight view with one ``[F_in*K*K, H*W]``
# im2col block cut from the zero-padded input (Chellapilla et al. 2006), and a
# fusion applies its first layer as two weight blocks, one per input, so the
# two inputs are never concatenated, and reads its external input a band of
# grid rows at a time. A strided input such as a transposed channel-last grid
# reshapes to a strided view, which BLAS reads transposed.
# The convolutions, fusions and chains share no code with the sparse
# operators above; the bilinear sampler is the one kernel both sides use, and
# tests/test_ops.py checks it against SciPy's map_coordinates as the
# independent reference.


def _epilogue(out: np.ndarray, t: LinearTransform) -> np.ndarray:
    """Add ``t``'s bias to the ``[F_out, H*W]`` product ``out``, then its
    activation, both in place."""
    out += t.bias[:, None]
    if t.activation == "relu":
        np.maximum(out, 0.0, out=out)
    return out


def dense_pointwise(x: np.ndarray, t: LinearTransform) -> np.ndarray:
    f, h, w = x.shape
    return _epilogue(t.weights @ x.reshape(f, -1), t).reshape(t.f_out, h, w)


def dense_chain(x: np.ndarray, transform: TransformChain) -> np.ndarray:
    for t in _layers(transform):
        x = dense_pointwise(x, t)
    return x


def _shifts(x: np.ndarray, pad: int) -> np.ndarray:
    """``[F, 2*pad + 1, 2*pad + 1, H, W]`` view of ``x`` zero-padded by ``pad``:
    entry ``[:, pad + dy, pad + dx]`` is ``x`` shifted by the tap offset (dy, dx)."""
    f, h, w = x.shape
    return sliding_window_view(np.pad(x, ((0, 0), (pad, pad), (pad, pad))), (h, w), axis=(1, 2))


def _conv_gemm(shifts: np.ndarray, k: ConvKernel) -> np.ndarray:
    """``[F_out, H*W]`` convolution: one GEMM with the im2col block, a copy of
    the kernel's ``K*K`` taps of a :func:`_shifts` view."""
    pad, r = shifts.shape[1] // 2, (k.k // 2) * k.dilation
    taps = slice(pad - r, pad + r + 1, k.dilation)
    cols = shifts[:, taps, taps].reshape(-1, shifts.shape[3] * shifts.shape[4])
    out = k.weights.reshape(k.f_out, -1) @ cols
    out += k.bias[:, None]
    return out


def dense_conv2d(x: np.ndarray, k: ConvKernel) -> np.ndarray:
    f, h, w = x.shape
    return _conv_gemm(_shifts(x, (k.k // 2) * k.dilation), k).reshape(k.f_out, h, w)


def dense_bilinear(x: np.ndarray, py: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Sample ``[F, H, W]`` at real positions (zero outside); output ``[..., F]``."""
    f, h, w = x.shape
    return _bilinear(x.reshape(f, -1).T, np.arange(h * w).reshape(h, w), py, px)


def dense_deform_conv(x: np.ndarray, k: ConvKernel, offsets: np.ndarray) -> np.ndarray:
    """Deformable conv over every cell; ``offsets`` is ``[H, W, K*K, 2]``."""
    f, h, w = x.shape
    base = _tap_offsets(k.k, k.dilation)
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    py = ys[:, :, None] + base[None, None, :, 0] + offsets[:, :, :, 0]
    px = xs[:, :, None] + base[None, None, :, 1] + offsets[:, :, :, 1]
    gathered = dense_bilinear(x, py, px)  # [H, W, T, F]
    cols = gathered.transpose(3, 2, 0, 1).reshape(-1, h * w)  # row i*T + t
    out = k.weights.reshape(k.f_out, -1) @ cols
    out += k.bias[:, None]
    return out.reshape(k.f_out, h, w)


def dense_sfm(x: np.ndarray, k1: ConvKernel, k3: ConvKernel, k5: ConvKernel) -> np.ndarray:
    """The three branch convolutions, each one GEMM, read one padded input."""
    f, h, w = x.shape
    shifts = _shifts(x, max((k.k // 2) * k.dilation for k in (k1, k3, k5)))
    out = _conv_gemm(shifts, k1)
    out += _conv_gemm(shifts, k3)
    out += _conv_gemm(shifts, k5)
    return out.reshape(k1.f_out, h, w)


def dense_fuse(x: np.ndarray, ext: Callable[[slice], np.ndarray],
               transform: TransformChain) -> np.ndarray:
    """Dense twin of :func:`fuse_external`, whose external input comes band
    by band: ``ext(cells)`` returns the ``F_e`` external features of the
    row-major cells ``cells`` (a slice of whole grid rows) as an ``[n, F_e]``
    array, with ``F_e`` the transform's input width beyond ``F``.

    The first layer's weights split into the block that reads ``x``, one GEMM
    over every cell, and the block that reads the external input, applied one
    band of whole grid rows at a time: at most ``CHUNK_VALUES`` external
    values (or one grid row) per band, so the external input is never held
    whole. The later layers are plain pointwise layers.
    """
    first, *rest = _layers(transform)
    f, h, w = x.shape
    out = first.weights[:, :f] @ x.reshape(f, -1)
    step = max(1, CHUNK_VALUES // max(w * (first.f_in - f), 1)) * w  # cells per band
    for lo in range(0, h * w, step):
        cells = slice(lo, min(lo + step, h * w))
        out[:, cells] += first.weights[:, f:] @ ext(cells).T
    update = _epilogue(out, first).reshape(first.f_out, h, w)
    for t in rest:
        update = dense_pointwise(update, t)
    update += x
    return update


def dense_subdivide(x: np.ndarray, child_maps: Sequence) -> np.ndarray:
    """Dense twin of tensor subdivision: 2x upsample with per-child maps."""
    if len(child_maps) != 4:
        raise ContractError("need exactly 4 child transforms")
    f, h, w = x.shape
    flat = x.reshape(f, -1).T  # [H*W, F]
    out = np.zeros((f, 2 * h, 2 * w))
    for c, m in enumerate(child_maps):
        i, j = divmod(c, 2)
        out[:, i::2, j::2] = np.asarray(m(flat)).T.reshape(f, h, w)
    return out
