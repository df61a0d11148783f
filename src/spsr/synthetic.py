"""Seeded synthetic masks (disks, ellipses, harmonic blobs) for benchmarks.

Shapes are star-convex around their center, so rasterizations at sane sizes
stay 4-connected; every shape can be rasterized in any pixel frame, which
gives exact reference masks in both image space and RoI space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .io import MAX_MASK_PIXELS
from .metrics import _box
from .ops import CHUNK_VALUES
from .pipeline import RoiBox, RoiInput, cell_centers, seeded_rng

SHAPES = ("disk", "ellipse", "blob")
BLOB_HARMONICS = 4  # boundary harmonics of a blob, orders 2..5
BLOB_AMPLITUDE = 0.25  # summed harmonic amplitudes, relative to the radius
# Slack of the radius and angle tiers of ``SyntheticShape.contains``, relative
# to the largest bound: far above the rounding of ``hypot`` and of a bound sum
# (about 1e-15), far below the radial step between two pixels.
TIER_MARGIN = 1e-9
# Pixels per row band of a rasterization: the float temporaries of a band
# (256 KiB each) stay in a core's L2 cache, and stay well under CHUNK_VALUES.
BAND_PIXELS = CHUNK_VALUES // 8


@dataclass(frozen=True)
class SyntheticShapeSpec:
    shape: str = "blob"
    canvas_h: int = 448
    canvas_w: int = 448
    seed: int = 0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ContractError(f"unknown shape {self.shape!r}")
        if self.canvas_h < 16 or self.canvas_w < 16:
            raise ContractError("canvas too small")
        if self.canvas_h * self.canvas_w > MAX_MASK_PIXELS:
            raise ContractError(f"canvas {self.canvas_w}x{self.canvas_h} is over the "
                                f"{MAX_MASK_PIXELS}-pixel cap")


@dataclass(frozen=True)
class SyntheticShape:
    """A concrete sampled shape; ``contains`` tests points in image space."""

    kind: str
    cx: float
    cy: float
    rx: float
    ry: float
    angle: float
    harmonics: tuple
    phases: tuple

    def __post_init__(self):
        if self.rx <= 0.0 or self.ry <= 0.0:
            raise ContractError("shape radii must be positive")

    @property
    def reach(self) -> float:
        """No point of the shape lies farther than this from its center."""
        return max(self.rx, self.ry) * (1.0 + sum(abs(a) for a in self.harmonics))

    def contains(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Whether each point (``xs``, ``ys`` broadcast) lies in the shape.

        In the shape's unit frame ``(u, v)`` a point is in when
        ``hypot(u, v) <= bound(arctan2(v, u))``, with ``bound`` 1 for disks and
        ellipses and ``1 + sum(a_h * cos(h * theta + phase_h))`` for blobs. A
        blob decides each point in three tiers with that very result: the
        radius settles the points whose ``u*u + v*v`` lies off the ring
        ``[1 - A, 1 + A]`` (``A = sum(|a_h|)``), a table of the bound settles
        the ring points that are off the outline by more than its slack, and
        only the rest evaluate the bound at their own angle.
        """
        dx = np.asarray(xs, dtype=np.float64) - self.cx
        dy = np.asarray(ys, dtype=np.float64) - self.cy
        c, s = np.cos(self.angle), np.sin(self.angle)
        u = (c * dx + s * dy) / self.rx
        v = (-s * dx + c * dy) / self.ry
        if not self.harmonics:
            return np.hypot(u, v) <= 1.0
        a = sum(abs(amp) for amp in self.harmonics)
        margin = TIER_MARGIN * (1.0 + a)
        lo, hi = max(1.0 - a - margin, 0.0), 1.0 + a + margin
        r2 = u * u + v * v
        inside = np.asarray(r2 < lo * lo)
        ring = (r2 <= hi * hi) & ~inside  # a point with a NaN coordinate is out
        if ring.any():
            u, v, r2 = (np.asarray(x)[ring] for x in (u, v, r2))
            inside[ring] = self._ring_contains(u, v, r2, a)
        return inside[()]

    def _ring_contains(self, u: np.ndarray, v: np.ndarray, r2: np.ndarray,
                       a: float) -> np.ndarray:
        """``contains`` for ring points of the unit frame, given ``r2 = u*u + v*v``
        and ``a = sum(|a_h|)``.

        The bound is read at the nearest of ``2**k`` table angles. Between two
        angles ``step`` apart it moves by at most ``L * step / 2``, with
        ``L = sum(h * |a_h|)`` its Lipschitz constant, so a point whose radius
        ``sqrt(r2)`` is farther than that slack (plus the margin, which covers
        the rounding of ``sqrt`` against ``hypot``) from the table's bound is
        settled; only the rest evaluate ``hypot`` and their own bound. The
        table grows with the square root of the ring, which keeps both the
        table and the points left to evaluate small beside the ring.
        """
        theta = np.arctan2(v, u)
        n = 1 << (2 + (len(u).bit_length() + 1) // 2)
        step = 2.0 * np.pi / n
        table = self._bound(-np.pi + step * np.arange(n + 1))
        near = table[np.rint((theta + np.pi) / step).astype(np.intp)]
        lip = sum(h * abs(amp) for h, amp in enumerate(self.harmonics, start=2))
        slack = lip * step / 2 + TIER_MARGIN * (1.0 + a + lip)
        rho = np.sqrt(r2)
        inside = rho < near - slack
        exact = np.flatnonzero((rho <= near + slack) & ~inside)
        inside[exact] = np.hypot(u[exact], v[exact]) <= self._bound(theta[exact])
        return inside

    def _bound(self, theta: np.ndarray) -> np.ndarray:
        """A blob's boundary radius at the angles ``theta``, in the unit frame."""
        bound = np.ones_like(theta)
        for h, (amp, phase) in enumerate(zip(self.harmonics, self.phases), start=2):
            bound = bound + amp * np.cos(h * theta + phase)
        return bound

    def rasterize(self, x0: float, y0: float, x1: float, y1: float,
                  out_hw: tuple) -> np.ndarray:
        """Sample the shape at the pixel centers of a frame over [x0,x1)x[y0,y1)."""
        h, w = out_hw
        out = np.empty((h, w), dtype=bool)
        _fill(out, self, cell_centers(x0, x1, w), cell_centers(y0, y1, h))
        return out


def _fill(out: np.ndarray, shape: SyntheticShape, xs: np.ndarray, ys: np.ndarray) -> None:
    """Write ``shape.contains`` at the pixel centers ``xs`` (columns) and ``ys``
    (rows) into ``out``, in row bands of at most ``BAND_PIXELS`` pixels (one
    row, if a row is longer), so the float temporaries stay bounded."""
    step = max(1, BAND_PIXELS // max(len(xs), 1))
    for r in range(0, len(ys), step):
        out[r:r + step] = shape.contains(xs[None, :], ys[r:r + step, None])


def sample_shape(spec: SyntheticShapeSpec) -> SyntheticShape:
    rng = seeded_rng(spec.seed, "shape", spec.shape)
    short = min(spec.canvas_h, spec.canvas_w)
    r_lo, r_hi = 0.12 * short, 0.30 * short
    rx = float(rng.uniform(r_lo, r_hi))
    ry = rx if spec.shape == "disk" else float(rng.uniform(r_lo, r_hi))
    angle = 0.0 if spec.shape == "disk" else float(rng.uniform(0.0, np.pi))
    # worst-case reach of the boundary, used to keep the shape inside the canvas
    reach = max(rx, ry) * (1.0 + (BLOB_AMPLITUDE if spec.shape == "blob" else 0.0))
    margin = reach + 2.0
    if 2 * margin >= min(spec.canvas_w, spec.canvas_h):
        raise ContractError("shape cannot fit inside the canvas")
    cx = float(rng.uniform(margin, spec.canvas_w - margin))
    cy = float(rng.uniform(margin, spec.canvas_h - margin))
    if spec.shape == "blob":
        raw = rng.uniform(0.3, 1.0, size=BLOB_HARMONICS)
        amps = raw / raw.sum() * BLOB_AMPLITUDE
        phases = rng.uniform(0.0, 2 * np.pi, size=BLOB_HARMONICS)
        harmonics, phase_t = tuple(float(a) for a in amps), tuple(float(p) for p in phases)
    else:
        harmonics, phase_t = (), ()
    return SyntheticShape(kind=spec.shape, cx=cx, cy=cy, rx=rx, ry=ry, angle=angle,
                          harmonics=harmonics, phases=phase_t)


def gen_synthetic(spec: SyntheticShapeSpec) -> tuple[np.ndarray, RoiBox, SyntheticShape]:
    """Rasterize one seeded shape; returns (image mask, tight box, shape).

    Only the pixels within the shape's reach of its center (plus one for
    rounding) are tested, at the pixel centers of the full-canvas frame; every
    other pixel is background. The box is the window's :func:`metrics._box`.
    """
    shape = sample_shape(spec)
    h, w = spec.canvas_h, spec.canvas_w
    r = shape.reach + 1.0
    rows = slice(max(0, int(np.floor(shape.cy - r))), min(h, int(np.ceil(shape.cy + r))))
    cols = slice(max(0, int(np.floor(shape.cx - r))), min(w, int(np.ceil(shape.cx + r))))
    mask = np.zeros((h, w), dtype=bool)
    window = mask[rows, cols]
    _fill(window, shape, cell_centers(0.0, float(w), w)[cols],
          cell_centers(0.0, float(h), h)[rows])
    ys, xs = _box(window)
    if ys.start == ys.stop:
        raise ContractError("degenerate shape rasterized to an empty mask")
    box = RoiBox(x0=float(cols.start + xs.start), y0=float(rows.start + ys.start),
                 x1=float(cols.start + xs.stop), y1=float(rows.start + ys.stop))
    return mask, box, shape


def reference_mask(shape: SyntheticShape, box: RoiBox, side: int) -> np.ndarray:
    """RoI-frame reference rasterization at ``side x side`` pixels."""
    return shape.rasterize(box.x0, box.y0, box.x1, box.y1, (side, side))


def roi_corpus(count: int, shape: str, canvas: int, seed: int, side: int) -> list[RoiInput]:
    """``count`` RoIs of one image, shape ``i`` drawn with seed ``seed + i`` on
    a square ``canvas``, each boxed tightly with its ``side x side`` reference mask."""
    rois = []
    for i in range(count):
        spec = SyntheticShapeSpec(shape=shape, canvas_h=canvas, canvas_w=canvas, seed=seed + i)
        _, box, sampled = gen_synthetic(spec)
        rois.append(RoiInput(box=box, ref_mask=reference_mask(sampled, box, side)))
    return rois
