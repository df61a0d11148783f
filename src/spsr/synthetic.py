"""Seeded synthetic masks (disks, ellipses, harmonic blobs) for benchmarks.

Shapes are star-convex around their center, so rasterizations at sane sizes
stay 4-connected; every shape can be rasterized in any pixel frame, which
gives exact reference masks in both image space and RoI space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .pipeline import RoiBox, RoiInput, seeded_rng

SHAPES = ("disk", "ellipse", "blob")
BLOB_HARMONICS = 4  # boundary harmonics of a blob, orders 2..5
BLOB_AMPLITUDE = 0.25  # summed harmonic amplitudes, relative to the radius


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
        dx = np.asarray(xs, dtype=np.float64) - self.cx
        dy = np.asarray(ys, dtype=np.float64) - self.cy
        c, s = np.cos(self.angle), np.sin(self.angle)
        u = (c * dx + s * dy) / self.rx
        v = (-s * dx + c * dy) / self.ry
        rho = np.hypot(u, v)
        if not self.harmonics:
            return rho <= 1.0
        theta = np.arctan2(v, u)
        bound = np.ones_like(rho)
        for h, (amp, phase) in enumerate(zip(self.harmonics, self.phases), start=2):
            bound = bound + amp * np.cos(h * theta + phase)
        return rho <= bound

    def rasterize(self, x0: float, y0: float, x1: float, y1: float,
                  out_hw: tuple) -> np.ndarray:
        """Sample the shape at the pixel centers of a frame over [x0,x1)x[y0,y1)."""
        h, w = out_hw
        gx, gy = np.meshgrid(_centers(x0, x1, w), _centers(y0, y1, h))
        return self.contains(gx, gy)


def _centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Pixel-center coordinates of ``n`` pixels spanning ``[lo, hi)``."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


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
    other pixel is background.
    """
    shape = sample_shape(spec)
    h, w = spec.canvas_h, spec.canvas_w
    r = shape.reach + 1.0
    rows = slice(max(0, int(np.floor(shape.cy - r))), min(h, int(np.ceil(shape.cy + r))))
    cols = slice(max(0, int(np.floor(shape.cx - r))), min(w, int(np.ceil(shape.cx + r))))
    gx, gy = np.meshgrid(_centers(0.0, float(w), w)[cols], _centers(0.0, float(h), h)[rows])
    mask = np.zeros((h, w), dtype=bool)
    mask[rows, cols] = shape.contains(gx, gy)
    ys, xs = np.nonzero(mask)
    if len(ys) == 0:
        raise ContractError("degenerate shape rasterized to an empty mask")
    box = RoiBox(x0=float(xs.min()), y0=float(ys.min()),
                 x1=float(xs.max() + 1), y1=float(ys.max() + 1))
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
