"""Structured grids, discrete calculus, and space-time cylinder quadrature.

Fields live on tensor-product grids over a box [0, L_1] x ... x [0, L_n].
Periodic grids carry one node per cell (the wrap identifies node 0 with node
cells); Dirichlet grids carry cells + 1 nodes including both boundary planes.
Gradients are second-order central differences, falling back to one-sided
second-order stencils on Dirichlet boundary planes, so affine fields
differentiate exactly.

Space-time cylinders Q_R = B_R(x0) x (t0 - R^e, t0) are described by
CylinderSpec.  This module supplies their quadrature pieces and nothing that
knows about run records: a midpoint (node-sum) rule in space restricted to
the ball, and a trapezoid rule in time over sampled series with linear
interpolation to the exact window endpoints, so a constant integrand
reproduces |B_R| * R^e up to the spatial staircase error.  The energy module
validates a cylinder against a stored run and assembles the two.

Cutoff functions are smoothstep products: with q(tau) = 3 tau^2 - 2 tau^3 the
profile ramps over [rho, R] in |x - x0| and over [t0 - R^e, t0 - rho^e] in
time, giving |grad eta| <= 1.5 / (R - rho) and
|d_t eta| <= 1.5 / (R^e - rho^e) <= 1.5 / (R - rho)^e.
"""

from __future__ import annotations

import enum
import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Boundary",
    "Grid",
    "Field",
    "CylinderSpec",
    "CutoffFn",
    "gradient",
    "gradient_of",
    "divergence",
    "grad_magnitude",
    "ball_mask",
    "ball_volume",
    "spatial_integral",
    "trapezoid_weights",
    "time_integral",
    "save_field",
    "load_field",
]


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid on [0, extent_1] x ... x [0, extent_n], n in {2, 3}.

    extent and cells take one entry per axis, or one number for every axis.
    """

    n: int
    extent: tuple[float, ...] | float
    cells: tuple[int, ...] | int
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.n}")
        for name, read in (("extent", float), ("cells", int)):
            value = getattr(self, name)
            per_axis = (value,) * self.n if np.isscalar(value) else value
            object.__setattr__(self, name, tuple(read(v) for v in per_axis))
        if len(self.extent) != self.n or len(self.cells) != self.n:
            raise ValueError("extent and cells must have length n")
        if any(e <= 0.0 for e in self.extent):
            raise ValueError(f"extents must be positive, got {self.extent}")
        if any(c < 4 for c in self.cells):
            raise ValueError(f"need >= 4 cells per axis, got {self.cells}")

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(e / c for e, c in zip(self.extent, self.cells))

    @property
    def node_shape(self) -> tuple[int, ...]:
        if self.boundary is Boundary.PERIODIC:
            return self.cells
        return tuple(c + 1 for c in self.cells)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.h)

    def axis_coords(self, axis: int) -> np.ndarray:
        count = self.node_shape[axis]
        return np.arange(count) * self.h[axis]

    def refined(self, factor: int = 2) -> "Grid":
        return Grid(self.n, self.extent, tuple(c * factor for c in self.cells), self.boundary)

    def center(self) -> tuple[float, ...]:
        return tuple(e / 2.0 for e in self.extent)


@functools.lru_cache(maxsize=32)
def node_coords(grid: Grid) -> np.ndarray:
    """Node coordinate stack of shape (*node_shape, n)."""
    axes = [grid.axis_coords(a) for a in range(grid.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


class Field:
    """N-component samples on a grid at one time: values shape (*node_shape, N)."""

    __slots__ = ("grid", "values", "time")

    def __init__(self, grid: Grid, values: np.ndarray, time: float = 0.0):
        values = np.asarray(values, dtype=np.float64)
        if values.shape[:-1] != grid.node_shape:
            raise ValueError(
                f"values shape {values.shape} does not match node shape {grid.node_shape}"
            )
        if values.ndim != grid.n + 1:
            raise ValueError("values must have one trailing component axis")
        self.grid = grid
        self.values = values
        self.time = float(time)

    @property
    def N(self) -> int:
        return self.values.shape[-1]

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.time)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    @classmethod
    def zeros(cls, grid: Grid, N: int, time: float = 0.0) -> "Field":
        return cls(grid, np.zeros(grid.node_shape + (N,)), time)


def _diff_along(values: np.ndarray, axis: int, h: float, boundary: Boundary) -> np.ndarray:
    """Second-order first derivative along one spatial axis of an arbitrary array."""
    out = np.empty_like(values)
    mid = [slice(None)] * values.ndim

    def sl(idx):
        s = list(mid)
        s[axis] = idx
        return tuple(s)

    if boundary is Boundary.PERIODIC:
        # the central difference with its two wrap planes, written into one array
        np.subtract(values[sl(slice(2, None))], values[sl(slice(None, -2))], out=out[sl(slice(1, -1))])
        np.subtract(values[sl(1)], values[sl(-1)], out=out[sl(0)])
        np.subtract(values[sl(0)], values[sl(-2)], out=out[sl(-1)])
        out /= 2.0 * h
        return out
    out[sl(slice(1, -1))] = (values[sl(slice(2, None))] - values[sl(slice(None, -2))]) / (2.0 * h)
    out[sl(0)] = (-3.0 * values[sl(0)] + 4.0 * values[sl(1)] - values[sl(2)]) / (2.0 * h)
    out[sl(-1)] = (3.0 * values[sl(-1)] - 4.0 * values[sl(-2)] + values[sl(-3)]) / (2.0 * h)
    return out


def gradient_of(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Gradient of node samples with arbitrary trailing shape: appends an axis of length n."""
    parts = [_diff_along(values, a, grid.h[a], grid.boundary) for a in range(grid.n)]
    return np.stack(parts, axis=-1)


def gradient(field: Field) -> np.ndarray:
    """Discrete gradient, shape (*node_shape, N, n)."""
    return gradient_of(field.grid, field.values)


def divergence(grid: Grid, flux_values: np.ndarray) -> np.ndarray:
    """Adjoint central-difference divergence of (*node_shape, N, n) samples."""
    if flux_values.shape[-1] != grid.n:
        raise ValueError("last axis of flux samples must have length n")
    out = _diff_along(flux_values[..., 0], 0, grid.h[0], grid.boundary)
    for a in range(1, grid.n):
        out = out + _diff_along(flux_values[..., a], a, grid.h[a], grid.boundary)
    return out


def grad_magnitude(grad: np.ndarray) -> np.ndarray:
    """Frobenius magnitude over the trailing (N, n) axes."""
    return np.sqrt(np.sum(grad * grad, axis=(-2, -1)))


# --- space-time cylinders ---------------------------------------------------


@dataclass(frozen=True)
class CylinderSpec:
    """Backward cylinder B_R(center) x (t0 - R^e, t0) with time exponent e."""

    center: tuple[float, ...]
    t0: float
    R: float
    time_exponent: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not self.R > 0.0:
            raise ValueError(f"cylinder radius must be positive, got {self.R}")
        if not self.time_exponent > 0.0:
            raise ValueError(f"time exponent must be positive, got {self.time_exponent}")

    @property
    def depth(self) -> float:
        return self.R ** self.time_exponent

    def time_window(self) -> tuple[float, float]:
        return self.t0 - self.depth, self.t0

    def fits_grid(self, grid: Grid) -> bool:
        return all(
            c - self.R >= 0.0 and c + self.R <= e
            for c, e in zip(self.center, grid.extent)
        )


def ball_mask(grid: Grid, center: Sequence[float], radius: float) -> np.ndarray:
    """Boolean node mask of the closed ball |x - center| <= radius."""
    x = node_coords(grid)
    d = x - np.asarray(center, dtype=np.float64)
    return np.sum(d * d, axis=-1) <= radius * radius


def ball_volume(n: int, radius: float) -> float:
    if n == 2:
        return math.pi * radius**2
    if n == 3:
        return 4.0 / 3.0 * math.pi * radius**3
    raise ValueError(f"unsupported dimension {n}")


def spatial_integral(grid: Grid, values: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Node-sum (midpoint) integral of scalar node samples, optionally masked."""
    if mask is not None:
        return float(values[mask].sum() * grid.cell_volume)
    return float(values.sum() * grid.cell_volume)


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid weights for samples at the given (sorted) times."""
    t = np.asarray(times, dtype=np.float64)
    if t.size == 1:
        return np.zeros(1)
    w = np.empty_like(t)
    w[0] = (t[1] - t[0]) / 2.0
    w[-1] = (t[-1] - t[-2]) / 2.0
    w[1:-1] = (t[2:] - t[:-2]) / 2.0
    return w


def _interp_value(times: np.ndarray, series: np.ndarray, t: float) -> float:
    return float(np.interp(t, times, series))


def time_integral(times: np.ndarray, series: np.ndarray, a: float, b: float) -> float:
    """Trapezoid over [a, b] of a sampled time series, interpolating the endpoints."""
    if b < times[0] or a > times[-1]:
        raise ValueError("time window lies outside the sampled range")
    if a < times[0] or b > times[-1]:
        raise ValueError("snapshots do not span the requested time window")
    inner = np.nonzero((times > a) & (times < b))[0]
    ts = np.concatenate(([a], times[inner], [b]))
    vs = np.concatenate((
        [_interp_value(times, series, a)],
        series[inner],
        [_interp_value(times, series, b)],
    ))
    trap = getattr(np, "trapezoid", None) or np.trapz  # renamed in numpy 2
    return float(trap(vs, ts))


# --- cutoff functions --------------------------------------------------------


def _smoothstep(tau: np.ndarray) -> np.ndarray:
    t = np.clip(tau, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smoothstep_deriv(tau: np.ndarray) -> np.ndarray:
    t = np.clip(tau, 0.0, 1.0)
    d = 6.0 * t * (1.0 - t)
    return np.where((tau <= 0.0) | (tau >= 1.0), 0.0, d)


@dataclass(frozen=True)
class CutoffFn:
    """Smoothstep cutoff, 1 on Q_rho and 0 outside Q_R (same center and t0).

    eta(x, t) = q((R - r)/(R - rho)) * q((t - a)/(b - a)) with r = |x - center|,
    a = t0 - R^e, b = t0 - rho^e, q(tau) = 3 tau^2 - 2 tau^3; the plateaus are
    clamped so eta = 1 for r <= rho, t >= b and eta = 0 for r >= R or t <= a.
    """

    center: tuple[float, ...]
    rho: float
    R: float
    t0: float
    time_exponent: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not (0.0 < self.rho < self.R):
            raise ValueError(f"need 0 < rho < R, got rho={self.rho}, R={self.R}")
        if not self.time_exponent > 0.0:
            raise ValueError("time exponent must be positive")

    def _radius(self, x: np.ndarray) -> np.ndarray:
        d = x - np.asarray(self.center)
        return np.sqrt(np.sum(d * d, axis=-1))

    def _time_window(self) -> tuple[float, float]:
        e = self.time_exponent
        return self.t0 - self.R**e, self.t0 - self.rho**e

    def space_profile(self, r: np.ndarray) -> np.ndarray:
        return _smoothstep((self.R - r) / (self.R - self.rho))

    def time_profile(self, t: float) -> float:
        a, b = self._time_window()
        return float(_smoothstep(np.asarray((t - a) / (b - a))))

    def values(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.space_profile(self._radius(x)) * self.time_profile(t)

    def space_grad(self, x: np.ndarray, t: float) -> np.ndarray:
        """Analytic spatial gradient, shape (*batch, n)."""
        d = x - np.asarray(self.center)
        r = np.sqrt(np.sum(d * d, axis=-1))
        tau = (self.R - r) / (self.R - self.rho)
        dq = -_smoothstep_deriv(tau) / (self.R - self.rho)
        rsafe = np.where(r > 0.0, r, 1.0)
        unit = d / rsafe[..., None]
        return (dq * self.time_profile(t))[..., None] * unit


# --- serialization -----------------------------------------------------------

_HDR = "<q"  # every header entry is a little-endian 64-bit value


def save_field(field: Field, path: str | Path) -> None:
    """Flat binary layout: header (n, N, cells[], extent[], time), node-major payload."""
    grid = field.grid
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HDR, grid.n))
        fh.write(struct.pack(_HDR, field.N))
        for c in grid.cells:
            fh.write(struct.pack(_HDR, c))
        for e in grid.extent:
            fh.write(struct.pack("<d", e))
        fh.write(struct.pack("<d", field.time))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path: str | Path) -> Field:
    """Inverse of save_field; the boundary kind is inferred from the payload size."""
    raw = Path(path).read_bytes()
    n = struct.unpack_from(_HDR, raw, 0)[0]
    N = struct.unpack_from(_HDR, raw, 8)[0]
    if n not in (2, 3) or N < 1:
        raise ValueError(f"corrupt field header: n={n}, N={N}")
    off = 16
    cells = tuple(struct.unpack_from(_HDR, raw, off + 8 * i)[0] for i in range(n))
    off += 8 * n
    extent = tuple(struct.unpack_from("<d", raw, off + 8 * i)[0] for i in range(n))
    off += 8 * n
    time = struct.unpack_from("<d", raw, off)[0]
    off += 8
    payload = np.frombuffer(raw, dtype="<f8", offset=off)
    if payload.size == math.prod(cells) * N:
        boundary = Boundary.PERIODIC
    elif payload.size == math.prod(c + 1 for c in cells) * N:
        boundary = Boundary.DIRICHLET
    else:
        raise ValueError(f"payload size {payload.size} matches no boundary layout")
    grid = Grid(n, extent, cells, boundary)
    values = payload.reshape(grid.node_shape + (N,)).astype(np.float64)
    return Field(grid, values, time)
