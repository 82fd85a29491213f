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
the ball, and in time the trapezoid with linear interpolation to the exact
window endpoints, one nonnegative weight per sample (_time_weights), the
rule every cylinder check integrates with.  A constant integrand reproduces
|B_R| * R^e up to the spatial staircase error.  The energy module validates
a cylinder against a stored run and assembles the two.

Cutoff functions are smoothstep products: with q(tau) = 3 tau^2 - 2 tau^3 the
profile ramps over [rho, R] in |x - x0| and over [t0 - R^e, t0 - rho^e] in
time, giving |grad eta| <= 1.5 / (R - rho) and
|d_t eta| <= 1.5 / (R^e - rho^e) <= 1.5 / (R - rho)^e.
"""

from __future__ import annotations

import enum
import functools
import math
import os
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
    "spatial_integral",
    "time_integral",
    "save_field",
    "load_field",
]


class Boundary(enum.Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"


def _cell_count(value) -> int:
    count = int(value)
    if count != value:
        raise ValueError(f"cell counts must be integers, got {value!r}")
    return count


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
        for name, read in (("extent", float), ("cells", _cell_count)):
            value = getattr(self, name)
            per_axis = (value,) * self.n if np.isscalar(value) else value
            object.__setattr__(self, name, tuple(read(v) for v in per_axis))
        if len(self.extent) != self.n or len(self.cells) != self.n:
            raise ValueError("extent and cells must have length n")
        if not all(0.0 < e < math.inf for e in self.extent):
            raise ValueError(f"extents must be positive and finite, got {self.extent}")
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


def _diff_along(values: np.ndarray, axis: int, h: float, boundary: Boundary,
                out: np.ndarray | None = None, planes: tuple[int, int] | None = None
                ) -> np.ndarray:
    """Second-order first derivative along one spatial axis of an arbitrary array.

    The differences are written into out (a fresh array when omitted) and
    divided by 2h in place.  The interior central difference is one subtract
    over the flattened arrays, shifted by the axis's element stride k:
    flat[2k:] - flat[:-2k] into out's flat[k:-k], one long inner loop where
    per-plane slices of the last axis run short ones.  On plane 0 and the
    last plane of the axis that pair straddles two rows, so those two planes
    hold wrong values (or none) until the wrap or one-sided closure below
    rewrites exactly them.  The shift needs C-contiguous arrays: values is
    taken through np.ascontiguousarray, and an out of another layout gets
    the result copied in from a contiguous buffer.  The closures see the
    arrays as (rows, axis, entries); where the rows outnumber the entries (the
    last spatial axis of (*node_shape, N) samples) they run on the reversed
    view with order="C", one inner loop across the rows per entry, where
    numpy's memory order would run one N-element loop per row.

    planes = (first, stop), for axis 0 only, asks for the derivative on
    those planes alone: out is shaped like values[first:stop], and the
    shifted subtract and the closures read the neighbouring planes of
    values, so each entry is the one the whole axis gives, bit for bit.
    """
    values = np.ascontiguousarray(values)
    k = math.prod(values.shape[axis + 1:])
    total = values.size // k  # k-entry planes in flat order, rows x axis length
    first, stop = (0, total) if planes is None else planes
    target = out
    if out is None or not out.flags.c_contiguous:
        out = np.empty_like(values if planes is None else values[first:stop])
    flat, oflat = values.reshape(-1), out.reshape(-1)
    lo, hi = max(first, 1) * k, min(stop, total - 1) * k
    np.subtract(flat[lo + k:hi + k], flat[lo - k:hi - k], out=oflat[lo - first * k:hi - first * k])
    rows = math.prod(values.shape[:axis])
    v, o = values.reshape(rows, -1, k), out.reshape(rows, -1, k)
    if k < rows:
        v, o = v.T, o.T
    ends = [end for end, owned in ((0, first == 0), (-1, stop == total)) if owned]
    for end in ends:
        if boundary is Boundary.PERIODIC:
            # the two wrap planes of the central difference
            np.subtract(v[:, end + 1], v[:, end - 1], out=o[:, end], order="C")
        elif end == 0:
            # one-sided second-order closures on the boundary planes, built in
            # contiguous temporaries: (-3 v0 + 4 v1) - v2 and (3 v[-1] - 4 v[-2]) + v[-3]
            near = np.multiply(v[:, 0], -3.0, order="C")
            near += np.multiply(v[:, 1], 4.0, order="C")
            np.subtract(near, v[:, 2], out=o[:, 0], order="C")
        else:
            far = np.multiply(v[:, -1], 3.0, order="C")
            far -= np.multiply(v[:, -2], 4.0, order="C")
            np.add(far, v[:, -3], out=o[:, -1], order="C")
    out /= 2.0 * h
    if target is None or target is out:
        return out
    target[...] = out
    return target


def gradient_of(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Gradient of node samples with arbitrary trailing shape: appends an axis of length n."""
    out = np.empty(values.shape + (grid.n,), dtype=values.dtype)
    for a in range(grid.n):
        _diff_along(values, a, grid.h[a], grid.boundary, out=out[..., a])
    return out


def gradient(field: Field) -> np.ndarray:
    """Discrete gradient, shape (*node_shape, N, n)."""
    return gradient_of(field.grid, field.values)


def divergence(grid: Grid, flux_values: np.ndarray) -> np.ndarray:
    """Adjoint central-difference divergence of (*node_shape, N, n) samples."""
    if flux_values.shape[-1] != grid.n:
        raise ValueError("last axis of flux samples must have length n")
    out = _diff_along(flux_values[..., 0], 0, grid.h[0], grid.boundary)
    for a in range(1, grid.n):
        out += _diff_along(flux_values[..., a], a, grid.h[a], grid.boundary)
    return out


def _root_sum_squares(parts: list[np.ndarray], out: np.ndarray | None = None,
                      square: np.ndarray | None = None) -> np.ndarray:
    """sqrt(parts[0]**2 + parts[1]**2 + ...), summed left to right in one buffer.

    Below 8 terms this is the order of numpy's pairwise summation, so the result
    equals np.sqrt(np.sum(stack * stack, axis=-1)) bitwise; from 8 terms on it
    differs by round-off.  Scalar parts give a numpy scalar, as np.sum does:
    numpy's array and scalar powers can differ in the last bit.  out receives
    the sum and square each further term; both are fresh when omitted.
    """
    if out is None:
        out = np.empty(np.shape(parts[0]))
    np.multiply(parts[0], parts[0], out=out)
    if square is None:
        square = np.empty_like(out)
    for part in parts[1:]:
        out += np.multiply(part, part, out=square)
    return np.sqrt(out, out=out)[()]


def grad_magnitude(grad: np.ndarray, out: np.ndarray | None = None,
                   scratch: Sequence[np.ndarray | None] = (None,)) -> np.ndarray:
    """Frobenius magnitude over the trailing (N, n) axes, summed in C order.

    out receives the magnitude and scratch[0] each further squared term;
    both are node-shaped and fresh when omitted.
    """
    N, n = grad.shape[-2:]
    return _root_sum_squares([grad[..., i, a] for i in range(N) for a in range(n)],
                             out=out, square=scratch[0])


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
    """Boolean node mask of the closed ball |x - center| <= radius.

    Distances are summed only over the ball's index range: per axis, the
    nodes with (x_a - c_a)^2 <= radius^2.  Outside it one term of the sum
    already exceeds radius^2, and a rounded sum of nonnegative terms is never
    below one of them, so the mask is the one the whole grid gives.
    """
    c = np.asarray(center, dtype=np.float64)
    r2 = radius * radius
    mask = np.zeros(grid.node_shape, dtype=bool)
    box = []
    for a in range(grid.n):
        d = grid.axis_coords(a) - c[a]
        hit = np.flatnonzero(d * d <= r2)
        if hit.size == 0:
            return mask
        box.append(slice(hit[0], hit[-1] + 1))
    d = node_coords(grid)[tuple(box)] - c
    mask[tuple(box)] = np.sum(d * d, axis=-1) <= r2
    return mask


def spatial_integral(grid: Grid, values: np.ndarray) -> float:
    """Node-sum (midpoint) integral of scalar node samples."""
    return float(values.sum() * grid.cell_volume)


def _time_weights(times: np.ndarray, a: float, b: float) -> np.ndarray:
    """The time rule over [a, b] as one nonnegative weight per sample.

    The rule is the trapezoid through (a, u(a)), the samples strictly inside
    (a, b) and (b, u(b)), with u(a) and u(b) interpolated linearly between the
    samples that bracket them.  The support is the samples in [a, b] and,
    where an end falls between two samples, the one beyond it.  times must be
    sorted and span [a, b], a <= b, so no bracket divides by zero.
    """
    t = np.asarray(times, dtype=np.float64)
    lo = int(np.searchsorted(t, a, side="right")) - 1  # the last sample at or before a
    hi = int(np.searchsorted(t, b, side="left"))  # the first sample at or after b
    half = np.diff(np.concatenate(([a], t[lo + 1:hi], [b]))) / 2.0
    w = np.zeros(t.size)
    w[lo + 1:hi] = half[:-1] + half[1:]
    for end, k, j, weight in ((a, lo, lo + 1, half[0]), (b, hi, hi - 1, half[-1])):
        if end == t[k]:
            w[k] += weight
        else:  # end lies strictly between samples k and j
            f = (end - t[k]) / (t[j] - t[k])
            w[k] += weight * (1.0 - f)
            w[j] += weight * f
    return w


def time_integral(times: np.ndarray, series: np.ndarray, a: float, b: float) -> float:
    """Trapezoid over [a, b] of a sampled time series, interpolating the endpoints.

    The sum of _time_weights times series over the weights' support; the rest
    of series may hold anything.
    """
    if a < times[0] or b > times[-1]:
        raise ValueError("snapshots do not span the requested time window")
    w = _time_weights(times, a, b)
    k = np.flatnonzero(w)
    return float(np.sum(w[k] * np.asarray(series)[k]))


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
            raise ValueError(f"time exponent must be positive, got {self.time_exponent}")

    def _time_window(self) -> tuple[float, float]:
        e = self.time_exponent
        return self.t0 - self.R**e, self.t0 - self.rho**e

    def time_profile(self, t: float) -> float:
        a, b = self._time_window()
        return float(_smoothstep(np.asarray((t - a) / (b - a))))

    def _space_parts(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The time-free factors at x: (space profile, its r-derivative, unit radial vector).

        eta(x, t) is profile * time_profile(t) and grad eta(x, t) is
        (dq * time_profile(t))[..., None] * unit.
        """
        d = x - np.asarray(self.center)
        r = np.sqrt(np.sum(d * d, axis=-1))
        tau = (self.R - r) / (self.R - self.rho)
        dq = -_smoothstep_deriv(tau) / (self.R - self.rho)
        rsafe = np.where(r > 0.0, r, 1.0)
        return _smoothstep(tau), dq, d / rsafe[..., None]


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


def _read_header(fh, fmt: str, path: str | Path) -> tuple:
    """The next header entries of fmt; a file that ends first is a ValueError naming path."""
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise ValueError(f"field file {path} ends inside its header")
    return struct.unpack(fmt, raw)


def load_field(path: str | Path) -> Field:
    """Inverse of save_field; the boundary kind is inferred from the payload size.

    The payload is read once, straight into the field's writable '<f8' array.
    A damaged file is a ValueError that names it.
    """
    with open(path, "rb") as fh:
        n, N = _read_header(fh, "<2q", path)
        if n not in (2, 3) or N < 1:
            raise ValueError(f"field file {path}: corrupt field header: n={n}, N={N}")
        head = _read_header(fh, f"<{n}q{n}dd", path)
        cells, extent, time = head[:n], head[n:2 * n], head[-1]
        size, odd = divmod(os.fstat(fh.fileno()).st_size - fh.tell(), 8)
        if odd == 0 and size == math.prod(cells) * N:
            boundary = Boundary.PERIODIC
        elif odd == 0 and size == math.prod(c + 1 for c in cells) * N:
            boundary = Boundary.DIRICHLET
        else:
            raise ValueError(f"field file {path}: payload of {8 * size + odd} bytes "
                             "matches no boundary layout")
        try:
            grid = Grid(n, extent, cells, boundary)
        except ValueError as exc:
            raise ValueError(f"field file {path}: {exc}") from exc
        values = np.empty(grid.node_shape + (N,), dtype="<f8")
        if fh.readinto(values) != values.nbytes:
            raise ValueError(f"field file {path} was truncated while reading")
    return Field(grid, values, time)
