"""Independent oracles: exact ladder iteration, manufactured solutions, and
the bounded-but-singular counterexample map.

The counterexample is the stationary map u(x) = x / |x| (three components,
three space dimensions), which solves u_t - Lap u = u |grad u|^2 away from
the origin with |grad u| = sqrt(2) / |x|: the field is bounded while its
gradient blows up at a point, which is exactly what the admissibility
thresholds elsewhere in this package guard against.  The residual check
evaluates -Lap_h u^i - u^i |grad_h u|^2 with the same discrete operators the
solver uses, on an annulus that keeps every stencil away from both the
singular node and the domain boundary, and estimates the convergence order
from a refined grid.

Manufactured problems use separable targets U(x, t) = T(t) V(x): the source
g = U_t - div A(grad U) comes from closed-form derivatives when available
(heat case) and otherwise from one-time central differencing of the flux of
V on a reference grid several times finer than the solve grid, restricted to
the solve nodes.  Power fluxes are positively homogeneous, so the time factor
leaves the spatial divergence as a fixed profile per power term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .flux import FluxKind, FluxSpec, RhsKind, RhsSpec
from .mesh import Field, Grid, divergence, grad_magnitude, gradient, gradient_of, node_coords
from .regimes import _Report, kappa

__all__ = [
    "ladder_oracle",
    "SeparableTarget",
    "manufactured_problem",
    "struwe_field",
    "struwe_residual",
    "ResidualReport",
]


_REF_FACTOR = 4  # refinement of the reference grid a manufactured source is differenced on


def ladder_oracle(s0: float, p: float, M: float, n: int, I: int) -> list[float]:
    """Brute-force the exponent recursion in exact rational arithmetic.

    Float inputs are taken at their exact binary values, each iterate of
    s_{i+1} = p + s_i + (s_i + 2) * 2/n - M is an exact Fraction, and only
    the final readout rounds to float.  Errors when kappa <= 0.
    """
    if not (isinstance(n, int) and n >= 3):
        raise ValueError(f"oracle needs integer n >= 3, got {n}")
    if not (isinstance(I, int) and I >= 1):
        raise ValueError(f"depth must be >= 1, got {I}")
    if not kappa(s0, p, M, n) > 0.0:
        raise ValueError("kappa <= 0: the ladder does not increase")
    s = [Fraction(s0)]
    fp, fM, r = Fraction(p), Fraction(M), Fraction(2, n)
    for _ in range(I):
        s.append(fp + s[-1] + (s[-1] + 2) * r - fM)
    return [float(v) for v in s]


# --- manufactured solutions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class SeparableTarget:
    """Separable target U^i(x, t) = T(t) V^i(x).

    V maps node coordinates (*batch, n) to samples (*batch, N); T and dT are
    scalar functions of time with one continuous derivative; div_flux_V, when
    given, is the closed-form div A(grad V) for the paired flux (heat case:
    the Laplacian of V).
    """

    V: Callable[[np.ndarray], np.ndarray]
    T: Callable[[float], float]
    dT: Callable[[float], float]
    div_flux_V: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "target"


def _power_terms(flux: FluxSpec) -> list[float]:
    if flux.kind is FluxKind.DOUBLE_POWER:
        return [flux.p, flux.q]
    return [flux.p]


def _div_power_flux(grid: Grid, values: np.ndarray, power: float) -> np.ndarray:
    """div(|grad V|^(power-2) grad V) by central differencing on the given grid."""
    grad = gradient_of(grid, values)
    mag = grad_magnitude(grad)
    with np.errstate(divide="ignore"):
        coeff = mag ** (power - 2.0)
    if power < 2.0:
        coeff = np.where(mag > 0.0, coeff, 0.0)
    return divergence(grid, coeff[..., None, None] * grad)


def _restrict(fine: np.ndarray, factor: int, n: int) -> np.ndarray:
    sl = tuple(slice(None, None, factor) for _ in range(n))
    return fine[sl]


def _reference_div(target: SeparableTarget, grid: Grid, power: float) -> np.ndarray:
    """div A(grad V) on the grid refined _REF_FACTOR times, read at the grid's nodes.

    Refused when half that refinement moves it by more than 20% of its max.
    """
    divs = []
    for factor in (_REF_FACTOR, _REF_FACTOR // 2):
        ref = grid.refined(factor)
        vals = np.asarray(target.V(node_coords(ref)), dtype=np.float64)
        divs.append(_restrict(_div_power_flux(ref, vals, power), factor, grid.n))
    full, half = divs
    scale = float(np.abs(full).max())
    if scale > 0.0 and float(np.abs(full - half).max()) > 0.2 * scale:
        raise ValueError(
            f"target '{target.name}' is not resolved on the reference grid "
            f"(power {power}: refinement changes the flux divergence by > 20%)"
        )
    return full


def manufactured_problem(target: SeparableTarget, flux: FluxSpec,
                         grid: Grid) -> tuple[RhsSpec, Field]:
    """Build the source g = U_t - div A(grad U) and the t = 0 field for a target.

    Positive homogeneity of power fluxes turns div A(T grad V) into
    sum_e |T|^(e-2) T W_e with time-independent profiles W_e, each computed
    once (closed form when provided, reference-grid differencing otherwise).
    """
    x = node_coords(grid)
    v = np.asarray(target.V(x), dtype=np.float64)
    if v.shape[: grid.n] != grid.node_shape or v.ndim != grid.n + 1:
        raise ValueError("target V must return (*node_shape, N) samples")

    if target.div_flux_V is not None:
        terms = [(flux.p, np.asarray(target.div_flux_V(x), dtype=np.float64))]
    else:
        terms = [(e, _reference_div(target, grid, e))
                 for e in _power_terms(flux)]

    T, dT = target.T, target.dT

    def source(_x: np.ndarray, t: float) -> np.ndarray:
        Tt = T(t)
        out = dT(t) * v
        for e, W in terms:
            out = out - abs(Tt) ** (e - 2.0) * Tt * W
        return out

    rhs = RhsSpec(RhsKind.MANUFACTURED, source=source)
    return rhs, Field(grid, T(0.0) * v, 0.0)


# --- the x/|x| counterexample ---------------------------------------------------


def struwe_field(grid: Grid) -> Field:
    """Sample u(x) = (x - c) / |x - c| around the domain center c.

    The singular node (if the center lands on one) is set to zero; residuals
    are only ever read on annuli whose stencils avoid it.
    """
    if grid.n != 3:
        raise ValueError(f"the counterexample map needs n = 3, got n = {grid.n}")
    x = node_coords(grid)
    d = x - np.asarray(grid.center())
    r = np.sqrt(np.sum(d * d, axis=-1))
    rsafe = np.where(r > 0.0, r, 1.0)
    vals = np.where((r > 0.0)[..., None], d / rsafe[..., None], 0.0)
    return Field(grid, vals, 0.0)


@dataclass(frozen=True)
class ResidualReport(_Report):
    field_name: str
    max_residual: float
    grid_h: float
    order_estimate: float


def _annulus_residual(grid: Grid, r_min: float, r_max: float, stride: int = 1) -> float:
    h_max = max(grid.h)
    if r_min <= 2.0 * h_max:
        raise ValueError(
            f"annulus inner radius {r_min} reaches the singular node "
            f"(needs r_min > 2 h = {2.0 * h_max})"
        )
    c = grid.center()
    clearance = min(min(ci, ei - ci) for ci, ei in zip(c, grid.extent))
    if r_max + 2.0 * h_max > clearance:
        raise ValueError(
            f"annulus outer radius {r_max} brings stencils within reach of the "
            f"domain boundary (needs r_max + 2h <= {clearance})"
        )
    field = struwe_field(grid)
    grad = gradient(field)
    lap = divergence(grid, grad)  # pure p = 2 flux: A(Q) = Q
    g2 = np.sum(grad * grad, axis=(-2, -1))
    residual = -lap - field.values * g2[..., None]
    x = node_coords(grid)
    d = x - np.asarray(c)
    r = np.sqrt(np.sum(d * d, axis=-1))
    if stride != 1:
        sl = tuple(slice(None, None, stride) for _ in range(grid.n))
        residual, r = residual[sl], r[sl]
    mask = (r >= r_min) & (r <= r_max)
    if not mask.any():
        raise ValueError("annulus contains no grid nodes")
    return float(np.abs(residual[mask]).max())


def struwe_residual(grid: Grid, annulus: tuple[float, float]) -> ResidualReport:
    """Max discrete residual of the stationary map on an annulus, plus its order.

    Evaluates -Lap_h u^i - u^i |grad_h u|^2 on r_min <= |x - c| <= r_max for
    the given grid and its uniform refinement.  The fine-level max is taken
    over the coarse node positions (every second fine node), so the order
    log2(coarse/fine) compares residuals at identical physical points; maxing
    each level over its own nodes would let the refinement introduce nodes
    closer to the singularity and corrupt the estimate.  The reported
    max_residual and grid_h belong to the given grid.
    """
    r_min, r_max = annulus
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max, got {annulus}")
    coarse = _annulus_residual(grid, r_min, r_max)
    fine = _annulus_residual(grid.refined(2), r_min, r_max, stride=2)
    order = math.log2(coarse / fine) if fine > 0.0 else math.inf
    return ResidualReport(
        field_name="unit_radial_map",
        max_residual=coarse,
        grid_h=max(grid.h),
        order_estimate=order,
    )
