"""Flux families A(Q) from radial potentials, and right-hand-side families.

Every flux here is the gradient of a radial potential F(|Q|), so the
derivative tensor dA/dQ at Q != 0 has exactly two distinct eigenvalues:

    F''(|Q|)          on the radial direction Q/|Q|,
    F'(|Q|) / |Q|     on its orthogonal complement,

which makes exact ellipticity windows (and hence stable explicit time steps)
cheap to evaluate.  The right-hand sides all satisfy the pointwise growth
bound |f^i| <= c1 |grad u|^w + c2 with their declared constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mesh import _root_sum_squares, grad_magnitude

__all__ = [
    "FluxKind",
    "FluxSpec",
    "RhsKind",
    "RhsSpec",
    "flux_eval",
    "flux_jacobian_bounds",
    "rhs_eval",
]

DELTA_U = 1e-8  # floor on |u| when normalizing the alignment direction u/|u|


class FluxKind(enum.Enum):
    PURE_P_LAPLACE = "pure_p_laplace"
    DOUBLE_POWER = "double_power"
    REGULARIZED_P_LAPLACE = "regularized_p_laplace"


@dataclass(frozen=True)
class FluxSpec:
    """Parameters of one flux family.

    pure_p_laplace:          A(Q) = |Q|^(p-2) Q
    double_power:            A(Q) = (|Q|^(p-2) + |Q|^(q-2)) Q
    regularized_p_laplace:   A(Q) = (eps^2 + |Q|^2)^((p-2)/2) Q

    The one-power families take q only as q = p, and store it as None.
    """

    kind: FluxKind
    p: float
    q: float | None = None
    eps: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got {self.p}")
        if self.kind is FluxKind.DOUBLE_POWER:
            # q >= p keeps the family well defined; the theorem window q < p+1
            # is a regime condition, enforced where regimes are checked
            if self.q is None or not self.q >= self.p:
                raise ValueError(f"double_power needs q >= p, got q={self.q}")
        elif self.q is not None:
            if self.q != self.p:
                raise ValueError(f"{self.kind.value} has no q parameter (q={self.q})")
            object.__setattr__(self, "q", None)
        if self.kind is FluxKind.REGULARIZED_P_LAPLACE:
            if self.eps < 0.0:
                raise ValueError(f"eps must be nonnegative, got {self.eps}")
            if self.p < 2.0 and not self.eps > 0.0:
                raise ValueError("regularized flux with p < 2 requires eps > 0")
        elif self.eps != 0.0:
            raise ValueError(f"{self.kind.value} takes no eps (eps={self.eps})")


def _check_singular(kind: FluxKind, p: float, mag: np.ndarray) -> None:
    if p < 2.0 and np.any(mag == 0.0):
        raise ValueError(
            f"{kind.value} with p = {p} < 2 is singular at Q = 0; "
            "use regularized_p_laplace with eps > 0"
        )


def _pow(x, exponent: float, out: np.ndarray | None):
    """x ** exponent, written into out when given.

    Without out this is the operator itself: numpy's scalar and array powers
    can differ in the last bit, so a scalar x keeps the scalar one.
    """
    return x**exponent if out is None else np.power(x, exponent, out=out)


def _is_identity(spec: FluxSpec) -> bool:
    """Pure p = 2: A(Q) = |Q|^0 Q == Q for every sample, non-finite ones included."""
    return spec.kind is FluxKind.PURE_P_LAPLACE and spec.p == 2.0


def flux_eval(spec: FluxSpec, Q: np.ndarray, mag: np.ndarray | None = None,
              out: np.ndarray | None = None,
              scratch: Sequence[np.ndarray | None] = (None, None)) -> np.ndarray:
    """Evaluate A(Q) on samples of shape (..., N, n).

    mag, when given, must be the precomputed Frobenius magnitude of Q.  For
    pure p = 2 the flux is Q itself, and the returned array may be Q.
    Otherwise out receives A(Q) and scratch[0], scratch[1] (shaped like mag)
    the coefficient |A(Q)| / |Q|; each is fresh when omitted, out
    C-contiguous.  out must not share memory with Q.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if _is_identity(spec):
        return Q
    if mag is None:
        mag = grad_magnitude(Q)
    if spec.kind is FluxKind.PURE_P_LAPLACE:
        _check_singular(spec.kind, spec.p, mag)
        coeff = _pow(mag, spec.p - 2.0, scratch[0])
    elif spec.kind is FluxKind.DOUBLE_POWER:
        _check_singular(spec.kind, spec.p, mag)
        coeff = _pow(mag, spec.p - 2.0, scratch[0])
        coeff += _pow(mag, spec.q - 2.0, scratch[1])
    elif spec.kind is FluxKind.REGULARIZED_P_LAPLACE:
        coeff = _pow(mag, 2, scratch[0])
        coeff += spec.eps**2
        coeff **= (spec.p - 2.0) / 2.0
    else:  # pragma: no cover
        raise ValueError(f"unknown flux kind {spec.kind}")
    if out is None:
        out = np.empty(Q.shape)
    # One multiply per axis slot, contiguous in the march's axis-major buffers,
    # where the broadcast over the strided last axis runs ~1.5x slower.  The
    # coefficient, spread over the components one assignment each, waits in
    # the last slot, which is multiplied in place last: c * q and q * c are
    # the same bits.
    last = out[..., -1]
    for i in range(Q.shape[-2]):
        last[..., i] = coeff
    for a in range(Q.shape[-1] - 1):
        np.multiply(last, Q[..., a], out=out[..., a])
    last *= Q[..., -1]
    return out


def _eigen_pair(spec: FluxSpec, mag: np.ndarray,
                out: Sequence[np.ndarray | None] = (None, None, None)
                ) -> tuple[np.ndarray, np.ndarray]:
    """Radial eigenvalue F''(t) and tangential eigenvalue F'(t)/t at t = |Q|.

    out[0] and out[1] (shaped like mag) receive the pair and out[2] is
    scratch; each is fresh when omitted.
    """
    t = mag
    radial, tangential, work = out
    if spec.kind is FluxKind.PURE_P_LAPLACE:
        _check_singular(spec.kind, spec.p, t)
        tangential = _pow(t, spec.p - 2.0, tangential)
        radial = np.multiply(spec.p - 1.0, tangential, out=radial)
    elif spec.kind is FluxKind.DOUBLE_POWER:
        _check_singular(spec.kind, spec.p, t)
        tangential = _pow(t, spec.p - 2.0, tangential)  # t^(p-2) until tq joins
        tq = _pow(t, spec.q - 2.0, work)
        radial = np.multiply(spec.p - 1.0, tangential, out=radial)
        tangential += tq
        tq *= spec.q - 1.0
        radial += tq
    elif spec.kind is FluxKind.REGULARIZED_P_LAPLACE:
        base = _pow(t, 2, work)
        base += spec.eps**2
        tangential = _pow(base, (spec.p - 2.0) / 2.0, tangential)
        radial = _pow(base, (spec.p - 4.0) / 2.0, radial)
        lower = _pow(t, 2, work)  # eps^2 + (p - 1) t^2, where base was
        lower *= spec.p - 1.0
        lower += spec.eps**2
        radial *= lower
    else:  # pragma: no cover
        raise ValueError(f"unknown flux kind {spec.kind}")
    return radial, tangential


def flux_jacobian_bounds(spec: FluxSpec, Q: np.ndarray,
                         mag: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact min and max Rayleigh quotients of dA/dQ at each sample.

    These are min/max of the two eigenvalues F''(|Q|) and F'(|Q|)/|Q|.
    """
    if mag is None:
        mag = grad_magnitude(np.asarray(Q, dtype=np.float64))
    radial, tangential = _eigen_pair(spec, mag)
    return np.minimum(radial, tangential), np.maximum(radial, tangential)


# --- right-hand sides ---------------------------------------------------------


class RhsKind(enum.Enum):
    ZERO = "zero"
    POWER_ALIGNED = "power_aligned"
    POWER_FIXED_DIR = "power_fixed_dir"
    STRUWE_COUPLING = "struwe_coupling"
    MANUFACTURED = "manufactured"


@dataclass(frozen=True, eq=False)
class RhsSpec:
    """Right-hand-side family with declared growth constants (w, c1, c2).

    zero:             f = 0
    power_aligned:    f^i = c1 |grad u|^w u^i / max(|u|, DELTA_U) + c2
    power_fixed_dir:  f = (c1 |grad u|^w + c2) d,  |d| = 1
    struwe_coupling:  f^i = u^i |grad u|^2
    manufactured:     f = source(x, t), a space-time table
    """

    kind: RhsKind
    w: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    direction: tuple[float, ...] | None = None
    source: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __post_init__(self):
        if self.w < 0.0:
            raise ValueError(f"growth exponent w must be >= 0, got {self.w}")
        if self.kind is RhsKind.POWER_FIXED_DIR:
            if self.direction is None:
                raise ValueError("power_fixed_dir needs a direction")
            d = np.asarray(self.direction, dtype=np.float64)
            norm = float(np.sqrt(np.sum(d * d)))
            if norm == 0.0:
                raise ValueError("direction must be nonzero")
            if abs(norm - 1.0) > 1e-12:  # keep normalization idempotent across reloads
                d = d / norm
            object.__setattr__(self, "direction", tuple(d))
        if self.kind is RhsKind.MANUFACTURED and self.source is None:
            raise ValueError("manufactured rhs needs a source table")


def rhs_eval(spec: RhsSpec, u: np.ndarray, grad: np.ndarray,
             x: np.ndarray | None = None, t: float = 0.0,
             mag: np.ndarray | None = None, out: np.ndarray | None = None,
             scratch: Sequence[np.ndarray | None] = (None, None)) -> np.ndarray:
    """Evaluate f(x, t, u, grad u) on node samples; returns shape (..., N).

    out (shaped like u) receives f and scratch[0], scratch[1] (node-shaped)
    its per-node factors; each is fresh when omitted.
    """
    u = np.asarray(u, dtype=np.float64)
    if out is None:
        out = np.empty_like(u)
    if spec.kind is RhsKind.ZERO:
        out.fill(0.0)
        return out
    if spec.kind is RhsKind.MANUFACTURED:
        out[...] = spec.source(x, t)
        return out
    g = grad_magnitude(np.asarray(grad, dtype=np.float64)) if mag is None else mag
    # the per-node factor first, then one call per component: a broadcast
    # over the trailing component axis would run N-element inner loops
    comps = range(u.shape[-1])
    if spec.kind is RhsKind.STRUWE_COUPLING:
        g2 = np.multiply(g, g, out=scratch[0])
        for i in comps:
            np.multiply(u[..., i], g2, out=out[..., i])
        return out
    if spec.kind is RhsKind.POWER_ALIGNED:
        # c1 |grad u|^w u / max(|u|, DELTA_U) + c2, built in one buffer
        norm = _root_sum_squares([u[..., i] for i in comps],
                                 out=scratch[0], square=scratch[1])
        norm = np.maximum(norm, DELTA_U, out=scratch[0])
        gw = _pow(g, spec.w, scratch[1])
        gw *= spec.c1
        for i in comps:
            np.divide(u[..., i], norm, out=out[..., i])
            out[..., i] *= gw
        out += spec.c2
        return out
    if spec.kind is RhsKind.POWER_FIXED_DIR:
        d = np.asarray(spec.direction, dtype=np.float64)
        gw = _pow(g, spec.w, scratch[0])
        gw *= spec.c1
        gw += spec.c2
        for i in comps:
            np.multiply(gw, d[i], out=out[..., i])
        return out
    raise ValueError(f"unknown rhs kind {spec.kind}")  # pragma: no cover
