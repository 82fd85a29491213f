"""Cylinder-localized energy functionals and the gradient-bound verifier.

The machinery rests on three computable objects, all evaluated on stored
solver runs with a common quadrature (node sums in the ball, trapezoid over
snapshots in time).  Every cylinder passes through one validated window
(_window): the run completed, the ball lies in the domain, the snapshots
span [t0 - R^e, t0] to within 1e-12, and at least 3 of them fall inside.

The window also fixes the cylinder's spatial box: per axis, the index range
of the ball's nodes widened by a 2-node halo, wrapped on periodic axes and
clipped at Dirichlet planes (a box that reaches the whole grid on every axis
is the grid).  Every sweep differentiates values[box] with the grid's own
spacing and one-sided closures at the box faces, which spoil only the two
halo planes: |grad u| is exact one node beyond the ball, enough for the
energy check's gradient of |grad u| on the ball.  The ball's nodes keep
their row-major order inside the box and every stencil value comes from the
same arithmetic on the same neighbours, so each check returns bit for bit
what the whole grid would.

* the Caccioppoli-type energy inequality on nested cylinders Q_rho < Q_R,

      sup_t int |grad u|^(s+2) eta^2  +  iint |grad(|grad u|^((p+s)/2) eta)|^2
          <=  c (1 + s^3) / (R - rho)^M * iint (1 + |grad u|^(s+M)),

* the interpolation sandwich that converts it into an integrability gain
  2/n per step (two literal Holder steps on the discrete sums, so the
  evaluated numbers must satisfy the chain up to round-off),

* the iteration chain psi_{i+1} <= C^i psi_i^beta + C^i on radii
  R_i = (R0/2)(1 + 2^-i) with the ladder exponents s_i + M, whose limit is
  the sup-gradient bound with exponent 1/kappa.

verify_bound fits the smallest constant C with
sup_{Q_{R0/2}} |grad u| <= C (iint_{Q_{R0}} |grad u|^(s0+M))^(1/kappa) + C
across a campaign of runs; stability of that constant under amplitude
sweeps and grid refinement is the falsifiable content of the bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .mesh import (
    Boundary,
    CutoffFn,
    CylinderSpec,
    Field,
    Grid,
    ball_mask,
    grad_magnitude,
    gradient_of,
    node_coords,
    spatial_integral,
    time_integral,
    trapezoid_weights,
)
from .regimes import ProblemParams, RegimeReport, bound_exponent, check_thm2, check_thm3, compute_M_general
from .solver import RunRecord, StatusKind

__all__ = [
    "DELTA_G",
    "EnergyReport",
    "SandwichReport",
    "MoserChainReport",
    "BoundReport",
    "psi",
    "energy_inequality_check",
    "holder_sandwich_check",
    "moser_chain_check",
    "verify_bound",
]

DELTA_G = 1e-14  # |grad u| floor inside negative-exponent powers only


def _admissibility(params: ProblemParams) -> RegimeReport:
    report = check_thm3(params) if params.q == params.p else check_thm2(params)
    if not report.covered:
        raise ValueError(
            "parameters are not covered by any verified regime; violated: "
            + ", ".join(report.violated_conditions)
        )
    return report


def _default_center_t0(record: RunRecord, center, t0) -> tuple[tuple[float, ...], float]:
    grid = record.config.grid
    if center is None:
        center = grid.center()
    if t0 is None:
        t0 = float(record.times()[-1])
    return tuple(center), float(t0)


def _powered(mag: np.ndarray, exponent: float) -> np.ndarray:
    if exponent < 0.0:
        return np.maximum(mag, DELTA_G) ** exponent
    return mag**exponent


def _sweep_series(record: RunRecord, win: "_Window",
                  fns: Sequence[Callable[[Field, np.ndarray], float]]) -> list[np.ndarray]:
    """Evaluate several per-snapshot functionals in one pass over the record.

    Each fn receives (snapshot, |grad u| on the window's box) and returns a
    scalar; the gradient magnitude is computed once per snapshot.
    """
    out = [np.empty(len(record.snapshots)) for _ in fns]
    for k, snap in enumerate(record.snapshots):
        mag = win.magnitude(snap)
        for j, fn in enumerate(fns):
            out[j][k] = fn(snap, mag)
    return out


# Box halo in nodes: the energy check differentiates |grad u|, so its ball
# nodes read |grad u| one node out, which reads u two nodes out.
HALO = 2


@dataclass(frozen=True)
class _Window:
    """A validated cylinder over one completed record.

    lo and b are the time window clipped to the stored snapshots, inside
    holds the indices of the snapshots in [lo, b], and mask the closed ball
    on the full grid.  Every sweep works on the box, values[box]: the ball's
    bounding box widened by HALO nodes, differentiated on box_grid.  core
    locates the ball's own bounding box inside the box, and box_mask is the
    ball cut to the box.
    """

    times: np.ndarray
    mask: np.ndarray
    lo: float
    b: float
    inside: np.ndarray
    box: tuple
    box_grid: Grid
    core: tuple

    def integrate(self, series: np.ndarray) -> float:
        """Endpoint-interpolated trapezoid over [lo, b] of a per-snapshot series."""
        return time_integral(self.times, series, self.lo, self.b)

    def magnitude(self, snap: Field) -> np.ndarray:
        """|grad u| on the box; exact at the ball's nodes and one node beyond."""
        return grad_magnitude(gradient_of(self.box_grid, snap.values[self.box]))

    def cut(self, mask: np.ndarray) -> np.ndarray:
        """Cut a full-grid mask that lies inside the ball's bounding box to the box.

        Halo positions are cleared: a periodic halo may repeat nodes of the core.
        """
        boxed = mask[self.box]
        out = np.zeros_like(boxed)
        out[self.core] = boxed[self.core]
        return out

    @functools.cached_property
    def box_mask(self) -> np.ndarray:
        return self.cut(self.mask)


def _box(grid: Grid, mask: np.ndarray) -> tuple[tuple, Grid, tuple]:
    """Per axis, the index range of the ball's nodes widened by HALO nodes.

    The halo wraps on periodic axes and is clipped at Dirichlet planes, where
    the box keeps the grid's one-sided closure.  Every other box face gets a
    one-sided closure too, which only spoils the two halo planes.  When the
    box reaches the whole grid on every axis, the grid itself is the box;
    otherwise a periodic axis the halo overruns repeats some nodes, which
    cut() leaves out.  box_grid is the grid with one-sided closures: it keeps
    the grid's extent and cells, so gradient_of, which reads only the spacing
    and the boundary kind, sees the same h.  Returns (box, box_grid, core).
    """
    whole = (slice(None),) * grid.n
    if not mask.any():
        return whole, grid, whole
    idx, core = [], []
    covers = True
    for a, count in enumerate(grid.node_shape):
        hit = np.flatnonzero(mask.any(axis=tuple(b for b in range(grid.n) if b != a)))
        first, last = int(hit[0]), int(hit[-1])
        start, stop = first - HALO, last + HALO + 1
        if grid.boundary is Boundary.PERIODIC:
            idx.append(np.arange(start, stop) % count)
            covers = covers and stop - start >= count
        else:
            start, stop = max(start, 0), min(stop, count)
            idx.append(np.arange(start, stop))
            covers = covers and stop - start == count
        core.append(slice(first - start, last + 1 - start))
    if covers:
        return whole, grid, whole
    return np.ix_(*idx), replace(grid, boundary=Boundary.DIRICHLET), tuple(core)


def _window(record: RunRecord, cyl: CylinderSpec) -> _Window:
    """The one place that decides whether a cylinder can be evaluated on a record."""
    if record.status.kind is not StatusKind.COMPLETED:
        raise ValueError(
            f"cylinder checks need a completed run, got status {record.status.kind.value}"
        )
    grid = record.config.grid
    if len(cyl.center) != grid.n:
        raise ValueError(
            f"cylinder center has {len(cyl.center)} coordinates, the grid has n = {grid.n}"
        )
    if not cyl.fits_grid(grid):
        raise ValueError("cylinder ball exits the spatial domain")
    times = record.times()
    a, b = cyl.time_window()
    if a < times[0] - 1e-12 or b > times[-1] + 1e-12:
        raise ValueError("run does not span the cylinder time window")
    lo, b = max(a, float(times[0])), min(b, float(times[-1]))
    inside = np.nonzero((times >= lo) & (times <= b))[0]
    if inside.size < 3:
        raise ValueError(
            f"only {inside.size} snapshots inside the cylinder window; need >= 3"
        )
    mask = ball_mask(grid, cyl.center, cyl.R)
    return _Window(times, mask, lo, b, inside, *_box(grid, mask))


def psi(record: RunRecord, cyl: CylinderSpec, exponent: float) -> float:
    """iint over the cylinder of |grad u|^exponent."""
    grid = record.config.grid
    win = _window(record, cyl)
    (series,) = _sweep_series(
        record, win, [lambda s, m: spatial_integral(grid, _powered(m, exponent), win.box_mask)]
    )
    return win.integrate(series)


@dataclass(frozen=True)
class EnergyReport:
    s: float
    rho: float
    cylinder: CylinderSpec
    lhs_sup: float
    lhs_grad: float
    rhs_raw: float
    rhs_scaled: float
    c: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "rho": self.rho,
            "R": self.cylinder.R,
            "center": list(self.cylinder.center),
            "t0": self.cylinder.t0,
            "time_exponent": self.cylinder.time_exponent,
            "lhs_sup": self.lhs_sup,
            "lhs_grad": self.lhs_grad,
            "rhs_raw": self.rhs_raw,
            "rhs_scaled": self.rhs_scaled,
            "c": self.c,
            "satisfied": self.satisfied,
        }


def _energy_s_floor(params: ProblemParams) -> float:
    """Exclusive lower end of the s-range of the energy inequality."""
    floor = params.p - 2.0 * params.w - 2.0
    if not params.c2_zero:
        floor = max(floor, params.p - 2.0)
    return floor


def _require_s_admissible(s: float, params: ProblemParams) -> None:
    floor = _energy_s_floor(params)
    if not s > floor:
        raise ValueError(
            f"s = {s} violates the energy-inequality range (needs s > {floor} "
            f"for w = {params.w}, c2_zero = {params.c2_zero})"
        )
    if not 1.0 + s**3 > 0.0:
        raise ValueError(f"s = {s} makes the inequality constant 1 + s^3 nonpositive")


def energy_inequality_check(record: RunRecord, s: float, rho: float, R: float,
                            params: ProblemParams, center=None, t0=None,
                            time_exponent: float = 2.0,
                            c: float | None = None) -> EnergyReport:
    """Evaluate both sides of the energy inequality on Q_rho < Q_R.

    With c omitted, the smallest admissible constant is fitted (the report
    then records that constant and satisfied is True by construction); with
    c given, the inequality is tested as stated.
    """
    if not (0.0 < rho < R):
        raise ValueError(f"need 0 < rho < R, got rho={rho}, R={R}")
    grid = record.config.grid
    center, t0 = _default_center_t0(record, center, t0)
    cyl = CylinderSpec(center, t0, R, time_exponent)
    win = _window(record, cyl)
    _require_s_admissible(s, params)

    p = params.p
    M = compute_M_general(p, params.q, params.w)
    cut = CutoffFn(center, rho, R, t0, time_exponent)
    x = node_coords(grid)[win.box]
    mask = win.box_mask
    half = (p + s) / 2.0

    def sup_term(snap: Field, mag: np.ndarray) -> float:
        eta = cut.values(x, snap.time)
        return spatial_integral(grid, mag ** (s + 2.0) * eta * eta, mask)

    def grad_term(snap: Field, mag: np.ndarray) -> float:
        eta = cut.values(x, snap.time)
        geta = cut.space_grad(x, snap.time)
        gm = gradient_of(win.box_grid, mag)
        vec = (half * _powered(mag, half - 1.0) * eta)[..., None] * gm \
            + (mag**half)[..., None] * geta
        return spatial_integral(grid, np.sum(vec * vec, axis=-1), mask)

    def raw_term(snap: Field, mag: np.ndarray) -> float:
        return spatial_integral(grid, 1.0 + mag ** (s + M), mask)

    sup_series, grad_series, raw_series = _sweep_series(
        record, win, [sup_term, grad_term, raw_term]
    )
    lhs_sup = float(sup_series[win.inside].max())
    lhs_grad = win.integrate(grad_series)
    rhs_raw = win.integrate(raw_series)

    scale = (1.0 + s**3) / (R - rho) ** M * rhs_raw
    if c is None:
        c = (lhs_sup + lhs_grad) / scale if scale > 0.0 else math.inf
    rhs_scaled = c * scale
    satisfied = lhs_sup + lhs_grad <= rhs_scaled * (1.0 + 1e-12)
    return EnergyReport(s, rho, cyl, lhs_sup, lhs_grad, rhs_raw, rhs_scaled,
                        float(c), bool(satisfied))


@dataclass(frozen=True)
class SandwichReport:
    """Two-step discrete Holder chain lhs <= mid <= rhs on nested cylinders."""

    s: float
    lhs: float
    mid: float
    rhs: float
    rel_violation: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {"s": self.s, "lhs": self.lhs, "mid": self.mid, "rhs": self.rhs,
                "rel_violation": self.rel_violation, "satisfied": self.satisfied}


def holder_sandwich_check(record: RunRecord, s: float, rho: float, R: float,
                          p: float, center=None, t0=None,
                          time_exponent: float = 2.0,
                          tol: float = 1e-10) -> SandwichReport:
    """Termwise Holder chain with one shared quadrature.

    With m = |grad u|, A(t) = int_{B_R} m^(s+2) eta^2, and
    B(t) = int_{B_R} (m^((p+s)/2) eta)^(2n/(n-2)):

        iint_{Q_rho} m^(p+s+(s+2)2/n)
            <= int_t A^(2/n) B^((n-2)/n)
            <= (sup_t A)^(2/n) int_t B^((n-2)/n).

    All three numbers use the same snapshot trapezoid weights over the
    Q_R window and the same ball sums, so both inequalities are instances
    of Holder on finite sums and must hold to round-off.
    """
    grid = record.config.grid
    n = grid.n
    if n < 3:
        raise ValueError("the sandwich exponent 2n/(n-2) needs n >= 3")
    if not (0.0 < rho < R):
        raise ValueError(f"need 0 < rho < R, got rho={rho}, R={R}")
    center, t0 = _default_center_t0(record, center, t0)
    cut = CutoffFn(center, rho, R, t0, time_exponent)
    win = _window(record, CylinderSpec(center, t0, R, time_exponent))
    idx = win.inside
    weights = trapezoid_weights(win.times[idx])
    a_rho = t0 - rho**time_exponent

    x = node_coords(grid)[win.box]
    mask_R = win.box_mask
    mask_rho = win.cut(ball_mask(grid, center, rho))
    e_lhs = p + s + (s + 2.0) * 2.0 / n
    e_B = 2.0 * n / (n - 2.0)

    def terms(snap: Field, mag: np.ndarray) -> float:
        eta = cut.values(x, snap.time)
        L = spatial_integral(grid, mag**e_lhs, mask_rho) if snap.time >= a_rho else 0.0
        A = spatial_integral(grid, mag ** (s + 2.0) * eta * eta, mask_R)
        B = spatial_integral(grid, (mag ** ((p + s) / 2.0) * eta) ** e_B, mask_R)
        return L, A, B

    L = np.empty(idx.size)
    A = np.empty(idx.size)
    B = np.empty(idx.size)
    for j, k in enumerate(idx):
        snap = record.snapshots[k]
        L[j], A[j], B[j] = terms(snap, win.magnitude(snap))

    lhs = float(np.sum(weights * L))
    mid = float(np.sum(weights * A ** (2.0 / n) * B ** ((n - 2.0) / n)))
    rhs = float(A.max() ** (2.0 / n) * np.sum(weights * B ** ((n - 2.0) / n)))
    scale = max(abs(lhs), abs(mid), abs(rhs), 1e-300)
    rel_violation = max(lhs - mid, mid - rhs, 0.0) / scale
    return SandwichReport(s, lhs, mid, rhs, rel_violation, rel_violation <= tol)


@dataclass(frozen=True)
class MoserChainReport:
    """psi values along shrinking cylinders and the fitted chain constant."""

    radii: tuple[float, ...]
    exponents: tuple[float, ...]
    psis: tuple[float, ...]
    beta: float
    C: float
    levels: tuple[tuple[int, float, float], ...]  # (i, psi_i, chain_rhs_i)
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "exponents": list(self.exponents),
            "psis": list(self.psis),
            "beta": self.beta,
            "C": self.C,
            "levels": [list(l) for l in self.levels],
            "satisfied": self.satisfied,
        }


def moser_chain_check(record: RunRecord, params: ProblemParams, R0: float,
                      levels: int, center=None, t0=None,
                      time_exponent: float = 2.0) -> MoserChainReport:
    """Fit the smallest C >= 1 with psi_{i+1} <= C^i psi_i^beta + C^i.

    psi_i integrates |grad u|^(s_i + M) over Q_{R_i}, R_i = (R0/2)(1 + 2^-i),
    with the ladder exponents from the admissible params.  The i = 0 link is
    C-free; if it fails no constant exists and the report says so.
    """
    from .regimes import build_ladder

    if not (isinstance(levels, int) and levels >= 2):
        raise ValueError(f"need integer levels >= 2, got {levels}")
    report = _admissibility(params)
    grid = record.config.grid
    if not R0 < 1.0:
        raise ValueError(f"need R0 < 1, got {R0}")
    for h in grid.h:
        if math.floor(R0 / h) + 1 < 8:
            raise ValueError(
                f"ball B_{{R0/2}} resolves < 8 nodes per axis (R0={R0}, h={h})"
            )

    center, t0 = _default_center_t0(record, center, t0)
    ladder = build_ladder(params.s0, params.p, report.M, params.n, levels)
    radii = [(R0 / 2.0) * (1.0 + 2.0**-i) for i in range(levels + 1)]
    exponents = [si + report.M for si in ladder.s]
    windows = [_window(record, CylinderSpec(center, t0, r, time_exponent)) for r in radii]
    outer = windows[0]  # R_0 = R0 is the largest radius: every ball lies in its box
    masks = [outer.cut(win.mask) for win in windows]

    series = [np.empty(len(record.snapshots)) for _ in radii]
    for k, snap in enumerate(record.snapshots):
        mag = outer.magnitude(snap)
        for i, mask in enumerate(masks):
            series[i][k] = spatial_integral(grid, _powered(mag, exponents[i]), mask)
    psis = [win.integrate(ser) for win, ser in zip(windows, series)]

    beta = 1.0 + 2.0 / params.n
    C = 1.0
    feasible = psis[1] <= psis[0] ** beta + 1.0
    for i in range(1, levels):
        need = psis[i + 1] / (psis[i] ** beta + 1.0)
        if need > 1.0:
            C = max(C, need ** (1.0 / i))
    if not feasible:
        C = math.inf
    level_rows = tuple(
        (i, psis[i], C**i * psis[i] ** beta + C**i) for i in range(levels)
    )
    satisfied = feasible and all(
        psis[i + 1] <= rhs * (1.0 + 1e-12) for i, _, rhs in level_rows
    )
    return MoserChainReport(tuple(radii), tuple(exponents), tuple(psis), beta,
                            C, level_rows, bool(satisfied))


@dataclass(frozen=True)
class BoundReport:
    """Fitted constant of the sup-gradient estimate across a campaign.

    lhs and rhs_base echo the pair of the run that attains fitted_C.
    """

    params: ProblemParams
    kappa: float
    lhs: float
    rhs_base: float
    fitted_C: float
    per_run: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "lhs": self.lhs,
            "rhs_base": self.rhs_base,
            "fitted_C": self.fitted_C,
            "per_run": [list(pair) for pair in self.per_run],
        }


def verify_bound(campaign: Iterable[RunRecord], params: ProblemParams, R0: float,
                 center=None, t0=None, time_exponent: float = 2.0) -> BoundReport:
    """Fit the smallest C with sup |grad u| <= C psi^(1/kappa) + C over all runs.

    The left side is the max of |grad u| over Q_{R0/2}; the right side raises
    psi = iint_{Q_{R0}} |grad u|^(s0+M) to the bound exponent 1/kappa from the
    regime arithmetic (single source of truth).  Campaigns stream: any
    iterable of completed runs works, one record in memory at a time.
    """
    report = _admissibility(params)
    if not (0.0 < R0 < 1.0):
        raise ValueError(f"the estimate needs 0 < R0 < 1, got R0={R0}")
    exponent = bound_exponent(params.s0, params.p, report.M, params.n)
    psi_exp = params.s0 + report.M

    per_run: list[tuple[float, float]] = []
    for record in campaign:
        c, t_top = _default_center_t0(record, center, t0)
        rhs = psi(record, CylinderSpec(c, t_top, R0, time_exponent), psi_exp) ** exponent
        inner = _window(record, CylinderSpec(c, t_top, R0 / 2.0, time_exponent))
        lhs = 0.0
        for k in inner.inside:
            mag = inner.magnitude(record.snapshots[k])
            lhs = max(lhs, float(mag[inner.box_mask].max()))
        per_run.append((lhs, rhs))

    if not per_run:
        raise ValueError("campaign is empty")
    ratios = [l / (r + 1.0) for l, r in per_run]
    k_best = int(np.argmax(ratios))
    return BoundReport(
        params=params,
        kappa=1.0 / exponent,
        lhs=per_run[k_best][0],
        rhs_base=per_run[k_best][1],
        fitted_C=ratios[k_best],
        per_run=tuple(per_run),
    )
