"""Cylinder-localized energy functionals and the gradient-bound verifier.

The machinery rests on three computable objects, all evaluated on solver
runs, stored or streamed, with one quadrature: node sums in the ball and, in
time, the weights of mesh._time_weights (the endpoint-interpolated trapezoid),
which every check, the sandwich included, applies through _Window.integrate.
Every cylinder meets the rules of _cylinder_rules: the ball lies in the
domain, the snapshots span [t0 - R^e, t0] to within 1e-12, and at least 3
fall inside.  They need no record, so verify builds every window of its
campaign once, on the planned snapshot times its runs share, before any
march.  _window_over builds a window on a grid and snapshot times and
refuses a ball that holds no node; _record_windows builds a record check's
windows, about the grid's centre and last snapshot time by default.
Every other rule has one home that needs no record either:
_estimate (admissible params, _radius_rule's 0 < R0 < 1; it returns the
estimate's M and exponents), _chain_rules (levels >= 2, >= 8 nodes per
axis across R0, beta^levels a double), _require_s_admissible (the energy
inequality's s-range) and mesh.CutoffFn (0 < rho < R), which _energy and
_sandwich build from Q_R's window.  verify applies the first three before
its regime verdict, but for the admissibility, which the verdict holds;
its rho = R0/2 always meets the last.

The window also fixes the cylinder's spatial box (_box): the ball's index
range per axis widened by a 2-node halo.  _Window.magnitude sums the
squared per-axis derivatives of values[box] (mesh._grad_magnitude_of),
whose one-sided closures at the box faces spoil only the halo, so |grad u|
is exact one node beyond the ball, enough for the energy check's gradient
of |grad u|.  Every power, cutoff and product runs on the ball's own nodes
in row-major order, so each check returns bit for bit what the whole grid
would.  A check reads only the snapshots with a nonzero weight.

Every functional reads only (snapshot time, |grad u| on the box), so each
check is a private core (_energy, _sandwich, _chain, _bound_pair, psi's
functional) that returns (terms, finish): terms(t, mag) maps one snapshot
to a row of scalars, and finish(series) reduces the support's rows to the
report.  _Window.rows, the one row path, feeds them from two sources:

* A record, through _record_check: its private cache RunRecord._magnitudes
  maps a box (per-axis index ranges, or None for the whole grid) to one
  read-only |grad u| per snapshot, differentiated the first time a window
  on that box reads it.  It lives as long as the record (~3.3 MB beside
  the 34 MB of a 64-snapshot 32^3 x 2 record at R0 = 0.24 and e = 2.5)
  and relies on RunRecord's read-only snapshots.
* A march: verify's campaign worker (cli._campaign_run) builds the cores
  on verify's windows before it marches; its store differentiates each
  snapshot the R0 window reads, feeds the rows and drops the array.
Every check verify ships shares the R0 box: the chain's and the bound
fit's inner cylinders are read from the R0 rows.

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
    Grid,
    ball_mask,
    gradient_of,
    node_coords,
    _grad_magnitude_of,
    _time_weights,
    spatial_integral,
)
from .regimes import (ProblemParams, _ladder_beta, _regime_check, _Report,
                      _s_floor, bound_exponent, build_ladder, compute_M_general)
from .solver import RunRecord, StatusKind

__all__ = [
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
_SANDWICH_TOL = 1e-10  # relative violation the Holder sandwich forgives to round-off


def _estimate(params: ProblemParams, R0: float) -> tuple[float, tuple[float, float]]:
    """The sup-gradient estimate's M and exponents (1/kappa, s0 + M), once its rules hold.

    One home for the bound fit and the chain: the params must be admissible
    and R0 must meet _radius_rule.
    """
    report = _regime_check(params)
    if not report.covered:
        raise ValueError(
            "parameters are not covered by any verified regime; violated: "
            + ", ".join(report.violated_conditions)
        )
    _radius_rule(R0)
    M = report.M
    return M, (bound_exponent(params.s0, params.p, M, params.n), params.s0 + M)


def _radius_rule(R0: float) -> None:
    """The estimate's radius, 0 < R0 < 1: verify applies it before its regime verdict."""
    if not (0.0 < R0 < 1.0):
        raise ValueError(f"the estimate needs 0 < R0 < 1, got R0={R0}")


def _chain_rules(grid: Grid, R0: float, levels: int) -> list[float]:
    """The Moser chain's rules on a grid, which need no params.

    Returns the radii R_i = (R0/2)(1 + 2^-i).
    """
    if not (isinstance(levels, int) and levels >= 2):
        raise ValueError(f"need integer levels >= 2, got {levels}")
    for h in grid.h:
        if math.floor(R0 / h) + 1 < 8:
            raise ValueError(
                f"ball B_{{R0/2}} resolves < 8 nodes per axis (R0={R0}, h={h})"
            )
    _ladder_beta(grid.n, levels)
    return [(R0 / 2.0) * (1.0 + 2.0**-i) for i in range(levels + 1)]


def _powered(mag: np.ndarray, exponent: float) -> np.ndarray:
    if exponent < 0.0:
        return np.maximum(mag, DELTA_G) ** exponent
    return mag**exponent


# Box halo in nodes: the energy check differentiates |grad u|, so its ball
# nodes read |grad u| one node out, which reads u two nodes out.
HALO = 2


@dataclass(frozen=True)
class _Window:
    """A validated cylinder cyl on a grid and sorted snapshot times.

    weights and inside come from _cylinder_rules, and mask is the closed
    ball on the full grid.  box, box_grid, box_mask and key come from _box:
    magnitude differentiates a snapshot's values[box] on box_grid, and
    mag[box_mask] lists the ball's nodes in the same row-major order as mask
    does on the grid.  rows feeds that |grad u| to the cores' terms, from a
    record's cache (every window on the box shares key's entry) or a march.
    """

    cyl: CylinderSpec
    grid: Grid
    times: np.ndarray
    mask: np.ndarray
    weights: np.ndarray
    inside: np.ndarray
    box: tuple
    box_grid: Grid
    box_mask: np.ndarray
    key: tuple | None

    @functools.cached_property
    def support(self) -> np.ndarray:
        """The snapshots the time rule reads: those with a nonzero weight."""
        return np.flatnonzero(self.weights)

    def integrate(self, series: np.ndarray) -> float:
        """The time rule on a per-snapshot series: mesh.time_integral's sum, bit for bit."""
        k = self.support
        return float(np.sum(self.weights[k] * series[k]))

    def magnitude(self, values: np.ndarray) -> np.ndarray:
        """|grad u| of a snapshot's values on the box: exact at the ball's nodes and one beyond."""
        return _grad_magnitude_of(self.box_grid, values[self.box])

    def rows(self, cores: Sequence[tuple[Callable, Callable]]) -> tuple[Callable, Callable]:
        """The one row path of (terms, finish) cores: returns (feed, reports).

        feed(k, mag) appends each core's row terms(t_k, mag), mag being snapshot k's |grad u|
        on the box, for the support's snapshots in order and only those.  reports()
        returns each core's finish(series): one series per functional, 0.0 off the support.
        """
        rows: list[list] = [[] for _ in cores]

        def feed(k: int, mag: np.ndarray) -> None:
            for (terms, _), out in zip(cores, rows):
                out.append(terms(float(self.times[k]), mag))

        def reports() -> list:
            done = []
            for (_, finish), out in zip(cores, rows):
                series = np.zeros((self.weights.size, len(out[0])))
                series[self.support] = out
                done.append(finish(series.T))
            return done

        return feed, reports


def _box(grid: Grid, mask: np.ndarray) -> tuple[tuple, tuple, Grid, np.ndarray]:
    """Per axis, the index range of the ball's nodes widened by HALO nodes.

    The halo wraps on periodic axes and is clipped at Dirichlet planes, where
    the box keeps the grid's one-sided closure.  Every other box face gets a
    one-sided closure too, which only spoils the two halo planes.  When the
    box reaches the whole grid on every axis, the grid itself is the box.
    box_grid is the grid with one-sided closures: it keeps the grid's extent
    and cells, so a derivative, which reads only the spacing and the
    boundary kind, sees the same h.  Returns (key, box, box_grid, box_mask),
    where key names the box by its per-axis index ranges, or None for the
    whole grid (on one grid, equal keys give equal boxes), and box_mask is
    the ball cut to the box with the halo positions cleared: a periodic
    halo the axis cannot hold repeats nodes of the ball.
    """
    whole = (slice(None),) * grid.n
    if not mask.any():
        return None, whole, grid, mask
    idx, ranges, core = [], [], []
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
        ranges.append((start, stop))
        core.append(slice(first - start, last + 1 - start))
    if covers:
        return None, whole, grid, mask
    box, core = np.ix_(*idx), tuple(core)
    box_mask = np.zeros(tuple(map(len, idx)), dtype=bool)
    box_mask[core] = mask[box][core]
    return tuple(ranges), box, replace(grid, boundary=Boundary.DIRICHLET), box_mask


def _cylinder_rules(grid: Grid, times: np.ndarray, cyl: CylinderSpec
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The cylinder rules on a grid and sorted snapshot times, one home for every check.

    Returns the time weights over the window clipped to the snapshots and
    the indices of the snapshots inside it.
    """
    if len(cyl.center) != grid.n:
        raise ValueError(f"cylinder center has {len(cyl.center)} coordinates, "
                         f"the grid has n = {grid.n}")
    if not cyl.fits_grid(grid):
        raise ValueError("cylinder ball exits the spatial domain")
    a, b = cyl.time_window()
    if a < times[0] - 1e-12:
        raise ValueError(f"run does not span the cylinder time window: "
                         f"t0 - R^e = {a} is below t = {times[0]}")
    if b > times[-1] + 1e-12:
        raise ValueError(f"run does not span the cylinder time window: "
                         f"t0 = {b} is past t_end = {times[-1]}")
    a, b = max(a, float(times[0])), min(b, float(times[-1]))
    inside = np.flatnonzero((times >= a) & (times <= b))
    if inside.size < 3:
        raise ValueError(f"only {inside.size} snapshots inside the cylinder window; need >= 3")
    return _time_weights(times, a, b), inside


def _window_over(grid: Grid, times: np.ndarray, cyl: CylinderSpec) -> _Window:
    """A cylinder on a grid and sorted times that meets _cylinder_rules; its ball holds a node."""
    weights, inside = _cylinder_rules(grid, times, cyl)
    mask = ball_mask(grid, cyl.center, cyl.R)
    if not mask.any():
        raise ValueError(f"the cylinder ball of radius R = {cyl.R} about {cyl.center} "
                         f"holds no grid node")
    key, box, box_grid, box_mask = _box(grid, mask)
    return _Window(cyl, grid, times, mask, weights, inside, box, box_grid, box_mask, key)


def _record_windows(record: RunRecord, radii: Sequence[float], center=None, t0=None,
                    time_exponent: float = 2.0) -> list[_Window]:
    """One window per radius on a completed record, about one centre and top t0.

    They default to the grid's centre and the last snapshot time.  The
    cylinder's own rules come before the run's status, then _window_over's.
    """
    grid, times = record.config.grid, record.times()
    cyl = CylinderSpec(grid.center() if center is None else center,
                       float(times[-1]) if t0 is None else float(t0), radii[0], time_exponent)
    if record.status.kind is not StatusKind.COMPLETED:
        raise ValueError(f"cylinder checks need a completed run, "
                         f"got status {record.status.kind.value}")
    return [_window_over(grid, times, replace(cyl, R=r)) for r in radii]


def _record_check(record: RunRecord, win: _Window, core: tuple[Callable, Callable]):
    """core's report on a record, fed from its cache of |grad u| on win's box.

    record._magnitudes[win.key] keeps each read snapshot's |grad u|, read-only, for the box.
    """
    cache = record._magnitudes.setdefault(win.key, [None] * len(record.snapshots))
    feed, reports = win.rows([core])
    for k in win.support:
        if cache[k] is None:
            cache[k] = win.magnitude(record.snapshots[k].values)
            cache[k].flags.writeable = False
        feed(k, cache[k])
    return reports()[0]


def psi(record: RunRecord, cyl: CylinderSpec, exponent: float) -> float:
    """iint over the cylinder of |grad u|^exponent."""
    (win,) = _record_windows(record, [cyl.R], cyl.center, cyl.t0, cyl.time_exponent)
    return _record_check(record, win, (
        lambda t, m: (spatial_integral(win.grid, _powered(m[win.box_mask], exponent)),),
        lambda series: win.integrate(series[0])))


@dataclass(frozen=True)
class EnergyReport(_Report):
    """Both sides of the energy inequality on Q_rho inside Q_R = (R, center, t0, time_exponent)."""

    s: float
    rho: float
    R: float
    center: tuple[float, ...]
    t0: float
    time_exponent: float
    lhs_sup: float
    lhs_grad: float
    rhs_raw: float
    rhs_scaled: float
    c: float
    satisfied: bool


def _require_s_admissible(s: float, params: ProblemParams) -> None:
    floor = _s_floor(params)
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
    (win,) = _record_windows(record, [R], center, t0, time_exponent)
    _require_s_admissible(s, params)
    return _record_check(record, win, _energy(win, rho, s, params, c))


def _energy(win: _Window, rho: float, s: float, params: ProblemParams,
            c: float | None = None) -> tuple[Callable, Callable]:
    """energy_inequality_check's core on the window of Q_R and Q_rho's radius."""
    grid, cyl = win.grid, win.cyl
    cut = CutoffFn(cyl.center, rho, cyl.R, cyl.t0, cyl.time_exponent)
    M = compute_M_general(params.p, params.q, params.w)
    profile, dq, unit = cut._space_parts(node_coords(grid)[win.mask])
    ball = win.box_mask
    half = (params.p + s) / 2.0

    def terms(t: float, mag: np.ndarray) -> tuple[float, float, float]:
        m = mag[ball]
        tp = cut.time_profile(t)
        eta = profile * tp
        sup = spatial_integral(grid, m ** (s + 2.0) * eta * eta)
        raw = spatial_integral(grid, 1.0 + m ** (s + M))
        if tp == 0.0:  # eta and its gradient vanish: so does the grad term
            return sup, 0.0, raw
        gm = gradient_of(win.box_grid, mag)[ball]
        vec = (half * _powered(m, half - 1.0) * eta)[:, None] * gm \
            + (m**half)[:, None] * ((dq * tp)[:, None] * unit)
        return sup, spatial_integral(grid, np.sum(vec * vec, axis=-1)), raw

    def finish(series: np.ndarray) -> EnergyReport:
        sup_series, grad_series, raw_series = series
        lhs_sup = float(sup_series[win.inside].max())
        lhs_grad = win.integrate(grad_series)
        rhs_raw = win.integrate(raw_series)
        scale = (1.0 + s**3) / (cyl.R - cut.rho) ** M * rhs_raw
        fit = c if c is not None else (lhs_sup + lhs_grad) / scale if scale > 0.0 else math.inf
        rhs_scaled = fit * scale
        satisfied = lhs_sup + lhs_grad <= rhs_scaled * (1.0 + 1e-12)
        return EnergyReport(s, cut.rho, cyl.R, cyl.center, cyl.t0, cyl.time_exponent, lhs_sup,
                            lhs_grad, rhs_raw, rhs_scaled, float(fit), bool(satisfied))

    return terms, finish


@dataclass(frozen=True)
class SandwichReport(_Report):
    """Two-step discrete Holder chain lhs <= mid <= rhs on nested cylinders."""

    s: float
    lhs: float
    mid: float
    rhs: float
    rel_violation: float
    satisfied: bool


def holder_sandwich_check(record: RunRecord, s: float, rho: float, R: float,
                          p: float, center=None, t0=None,
                          time_exponent: float = 2.0) -> SandwichReport:
    """Termwise Holder chain with one shared quadrature.

    With m = |grad u|, A(t) = int_{B_R} m^(s+2) eta^2, and
    B(t) = int_{B_R} (m^((p+s)/2) eta)^(2n/(n-2)):

        iint_{Q_rho} m^(p+s+(s+2)2/n)
            <= int_t A^(2/n) B^((n-2)/n)
            <= (sup_t A)^(2/n) int_t B^((n-2)/n).

    All three numbers use the Q_R window's time weights, nonnegative, and
    the same ball sums, and sup_t runs over the snapshots they read, so both
    inequalities are Holder on finite sums and must hold to round-off.
    """
    if record.config.grid.n < 3:
        raise ValueError("the sandwich exponent 2n/(n-2) needs n >= 3")
    (win,) = _record_windows(record, [R], center, t0, time_exponent)
    return _record_check(record, win, _sandwich(win, rho, s, p))


def _sandwich(win: _Window, rho: float, s: float, p: float) -> tuple[Callable, Callable]:
    """holder_sandwich_check's core on the window of Q_R and Q_rho's radius."""
    grid, n, cyl = win.grid, win.grid.n, win.cyl
    cut = CutoffFn(cyl.center, rho, cyl.R, cyl.t0, cyl.time_exponent)
    a_rho = cut.t0 - cut.rho**cut.time_exponent

    profile = cut._space_parts(node_coords(grid)[win.mask])[0]
    ball = win.box_mask
    in_rho = ball_mask(grid, cut.center, cut.rho)[win.mask]
    e_lhs = p + s + (s + 2.0) * 2.0 / n
    e_B = 2.0 * n / (n - 2.0)

    def terms(t: float, mag: np.ndarray) -> tuple[float, float, float]:
        m = mag[ball]
        eta = profile * cut.time_profile(t)
        return (spatial_integral(grid, m[in_rho] ** e_lhs) if t >= a_rho else 0.0,
                spatial_integral(grid, m ** (s + 2.0) * eta * eta),
                spatial_integral(grid, (m ** ((p + s) / 2.0) * eta) ** e_B))

    def finish(series: np.ndarray) -> SandwichReport:
        L, A, B = series
        lhs = win.integrate(L)
        mid = win.integrate(A ** (2.0 / n) * B ** ((n - 2.0) / n))
        rhs = float(A[win.support].max() ** (2.0 / n) * win.integrate(B ** ((n - 2.0) / n)))
        scale = max(abs(lhs), abs(mid), abs(rhs), 1e-300)
        rel_violation = max(lhs - mid, mid - rhs, 0.0) / scale
        return SandwichReport(s, lhs, mid, rhs, rel_violation, rel_violation <= _SANDWICH_TOL)

    return terms, finish


@dataclass(frozen=True)
class MoserChainReport(_Report):
    """psi values along shrinking cylinders and the fitted chain constant."""

    radii: tuple[float, ...]
    exponents: tuple[float, ...]
    psis: tuple[float, ...]
    beta: float
    C: float
    levels: tuple[tuple[int, float, float], ...]  # (i, psi_i, chain_rhs_i)
    satisfied: bool


def moser_chain_check(record: RunRecord, params: ProblemParams, R0: float,
                      levels: int, center=None, t0=None,
                      time_exponent: float = 2.0) -> MoserChainReport:
    """Fit the smallest C >= 1 with psi_{i+1} <= C^i psi_i^beta + C^i.

    psi_i integrates |grad u|^(s_i + M) over Q_{R_i}, R_i = (R0/2)(1 + 2^-i),
    with the ladder exponents from the admissible params.  The i = 0 link is
    C-free; if it fails no constant exists and the report says so.
    """
    radii = _chain_rules(record.config.grid, R0, levels)
    M, _ = _estimate(params, R0)
    windows = _record_windows(record, radii, center, t0, time_exponent)
    return _record_check(record, windows[0], _chain(windows, params, M))


def _chain(windows: Sequence[_Window], params: ProblemParams, M: float
           ) -> tuple[Callable, Callable]:
    """moser_chain_check's core on the windows of Q_{R_i}, i = 0..levels, fed Q_{R0}'s rows."""
    levels = len(windows) - 1
    ladder = build_ladder(params.s0, params.p, M, params.n, levels)
    exponents, beta = [si + M for si in ladder.s], ladder.beta
    # R_0 = R0 is the largest radius: every ball lies inside the outer ball,
    # and every window (so every snapshot it reads) inside the outer window
    outer = windows[0]
    subsets = [win.mask[outer.mask] for win in windows]

    def powered_sums(t: float, mag: np.ndarray) -> list[float]:
        m = mag[outer.box_mask]
        return [spatial_integral(outer.grid, _powered(m[sub], e))
                for sub, e in zip(subsets, exponents)]

    def finish(series: np.ndarray) -> MoserChainReport:
        psis = [win.integrate(ser) for win, ser in zip(windows, series)]
        C = 1.0
        feasible = psis[1] <= psis[0] ** beta + 1.0
        for i in range(1, levels):
            need = psis[i + 1] / (psis[i] ** beta + 1.0)
            if need > 1.0:
                C = max(C, need ** (1.0 / i))
        if not feasible:
            C = math.inf
        level_rows = tuple((i, psis[i], C**i * psis[i] ** beta + C**i) for i in range(levels))
        satisfied = feasible and all(psis[i + 1] <= rhs * (1.0 + 1e-12)
                                     for i, _, rhs in level_rows)
        return MoserChainReport(tuple(win.cyl.R for win in windows), tuple(exponents),
                                tuple(psis), beta, C, level_rows, bool(satisfied))

    return powered_sums, finish


@dataclass(frozen=True)
class BoundReport(_Report):
    """Fitted constant of the sup-gradient estimate across a campaign.

    lhs and rhs_base echo the pair of the run that attains fitted_C.
    """

    kappa: float
    lhs: float
    rhs_base: float
    fitted_C: float
    per_run: tuple[tuple[float, float], ...]


def _bound_pair(outer: _Window, inner: _Window, exponents: tuple[float, float]
                ) -> tuple[Callable, Callable]:
    """The core of one run's (max of |grad u| over Q_{R0/2}, psi over Q_{R0} to the 1/kappa).

    Q_{R0}'s window outer feeds both: Q_{R0/2}'s ball and snapshots lie in it.
    """
    exponent, psi_exp = exponents
    sub = inner.mask[outer.mask]

    def terms(t: float, mag: np.ndarray) -> tuple[float, float]:
        m = mag[outer.box_mask]
        return spatial_integral(outer.grid, _powered(m, psi_exp)), m[sub].max()

    def finish(series: np.ndarray) -> tuple[float, float]:
        sums, peaks = series
        return float(peaks[inner.inside].max()), outer.integrate(sums) ** exponent

    return terms, finish


def _bound_ratio(lhs: float, rhs_base: float) -> float:
    """The smallest C with lhs <= C rhs_base + C: one run's share of the bound fit."""
    return lhs / (rhs_base + 1.0)


def _bound_fit(exponent: float, per_run: Sequence[tuple[float, float]]) -> BoundReport:
    """The smallest C over the runs' (lhs, rhs) pairs: the largest lhs / (rhs + 1)."""
    if not per_run:
        raise ValueError("campaign is empty")
    ratios = [_bound_ratio(l, r) for l, r in per_run]
    k_best = int(np.argmax(ratios))
    return BoundReport(
        kappa=1.0 / exponent,
        lhs=per_run[k_best][0],
        rhs_base=per_run[k_best][1],
        fitted_C=ratios[k_best],
        per_run=tuple(per_run),
    )


def verify_bound(campaign: Iterable[RunRecord], params: ProblemParams, R0: float,
                 center=None, t0=None, time_exponent: float = 2.0) -> BoundReport:
    """Fit the smallest C with sup |grad u| <= C psi^(1/kappa) + C over all runs.

    The left side is the max of |grad u| over Q_{R0/2}; the right side raises
    psi = iint_{Q_{R0}} |grad u|^(s0+M) to the bound exponent 1/kappa from the
    regime arithmetic (single source of truth).  Campaigns stream: any
    iterable of completed runs works, one record in memory at a time.
    """
    _, exponents = _estimate(params, R0)

    def pair(record: RunRecord) -> tuple[float, float]:
        outer, inner = _record_windows(record, (R0, R0 / 2.0), center, t0, time_exponent)
        return _record_check(record, outer, _bound_pair(outer, inner, exponents))

    return _bound_fit(exponents[0], [pair(record) for record in campaign])
