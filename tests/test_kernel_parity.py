"""The march's kernels against their plain numpy formulas, bit for bit.

Each reference below is the straightforward expression of the kernel:
np.roll differences stacked per axis, out = out + ..., coeff * Q, the two
eigenvalues of dA/dQ, c1 |grad u|^w u/|u| + c2, (c1 |grad u|^w + c2) d and
u |grad u|^2, the last three broadcast over the component axis.  The kernels
compute the same arithmetic in the same order without temporaries, one
component or axis slot at a time, so they must agree exactly, and so must
their out= results in any buffer layout.  The one exception is grad_magnitude from 8 terms on, where numpy's
pairwise summation and the kernel's running sum group the squares differently.

The march itself is checked the same way: `run`, which writes every kernel
into one stage of reused axis-major buffers and updates u in place, against
the plain Adams-Bashforth 2 loop over fresh kernel results.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradbound import (
    Boundary,
    FluxKind,
    FluxSpec,
    Grid,
    Prescribed,
    RandomSmooth,
    RhsKind,
    RhsSpec,
    RunStatus,
    SolveConfig,
    StatusKind,
    divergence,
    flux_eval,
    flux_jacobian_bounds,
    grad_magnitude,
    gradient,
    initial_field,
    node_coords,
    rhs_eval,
    run,
)
from gradbound.flux import DELTA_U
from gradbound.mesh import gradient_of
from gradbound.solver import _d_max, _resolve_flux

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def grids(draw):
    n = draw(st.sampled_from((2, 3)))
    cells = tuple(draw(st.integers(4, 7)) for _ in range(n))
    extent = tuple(draw(st.floats(0.3, 3.0)) for _ in range(n))
    return Grid(n, extent, cells, draw(st.sampled_from(tuple(Boundary))))


@st.composite
def grid_and_values(draw, flux_axis=False):
    """A grid with node samples (..., N), or flux samples (..., N, n) if flux_axis."""
    grid = draw(grids())
    N = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(grid.node_shape + (N,) + ((grid.n,) if flux_axis else ()))
    # exact zeros (signed ones included) exercise the |u|, |Q| floors and -0.0
    values[rng.random(values.shape) < 0.1] = draw(st.sampled_from((0.0, -0.0)))
    return grid, values


def _reference_diff(values, axis, h, boundary):
    if boundary is Boundary.PERIODIC:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _reference_magnitude(grad):
    return np.sqrt(np.sum(grad * grad, axis=(-2, -1)))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _same_bits(a, b):
    return np.shape(a) == np.shape(b) and np.array_equal(_bits(a), _bits(b))


@SETTINGS
@given(case=grid_and_values())
def test_gradient_of_is_the_stacked_per_axis_difference(case):
    grid, u = case
    parts = [_reference_diff(u, a, grid.h[a], grid.boundary) for a in range(grid.n)]
    assert _same_bits(gradient_of(grid, u), np.stack(parts, axis=-1))


@SETTINGS
@given(case=grid_and_values(flux_axis=True))
def test_divergence_is_the_summed_per_axis_difference(case):
    grid, F = case
    out = _reference_diff(F[..., 0], 0, grid.h[0], grid.boundary)
    for a in range(1, grid.n):
        out = out + _reference_diff(F[..., a], a, grid.h[a], grid.boundary)
    assert _same_bits(divergence(grid, F), out)


@SETTINGS
@given(case=grid_and_values())
def test_grad_magnitude_matches_numpy_sum(case):
    grid, u = case
    grad = gradient_of(grid, u)
    mag, reference = grad_magnitude(grad), _reference_magnitude(grad)
    if u.shape[-1] * grid.n < 8:
        assert _same_bits(mag, reference)
    else:
        np.testing.assert_allclose(mag, reference, rtol=1e-15, atol=0.0)


FLUXES = st.one_of(
    st.builds(FluxSpec, st.just(FluxKind.PURE_P_LAPLACE), st.sampled_from((2.0, 2.5, 3.0))),
    st.builds(lambda p, dq: FluxSpec(FluxKind.DOUBLE_POWER, p, q=p + dq),
              st.sampled_from((2.0, 2.4)), st.floats(0.0, 1.0)),
    st.builds(lambda p, eps: FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, p, eps=eps),
              st.floats(1.2, 3.0), st.floats(0.01, 1.0)),
)


@SETTINGS
@given(case=grid_and_values(), spec=FLUXES)
def test_flux_eval_is_coefficient_times_Q(case, spec):
    grid, u = case
    Q = gradient_of(grid, u)
    mag = grad_magnitude(Q)
    if spec.kind is FluxKind.PURE_P_LAPLACE:
        coeff = mag ** (spec.p - 2.0)
    elif spec.kind is FluxKind.DOUBLE_POWER:
        coeff = mag ** (spec.p - 2.0) + mag ** (spec.q - 2.0)
    else:
        coeff = (spec.eps**2 + mag**2) ** ((spec.p - 2.0) / 2.0)
    assert _same_bits(flux_eval(spec, Q, mag=mag), coeff[..., None, None] * Q)
    assert _same_bits(flux_eval(spec, Q), flux_eval(spec, Q, mag=mag))


@SETTINGS
@given(case=grid_and_values(), spec=FLUXES)
def test_flux_jacobian_bounds_are_the_eigenvalue_formulas(case, spec):
    grid, u = case
    t = grad_magnitude(gradient_of(grid, u))
    p, q, eps = spec.p, spec.q, spec.eps
    if spec.kind is FluxKind.PURE_P_LAPLACE:
        radial, tangential = (p - 1.0) * t ** (p - 2.0), t ** (p - 2.0)
    elif spec.kind is FluxKind.DOUBLE_POWER:
        radial = (p - 1.0) * t ** (p - 2.0) + (q - 1.0) * t ** (q - 2.0)
        tangential = t ** (p - 2.0) + t ** (q - 2.0)
    else:
        base = eps**2 + t**2
        radial = base ** ((p - 4.0) / 2.0) * (eps**2 + (p - 1.0) * t**2)
        tangential = base ** ((p - 2.0) / 2.0)
    lo, hi = flux_jacobian_bounds(spec, None, mag=t)
    assert _same_bits(lo, np.minimum(radial, tangential))
    assert _same_bits(hi, np.maximum(radial, tangential))


@SETTINGS
@given(case=grid_and_values(), w=st.floats(0.0, 3.0), c1=st.floats(-2.0, 2.0),
       c2=st.floats(-2.0, 2.0))
def test_rhs_eval_aligned_is_the_unit_vector_formula(case, w, c1, c2):
    # grid_and_values draws exact zeros, so some |u| fall below the DELTA_U floor
    grid, u = case
    grad = gradient_of(grid, u)
    mag = grad_magnitude(grad)
    spec = RhsSpec(RhsKind.POWER_ALIGNED, w=w, c1=c1, c2=c2)
    gw = mag**w
    unit = u / np.maximum(np.sqrt(np.sum(u * u, axis=-1)), DELTA_U)[..., None]
    reference = c1 * gw[..., None] * unit + c2
    assert _same_bits(rhs_eval(spec, u, grad, mag=mag), reference)
    assert _same_bits(rhs_eval(spec, u, grad), rhs_eval(spec, u, grad, mag=mag))


@SETTINGS
@given(case=grid_and_values(), w=st.floats(0.0, 3.0), c1=st.floats(-2.0, 2.0),
       c2=st.floats(-2.0, 2.0),
       direction=st.tuples(st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),  # nonzero for any N
                           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_rhs_eval_fixed_dir_is_the_direction_formula(case, w, c1, c2, direction):
    grid, u = case
    grad = gradient_of(grid, u)
    mag = grad_magnitude(grad)
    N = u.shape[-1]
    spec = RhsSpec(RhsKind.POWER_FIXED_DIR, w=w, c1=c1, c2=c2, direction=tuple(direction[:N]))
    reference = (c1 * mag**w + c2)[..., None] * np.asarray(spec.direction)
    assert _same_bits(rhs_eval(spec, u, grad, mag=mag), reference)
    assert _same_bits(rhs_eval(spec, u, grad), rhs_eval(spec, u, grad, mag=mag))


@SETTINGS
@given(case=grid_and_values())
def test_rhs_eval_struwe_is_u_times_the_squared_magnitude(case):
    grid, u = case
    grad = gradient_of(grid, u)
    mag = grad_magnitude(grad)
    spec = RhsSpec(RhsKind.STRUWE_COUPLING)
    assert _same_bits(rhs_eval(spec, u, grad, mag=mag), u * (mag * mag)[..., None])
    assert _same_bits(rhs_eval(spec, u, grad), rhs_eval(spec, u, grad, mag=mag))


def _layouts(shape):
    """Buffers of one shape in three layouts: C order, the last axis first in
    memory (the march's axis-major stage layout), and a non-contiguous view."""
    last_first = np.moveaxis(np.empty(shape[-1:] + shape[:-1]), 0, -1)
    strided = np.empty(shape[:-1] + (2 * shape[-1],))[..., ::2]
    return {"c_order": np.empty(shape), "axis_major": last_first, "strided": strided}


def _in_layout(values, layout):
    buf = _layouts(values.shape)[layout]
    buf[...] = values
    return buf


@SETTINGS
@given(case=grid_and_values(), spec=FLUXES, layout=st.sampled_from(("c_order", "axis_major",
                                                                       "strided")))
def test_out_buffers_of_any_layout_hold_the_fresh_result(case, spec, layout):
    # every kernel gives the bits of its call on C-ordered inputs whatever the
    # layout of its inputs, and one the march calls with out= whatever the
    # layout of out too; np.empty buffers start with garbage, so a position no
    # write reaches shows
    grid, u0 = case
    N, nodes = u0.shape[-1], grid.node_shape
    u, grad = _in_layout(u0, layout), gradient_of(grid, u0)
    assert _same_bits(gradient_of(grid, u), grad)
    Q, mag = _in_layout(grad, layout), grad_magnitude(grad)
    assert _same_bits(grad_magnitude(Q, out=_layouts(u0.shape)[layout][..., 0]), mag)
    assert _same_bits(divergence(grid, Q), divergence(grid, grad))
    assert _same_bits(flux_eval(spec, Q, mag=mag), flux_eval(spec, grad, mag=mag))
    scratch = (np.empty(nodes), np.empty(nodes))
    x = node_coords(grid)
    for kind in RhsKind:
        rhs = _march_rhs(kind, N)
        got = rhs_eval(rhs, u, Q, x, 0.3, mag=mag, out=_layouts(u0.shape)[layout],
                       scratch=scratch)
        assert _same_bits(got, rhs_eval(rhs, u0, grad, x, 0.3)), kind


# --- the march ------------------------------------------------------------------


def _reference_run(config):
    """Variable-step AB2 as the plain loop: fresh kernel results every step,
    D_max from flux_jacobian_bounds, and finiteness plus max |u| for the status.
    The first step is Euler; each interval's rest is split into equal steps.

    Returns (snapshots, dt history, status) as run's record holds them.
    """
    flux, grid, thr = _resolve_flux(config.flux), config.grid, config.blowup_threshold
    state = initial_field(config)
    x = node_coords(grid)
    h2 = min(h * h for h in grid.h)
    radius = 1.0 if grid.boundary is Boundary.PERIODIC else 1.5
    steps, prev = [], None

    def stopped():
        if not np.isfinite(state.values).all():
            return StatusKind.DIVERGED
        if float(np.abs(state.values).max()) > thr:
            return StatusKind.BLOWUP
        return None

    kind = stopped()
    if kind is not None:
        return [state], steps, RunStatus(kind, 0.0)
    snapshots = [state.copy()]
    for target in np.linspace(0.0, config.t_end, config.snapshot_count)[1:]:
        while state.time < target:
            grad = gradient(state)
            mag = grad_magnitude(grad)
            rate = divergence(grid, flux_eval(flux, grad, mag=mag))
            rate += rhs_eval(config.rhs, state.values, grad, x, state.time, mag=mag)
            if grid.boundary is Boundary.DIRICHLET:
                for a in range(grid.n):
                    planes = [slice(None)] * rate.ndim
                    planes[a] = [0, -1]
                    rate[tuple(planes)] = -0.0
            if float(mag.max()) > thr:
                return snapshots, steps, RunStatus(StatusKind.BLOWUP, state.time)
            d_max = float(flux_jacobian_bounds(flux, grad, mag=mag)[1].max())
            dt_stab = config.dt_max if d_max <= 0.0 else min(
                config.cfl * h2 / (radius * grid.n * d_max), config.dt_max)
            if not dt_stab >= 1e-12:
                return snapshots, steps, RunStatus(StatusKind.DIVERGED, state.time)
            rest = target - state.time
            dt = rest / math.ceil(rest / dt_stab)
            if prev is None:
                state.values += rate * dt
            else:
                state.values += ((prev - rate) * (-0.5 * dt / steps[-1]) + rate) * dt
            prev = rate
            state.time = target if dt == rest else state.time + dt
            steps.append(dt)
            kind = stopped()
            if kind is not None:
                return snapshots, steps, RunStatus(kind, state.time)
        snapshots.append(state.copy())
    return snapshots, steps, RunStatus(StatusKind.COMPLETED)


def _assert_same_march(config):
    record = run(config)
    snapshots, steps, status = _reference_run(config)
    assert record.status == status
    assert _same_bits(record.dt_history, np.array(steps))
    assert len(record.snapshots) == len(snapshots)
    for got, want in zip(record.snapshots, snapshots):
        assert got.time == want.time
        assert _same_bits(got.values, want.values)
    return record


MARCH_FLUXES = {
    "pure_2": FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
    "pure_2.5": FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
    "pure_1.5": FluxSpec(FluxKind.PURE_P_LAPLACE, 1.5),  # run routes it to regularized
    "double": FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.6),
    "regularized": FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.6, eps=0.05),
}


def _march_rhs(kind, N):
    if kind is RhsKind.MANUFACTURED:
        weights = np.arange(1.0, N + 1.0)
        return RhsSpec(kind, source=lambda x, t: np.cos(3.0 * x.sum(axis=-1, keepdims=True)
                                                        + 20.0 * t) * weights)
    return RhsSpec(kind, w=1.3, c1=0.7, c2=0.2,
                   direction=tuple(range(1, N + 1)) if kind is RhsKind.POWER_FIXED_DIR else None)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("rhs_kind", list(RhsKind))
@pytest.mark.parametrize("flux_name", list(MARCH_FLUXES))
def test_run_matches_the_plain_march(flux_name, rhs_kind, boundary):
    # n and N vary with the case: each boundary, flux and rhs kind meets both n and every N
    f, r, b = list(MARCH_FLUXES).index(flux_name), list(RhsKind).index(rhs_kind), \
        list(Boundary).index(boundary)
    n, N, index = 2 + (r + b) % 2, 1 + (f + r) % 3, 10 * f + 2 * r + b
    grid = Grid(n, tuple(0.8 + 0.1 * a for a in range(n)), tuple(5 + a for a in range(n)),
                boundary)
    flux = MARCH_FLUXES[flux_name]
    config = SolveConfig(grid=grid, flux=flux, rhs=_march_rhs(rhs_kind, N),
                         initial=RandomSmooth(seed=index), N=N, t_end=1.0)
    # snapshots about three stable steps of the initial field apart (steps of
    # the AB2 rule, with c_b = 1 periodic and 3/2 Dirichlet), so that D_max,
    # not the snapshot grid, sets the steps.  Periodic p = 1.5 (eps =
    # 1e-6) is fast diffusion, which goes extinct: its D_max grows toward
    # eps^-0.5 as the field flattens, so there they sit just over one step
    # apart, which keeps the march short and still starts every interval
    # with a step D_max sets.
    spacing = 1.05 if flux_name == "pure_1.5" and boundary is Boundary.PERIODIC else 3.0
    mag = grad_magnitude(gradient(initial_field(config)))
    d_max = flux_jacobian_bounds(_resolve_flux(flux), None, mag=mag)[1].max()
    radius = 1.0 if boundary is Boundary.PERIODIC else 1.5
    dt = config.cfl * min(h * h for h in grid.h) / (radius * n * d_max)
    record = _assert_same_march(replace(config, t_end=spacing * 63 * dt))
    assert record.dt_history.size > len(record.snapshots)


@pytest.mark.parametrize("value, kind", [
    (math.nan, StatusKind.DIVERGED),
    (math.inf, StatusKind.DIVERGED),
    (-math.inf, StatusKind.DIVERGED),  # only the min is non-finite
    (1e3, StatusKind.BLOWUP),   # finite, past the threshold through the max
    (-1e3, StatusKind.BLOWUP),  # and through the min
])
def test_run_status_matches_the_plain_march(value, kind):
    # from t = 4e-3 the source puts a non-finite value on one node, or a
    # finite one on every node, which leaves the gradient alone: either way
    # the status comes from u itself, mid-run
    grid = Grid(3, 1.0, 6)
    where = np.zeros(grid.node_shape + (2,), dtype=bool)
    where[(0,) * 4 if not math.isfinite(value) else ...] = True
    source = lambda x, t: np.where(where & (t >= 4e-3), value, 0.0)
    config = SolveConfig(grid=grid, flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
                         rhs=RhsSpec(RhsKind.MANUFACTURED, source=source),
                         initial=RandomSmooth(seed=1), N=2, t_end=0.01, blowup_threshold=5.0)
    record = _assert_same_march(config)
    assert record.status.kind is kind
    assert 4e-3 < record.status.time < 0.01


def test_run_on_a_singular_flux_still_raises():
    # double power with p < 2 at a zero gradient: refused, not marched
    grid = Grid(2, 1.0, 6)
    config = SolveConfig(grid=grid, flux=FluxSpec(FluxKind.DOUBLE_POWER, 1.5, q=2.5),
                         rhs=RhsSpec(RhsKind.ZERO), initial=Prescribed(np.ones((6, 6, 1))),
                         N=1, t_end=0.01)
    with pytest.raises(ValueError, match="singular"):
        run(config)


D_MAX_FLUXES = st.one_of(
    st.builds(FluxSpec, st.just(FluxKind.PURE_P_LAPLACE), st.floats(1.2, 4.0)),
    st.builds(lambda p, dq: FluxSpec(FluxKind.DOUBLE_POWER, p, q=p + dq),
              st.floats(1.2, 3.0), st.floats(0.0, 1.5)),
    st.builds(lambda p, eps: FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, p, eps=eps),
              st.floats(1.2, 4.0), st.floats(1e-6, 1.0)),
)


@st.composite
def magnitudes(draw, specials=()):
    """|Q| samples: generic ones, runs a few ulps inside the extremes, zeros and NaNs,
    and at least one of specials at random positions when it is given."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.exponential(draw(st.floats(1e-3, 10.0)), size=draw(st.integers(2, 60)))
    for end, side in ((t.max(), -1.0), (t.min(), 1.0)):
        if draw(st.booleans()):
            t = np.append(t, end + side * np.spacing(end) * np.arange(1, 40))
    if draw(st.booleans()):
        t[rng.integers(t.size)] = 0.0
    if draw(st.booleans()):
        t[rng.integers(t.size)] = math.nan
    if specials:
        picks = draw(st.lists(st.sampled_from(specials), min_size=1, max_size=8))
        t[rng.integers(t.size, size=len(picks))] = picks
    return t


# The identity flux (pure p = 2) skips the eigen pass: its pair is (p - 1) t^0
# and t^0, and t^0 is 1.0 for every double, whatever the sample.
IDENTITY_SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, -1e-310)
D_MAX_CASES = (st.tuples(D_MAX_FLUXES, magnitudes())
               | st.tuples(st.just(FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0)),
                           magnitudes(IDENTITY_SPECIALS)))


# Each counterexample holds a node one ulp inside an extreme whose larger
# eigenvalue rounds one ulp above the value at either extreme: D_max read
# from the two extremes alone would be 1 ulp low there.
@settings(max_examples=300, deadline=None)
@given(case=D_MAX_CASES)
@example(case=(FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 2.5, eps=1e-6),
               np.array([1.051864898082741, 12.750092045563337, 12.750092045563338])))
@example(case=(FluxSpec(FluxKind.DOUBLE_POWER, 1.2, q=2.7),
               np.array([0.04214858106349269, 0.042148581063492695, 0.0949524476683027])))
@example(case=(FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), np.array(IDENTITY_SPECIALS)))
def test_d_max_is_the_upper_jacobian_bound_max(case):
    spec, mag = case
    work = np.empty((3,) + mag.shape)
    try:
        want = flux_jacobian_bounds(spec, None, mag=mag)[1].max()
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            _d_max(spec, mag, work)
        return
    got = _d_max(spec, mag, work)[0]
    assert _same_bits(got, want)  # NaN samples propagate as NaN
