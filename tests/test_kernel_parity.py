"""The march's kernels against their plain numpy formulas, bit for bit.

Each reference below is the straightforward expression of the kernel:
np.roll differences stacked per axis, out = out + ..., coeff * Q, the two
eigenvalues of dA/dQ, c1 |grad u|^w u/|u| + c2, (c1 |grad u|^w + c2) d and
u |grad u|^2, the last three broadcast over the component axis.  The kernels
compute the same arithmetic in the same order without temporaries, one
component or axis slot at a time, so they must agree exactly, and so must
their out= results in any buffer layout.  The one exception is grad_magnitude from 8 terms on, where numpy's
pairwise summation and the kernel's running sum group the squares differently.
The references divide by 2h; where 2h is a power of two the kernels multiply
by the exact 1/(2h), and the divergence may scale its summed differences
once, which the scaling tests show gives the quotient's bits.

The march itself is checked the same way: `run`, which writes every kernel
into one stage of reused axis-major buffers and updates u in place, against
the plain Adams-Bashforth 2 loop over fresh kernel results and the
reference divergence.
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
from gradbound import mesh, solver
from gradbound.energy import _box
from gradbound.flux import DELTA_U
from gradbound.mesh import _diff_along, _grad_magnitude_of, _inverse_2h, ball_mask, gradient_of
from gradbound.solver import _d_max, _resolve_flux

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def grids(draw):
    """Any extents, or power-of-two spacings h = 2^-k, one for every axis or
    one per axis: there the stencil multiplies by the exact 1/(2h), and with
    one h and 1/(2h) >= 1 the divergence scales its summed differences once."""
    n = draw(st.sampled_from((2, 3)))
    cells = tuple(draw(st.integers(4, 7)) for _ in range(n))
    spacing = draw(st.sampled_from(("any", "shared", "per-axis")))
    if spacing == "any":
        extent = tuple(draw(st.floats(0.3, 3.0)) for _ in range(n))
    else:
        powers = st.integers(-1, 5)
        ks = [draw(powers)] * n if spacing == "shared" else [draw(powers) for _ in range(n)]
        extent = tuple(c * 2.0**-k for c, k in zip(cells, ks))
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


# uniform 2h = 1/8 on a 4^3 grid: the multiply and the scale-once paths
EIGHTH = Grid(3, 0.25, 4)


@SETTINGS
@given(case=grid_and_values())
@example(case=(EIGHTH, np.random.default_rng(0).standard_normal((4, 4, 4, 2))))
def test_gradient_of_is_the_stacked_per_axis_difference(case):
    grid, u = case
    parts = [_reference_diff(u, a, grid.h[a], grid.boundary) for a in range(grid.n)]
    assert _same_bits(gradient_of(grid, u), np.stack(parts, axis=-1))


def test_diff_along_refuses_an_out_it_would_write_through_a_copy():
    # a flat view of a non-contiguous out is a copy: the derivative would be lost
    grid = Grid(3, 1.0, 5)
    u = np.random.default_rng(0).standard_normal(grid.node_shape + (2,))
    for out in (np.zeros(u.shape + (3,))[..., 0], np.zeros(u.shape, order="F")):
        with pytest.raises(ValueError, match="C-contiguous"):
            _diff_along(u, 0, grid.h[0], grid.boundary, out=out)
        assert not out.any()


def _box_and_grid_magnitudes(grid, u, center, radius):
    """|grad u| at the ball's nodes as a window reads it, from the ball's box,
    and as the whole grid gives it; with the box's key and the ball."""
    mask = ball_mask(grid, center, radius)
    key, box, box_grid, box_mask = _box(grid, mask)
    boxed = _grad_magnitude_of(box_grid, u[box])[box_mask]
    return boxed, grad_magnitude(gradient_of(grid, u))[mask], key, mask


# (boundary, center, radius) on an 8^3 unit grid, and what the box must show
_BOXES = {
    "periodic-wrapped-halo": (Boundary.PERIODIC, (0.0, 0.5, 0.5), 0.2,
                              lambda key, mask: key[0][0] < 0),
    "dirichlet-clipped": (Boundary.DIRICHLET, (0.0, 0.5, 1.0), 0.3,
                          lambda key, mask: key[0][0] == 0 and key[2][1] == 9),
    "covers": (Boundary.PERIODIC, (0.5, 0.5, 0.5), 0.4,
               lambda key, mask: key is None and mask.any()),
    "empty-ball": (Boundary.PERIODIC, (0.06, 0.06, 0.06), 0.01,
                   lambda key, mask: key is None and not mask.any()),
}


@pytest.mark.parametrize("name", _BOXES)
def test_box_magnitude_is_the_grid_magnitude_on_each_kind_of_box(name):
    boundary, center, radius, shows = _BOXES[name]
    grid = Grid(3, 1.0, 8, boundary)
    u = np.random.default_rng(1).standard_normal(grid.node_shape + (2,))
    boxed, whole, key, mask = _box_and_grid_magnitudes(grid, u, center, radius)
    assert shows(key, mask)
    assert _same_bits(boxed, whole)


@SETTINGS
@given(case=grid_and_values(), data=st.data())
def test_box_magnitude_is_the_grid_magnitude_on_the_ball(case, data):
    # any ball, inside the domain or not: the box's one-sided closures spoil
    # only its halo, and the magnitude sums the per-axis derivatives in
    # grad_magnitude's order
    grid, u = case
    center = [data.draw(st.floats(-0.25 * e, 1.25 * e)) for e in grid.extent]
    radius = data.draw(st.floats(0.0, 1.5 * max(grid.extent)))
    boxed, whole, _, _ = _box_and_grid_magnitudes(grid, u, center, radius)
    assert _same_bits(boxed, whole)


def _reference_divergence(grid, F):
    out = _reference_diff(F[..., 0], 0, grid.h[0], grid.boundary)
    for a in range(1, grid.n):
        out = out + _reference_diff(F[..., a], a, grid.h[a], grid.boundary)
    return out


@SETTINGS
@given(case=grid_and_values(flux_axis=True))
@example(case=(EIGHTH, np.random.default_rng(0).standard_normal((4, 4, 4, 2, 3))))
def test_divergence_is_the_summed_per_axis_difference(case):
    grid, F = case
    assert _same_bits(divergence(grid, F), _reference_divergence(grid, F))


# --- the stencil's scale ---------------------------------------------------------

DBL_MAX = float(np.finfo(np.float64).max)
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -3.0,
            DBL_MAX, -DBL_MAX, np.nextafter(DBL_MAX, 0.0), 2.0**1020, math.inf, -math.inf,
            math.nan)


def _same_or_nan(a, b):
    """Bit for bit, except that a NaN matches any NaN."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(_bits(a)[~nan], _bits(b)[~nan]))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(-12, 3),
       x=st.lists(st.floats() | st.sampled_from(EXTREMES), min_size=1, max_size=40))
@example(k=-12, x=list(EXTREMES))
@example(k=3, x=list(EXTREMES))
def test_multiplying_by_the_exact_inverse_is_dividing(k, x):
    # 2h = 2^k: signed zeros, subnormal quotients, overflow, infinities and NaN
    step = 2.0**k
    inverse = _inverse_2h(step / 2.0)
    assert inverse == 2.0**-k
    quotient, product = np.array(x), np.array(x)
    with np.errstate(over="ignore"):
        quotient /= step
        product *= inverse
    assert _same_or_nan(product, quotient)


def test_only_a_power_of_two_2h_with_a_double_reciprocal_multiplies():
    assert _inverse_2h(2.0**-1024) == 2.0**1023  # 2h = 2^-1023, subnormal
    assert _inverse_2h(2.0**1022) == 2.0**-1023  # a subnormal reciprocal is exact too
    for h in (1.0 / 48.0, 3.0 / 32.0, 0.0, math.inf, 2.0**-1074, 2.0**-1025):
        assert _inverse_2h(h) is None, h


@settings(max_examples=200, deadline=None)
@given(k=st.integers(-12, 0), n=st.integers(2, 3), data=st.data())
@example(k=-4, n=3, data=None)
def test_scaling_the_sum_once_is_scaling_each_term(k, n, data):
    # 1/(2h) = 2^-k >= 1 and finite differences: equal wherever the per-axis
    # sum stays finite, that is wherever no scaled term or running sum overflows
    step, finite = 2.0**k, st.floats(allow_nan=False, allow_infinity=False)
    if data is None:  # subnormal terms and sums, and sums just inside DBL_MAX
        d = np.array([[5e-324, -1e-310, 1e-308, DBL_MAX * step, 0.0],
                      [5e-324, 3e-310, -1e-308, -DBL_MAX * step / 2.0, -0.0],
                      [-5e-324, -2e-310, 5e-324, DBL_MAX * step / 2.0, -0.0]])
    else:
        d = np.array(data.draw(st.lists(st.tuples(*[finite] * n), min_size=1, max_size=40))).T
    with np.errstate(over="ignore", invalid="ignore"):
        per_axis = d[0] / step
        once = d[0].copy()
        for a in range(1, n):
            per_axis += d[a] / step
            once += d[a]
        once *= _inverse_2h(step / 2.0)
    kept = np.isfinite(per_axis)
    assert _same_bits(once[kept], per_axis[kept])
    if data is None:
        assert kept.all()


def test_scaling_once_can_stay_finite_where_the_per_axis_sum_overflows():
    # the documented corner, through divergence on a uniform 2h = 1/8 grid: at
    # node (0, 0) the axis differences are DBL_MAX / 4 and -DBL_MAX / 8, so the
    # first scaled term is 2 DBL_MAX, past DBL_MAX, while the sum scales to
    # DBL_MAX; node (2, 2) is its mirror image
    grid = Grid(2, 0.25, 4)
    F = np.zeros(grid.node_shape + (1, 2))
    F[1, :, 0, 0], F[3, :, 0, 0] = DBL_MAX / 8.0, -DBL_MAX / 8.0
    F[:, 1, 0, 1], F[:, 3, 0, 1] = -DBL_MAX / 16.0, DBL_MAX / 16.0
    with np.errstate(over="ignore", invalid="ignore"):
        per_axis = _reference_divergence(grid, F)
        once = divergence(grid, F)
    assert (per_axis[0, 0, 0], once[0, 0, 0]) == (math.inf, DBL_MAX)
    assert (per_axis[2, 2, 0], once[2, 2, 0]) == (-math.inf, -DBL_MAX)
    kept = np.isfinite(per_axis)
    assert kept.sum() == 8 and _same_bits(once[kept], per_axis[kept])


@pytest.mark.parametrize("grid, multiplies, once", [
    (Grid(2, 1.0, 48), False, False),
    (Grid(2, 3.0, 32), False, False),
    (Grid(2, 1.0, (32, 16)), True, False),
    (Grid(2, 0.5, 8, Boundary.DIRICHLET), True, True),
], ids=["48-cells", "extent-3", "unequal-h", "uniform-2h-eighth"])
def test_the_scaling_path_each_grid_takes(grid, multiplies, once, monkeypatch):
    # a 48-cell grid and an extent of 3.0 divide by 2h and scale each axis;
    # power-of-two spacings multiply, and scale once only where h is shared
    inverses, scaled = [], []
    real_inverse, real_diff = mesh._inverse_2h, mesh._diff_along

    def inverse_spy(h):
        inverses.append(real_inverse(h))
        return inverses[-1]

    def diff_spy(*args, **kwargs):
        scaled.append(kwargs.get("scaled", True))
        return real_diff(*args, **kwargs)

    monkeypatch.setattr(mesh, "_inverse_2h", inverse_spy)
    monkeypatch.setattr(mesh, "_diff_along", diff_spy)
    monkeypatch.setattr(solver, "_diff_along", diff_spy)
    F = np.random.default_rng(0).standard_normal(grid.node_shape + (2, grid.n))
    divergence(grid, F)
    run(SolveConfig(grid=grid, flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                    rhs=RhsSpec(RhsKind.ZERO), initial=RandomSmooth(seed=0), N=1, t_end=1e-5))
    assert inverses and all((inverse is not None) is multiplies for inverse in inverses)
    assert (False in scaled) is once


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
            rate = _reference_divergence(grid, flux_eval(flux, grad, mag=mag))
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
    # pure p = 2 marches on h = 1/8 on every axis, where the divergence scales
    # its summed differences once, and the double power on h = (1/8, 1/16[, 1/8]),
    # where each axis multiplies by its own exact 1/(2h); the others divide
    cells = tuple(5 + a for a in range(n))
    extent = {"pure_2": tuple(c / 8.0 for c in cells),
              "double": tuple(c / (8.0 * (1 + a % 2)) for a, c in enumerate(cells))
              }.get(flux_name, tuple(0.8 + 0.1 * a for a in range(n)))
    grid = Grid(n, extent, cells, boundary)
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
