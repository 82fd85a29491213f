"""The march's kernels against their plain numpy formulas, bit for bit.

Each reference below is the straightforward expression of the kernel:
np.roll differences stacked per axis, out = out + ..., coeff * Q, the two
eigenvalues of dA/dQ, and c1 |grad u|^w u/|u| + c2.  The kernels compute the
same arithmetic in the same order without temporaries, so they must agree
exactly.  The one exception is grad_magnitude from 8 terms on, where numpy's
pairwise summation and the kernel's running sum group the squares differently.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradbound import (
    Boundary,
    FluxKind,
    FluxSpec,
    Grid,
    RhsKind,
    RhsSpec,
    divergence,
    flux_eval,
    flux_jacobian_bounds,
    grad_magnitude,
    rhs_eval,
)
from gradbound.mesh import gradient_of

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
       c2=st.floats(-2.0, 2.0), delta_u=st.sampled_from((1e-8, 0.5)))
def test_rhs_eval_aligned_is_the_unit_vector_formula(case, w, c1, c2, delta_u):
    grid, u = case
    grad = gradient_of(grid, u)
    mag = grad_magnitude(grad)
    spec = RhsSpec(RhsKind.POWER_ALIGNED, w=w, c1=c1, c2=c2, delta_u=delta_u)
    gw = mag**w
    unit = u / np.maximum(np.sqrt(np.sum(u * u, axis=-1)), delta_u)[..., None]
    reference = c1 * gw[..., None] * unit + c2
    assert _same_bits(rhs_eval(spec, u, grad, mag=mag), reference)
    assert _same_bits(rhs_eval(spec, u, grad), rhs_eval(spec, u, grad, mag=mag))
