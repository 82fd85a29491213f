"""Grids, stencils, cylinders, cutoffs, and the field file format."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import prescribed_record
from gradbound import (
    Boundary,
    CutoffFn,
    CylinderSpec,
    Field,
    Grid,
    ball_mask,
    grad_magnitude,
    gradient,
    load_field,
    node_coords,
    psi,
    save_field,
)
from gradbound.energy import _record_windows
from gradbound.mesh import (
    _time_weights,
    spatial_integral,
    time_integral,
)

UNIT3 = Grid(3, (1.0, 1.0, 1.0), (16, 16, 16))


def test_grid_validation():
    with pytest.raises(ValueError, match="4 cells"):
        Grid(3, (1.0, 1.0, 1.0), (3, 16, 16))
    with pytest.raises(ValueError, match="dimension"):
        Grid(4, (1.0,) * 4, (8,) * 4)
    with pytest.raises(ValueError):
        Grid(3, (1.0, 1.0), (8, 8, 8))
    with pytest.raises(ValueError, match="integers"):
        Grid(3, 1.0, 8.5)  # refused, not truncated to 8 cells
    assert Grid(3, 1.0, 8.0).cells == (8, 8, 8)
    g = Grid(2, (2.0, 1.0), (8, 4), Boundary.DIRICHLET)
    assert g.h == (0.25, 0.25)
    assert g.node_shape == (9, 5)  # Dirichlet keeps both boundary nodes
    assert UNIT3.node_shape == (16, 16, 16)  # periodic drops the duplicate
    assert UNIT3.refined(2).cells == (32, 32, 32)
    assert Grid(3, 1.0, 16) == UNIT3  # one number stands for every axis


def test_gradient_constant_is_zero():
    f = Field(UNIT3, np.full(UNIT3.node_shape + (2,), 3.7))
    assert np.all(gradient(f) == 0.0)


def test_gradient_exact_on_affine():
    # central and one-sided second-order stencils reproduce degree-1 exactly
    grid = Grid(3, (1.0, 1.0, 1.0), (8, 8, 8), Boundary.DIRICHLET)
    a = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])  # (N=2, n=3)
    x = node_coords(grid)
    f = Field(grid, np.einsum("...a,ca->...c", x, a))
    g = gradient(f)
    assert np.abs(g - a).max() < 1e-12


def test_gradient_sin_second_order():
    errs = []
    for cells in (16, 32):
        grid = Grid(3, (1.0, 1.0, 1.0), (cells,) * 3)
        x = node_coords(grid)
        f = Field(grid, np.sin(2.0 * math.pi * x[..., 0])[..., None])
        exact = 2.0 * math.pi * np.cos(2.0 * math.pi * x[..., 0])
        errs.append(np.abs(gradient(f)[..., 0, 0] - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_periodic_gradient_is_the_wrapped_central_difference():
    # (u[i+1] - u[i-1]) / 2h with i +- 1 taken mod the axis length, bit for bit
    grid = Grid(3, (1.0, 0.7, 0.4), (20, 12, 8))
    u = np.random.default_rng(3).standard_normal(grid.node_shape + (2,))
    g = gradient(Field(grid, u))
    for a, h in enumerate(grid.h):
        wrapped = (np.roll(u, -1, axis=a) - np.roll(u, 1, axis=a)) / (2.0 * h)
        assert np.array_equal(g[..., a], wrapped)


def test_grad_magnitude_frobenius():
    assert grad_magnitude(np.zeros((4, 4, 4, 2, 3))).max() == 0.0
    g = np.zeros((2, 3))
    g[1, 2] = -2.5
    assert grad_magnitude(g) == pytest.approx(2.5)
    # grad of x/|x| at a point: delta_ij/|x| - x_i x_j/|x|^3, Frobenius sqrt(n-1)/|x|
    x = np.array([0.6, -0.48, 0.64])
    r = np.linalg.norm(x)
    jac = np.eye(3) / r - np.outer(x, x) / r**3
    assert grad_magnitude(jac) == pytest.approx(math.sqrt(2.0) / r, rel=1e-12)


def test_cylinder_spec_geometry():
    cyl = CylinderSpec((0.5, 0.5, 0.5), t0=0.2, R=0.3)
    assert cyl.depth == pytest.approx(0.09)
    assert cyl.time_window() == (pytest.approx(0.11), 0.2)
    assert cyl.fits_grid(UNIT3)
    assert not CylinderSpec((0.5, 0.5, 0.5), 0.2, 0.6).fits_grid(UNIT3)
    e_p = CylinderSpec((0.5, 0.5, 0.5), 0.2, 0.3, time_exponent=2.5)
    assert e_p.depth == pytest.approx(0.3**2.5)


def _unit_record(cells: int, sample, steps: int = 40, t_end: float = 0.2, N: int = 1):
    grid = Grid(3, (1.0, 1.0, 1.0), (cells,) * 3)
    return prescribed_record(grid, sample, np.linspace(0.0, t_end, steps + 1), N=N)


# Cylinder quadrature runs through psi = iint |grad u|^e: fields with a known
# exact discrete gradient turn each oracle into a choice of u and e.



@st.composite
def _balls(draw):
    """A grid, a center on a node, between nodes or outside, and a radius that
    is often exactly a node distance, so nodes sit on the sphere."""
    n = draw(st.sampled_from((2, 3)))
    cells = tuple(draw(st.integers(4, 12)) for _ in range(n))
    extent = tuple(draw(st.floats(0.3, 3.0)) for _ in range(n))
    grid = Grid(n, extent, cells, draw(st.sampled_from(Boundary)))
    h = grid.h
    center = tuple(draw(st.one_of(st.integers(-2, c + 2).map(lambda k, hh=hh: k * hh),
                                  st.floats(-0.5 * e, 1.5 * e)))
                   for c, hh, e in zip(cells, h, extent))
    steps = [draw(st.integers(0, 6)) for _ in range(n)]
    radius = draw(st.one_of(st.just(math.sqrt(sum((k * hh) ** 2 for k, hh in zip(steps, h)))),
                            st.floats(0.0, 2.0 * max(extent))))
    return grid, center, radius


@settings(max_examples=300, deadline=None)
@given(_balls())
def test_ball_mask_matches_whole_grid(ball):
    # ball_mask sums distances over the ball's index range only; every node
    # must get the verdict the whole grid's sums give, bit for bit
    grid, center, radius = ball
    d = node_coords(grid) - np.asarray(center, dtype=np.float64)
    assert np.array_equal(ball_mask(grid, center, radius),
                          np.sum(d * d, axis=-1) <= radius * radius)

def test_cylinder_measure():
    # e = 0 integrates 1 whatever the field
    record = _unit_record(32, lambda x, t: np.ones(x.shape[:-1] + (1,)))
    cyl = CylinderSpec((0.5, 0.5, 0.5), t0=0.2, R=0.3)
    got = psi(record, cyl, 0.0)
    expect = 4.0 / 3.0 * math.pi * 0.3**3 * 0.3**2
    assert got == pytest.approx(expect, rel=0.05)  # ball staircase limits the rate


def test_cylinder_zero_integrand():
    record = _unit_record(16, lambda x, t: np.zeros(x.shape[:-1] + (1,)))
    cyl = CylinderSpec((0.5, 0.5, 0.5), t0=0.2, R=0.25)
    assert psi(record, cyl, 2.0) == 0.0


def test_cylinder_polynomial_oracle():
    # u = (x1 - 1/2)^2 / 2 has discrete gradient x1 - 1/2 in the ball:
    # iint (x1 - 1/2)^2 over B_R x window = (4 pi/15) R^5 * R^2
    record = _unit_record(32, lambda x, t: ((x[..., :1] - 0.5) ** 2) / 2.0)
    cyl = CylinderSpec((0.5, 0.5, 0.5), t0=0.2, R=0.3)
    got = psi(record, cyl, 2.0)
    expect = (4.0 * math.pi / 15.0) * 0.3**5 * 0.3**2
    assert got == pytest.approx(expect, rel=0.05)


def test_cylinder_time_quadrature_exact_on_linear():
    # u = t x1 has |grad u| = t in the ball; factor out the staircase by
    # comparing against the discrete ball measure
    record = _unit_record(16, lambda x, t: t * x[..., :1])
    cyl = CylinderSpec((0.5, 0.5, 0.5), t0=0.2, R=0.3)
    grid = record.config.grid
    got = psi(record, cyl, 1.0)
    measure = spatial_integral(grid, np.ones(grid.node_shape)[ball_mask(grid, cyl.center, cyl.R)])
    a, b = cyl.time_window()
    assert got == pytest.approx(measure * (b * b - a * a) / 2.0, rel=1e-12)


def test_cylinder_preconditions():
    record = _unit_record(16, lambda x, t: np.ones(x.shape[:-1] + (1,)))
    with pytest.raises(ValueError, match="exits"):
        psi(record, CylinderSpec((0.9, 0.5, 0.5), 0.2, 0.3), 2.0)
    with pytest.raises(ValueError, match="span"):
        psi(record, CylinderSpec((0.5, 0.5, 0.5), 0.5, 0.3), 2.0)
    # 3 snapshots on [0, 0.2]: window (0.11, 0.2) holds only the last one
    thin = _unit_record(16, lambda x, t: np.ones(x.shape[:-1] + (1,)), steps=2)
    with pytest.raises(ValueError, match="snapshots"):
        psi(thin, CylinderSpec((0.5, 0.5, 0.5), 0.2, 0.3), 2.0)


def _window_sup(record, cyl):
    """Largest ball integral of u over the snapshots inside the window."""
    (win,) = _record_windows(record, [cyl.R], cyl.center, cyl.t0, cyl.time_exponent)
    grid = record.config.grid
    return max(spatial_integral(grid, record.snapshots[k].values[..., 0][win.mask])
               for k in win.inside)


def test_sup_slice_time_constant():
    record = _unit_record(16, lambda x, t: np.ones(x.shape[:-1] + (1,)))
    cyl = CylinderSpec((0.5, 0.5, 0.5), t0=0.2, R=0.3)
    got = _window_sup(record, cyl)
    grid = record.config.grid
    single = spatial_integral(grid, np.ones(grid.node_shape)[ball_mask(grid, cyl.center, cyl.R)])
    assert got == pytest.approx(single, rel=1e-14)


def test_sup_slice_separable_oracle():
    # g(t) phi(x) with g decreasing: sup sits at the first snapshot in the window
    phi = lambda x: np.cos(2.0 * math.pi * x[..., 0]) + 2.0
    record = _unit_record(16, lambda x, t: (math.exp(-t) * phi(x))[..., None])
    cyl = CylinderSpec((0.5, 0.5, 0.5), t0=0.2, R=0.3)
    got = _window_sup(record, cyl)
    times = record.times()
    a, _ = cyl.time_window()
    first = int(np.nonzero(times >= a)[0][0])
    (win,) = _record_windows(record, [cyl.R], cyl.center, cyl.t0, cyl.time_exponent)
    assert win.inside[0] == first
    grid = record.config.grid
    ball = ball_mask(grid, cyl.center, cyl.R)
    expect = spatial_integral(grid, record.snapshots[first].values[..., 0][ball])
    assert got == pytest.approx(expect, rel=1e-14)
    zero = _unit_record(16, lambda x, t: np.zeros(x.shape[:-1] + (1,)))
    assert _window_sup(zero, cyl) == 0.0


def test_time_integral_interpolates_endpoints():
    times = np.linspace(0.0, 1.0, 11)
    series = 3.0 * times + 1.0
    got = time_integral(times, series, 0.13, 0.87)
    exact = 1.5 * (0.87**2 - 0.13**2) + (0.87 - 0.13)
    assert got == pytest.approx(exact, rel=1e-13)  # trapezoid exact on linear
    with pytest.raises(ValueError):
        time_integral(times, series, -0.5, 0.5)
    with pytest.raises(ValueError):
        time_integral(times, series, 1.2, 1.5)


def _interpolated_trapezoid(times, series, a, b):
    """The time rule as written before it had weights: np.interp at the ends, trapezoid between."""
    inner = (times > a) & (times < b)
    ts = np.concatenate(([a], times[inner], [b]))
    vs = np.concatenate(([np.interp(a, times, series)], series[inner],
                         [np.interp(b, times, series)]))
    return float(np.sum(np.diff(ts) * (vs[1:] + vs[:-1]) / 2.0))


@st.composite
def _time_windows(draw):
    """Sorted sample times and a window [a, b] inside them, a < b.

    An end is a sample time or a fraction of the span; one that falls
    between samples stays more than round-off away from both.
    """
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=15))
    times = draw(st.floats(-1.0, 1.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    span = times[-1] - times[0]
    end = st.sampled_from(list(times)) | st.floats(0.0, 1.0).map(lambda f: times[0] + f * span)
    a, b = sorted((draw(end), draw(end)))
    assume(b - a > 1e-6 * span)
    for t in (a, b):
        gap = np.abs(times - t).min()
        assume(gap == 0.0 or gap > 1e-9 * span)
    return times, a, b


@settings(max_examples=300, deadline=None)
@given(_time_windows(), st.lists(st.floats(1.0, 10.0), min_size=16, max_size=16),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
# subnormal coefficients, where the affine integral is off by an ulp of 5e-324
@example((np.array([0.0, 0.5, 1.0]), 0.0, 1.0), [1.0] * 16, 5e-324, 0.0)
@example((np.array([0.97, 1.09, 1.4]), 0.99, 1.22), [1.0] * 16, 0.0, 1e-310)
def test_time_weights_properties(window, values, c0, c1):
    times, a, b = window
    w = _time_weights(times, a, b)
    assert w.shape == times.shape and (w >= 0.0).all()
    # support: the samples in [a, b] plus the one beyond each end between samples
    below = np.flatnonzero(times < a)[-1:] if a not in times else []
    above = np.flatnonzero(times > b)[:1] if b not in times else []
    inside = np.flatnonzero((times >= a) & (times <= b))
    assert np.array_equal(np.flatnonzero(w), np.sort(np.concatenate((below, inside, above))))
    span = times[-1] - times[0]
    assert abs(w.sum() - (b - a)) <= 1e-14 * span * times.size
    # exact on affine series, up to round-off: relative, with a floor of a
    # few subnormal ulps per sample where the relative bound underflows
    affine = c0 + c1 * times
    exact = c0 * (b - a) + c1 * (b * b - a * a) / 2.0
    scale = (abs(c0) + abs(c1) * np.abs(times).max()) * span
    floor = 4 * times.size * np.finfo(np.float64).smallest_subnormal
    assert abs(time_integral(times, affine, a, b) - exact) <= 1e-13 * scale + floor
    # the endpoint-interpolated trapezoid it writes out
    series = np.array(values[:times.size])
    assert time_integral(times, series, a, b) == pytest.approx(
        _interpolated_trapezoid(times, series, a, b), rel=1e-14)


def test_cutoff_plateau_and_support():
    eta = CutoffFn((0.5, 0.5, 0.5), rho=0.2, R=0.4, t0=1.0)
    pts = np.array([
        [0.5, 0.5, 0.5],
        [0.62, 0.55, 0.45],  # r ~ 0.16 < rho
        [0.95, 0.5, 0.5],    # r > R
    ])
    profile = eta._space_parts(pts)[0]  # eta(x, t) = profile * time_profile(t)
    vals_top = profile * eta.time_profile(1.0)
    assert vals_top[0] == 1.0 and vals_top[1] == 1.0 and vals_top[2] == 0.0
    assert profile[0] * eta.time_profile(1.0 - 0.4**2 - 1e-9) == 0.0  # below the window
    mid = profile[0] * eta.time_profile(1.0 - (0.2**2 + 0.4**2) / 2.0)
    assert 0.0 < mid < 1.0


def test_cutoff_derivative_bounds_random_triples():
    rng = random.Random(11)
    r_grid = np.linspace(0.0, 1.5, 4001)
    on_axis = lambda r: np.stack([r, np.zeros_like(r), np.zeros_like(r)], axis=-1)
    for _ in range(50):
        rho = rng.uniform(0.05, 0.8)
        R = rho + rng.uniform(0.02, 0.5)
        e = rng.choice([2.0, 2.7, 3.0])
        eta = CutoffFn((0.0, 0.0, 0.0), rho=rho, R=R, t0=1.0, time_exponent=e)
        prof = eta._space_parts(on_axis(r_grid))[0]  # |x| is r exactly
        assert prof.min() >= 0.0 and prof.max() <= 1.0
        d_space = np.abs(np.diff(prof) / np.diff(r_grid)).max()
        assert d_space * (R - rho) <= 4.0 + 1e-9
        a, b = 1.0 - R**e, 1.0 - rho**e
        t_grid = np.linspace(a - 0.01, 1.0, 4001)
        tp = np.array([eta.time_profile(t) for t in t_grid])
        d_time = np.abs(np.diff(tp) / np.diff(t_grid)).max()
        assert d_time * (R - rho) ** e <= 4.0 + 1e-9
        assert eta._space_parts(on_axis(np.array([rho * 0.99])))[0][0] == 1.0
        assert eta._space_parts(on_axis(np.array([R + 1e-12])))[0][0] == 0.0
        assert eta.time_profile(b + 1e-9) == 1.0


def test_cutoff_analytic_gradient_matches_fd():
    eta = CutoffFn((0.5, 0.5, 0.5), rho=0.15, R=0.35, t0=0.5)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 0.8, size=(200, 3))
    step = 1e-6
    # the space profile's gradient: grad eta(x, t) is this times time_profile(t)
    _, dq, unit = eta._space_parts(pts)
    grad = dq[:, None] * unit
    for axis in range(3):
        shift = np.zeros(3)
        shift[axis] = step
        fd = (eta._space_parts(pts + shift)[0] - eta._space_parts(pts - shift)[0]) / (2 * step)
        assert np.abs(fd - grad[:, axis]).max() < 1e-5


def test_field_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    for boundary in Boundary:
        grid = Grid(3, (2.0, 1.0, 1.0), (8, 4, 4), boundary)
        f = Field(grid, rng.standard_normal(grid.node_shape + (2,)), time=0.375)
        f.values[0, 0, 0] = -0.0
        path = tmp_path / f"snap_{boundary.value}.bin"
        save_field(f, path)
        g = load_field(path)
        assert g.grid == grid
        assert g.time == 0.375
        # the loaded payload is the field's own writable native float64 array, bit for bit
        assert g.values.dtype == np.float64 and g.values.dtype.isnative
        assert g.values.flags.writeable and g.values.flags.c_contiguous
        assert np.array_equal(g.values.view(np.uint64), f.values.view(np.uint64))


@pytest.mark.parametrize("cut, needle", [
    (lambda raw: b"", "ends inside its header"),
    (lambda raw: raw[:10], "ends inside its header"),
    (lambda raw: raw[:30], "ends inside its header"),
    (lambda raw: raw[:-8], "matches no boundary layout"),
    (lambda raw: raw[:-3], "matches no boundary layout"),
    (lambda raw: (7).to_bytes(8, "little") + raw[8:], "corrupt field header"),
    # the first extent, after n, N and three cells: the Grid refuses it
    (lambda raw: raw[:40] + struct.pack("<d", -1.0) + raw[48:], "extents must be positive"),
    (lambda raw: raw[:40] + struct.pack("<d", math.nan) + raw[48:], "extents must be positive"),
], ids=["empty", "10B", "30B", "payload-8B", "payload-3B", "n7", "extent-1", "extent-nan"])
def test_field_file_damage_is_a_value_error(tmp_path, cut, needle):
    grid = Grid(3, 1.0, 4)
    path = tmp_path / "snap.bin"
    save_field(Field(grid, np.ones(grid.node_shape + (1,)), time=0.0), path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=needle) as info:
        load_field(path)
    assert str(path) in str(info.value)
