"""Oracle-side checks: exact ladder iteration, manufactured sources, and the
bounded-map-with-unbounded-gradient counterexample.

The counterexample numbers (residual order, gradient law) were sized on an
extent-4 cube so the annulus [0.5, 1.5] clears both the singular node and the
boundary stencils with room to spare.
"""

import math

import numpy as np
import pytest

from gradbound import (
    FluxKind,
    FluxSpec,
    Grid,
    SeparableTarget,
    build_ladder,
    grad_magnitude,
    gradient,
    ladder_oracle,
    manufactured_problem,
    struwe_field,
    struwe_residual,
)
from gradbound.mesh import Boundary, node_coords

TWO_PI = 2.0 * math.pi


def _cube(cells, extent=1.0, boundary=Boundary.PERIODIC):
    return Grid(n=3, cells=(cells,) * 3, extent=(extent,) * 3, boundary=boundary)


# --- exact ladder oracle ---------------------------------------------------


def test_oracle_heat_seed_exact():
    s = ladder_oracle(0.0, 2.0, 2.0, 3, 3)
    assert s == [0.0, 4.0 / 3.0, 32.0 / 9.0, 196.0 / 27.0]


def test_oracle_matches_builder():
    for s0, p, M, n in [(0.0, 2.0, 2.0, 3), (0.5, 2.5, 2.5, 3), (1.0, 3.0, 4.0, 4)]:
        ladder = build_ladder(s0, p, M, n, 10)
        oracle = ladder_oracle(s0, p, M, n, 10)
        for a, b in zip(ladder.s, oracle):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_oracle_rejects_nonincreasing():
    # s0 = -2 pins kappa at n(p - M)/2 <= 0 for p = M
    with pytest.raises(ValueError, match="does not increase"):
        ladder_oracle(-2.0, 2.0, 2.0, 3, 5)


@pytest.mark.parametrize("bad_n", [2, 3.0])
def test_oracle_rejects_bad_dimension(bad_n):
    with pytest.raises(ValueError, match="integer n >= 3"):
        ladder_oracle(0.0, 2.0, 2.0, bad_n, 5)


def test_oracle_rejects_bad_depth():
    with pytest.raises(ValueError, match="depth"):
        ladder_oracle(0.0, 2.0, 2.0, 3, 0)


# --- manufactured sources --------------------------------------------------


def _sine_target():
    def V(x):
        return np.sin(TWO_PI * x[..., 0])[..., None]

    def lap(x):
        return -(TWO_PI**2) * np.sin(TWO_PI * x[..., 0])[..., None]

    return SeparableTarget(
        V=V,
        T=lambda t: math.exp(-t),
        dT=lambda t: -math.exp(-t),
        div_flux_V=lap,
        name="sine_mode_one",
    )


def test_manufactured_heat_source_closed_form():
    """With the divergence supplied analytically the source must reduce to
    (4 pi^2 - 1) e^{-t} sin(2 pi x1) up to float round-off."""
    grid = _cube(16)
    rhs, u0 = manufactured_problem(_sine_target(), FluxSpec(FluxKind.PURE_P_LAPLACE, p=2.0), grid)
    x = node_coords(grid)
    v = np.sin(TWO_PI * x[..., 0])[..., None]
    assert np.array_equal(u0.values, v)
    assert u0.time == 0.0
    for t in (0.0, 0.7):
        g = rhs.source(x, t)
        expected = (TWO_PI**2 - 1.0) * math.exp(-t) * v
        assert np.abs(g - expected).max() <= 1e-12 * (TWO_PI**2 - 1.0)


def test_manufactured_reference_divergence_frame_field():
    # |grad V| = 2 pi everywhere, so div(|grad V| grad V) = -(2 pi)^3 V for p = 3
    grid = _cube(16)
    V = lambda x: np.stack([np.sin(TWO_PI * x[..., 0]), np.cos(TWO_PI * x[..., 0])], axis=-1)
    target = SeparableTarget(V=V, T=lambda t: math.exp(-t), dT=lambda t: -math.exp(-t), name="frame")
    rhs, _ = manufactured_problem(target, FluxSpec(FluxKind.PURE_P_LAPLACE, p=3.0), grid)
    x = node_coords(grid)
    v = V(x)
    profile = -rhs.source(x, 0.0) - v  # T(0) = 1, dT(0) = -1
    assert np.abs(profile - (-(TWO_PI**3) * v)).max() <= 0.01 * TWO_PI**3


def test_manufactured_time_homogeneity():
    """Each power term must carry |T|^(e-2) T, not T itself."""
    grid = _cube(16)
    V = lambda x: np.stack([np.sin(TWO_PI * x[..., 0]), np.cos(TWO_PI * x[..., 0])], axis=-1)
    target = SeparableTarget(V=V, T=lambda t: math.exp(-t), dT=lambda t: -math.exp(-t), name="frame")
    rhs, _ = manufactured_problem(target, FluxSpec(FluxKind.PURE_P_LAPLACE, p=3.0), grid)
    x = node_coords(grid)
    v = V(x)
    W = -rhs.source(x, 0.0) - v
    t = 0.5
    expected = -math.exp(-t) * v - math.exp(-2.0 * t) * W
    assert np.abs(rhs.source(x, t) - expected).max() <= 1e-12 * np.abs(expected).max()


def test_manufactured_double_power_has_both_terms():
    grid = _cube(8)
    V = lambda x: np.stack([np.sin(TWO_PI * x[..., 0]), np.cos(TWO_PI * x[..., 0])], axis=-1)
    target = SeparableTarget(V=V, T=lambda t: math.exp(-t), dT=lambda t: -math.exp(-t), name="frame")
    flux = FluxSpec(FluxKind.DOUBLE_POWER, p=2.0, q=3.0)
    rhs, _ = manufactured_problem(target, flux, grid)
    x = node_coords(grid)
    v = V(x)
    # W_2 = -4 pi^2 V and W_3 = -(2 pi)^3 V, so g(0) = (-1 + 4 pi^2 + 8 pi^3) V
    expected = (-1.0 + TWO_PI**2 + TWO_PI**3) * v
    scale = abs(-1.0 + TWO_PI**2 + TWO_PI**3)
    assert np.abs(rhs.source(x, 0.0) - expected).max() <= 0.05 * scale


def test_manufactured_zero_target():
    grid = _cube(8)
    target = SeparableTarget(
        V=lambda x: np.zeros(x.shape[:-1] + (1,)),
        T=lambda t: math.exp(-t),
        dT=lambda t: -math.exp(-t),
        name="zero",
    )
    rhs, u0 = manufactured_problem(target, FluxSpec(FluxKind.PURE_P_LAPLACE, p=2.0), grid)
    assert not u0.values.any()
    assert not rhs.source(node_coords(grid), 1.3).any()


def test_manufactured_rejects_unresolved_target():
    grid = _cube(8)
    rough = SeparableTarget(
        V=lambda x: np.sin(3.0 * TWO_PI * x[..., 0])[..., None],
        T=lambda t: 1.0,
        dT=lambda t: 0.0,
        name="rough",
    )
    with pytest.raises(ValueError, match="not resolved"):
        manufactured_problem(rough, FluxSpec(FluxKind.PURE_P_LAPLACE, p=2.0), grid)


def test_manufactured_rejects_bad_shape():
    grid = _cube(8)
    flat = SeparableTarget(
        V=lambda x: np.sin(TWO_PI * x[..., 0]),  # missing the component axis
        T=lambda t: 1.0,
        dT=lambda t: 0.0,
    )
    with pytest.raises(ValueError, match="node_shape"):
        manufactured_problem(flat, FluxSpec(FluxKind.PURE_P_LAPLACE, p=2.0), grid)


# --- the bounded singular map ----------------------------------------------


def test_struwe_field_unit_length_off_center():
    grid = _cube(16, extent=2.0)
    f = struwe_field(grid)
    x = node_coords(grid)
    d = x - np.asarray(grid.center())
    r = np.sqrt(np.sum(d * d, axis=-1))
    norms = np.sqrt(np.sum(f.values**2, axis=-1))
    assert norms[r > 0.0] == pytest.approx(1.0, abs=1e-14)
    # the center lands on a node here and is zeroed, not NaN
    assert norms[r == 0.0] == pytest.approx(0.0)
    assert np.isfinite(f.values).all()


def test_struwe_field_matches_direction():
    grid = _cube(16, extent=2.0)
    f = struwe_field(grid)
    x = node_coords(grid)
    d = x - np.asarray(grid.center())
    r = np.sqrt(np.sum(d * d, axis=-1))
    m = r > 0.0
    assert np.abs(f.values[m] - (d / np.where(r, r, 1.0)[..., None])[m]).max() <= 1e-15


def test_struwe_field_needs_three_dimensions():
    g2 = Grid(n=2, cells=(8, 8), extent=(1.0, 1.0))
    with pytest.raises(ValueError, match="needs n = 3"):
        struwe_field(g2)


def test_struwe_gradient_law():
    """|grad u| of the sampled map tracks sqrt(2)/r on the annulus."""
    grid = _cube(24, extent=4.0, boundary=Boundary.DIRICHLET)
    mag = grad_magnitude(gradient(struwe_field(grid)))
    x = node_coords(grid)
    r = np.sqrt(np.sum((x - np.asarray(grid.center())) ** 2, axis=-1))
    m = (r >= 0.5) & (r <= 1.5)
    rel = np.abs(mag[m] - math.sqrt(2.0) / r[m]) * r[m] / math.sqrt(2.0)
    assert rel.max() <= 0.07
    assert rel.mean() <= 0.01


def test_struwe_residual_second_order():
    grid = _cube(24, extent=4.0, boundary=Boundary.DIRICHLET)
    rep = struwe_residual(grid, (0.5, 1.5))
    assert rep.field_name == "unit_radial_map"
    assert rep.grid_h == pytest.approx(4.0 / 24.0)
    assert rep.max_residual > 0.0
    assert 1.5 <= rep.order_estimate <= 2.5
    assert set(rep.to_dict()) == {"field_name", "max_residual", "grid_h", "order_estimate"}


def test_struwe_residual_annulus_guards():
    grid = _cube(24, extent=4.0, boundary=Boundary.DIRICHLET)
    with pytest.raises(ValueError, match="singular"):
        struwe_residual(grid, (0.1, 1.5))
    with pytest.raises(ValueError, match="boundary"):
        struwe_residual(grid, (0.5, 1.9))
    with pytest.raises(ValueError, match="r_min < r_max"):
        struwe_residual(grid, (0.7, 0.5))
    # shell chosen between the r = sqrt(11)/6 and r = sqrt(12)/6 node radii
    with pytest.raises(ValueError, match="no grid nodes"):
        struwe_residual(grid, (0.556, 0.574))
