"""Cylinder energies, the energy inequality, the Holder sandwich, the chain,
and the fitted-constant bound verifier.

The expensive fixtures (heat runs at 16^3 and 32^3) come from conftest and
are shared with the acceptance module.
"""

import math

import numpy as np
import pytest

from conftest import prescribed_record
from gradbound import (
    Boundary,
    CylinderSpec,
    Grid,
    ProblemParams,
    RunRecord,
    RunStatus,
    StatusKind,
    ball_volume,
    energy_inequality_check,
    holder_sandwich_check,
    moser_chain_check,
    psi,
    verify_bound,
)
from gradbound.mesh import (
    CutoffFn,
    ball_mask,
    grad_magnitude,
    gradient,
    gradient_of,
    node_coords,
    spatial_integral,
    time_integral,
)

CENTER = (0.5, 0.5, 0.5)


def _linear_record(cells=24, t_end=0.2, slope=1.0, N=1):
    # u = slope * x1 on a Dirichlet grid: |grad u| = slope exactly at every node
    grid = Grid(3, (1.0, 1.0, 1.0), (cells,) * 3, Boundary.DIRICHLET)
    sample = lambda x, t: np.repeat((slope * x[..., 0])[..., None], N, axis=-1)
    return prescribed_record(grid, sample, np.linspace(0.0, t_end, 41), N=N)


def _constant_record(cells=16, t_end=0.2):
    grid = Grid(3, (1.0, 1.0, 1.0), (cells,) * 3)
    sample = lambda x, t: np.full(x.shape[:-1] + (1,), 3.7)
    return prescribed_record(grid, sample, np.linspace(0.0, t_end, 41))


def test_psi_zero_gradient():
    rec = _constant_record()
    cyl = CylinderSpec(CENTER, t0=0.2, R=0.3)
    assert psi(rec, cyl, 2.0) == 0.0


def test_psi_unit_gradient_measures_cylinder():
    rec = _linear_record()
    cyl = CylinderSpec(CENTER, t0=0.2, R=0.3)
    got = psi(rec, cyl, 2.0)
    grid = rec.config.grid
    ball = spatial_integral(grid, np.ones(grid.node_shape),
                            ball_mask(grid, CENTER, 0.3))
    assert got == pytest.approx(ball * 0.09, rel=1e-12)  # exact vs the node ball
    assert got == pytest.approx(ball_volume(3, 0.3) * 0.09, rel=0.05)


def test_psi_radial_profile_oracle():
    # u = |x - c|^2 / 2 has exact discrete gradient x - c: int |x|^e over the ball
    grid = Grid(3, (1.0, 1.0, 1.0), (32,) * 3, Boundary.DIRICHLET)
    c = np.array(CENTER)
    sample = lambda x, t: (np.sum((x - c) ** 2, axis=-1) / 2.0)[..., None]
    rec = prescribed_record(grid, sample, np.linspace(0.0, 0.2, 41))
    e = 3.0
    got = psi(rec, CylinderSpec(CENTER, 0.2, 0.3), e)
    exact = 4.0 * math.pi * 0.3 ** (e + 3.0) / (e + 3.0) * 0.09
    assert got == pytest.approx(exact, rel=0.05)


def test_psi_domain_monotone(heat_run_32):
    cyl_small = CylinderSpec(CENTER, t0=0.1, R=0.2)
    cyl_big = CylinderSpec(CENTER, t0=0.1, R=0.3)
    assert psi(heat_run_32, cyl_small, 2.0) <= psi(heat_run_32, cyl_big, 2.0)


def test_psi_preconditions(heat_run_32, heat_params):
    with pytest.raises(ValueError, match="exits"):
        psi(heat_run_32, CylinderSpec((0.9, 0.5, 0.5), 0.1, 0.3), 2.0)
    with pytest.raises(ValueError, match="span"):
        psi(heat_run_32, CylinderSpec(CENTER, 0.5, 0.3), 2.0)
    # a 2-D center on a 3-D grid is refused, not broadcast against the nodes
    with pytest.raises(ValueError, match="2 coordinates, the grid has n = 3"):
        psi(heat_run_32, CylinderSpec((0.5, 0.5), 0.1, 0.3), 2.0)
    # every check shares psi's window: same refusal past the last snapshot
    with pytest.raises(ValueError, match="does not span the cylinder time window"):
        energy_inequality_check(heat_run_32, 0.0, 0.15, 0.3, heat_params, t0=0.5)
    linear = _linear_record()  # snapshots end at t = 0.2
    with pytest.raises(ValueError, match="span"):
        holder_sandwich_check(linear, 0.0, 0.15, 0.3, 2.0, t0=0.25)
    # a run that stopped early is refused, not integrated up to where it stopped
    blowup = RunRecord(linear.config, linear.snapshots, linear.dt_history,
                       RunStatus(StatusKind.BLOWUP, 0.2))
    with pytest.raises(ValueError, match="completed"):
        psi(blowup, CylinderSpec(CENTER, 0.2, 0.3), 2.0)
    with pytest.raises(ValueError, match="completed"):
        holder_sandwich_check(blowup, 0.0, 0.15, 0.3, 2.0)


def test_energy_inequality_constant_run():
    rec = _constant_record()
    params = ProblemParams(n=3, N=1, p=2.0, w=1.0, s0=0.0)
    rep = energy_inequality_check(rec, 0.0, 0.1, 0.2, params, c=0.0)
    assert rep.lhs_sup == 0.0 and rep.lhs_grad == 0.0
    assert rep.satisfied  # any c works on a gradient-free run
    # rhs_raw keeps its +1 volume term even with zero gradient
    assert rep.rhs_raw > 0.0


def test_energy_inequality_heat(heat_run_32, heat_params):
    rep = energy_inequality_check(heat_run_32, 0.0, 0.15, 0.3, heat_params)
    assert rep.satisfied
    assert rep.lhs_sup > 0.0 and rep.lhs_grad > 0.0 and rep.rhs_scaled > 0.0
    assert rep.c == pytest.approx((rep.lhs_sup + rep.lhs_grad)
                                  / ((1.0 + 0.0) / 0.15**2 * rep.rhs_raw), rel=1e-12)


def test_energy_ratio_stable_under_refinement(heat_run_16, heat_run_32, heat_params):
    c16 = energy_inequality_check(heat_run_16, 0.0, 0.15, 0.3, heat_params).c
    c32 = energy_inequality_check(heat_run_32, 0.0, 0.15, 0.3, heat_params).c
    assert max(c16, c32) / min(c16, c32) <= 1.2


def test_energy_gap_scaling(heat_run_16, heat_params):
    # with c pinned, rhs_scaled carries the (R - rho)^-M factor exactly
    r1 = energy_inequality_check(heat_run_16, 0.0, 0.10, 0.3, heat_params, c=1.0)
    r2 = energy_inequality_check(heat_run_16, 0.0, 0.25, 0.3, heat_params, c=1.0)
    M = 2.0
    assert r2.rhs_scaled / r1.rhs_scaled == pytest.approx(
        (0.2 / 0.05) ** M, rel=1e-12
    )


def test_energy_s_guard(heat_run_16):
    # declared w = 0: floor p - 2w - 2 = 0, s = 0 is rejected, s = 0.5 passes
    params = ProblemParams(n=3, N=1, p=2.0, w=0.0, s0=0.5)
    with pytest.raises(ValueError, match="s ="):
        energy_inequality_check(heat_run_16, 0.0, 0.15, 0.3, params)
    rep = energy_inequality_check(heat_run_16, 0.5, 0.15, 0.3, params)
    assert rep.satisfied
    # c2 != 0 adds the s > p - 2 branch
    params_c2 = ProblemParams(n=3, N=1, p=2.5, w=1.0, s0=1.0, c2_zero=False)
    with pytest.raises(ValueError, match="s ="):
        energy_inequality_check(heat_run_16, 0.3, 0.15, 0.3, params_c2)


def test_energy_component_permutation_invariance():
    grid = Grid(3, (1.0, 1.0, 1.0), (16,) * 3)
    sample = lambda x, t: np.stack(
        [np.sin(2 * math.pi * x[..., 0]) * math.exp(-t),
         np.cos(2 * math.pi * x[..., 1]) * math.exp(-2 * t)], axis=-1)
    swapped = lambda x, t: sample(x, t)[..., ::-1]
    times = np.linspace(0.0, 0.2, 41)
    rec_a = prescribed_record(grid, sample, times, N=2)
    rec_b = prescribed_record(grid, swapped, times, N=2)
    params = ProblemParams(n=3, N=2, p=2.0, w=1.0, s0=0.0)
    rep_a = energy_inequality_check(rec_a, 0.0, 0.15, 0.3, params)
    rep_b = energy_inequality_check(rec_b, 0.0, 0.15, 0.3, params)
    assert rep_a.lhs_sup == rep_b.lhs_sup
    assert rep_a.lhs_grad == rep_b.lhs_grad
    assert rep_a.rhs_raw == rep_b.rhs_raw
    assert psi(rec_a, CylinderSpec(CENTER, 0.2, 0.3), 2.0) == \
        psi(rec_b, CylinderSpec(CENTER, 0.2, 0.3), 2.0)


def test_sandwich_holds_to_roundoff(heat_run_32):
    for s in (0.0, 0.5):
        rep = holder_sandwich_check(heat_run_32, s, 0.15, 0.3, 2.0)
        assert rep.satisfied
        assert rep.rel_violation <= 1e-10
        assert rep.lhs <= rep.mid * (1.0 + 1e-10) <= rep.rhs * (1.0 + 1e-10) ** 2


def test_sandwich_nontrivial_numbers(heat_run_16):
    rep = holder_sandwich_check(heat_run_16, 0.0, 0.15, 0.3, 2.0)
    assert rep.lhs > 0.0 and rep.mid > 0.0 and rep.rhs > 0.0


def test_moser_chain_heat(heat_run_32, heat_params):
    rep = moser_chain_check(heat_run_32, heat_params, 0.3, 4)
    assert rep.satisfied
    assert math.isfinite(rep.C) and rep.C >= 1.0
    assert len(rep.radii) == 5 and len(rep.psis) == 5
    assert rep.radii[0] == pytest.approx(0.3)      # (R0/2)(1 + 2^0)
    assert rep.radii[-1] == pytest.approx(0.159375)  # (R0/2)(1 + 2^-4)
    assert rep.beta == pytest.approx(5.0 / 3.0)
    # ladder exponents s_i + M from the admissible regime arithmetic
    assert rep.exponents[0] == pytest.approx(2.0)
    assert rep.exponents[1] == pytest.approx(2.0 + 4.0 / 3.0)
    # psi decreases along shrinking cylinders on a decaying run
    assert all(a >= b for a, b in zip(rep.psis, rep.psis[1:]))


def test_moser_chain_constant_gradient():
    rec = _linear_record(cells=32, slope=1.0)
    params = ProblemParams(n=3, N=1, p=2.0, w=1.0, s0=0.0)
    rep = moser_chain_check(rec, params, 0.3, 3, t0=0.2)
    # |grad u| = 1: psi_i is the measure of Q_{R_i}, decreasing in i
    grid = rec.config.grid
    for r, got in zip(rep.radii, rep.psis):
        ball = spatial_integral(grid, np.ones(grid.node_shape),
                                ball_mask(grid, CENTER, r))
        assert got == pytest.approx(ball * r**2, rel=1e-12)
    assert rep.satisfied


def test_moser_chain_resolution_guard(heat_run_16, heat_params):
    with pytest.raises(ValueError, match="8 nodes"):
        moser_chain_check(heat_run_16, heat_params, 0.3, 4)


def test_moser_chain_level_guard(heat_run_32, heat_params):
    with pytest.raises(ValueError, match="levels"):
        moser_chain_check(heat_run_32, heat_params, 0.3, 1)


def test_moser_chain_inadmissible(heat_run_32):
    bad = ProblemParams(n=3, N=1, p=2.0, w=2.0, s0=0.0)  # w = p: floor 0 >= s0
    with pytest.raises(ValueError, match="not covered"):
        moser_chain_check(heat_run_32, bad, 0.3, 4)


def test_verify_bound_heat(heat_run_32, heat_params):
    rep = verify_bound([heat_run_32], heat_params, 0.3)
    assert rep.kappa == pytest.approx(2.0)
    assert rep.lhs > 0.0 and rep.rhs_base > 0.0
    assert rep.fitted_C == pytest.approx(rep.lhs / (rep.rhs_base + 1.0), rel=1e-12)
    assert rep.per_run == ((rep.lhs, rep.rhs_base),)


def test_verify_bound_zero_run(heat_params):
    rec = _constant_record()
    rep = verify_bound([rec], heat_params, 0.3)
    assert rep.lhs == 0.0
    assert rep.fitted_C == 0.0


def test_verify_bound_guards(heat_run_16, heat_params):
    with pytest.raises(ValueError, match="empty"):
        verify_bound([], heat_params, 0.3)
    with pytest.raises(ValueError, match="R0"):
        verify_bound([heat_run_16], heat_params, 1.5)
    bad = ProblemParams(n=2, N=1, p=2.0, w=1.0, s0=0.0)
    with pytest.raises(ValueError, match="not covered"):
        verify_bound([heat_run_16], bad, 0.3)


def test_verify_bound_exponent_single_source(heat_run_16):
    # kappa = s0 + 2 + n(p - M)/2 with the general-window M when q > p
    params = ProblemParams(n=3, N=1, p=2.0, q=2.2, w=1.0, s0=0.5)
    rep = verify_bound([heat_run_16], params, 0.3)
    M = max(2.0, 2.0 * 2.2 - 2.0)  # 2q - p
    assert rep.kappa == pytest.approx(0.5 + 2.0 + 3.0 * (2.0 - M) / 2.0)


# Each check differentiates only the ball's bounding box plus a 2-node halo.
# Cases: (grid, ball center, R, verify_bound center, R0).  The periodic ball
# touches x = 0, so its halo wraps, and it spans the whole short z axis, so
# the halo repeats ball nodes; the inner bound ball there also wraps.  The
# centred R = 0.5 ball on 12^3 needs every axis whole.  The Dirichlet balls
# touch the planes x = 0 and y = 1, or come within one node of them.
BOX_CASES = {
    "periodic-wrap": (Grid(3, (1.0, 1.0, 0.6), (16, 16, 8)),
                      (0.3, 0.5, 0.3), 0.3, (0.12, 0.5, 0.3), 0.12),
    "periodic-whole": (Grid(3, (1.0, 1.0, 1.0), (12,) * 3),
                       CENTER, 0.5, CENTER, 0.5),
    "dirichlet-planes": (Grid(3, (1.0, 1.0, 1.0), (16,) * 3, Boundary.DIRICHLET),
                         (0.3, 0.7, 0.5), 0.3, (0.1, 0.9, 0.5), 0.1),
}


@pytest.mark.parametrize("case", list(BOX_CASES))
def test_box_matches_full_grid(case):
    grid, center, R, bound_center, R0 = BOX_CASES[case]
    noise = lambda x, t: np.random.default_rng(round(t * 1e4)).standard_normal(
        x.shape[:-1] + (2,))
    times = np.linspace(0.0, 0.6, 61)
    rec = prescribed_record(grid, noise, times, N=2)
    params = ProblemParams(n=3, N=2, p=2.0, w=1.0, s0=0.0)
    s, rho, t0 = 0.5, R / 2.0, 0.6

    # full-grid reference: every snapshot differentiated on the whole grid
    mags = [grad_magnitude(gradient(snap)) for snap in rec.snapshots]
    mask = ball_mask(grid, center, R)
    a = t0 - R**2
    inside = np.nonzero(times >= a)[0]

    def integrate(series):
        return time_integral(times, np.asarray(series), a, t0)

    assert psi(rec, CylinderSpec(center, t0, R), 3.0) == integrate(
        [spatial_integral(grid, m**3.0, mask) for m in mags])

    cut = CutoffFn(center, rho, R, t0)
    x = node_coords(grid)
    half = (2.0 + s) / 2.0
    sup, grad, raw = [], [], []
    for snap, m in zip(rec.snapshots, mags):
        eta = cut.values(x, snap.time)
        sup.append(spatial_integral(grid, m ** (s + 2.0) * eta * eta, mask))
        vec = (half * m ** (half - 1.0) * eta)[..., None] * gradient_of(grid, m) \
            + (m**half)[..., None] * cut.space_grad(x, snap.time)
        grad.append(spatial_integral(grid, np.sum(vec * vec, axis=-1), mask))
        raw.append(spatial_integral(grid, 1.0 + m ** (s + 2.0), mask))
    rep = energy_inequality_check(rec, s, rho, R, params, center=center)
    assert rep.lhs_sup == max(sup[k] for k in inside)
    assert rep.lhs_grad == integrate(grad)
    assert rep.rhs_raw == integrate(raw)

    # time exponent 1 keeps >= 3 snapshots in the small inner windows
    inner = ball_mask(grid, bound_center, R0 / 2.0)
    first = np.nonzero(times >= t0 - R0 / 2.0)[0]
    bound = verify_bound([rec], params, R0, center=bound_center, time_exponent=1.0)
    assert bound.per_run[0][0] == max(float(mags[k][inner].max()) for k in first)
