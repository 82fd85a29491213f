"""Cylinder energies, the energy inequality, the Holder sandwich, the chain,
and the fitted-constant bound verifier.

The expensive fixtures (heat runs at 16^3 and 32^3) come from conftest and
are shared with the acceptance module.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import prescribed_record
from gradbound import (
    Boundary,
    CylinderSpec,
    Grid,
    ProblemParams,
    RunRecord,
    RunStatus,
    StatusKind,
    energy_inequality_check,
    holder_sandwich_check,
    load_run,
    moser_chain_check,
    psi,
    save_run,
    verify_bound,
)
from gradbound import mesh
from gradbound.energy import _record_windows
from gradbound.mesh import (
    _time_weights,
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
    ball = spatial_integral(grid, np.ones(grid.node_shape)[ball_mask(grid, CENTER, 0.3)])
    assert got == pytest.approx(ball * 0.09, rel=1e-12)  # exact vs the node ball
    assert got == pytest.approx(4.0 / 3.0 * math.pi * 0.3**3 * 0.09, rel=0.05)


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
    # a ball that holds no grid node is refused, not summed to 0.0
    gap = (0.515, 0.5, 0.5)  # 0.015 from the nearest node
    with pytest.raises(ValueError, match=r"R = 0.01 about \(0.515, 0.5, 0.5\) holds no grid node"):
        psi(heat_run_32, CylinderSpec(gap, 0.05, 0.01, 1.0), 2.0)
    with pytest.raises(ValueError, match="holds no grid node"):
        energy_inequality_check(heat_run_32, 0.0, 0.005, 0.01, heat_params, center=gap,
                                time_exponent=1.0)
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


# each case: check, stopped run, s, rho, R, message; w = 0 puts the s-range at s > 0
RHO_REFUSALS = {
    "rho>=R-energy": ("energy", False, 0.5, 0.3, 0.3, "need 0 < rho < R"),
    "rho>=R-sandwich": ("sandwich", False, 0.5, 0.3, 0.3, "need 0 < rho < R"),
    "R<=0-energy": ("energy", False, 0.5, 0.15, 0.0, "cylinder radius must be positive"),
    "R<=0-sandwich": ("sandwich", False, 0.5, 0.15, -0.3, "cylinder radius must be positive"),
    "rho>=R-stopped-energy": ("energy", True, 0.5, 0.3, 0.3, "completed"),
    "rho>=R-stopped-sandwich": ("sandwich", True, 0.5, 0.3, 0.3, "completed"),
    "rho>=R-bad-s": ("energy", False, 0.0, 0.3, 0.3,
                     r"s = 0.0 violates the energy-inequality range \(needs s > 0"),
}


@pytest.mark.parametrize("case", list(RHO_REFUSALS))
def test_record_check_refusal_order(case):
    """The window's rules (radius, completed run) come first, then the s-range, then rho < R."""
    check, stopped, s, rho, R, needle = RHO_REFUSALS[case]
    record = _linear_record(cells=16)
    if stopped:
        record = RunRecord(record.config, record.snapshots, record.dt_history,
                           RunStatus(StatusKind.BLOWUP, 0.2))
    params = ProblemParams(n=3, N=1, p=2.0, w=0.0, s0=0.5)
    with pytest.raises(ValueError, match=needle):
        if check == "energy":
            energy_inequality_check(record, s, rho, R, params)
        else:
            holder_sandwich_check(record, s, rho, R, params.p)


def test_record_checks_read_the_window_cylinder():
    """Q_rho's cutoff takes Q_R's centre, top and exponent, by default and given."""
    record = _linear_record(cells=16)  # snapshots end at t = 0.2
    params = ProblemParams(n=3, N=1, p=2.0, w=1.0, s0=0.0)
    for where, center, t0 in (({}, CENTER, 0.2),
                              ({"center": [0.48, 0.5, 0.5], "t0": 0.19}, (0.48, 0.5, 0.5), 0.19)):
        rep = energy_inequality_check(record, 0.0, 0.15, 0.3, params, time_exponent=2.5, **where)
        assert (rep.center, rep.t0, rep.R, rep.time_exponent, rep.rho) == (
            center, t0, 0.3, 2.5, 0.15)
        assert holder_sandwich_check(record, 0.0, 0.15, 0.3, 2.0, time_exponent=2.5, **where) \
            == holder_sandwich_check(record, 0.0, 0.15, 0.3, 2.0, center, t0, 2.5)


EDGE_SLACK = st.one_of(st.floats(0.0, 0.9e-12), st.floats(1.1e-12, 1e-9))


@settings(max_examples=60, deadline=None)
@given(start=st.floats(0.0, 1.0), span=st.floats(1e-3, 0.5), count=st.integers(3, 12),
       below=EDGE_SLACK, above=EDGE_SLACK)
def test_window_edges_within_1e12_of_snapshot_times(start, span, count, below, above):
    # a window reaching up to 1e-12 past the first or the last snapshot is
    # clipped to the snapshots; one reaching further is refused.  The first
    # and last snapshots sit below and above inside the cylinder's computed
    # edges: a bottom edge computed from the snapshots through R**e can round
    # to just above the first snapshot, and the window then misses it.
    R = 0.3
    cyl = CylinderSpec(CENTER, start + span, R, math.log(span) / math.log(R))
    a, b = cyl.time_window()
    times = np.linspace(a + below, b - above, count)
    rec = prescribed_record(Grid(3, 1.0, 4), lambda x, t: np.zeros(x.shape[:-1] + (1,)), times)
    if max(below, above) > 1e-12:
        with pytest.raises(ValueError, match="does not span"):
            _record_windows(rec, [R], CENTER, cyl.t0, cyl.time_exponent)
        return
    (win,) = _record_windows(rec, [R], CENTER, cyl.t0, cyl.time_exponent)
    assert np.array_equal(win.weights, _time_weights(times, times[0], times[-1]))
    assert np.array_equal(win.inside, np.arange(count))


def test_checks_on_a_shared_stack_match_fresh_records(heat_run_32, heat_params, tmp_path,
                                                     monkeypatch):
    # every check of one record reads the same |grad u| stack; each report
    # equals the one from a fresh load of the record, whose stack is empty
    save_run(heat_run_32, tmp_path / "run")
    shared = load_run(tmp_path / "run")
    fresh = lambda: load_run(tmp_path / "run")
    R0, s0, p = 0.3, heat_params.s0, heat_params.p
    calls = [
        lambda r: holder_sandwich_check(r, s0, R0 / 2.0, R0, p),
        lambda r: energy_inequality_check(r, 0.0, R0 / 2.0, R0, heat_params),
        lambda r: energy_inequality_check(r, 0.5, R0 / 2.0, R0, heat_params, time_exponent=2.5),
        lambda r: moser_chain_check(r, heat_params, R0, 3),
        lambda r: psi(r, CylinderSpec(CENTER, 0.08, 0.2), 3.0),
        lambda r: verify_bound([r], heat_params, R0),
    ]
    plain = lambda rep: rep.to_dict() if hasattr(rep, "to_dict") else rep
    wants = [plain(call(fresh())) for call in calls]
    assert [plain(call(shared)) for call in calls] == wants
    assert len(shared._magnitudes) == 2  # the boxes of R0 and psi's R

    def no_stencil(*args, **kwargs):
        raise AssertionError("a snapshot was differentiated again")

    # the sandwich and the bound fit read only the stack from here on: every
    # derivative, of a snapshot or of |grad u|, passes through _diff_along
    monkeypatch.setattr(mesh, "_diff_along", no_stencil)
    assert plain(calls[0](shared)) == wants[0]
    assert plain(calls[-1](shared)) == wants[-1]


def test_record_cache_holds_read_set_rows_only(heat_run_32, heat_params, tmp_path):
    # the stored-run re-check (sandwich, energy at three s, chain, then the
    # bound fit) at two radii whose balls share a box: each ball keeps its own
    # entry of one row per snapshot its windows read, read-set nodes x 8 B,
    # and every report equals the one from a fresh load
    save_run(heat_run_32, tmp_path / "run")
    shared = load_run(tmp_path / "run")
    s0, p, e = heat_params.s0, heat_params.p, 2.5

    def recheck(record, R0):
        reports = [holder_sandwich_check(record, s0, R0 / 2.0, R0, p, time_exponent=e)]
        reports += [energy_inequality_check(record, s, R0 / 2.0, R0, heat_params,
                                            time_exponent=e) for s in (0.0, 0.5, 1.0)]
        reports.append(moser_chain_check(record, heat_params, R0, 4, time_exponent=e))
        reports.append(verify_bound([record], heat_params, R0, time_exponent=e))
        return [report.to_dict() for report in reports]

    radii = (0.24, 0.245)
    for R0 in radii:
        assert recheck(shared, R0) == recheck(load_run(tmp_path / "run"), R0)
    windows = [_record_windows(shared, [R0], time_exponent=e)[0] for R0 in radii]
    assert windows[0].key[0] == windows[1].key[0]  # one box
    assert (windows[0].nb, windows[1].nb) == (1863, 2007)  # two balls
    assert set(shared._magnitudes) == {win.key for win in windows}
    for win in windows:
        rows = shared._magnitudes[win.key]
        held = [k for k, row in enumerate(rows) if row is not None]
        assert held == win.support.tolist()
        for k in held:
            row = rows[k]
            assert row.base is None and row.ndim == 1 and row.flags.c_contiguous
            assert row.nbytes == win.plan[0].size * 8 and not row.flags.writeable


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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), top=st.floats(0.05, 0.95), s=st.floats(0.0, 2.0),
       p=st.floats(1.5, 3.0), R=st.floats(0.2, 0.45), growth=st.floats(0.0, 2.0))
def test_sandwich_chain_holds_when_the_window_ends_between_snapshots(seed, top, s, p, R,
                                                                     growth):
    # the time rule interpolates both window ends, reading one snapshot beyond
    # each; its weights are nonnegative and each Holder step holds per
    # snapshot, so lhs <= mid <= rhs to round-off.  The field grows by
    # e^growth a snapshot, so the one beyond t0 can hold the sup of A.
    grid = Grid(3, 1.0, 8)
    times = np.linspace(0.0, 0.3, 31)
    field = np.random.default_rng(seed).standard_normal((len(times),) + grid.node_shape + (2,))
    field *= np.exp(growth * (np.arange(len(times)) - len(times)))[:, None, None, None, None]
    rec = prescribed_record(grid, lambda x, t: field[round(t * 100)], times, N=2)
    t0 = times[-2] + top * (times[1] - times[0])
    rep = holder_sandwich_check(rec, s, R / 2.0, R, p, t0=t0)
    assert rep.lhs <= rep.mid * (1.0 + 1e-12)
    assert rep.mid <= rep.rhs * (1.0 + 1e-12)
    assert rep.satisfied and rep.lhs > 0.0


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
        ball = spatial_integral(grid, np.ones(grid.node_shape)[ball_mask(grid, CENTER, r)])
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


# Each check differentiates only the ball's bounding box plus a 2-node halo
# and evaluates its powers and cutoffs on the ball's nodes alone.  Cases:
# (grid, ball center, R, verify_bound center, R0); the chain runs at R0 = R,
# so every grid resolves B_{R/2} with >= 8 nodes per axis.  The periodic ball
# touches x = 0, so its halo wraps, and it spans the whole short z axis, so
# the halo repeats ball nodes; the inner bound ball there also wraps.  The
# centred R = 0.5 ball on 16^3 needs every axis whole.  The interior ball's
# box is cut on every axis but wraps on none.
# The Dirichlet balls touch the planes x = 0 and y = 1, or come within one
# node of them, so both boxes are clipped there.  t0 lies between snapshots, so every window edge is
# interpolated from the snapshots on both sides of it.
BOX_CASES = {
    "periodic-wrap": (Grid(3, (1.0, 1.0, 0.6), (24, 24, 16)),
                      (0.3, 0.5, 0.3), 0.3, (0.08, 0.5, 0.3), 0.08),
    "periodic-whole": (Grid(3, (1.0, 1.0, 1.0), (16,) * 3),
                       CENTER, 0.5, CENTER, 0.5),
    "periodic-interior": (Grid(3, (1.0, 1.0, 1.0), (24,) * 3),
                          CENTER, 0.3, (0.45, 0.55, 0.5), 0.2),
    "dirichlet-planes": (Grid(3, (1.0, 1.0, 1.0), (24,) * 3, Boundary.DIRICHLET),
                         (0.3, 0.7, 0.5), 0.3, (0.08, 0.92, 0.5), 0.08),
}


@pytest.mark.parametrize("case", list(BOX_CASES))
def test_box_matches_full_grid(case):
    grid, center, R, bound_center, R0 = BOX_CASES[case]
    noise = lambda x, t: np.random.default_rng(round(t * 1e4)).standard_normal(
        x.shape[:-1] + (2,))
    times = np.linspace(0.0, 0.6, 61)
    rec = prescribed_record(grid, noise, times, N=2)
    params = ProblemParams(n=3, N=2, p=2.0, w=1.0, s0=0.0)
    s, rho, t0 = 0.5, R / 2.0, 0.555

    # full-grid reference: every snapshot differentiated on the whole grid
    mags = [grad_magnitude(gradient(snap)) for snap in rec.snapshots]
    mask = ball_mask(grid, center, R)
    a = t0 - R**2
    inside = np.nonzero((times >= a) & (times <= t0))[0]

    def integrate(series, a=a):
        return time_integral(times, np.asarray(series), a, t0)

    assert psi(rec, CylinderSpec(center, t0, R), 3.0) == integrate(
        [spatial_integral(grid, (m**3.0)[mask]) for m in mags])

    cut = CutoffFn(center, rho, R, t0)
    profile, dq, unit = cut._space_parts(node_coords(grid))
    half = (2.0 + s) / 2.0
    sup, grad, raw = [], [], []
    for snap, m in zip(rec.snapshots, mags):
        tp = cut.time_profile(snap.time)
        eta = profile * tp
        sup.append(spatial_integral(grid, (m ** (s + 2.0) * eta * eta)[mask]))
        vec = (half * m ** (half - 1.0) * eta)[..., None] * gradient_of(grid, m) \
            + (m**half)[..., None] * ((dq * tp)[..., None] * unit)
        grad.append(spatial_integral(grid, np.sum(vec * vec, axis=-1)[mask]))
        raw.append(spatial_integral(grid, (1.0 + m ** (s + 2.0))[mask]))
    rep = energy_inequality_check(rec, s, rho, R, params, center=center, t0=t0)
    assert rep.lhs_sup == max(sup[k] for k in inside)
    assert rep.lhs_grad == integrate(grad)
    assert rep.rhs_raw == integrate(raw)

    # the sandwich's three Holder sums with the Q_R window's weights, the
    # ones integrate applies, on the snapshots they read
    n = grid.n
    e_lhs = 2.0 + s + (s + 2.0) * 2.0 / n
    e_B = 2.0 * n / (n - 2.0)
    mask_rho = ball_mask(grid, center, rho)
    weights = _time_weights(times, a, t0)
    read = np.flatnonzero(weights)
    weights = weights[read]
    L = np.array([spatial_integral(grid, (mags[k] ** e_lhs)[mask_rho])
                  if times[k] >= t0 - rho**2 else 0.0 for k in read])
    A = np.array([sup[k] for k in read])
    eta = [profile * cut.time_profile(t) for t in times]
    B = np.array([spatial_integral(grid, ((mags[k] ** half * eta[k]) ** e_B)[mask])
                  for k in read])
    sandwich = holder_sandwich_check(rec, s, rho, R, 2.0, center=center, t0=t0)
    assert sandwich.lhs == float(np.sum(weights * L))
    assert sandwich.mid == float(np.sum(weights * (A ** (2.0 / n) * B ** ((n - 2.0) / n))))
    assert sandwich.rhs == float(A.max() ** (2.0 / n) * np.sum(weights * B ** ((n - 2.0) / n)))

    # the chain's psi_i on its shrinking cylinders
    chain = moser_chain_check(rec, params, R, 3, center=center, t0=t0)
    assert chain.psis == tuple(
        integrate([spatial_integral(grid, (m**e)[ball_mask(grid, center, r)]) for m in mags],
                  a=t0 - r**2)
        for r, e in zip(chain.radii, chain.exponents))

    # time exponent 1 keeps >= 3 snapshots in the small inner windows
    inner = ball_mask(grid, bound_center, R0 / 2.0)
    first = np.nonzero((times >= t0 - R0 / 2.0) & (times <= t0))[0]
    bound = verify_bound([rec], params, R0, center=bound_center, t0=t0, time_exponent=1.0)
    assert bound.per_run[0][0] == max(float(mags[k][inner].max()) for k in first)
