"""Acceptance gate: the ten headline claims, one test per criterion.

Each test prints one "[acceptance N] PASS/FAIL" line (visible under -s, and
in the captured output on failure).  Campaign sizes were tuned once and are
deliberately frozen: two six-run 32^3 campaigns plus seed-0 refinements at
48^3, all 18 runs solved in one pool on every core (cli._ordered_map),
about 60 s of set-up on two cores.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gradbound import (
    FluxKind,
    FluxSpec,
    Grid,
    Prescribed,
    ProblemParams,
    RandomSmooth,
    RhsKind,
    RhsSpec,
    SeparableTarget,
    SolveConfig,
    Theorem,
    build_ladder,
    check_thm3,
    classify_thm1,
    flux_jacobian_bounds,
    grad_magnitude,
    gradient,
    holder_sandwich_check,
    kappa,
    ladder_oracle,
    manufactured_problem,
    moser_chain_check,
    node_coords,
    run,
    struwe_field,
    struwe_residual,
    thm1_case2_sup,
    verify_bound,
)
from gradbound.cli import EXIT_NOT_COVERED, _ordered_map, main
from gradbound.mesh import Boundary

from conftest import heat_config

TWO_PI = 2.0 * math.pi
R0 = 0.24
T_END = 0.06


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- campaign fixtures -------------------------------------------------------


def _campaign_configs(p: float, w: float, cells: int, seeds, amplitudes) -> list:
    grid = Grid(n=3, cells=(cells,) * 3, extent=(1.0,) * 3)
    flux = FluxSpec(FluxKind.PURE_P_LAPLACE, p)
    rhs = RhsSpec(RhsKind.POWER_ALIGNED, w=w, c1=1.0)
    return [SolveConfig(grid=grid, flux=flux, rhs=rhs, initial=RandomSmooth(seed, amp, 2),
                        N=2, t_end=T_END, snapshot_count=80)
            for seed in seeds for amp in amplitudes]


def _solved(configs: list) -> list:
    """The runs of configs in their order, solved on every core."""
    records = _ordered_map(run, configs)
    for cfg, record in zip(configs, records):
        assert record.completed, (f"campaign run (p={cfg.flux.p}, cells={cfg.grid.cells[0]}, "
                                  f"seed={cfg.initial.seed}, amp={cfg.initial.amplitude}) "
                                  "did not complete")
    return records


def test_pooled_campaign_matches_serial():
    configs = _campaign_configs(2.5, 1.3, 8, (0, 1), (1.0, 4.0))
    pooled = _solved(configs)
    serial = [run(cfg) for cfg in configs]
    assert len(pooled) == len(serial) == 4
    for a, b in zip(pooled, serial):
        assert a.dt_history.shape == b.dt_history.shape
        assert (a.dt_history == b.dt_history).all()
        assert len(a.snapshots) == len(b.snapshots)
        for x, y in zip(a.snapshots, b.snapshots):
            assert x.time == y.time
            assert (x.values == y.values).all()


# name: (p, cells, seeds), each campaign over amplitudes 1, 2 and 4 at w = 1.3
CAMPAIGNS = {"set1_runs": (2.0, 32, (0, 1)), "set1_fine": (2.0, 48, (0,)),
             "set2_runs": (2.5, 32, (0, 1)), "set2_fine": (2.5, 48, (0,))}


@pytest.fixture(scope="module")
def campaigns():
    """Each campaign's runs in (seed, amplitude) order, all 18 solved in one pool.

    The longest runs go first, by (cells, p) descending: p = 2.5 takes more
    steps than p = 2.  So neither core idles while the other finishes a 48^3
    run, as it would in a pool per campaign of three 48^3 runs on two cores.
    """
    configs = {name: _campaign_configs(p, 1.3, cells, seeds, (1.0, 2.0, 4.0))
               for name, (p, cells, seeds) in CAMPAIGNS.items()}
    longest_first = sorted(CAMPAIGNS, key=lambda name: CAMPAIGNS[name][1::-1], reverse=True)
    jobs = [(name, k) for name in longest_first for k in range(len(configs[name]))]
    records = dict(zip(jobs, _solved([configs[name][k] for name, k in jobs])))
    return {name: [records[name, k] for k in range(len(cfgs))]
            for name, cfgs in configs.items()}


@pytest.fixture(scope="module")
def set1_params():
    # derived-mode seed for (p, w) = (2, 1.3): case 2, M = 2.6, s0 = p - M
    report = classify_thm1(2.0, 1.3, 2.0)
    assert report.theorem_applied is Theorem.THM1_CASE2
    params = ProblemParams(n=3, N=2, p=2.0, w=1.3, s0=report.s0_effective)
    assert check_thm3(params).covered
    return params


@pytest.fixture(scope="module")
def set2_params():
    params = ProblemParams(n=3, N=2, p=2.5, w=1.3, s0=0.0)
    assert check_thm3(params).covered
    return params


@pytest.fixture(scope="module")
def set1_runs(campaigns):
    return campaigns["set1_runs"]


@pytest.fixture(scope="module")
def set1_fine(campaigns):
    return campaigns["set1_fine"]


@pytest.fixture(scope="module")
def set2_runs(campaigns):
    return campaigns["set2_runs"]


@pytest.fixture(scope="module")
def set2_fine(campaigns):
    return campaigns["set2_fine"]


@pytest.fixture(scope="module")
def heat_run_48():
    return run(heat_config(48))


# --- 1: the w < p - 3/5 threshold -------------------------------------------


def test_criterion_01_threshold_reproduction():
    boundary = {1.6: 1.0, 2.0: 1.4, 2.5: 1.9, 3.0: 2.4}
    ok = True
    for p, expected in boundary.items():
        sup = thm1_case2_sup(p, p)
        ok &= sup == expected
        below = classify_thm1(p, expected - 1e-9, p)
        at = classify_thm1(p, expected, p)
        ok &= below.theorem_applied is Theorem.THM1_CASE2
        ok &= at.theorem_applied is Theorem.NOT_COVERED and "case2" in at.violated_conditions
    ok &= thm1_case2_sup(2.0, 2.0) == 7.0 / 5.0
    _verdict(1, ok, "case-2 boundary sits at w = p - 3/5 (7/5 at p = 2), exact")


# --- 2 and 3: ladder oracle equivalence and the bound-exponent limit ---------


def _admissible_tuples(count: int, seed: int, kappa_min: float):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.uniform(1.2, 3.5)
        M = max(2.0, p) + rng.uniform(0.0, 1.0)
        n = rng.choice([3, 4, 5])
        s0 = rng.uniform(-0.5, 3.0)
        if kappa(s0, p, M, n) > kappa_min:
            out.append((s0, p, M, n))
    return out


def test_criterion_02_ladder_oracle_equivalence():
    worst_dev = 0.0
    worst_tail = 0.0
    for s0, p, M, n in _admissible_tuples(200, seed=7, kappa_min=0.05):
        ladder = build_ladder(s0, p, M, n, 60)
        oracle = ladder_oracle(s0, p, M, n, 60)
        for a, b in zip(ladder.s, oracle):
            worst_dev = max(worst_dev, abs(a - b) / max(1.0, abs(b)))
        k = kappa(s0, p, M, n)
        beta = 1.0 + 2.0 / n
        worst_tail = max(worst_tail, abs(oracle[60] / beta**60 - k))
    ok = worst_dev <= 1e-12 and worst_tail <= 1e-6
    _verdict(2, ok, f"200 tuples, i = 60: max rel dev {worst_dev:.2e} "
                    f"(<= 1e-12), max |s_i/beta^i - kappa| {worst_tail:.2e} (<= 1e-6)")


def test_criterion_03_bound_exponent_limit():
    # kappa away from zero: the limit error scales like 1/(kappa^2 beta^i)
    worst = 0.0
    for s0, p, M, n in _admissible_tuples(200, seed=11, kappa_min=0.2):
        oracle = ladder_oracle(s0, p, M, n, 61)
        k = kappa(s0, p, M, n)
        beta = 1.0 + 2.0 / n
        worst = max(worst, abs(beta**61 / (oracle[61] + M) - 1.0 / k))
    ok = worst <= 1e-6
    _verdict(3, ok, f"beta^(i+1)/(s_(i+1)+M) at i = 60: max |dev from 1/kappa| "
                    f"{worst:.2e} (<= 1e-6)")


# --- 4: flux ellipticity ------------------------------------------------------


def _fd_jacobian(spec, Q, step):
    N, n = Q.shape
    from gradbound import flux_eval

    J = np.zeros((N * n, N * n))
    for col, (i, a) in enumerate((i, a) for i in range(N) for a in range(n)):
        E = np.zeros_like(Q)
        E[i, a] = step
        J[:, col] = ((flux_eval(spec, Q + E) - flux_eval(spec, Q - E)) / (2 * step)).ravel()
    return J


def test_criterion_04_flux_ellipticity():
    specs = [
        FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
        FluxSpec(FluxKind.PURE_P_LAPLACE, 3.0),
        FluxSpec(FluxKind.PURE_P_LAPLACE, 1.5),
        FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.8),
        FluxSpec(FluxKind.DOUBLE_POWER, 2.5, q=3.2),
        FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.5, eps=1e-2),
        FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 3.0, eps=0.1),
    ]
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        spec = specs[trial % len(specs)]
        Q = rng.standard_normal((2, 3))
        norm = math.sqrt(float(np.sum(Q * Q)))
        Q *= rng.uniform(0.3, 2.5) / norm
        norm = math.sqrt(float(np.sum(Q * Q)))
        J = _fd_jacobian(spec, Q, 1e-7 * max(1.0, norm))
        eig = np.linalg.eigvalsh(0.5 * (J + J.T))
        lo, hi = flux_jacobian_bounds(spec, Q)
        worst = max(worst,
                    abs(eig[0] - float(lo)) / max(abs(float(lo)), 1e-9),
                    abs(eig[-1] - float(hi)) / max(abs(float(hi)), 1e-9))
    fd_ok = worst <= 1e-6

    # pure flux: Rayleigh quotients of t^(p-2)(I + (p-2) qhat qhat^T) stay in
    # the window exactly; the direction cosine is clipped against round-off
    window_ok = True
    for p in (1.5, 2.0, 2.5, 3.0):
        spec = FluxSpec(FluxKind.PURE_P_LAPLACE, p)
        for _ in range(25):
            Q = rng.standard_normal((2, 3)) * rng.uniform(0.2, 2.0)
            t = math.sqrt(float(np.sum(Q * Q)))
            tp = t ** (p - 2.0)
            lo, hi = flux_jacobian_bounds(spec, Q)
            window_ok &= float(lo) == min(1.0, p - 1.0) * tp
            window_ok &= float(hi) == max(1.0, p - 1.0) * tp
            V = rng.standard_normal((2, 3))
            V /= math.sqrt(float(np.sum(V * V)))
            c2 = min(1.0, (float(np.sum(V * Q)) / t) ** 2)
            quot = (1.0 + (p - 2.0) * c2) * tp
            window_ok &= float(lo) <= quot <= float(hi)
    ok = fd_ok and window_ok
    _verdict(4, ok, f"FD Jacobian vs analytic eigen pair: max rel dev {worst:.2e} "
                    f"(<= 1e-6); pure Rayleigh window exact: {window_ok}")


# --- 5: the counterexample ------------------------------------------------------


def test_criterion_05_counterexample_residual():
    grid = Grid(n=3, cells=(48,) * 3, extent=(4.0,) * 3, boundary=Boundary.DIRICHLET)
    rep = struwe_residual(grid, (0.5, 1.5))
    order_ok = 1.5 <= rep.order_estimate <= 2.5

    fine = grid.refined(2)
    mag = grad_magnitude(gradient(struwe_field(fine)))
    x = node_coords(fine)
    r = np.sqrt(np.sum((x - np.asarray(fine.center())) ** 2, axis=-1))
    mask = (r >= 0.5) & (r <= 1.5)
    dev = float(np.abs(mag[mask] * r[mask] / math.sqrt(2.0) - 1.0).max())
    grad_ok = dev <= 0.01
    _verdict(5, order_ok and grad_ok,
             f"48^3 -> 96^3 residual order {rep.order_estimate:.3f} in [1.5, 2.5]; "
             f"|grad u| vs sqrt(2)/|x| max dev {dev:.4f} (<= 0.01)")


# --- 6: manufactured convergence -------------------------------------------------


def _mms_final_error(target, flux, cells, N, t_end, dt_fix):
    grid = Grid(n=3, cells=(cells,) * 3, extent=(1.0,) * 3)
    rhs, u0 = manufactured_problem(target, flux, grid)
    cfg = SolveConfig(grid=grid, flux=flux, rhs=rhs, initial=Prescribed(u0.values),
                      N=N, t_end=t_end, dt_max=dt_fix, snapshot_count=64)
    record = run(cfg)
    assert record.completed
    last = record.snapshots[-1]
    exact = target.T(last.time) * np.asarray(target.V(node_coords(grid)))
    return float(np.abs(last.values - exact).max())


def test_criterion_06_mms_convergence():
    sine = SeparableTarget(
        V=lambda x: np.sin(TWO_PI * x[..., 0])[..., None],
        T=lambda t: math.exp(-t),
        dT=lambda t: -math.exp(-t),
        div_flux_V=lambda x: -(TWO_PI**2) * np.sin(TWO_PI * x[..., 0])[..., None],
        name="sine_mode_one",
    )
    # dt pinned under the 64^3 stability limit so only h varies
    heat = FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0)
    e32 = _mms_final_error(sine, heat, 32, 1, 0.02, 1.6e-5)
    e64 = _mms_final_error(sine, heat, 64, 1, 0.02, 1.6e-5)
    ratio2 = e32 / e64

    frame = SeparableTarget(
        V=lambda x: np.stack([np.sin(TWO_PI * x[..., 0]),
                              np.cos(TWO_PI * x[..., 0])], axis=-1),
        T=lambda t: math.exp(-t),
        dT=lambda t: -math.exp(-t),
        name="frame_field",
    )
    reg3 = FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 3.0, eps=1e-6)
    e16 = _mms_final_error(frame, reg3, 16, 2, 0.004, 5e-6)
    e32r = _mms_final_error(frame, reg3, 32, 2, 0.004, 5e-6)
    ratio3 = e16 / e32r

    ok = 3.5 <= ratio2 <= 4.5 and 3.0 <= ratio3 <= 5.0
    _verdict(6, ok, f"p = 2 error ratio {ratio2:.3f} in [3.5, 4.5]; "
                    f"p = 3 regularized ratio {ratio3:.3f} in [3, 5]")


# --- 7: the Holder sandwich is an identity ----------------------------------------


def test_criterion_07_sandwich_roundoff(set1_runs, set1_fine, set2_runs, set2_fine,
                                        set1_params, set2_params):
    worst = 0.0
    count = 0
    for records, params in ((set1_runs, set1_params), (set1_fine, set1_params),
                            (set2_runs, set2_params), (set2_fine, set2_params)):
        for record in records:
            rep = holder_sandwich_check(record, params.s0, R0 / 2.0, R0, params.p)
            worst = max(worst, rep.rel_violation)
            count += 1
            assert rep.satisfied
    ok = worst <= 1e-10
    _verdict(7, ok, f"{count} campaign runs: max relative violation {worst:.2e} (<= 1e-10)")


# --- 8: bound uniformity across seeds and amplitudes --------------------------------


def _ratios(report):
    return [lhs / (rhs + 1.0) for lhs, rhs in report.per_run]


def test_criterion_08_bound_uniformity(set1_runs, set1_fine, set2_runs, set2_fine,
                                       set1_params, set2_params):
    details = []
    ok = True
    for label, records, fine, params in (
        ("p=2.0", set1_runs, set1_fine, set1_params),
        ("p=2.5", set2_runs, set2_fine, set2_params),
    ):
        report = verify_bound(records, params, R0)
        ratios = _ratios(report)
        spread = max(ratios) / min(ratios)
        ok &= spread <= 10.0
        # like-for-like refinement: the seed-0 amplitude sweep at both resolutions
        coarse_subset = verify_bound(records[:3], params, R0)
        fine_report = verify_bound(fine, params, R0)
        change = fine_report.fitted_C / coarse_subset.fitted_C
        ok &= 0.5 <= change <= 2.0
        details.append(f"{label}: spread {spread:.3f} (<= 10), "
                       f"fitted_C 32->48 change {change:.3f} (in [0.5, 2])")
    _verdict(8, ok, "; ".join(details))


# --- 9: Moser chain stability ---------------------------------------------------


def test_criterion_09_moser_chain(heat_run_32, heat_run_48, heat_params):
    coarse = moser_chain_check(heat_run_32, heat_params, 0.3, 4)
    fine = moser_chain_check(heat_run_48, heat_params, 0.3, 4)
    ok = coarse.satisfied and fine.satisfied
    ok &= math.isfinite(coarse.C) and coarse.C >= 1.0
    change = fine.C / coarse.C
    ok &= 0.5 <= change <= 2.0
    _verdict(9, ok, f"levels = 4 heat chain: C = {coarse.C:.3f} at 32^3, "
                    f"refinement change {change:.3f} (in [0.5, 2])")


# --- 10: refusal correctness ------------------------------------------------------


def test_criterion_10_refusals(tmp_path, capsys):
    cases = {
        "growth_at_p": {"p": 2.0, "w": 2.0},
        "two_dimensional": {"p": 2.0, "w": 1.0, "n": 2, "s0": 0.0},
        "seed_at_window_edge": {"p": 2.0, "w": 1.3, "s0": -1.0},
        "seed_at_explicit_window_edge": {"p": 2.0, "w": 1.3, "s0": -0.5,
                                         "lam": 1.0, "Lam": 2.0},
        "nonpositive_kappa": {"p": 2.0, "q": 2.9, "w": 1.0, "s0": 0.0},
    }
    ok = True
    for name, problem in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"problem": problem}))
        code = main(["verify", "--config", str(path)])
        report = json.loads(capsys.readouterr().out)
        ok &= code == EXIT_NOT_COVERED
        ok &= report["passed"] is False and "runs" not in report
    _verdict(10, ok, f"{len(cases)} inadmissible configs all exit 2 with no runs")
