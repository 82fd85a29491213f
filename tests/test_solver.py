"""Explicit marching: stability limit, statuses, determinism, persistence."""

import json
import math
import pickle
from dataclasses import fields

import numpy as np
import pytest

from gradbound import (
    Boundary,
    CylinderSpec,
    Field,
    FluxKind,
    FluxSpec,
    Grid,
    Prescribed,
    RandomSmooth,
    RhsKind,
    RhsSpec,
    RunRecord,
    SolveConfig,
    StatusKind,
    initial_field,
    load_run,
    node_coords,
    psi,
    run,
    save_run,
)
from gradbound import solver
from gradbound.solver import _flux, _next_dt, _rate, _Stage

UNIT = lambda cells, boundary=Boundary.PERIODIC: Grid(
    3, (1.0, 1.0, 1.0), (cells,) * 3, boundary
)


def _config(grid, flux, rhs=None, initial=None, N=1, t_end=0.01, **kw):
    return SolveConfig(
        grid=grid,
        flux=flux,
        rhs=rhs or RhsSpec(RhsKind.ZERO),
        initial=initial or RandomSmooth(seed=0, amplitude=1.0, modes=2),
        N=N,
        t_end=t_end,
        **kw,
    )


def _assert_stable_dt(cfg, d_max, dt_stab):
    """The step rule's stable step at d_max is dt_stab within rel 1e-12, and
    the run splits its first snapshot interval into equal steps no longer."""
    for rest, steps in ((dt_stab * (1.0 - 1e-12), 1), (dt_stab * (1.0 + 1e-12), 2)):
        assert _next_dt(cfg.grid, cfg.cfl, cfg.dt_max, d_max, rest) == rest / steps
    rec = run(cfg)
    interval = np.linspace(0.0, cfg.t_end, cfg.snapshot_count)[1]
    assert rec.dt_history[0] == interval / math.ceil(interval / dt_stab)
    assert np.array_equal(rec.times(), np.linspace(0.0, cfg.t_end, cfg.snapshot_count))
    return rec


def test_stable_dt_heat():
    # p = 2, D = 1, h = 0.05, periodic (c_b = 1): dt_stab = 0.4 * 0.0025 / 3,
    # and each snapshot interval t_end / 63 holds 2.4 of it: 3 steps
    grid = UNIT(20)
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), t_end=0.05)
    rec = _assert_stable_dt(cfg, 1.0, 0.4 * 0.05**2 / 3.0)
    assert rec.dt_history[0] == pytest.approx(2.646e-4, rel=1e-3)


def test_stable_dt_zero_field_regularized():
    grid = UNIT(8)
    cfg = _config(grid, FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 3.0, eps=0.1),
                  initial=Prescribed(np.zeros(grid.node_shape + (1,))),
                  dt_max=1.0, t_end=5.0)
    # jacobian at Q = 0 is eps^(p-2) I
    rec = _assert_stable_dt(cfg, 0.1, 0.4 * 0.125**2 / (3.0 * 0.1))
    assert math.isfinite(rec.dt_history[0]) and rec.dt_history[0] > 0.0


def test_stable_dt_steep_gradient_scaling():
    # doubling a linear profile scales dt_stab by 2^(2-p) for p > 2; on the
    # Dirichlet grid (c_b = 3/2) D_max = (p - 1) slope^(p - 2)
    grid = Grid(3, (1.0, 1.0, 1.0), (8, 8, 8), Boundary.DIRICHLET)
    x = node_coords(grid)
    p = 3.5
    dts = []
    for slope in (1.0, 2.0):
        vals = (slope * x[..., 0])[..., None]
        cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, p),
                      initial=Prescribed(vals), t_end=0.05)
        d_max = (p - 1.0) * slope ** (p - 2.0)
        dts.append(0.4 * 0.125**2 / (1.5 * 3.0 * d_max))
        _assert_stable_dt(cfg, d_max, dts[-1])
    assert dts[1] / dts[0] == pytest.approx(2.0 ** (2.0 - p), rel=1e-12)


def test_non_finite_d_max_ends_the_run_diverged(monkeypatch):
    grid = UNIT(8)
    for d_max in (math.nan, math.inf):
        assert _next_dt(grid, 0.4, 1e-2, d_max, 1e-3) is None
    assert _next_dt(grid, 0.4, 1e-2, 0.0, 0.025) == 0.025 / 3  # D_max = 0: dt_max
    # a NaN D_max mid-run stops it diverged rather than in ceil's ValueError
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5))
    monkeypatch.setattr(solver, "_d_max", lambda *args: (math.nan, None))
    rec = run(cfg)
    assert rec.status.kind is StatusKind.DIVERGED and rec.status.time == 0.0
    assert rec.dt_history.size == 0


def _spectral_radius(grid, iterations=400):
    """|lambda|max of the march's heat operator u -> div grad u (boundary planes
    frozen), by power iteration from a random field."""
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0))
    x, stage = node_coords(grid), _Stage(grid, 1, cfg.flux)
    v = np.random.default_rng(0).standard_normal(grid.node_shape + (1,))
    for _ in range(iterations):
        v /= np.linalg.norm(v)
        state = Field(grid, v)
        _flux(state, cfg, stage)
        v = _rate(state, cfg, x, stage).copy()
        if grid.boundary is Boundary.DIRICHLET:  # the march freezes the planes
            for a in range(grid.n):
                np.moveaxis(v, a, 0)[[0, -1]] = 0.0
    return float(np.linalg.norm(v))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cells, boundary, per_axis", [
    (16, Boundary.PERIODIC, 1.0),          # max sin^2(k h) = 1
    (32, Boundary.DIRICHLET, 4.0 / 3.0),   # the closures' boundary mode, large grids
    (4, Boundary.DIRICHLET, 1.5),          # its largest value, at the fewest cells
])
def test_step_rule_bounds_the_heat_operator(n, cells, boundary, per_axis):
    # |lambda|max h^2 is n per_axis; the rule's c_b bounds it on every grid, so
    # at the largest cfl a step keeps dt D_max |lambda|max <= cfl = 1, inside
    # AB2's real-axis stability interval
    grid = Grid(n, 1.0, cells, boundary)
    rho = _spectral_radius(grid)
    assert rho * grid.h[0] ** 2 == pytest.approx(n * per_axis, rel=1e-6)
    dt = _next_dt(grid, 1.0, 1.0, 1.0, 1.0)
    assert dt * rho <= 1.0 + 1e-9


def test_largest_cfl_dirichlet_heat_run_decays():
    # cfl = 1 on 4 cells, where the Dirichlet boundary mode is largest: a noisy
    # field decays over ~400 steps (c_b = 4/3 would put dt rho past 1 there
    # and grow it by ~10% a step)
    grid = Grid(3, 1.0, 4, Boundary.DIRICHLET)
    vals = np.zeros(grid.node_shape + (1,))
    vals[1:-1, 1:-1, 1:-1] = np.random.default_rng(2).standard_normal((3, 3, 3, 1))
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                  initial=Prescribed(vals), t_end=5.0, cfl=1.0, dt_max=1.0)
    rec = run(cfg)
    assert rec.completed and rec.dt_history.size > 300
    sup = [float(np.abs(s.values).max()) for s in rec.snapshots]
    assert sup[-1] < 1e-6 * sup[0]


def test_ab2_bounded_at_step_ratio_two(monkeypatch):
    # a p = 3 field at cfl = 1: D_max falls as the field flattens, so an
    # interval's even split drops from 2 steps to 1 and the step ratio w
    # reaches 2, where AB2's real-axis limit is dt rho <= 2 / (1 + w) = 2/3.
    # The run passes that limit at dt rho ~ 0.99 on a few isolated steps and
    # max |u| still falls at every snapshot.
    logged = []

    def spy(grid, cfl, dt_max, d_max, rest):
        dt = _next_dt(grid, cfl, dt_max, d_max, rest)
        logged.append((d_max, dt))
        return dt

    monkeypatch.setattr(solver, "_next_dt", spy)
    grid = UNIT(8)
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 3.0),
                  initial=RandomSmooth(seed=0, amplitude=8.0, modes=2),
                  t_end=0.05, cfl=1.0, dt_max=1.0)
    rec = run(cfg)
    assert rec.completed
    d_max, dt = np.array(logged).T
    w = dt[1:] / dt[:-1]
    dt_rho = (dt * solver._STENCIL_RADIUS[grid.boundary] * grid.n * d_max / grid.h[0] ** 2)[1:]
    assert w.max() == pytest.approx(2.0, rel=1e-9)
    assert dt_rho.max() <= 1.0 + 1e-12
    assert (dt_rho > 2.0 / (1.0 + w)).sum() >= 3
    sup = np.array([float(np.abs(s.values).max()) for s in rec.snapshots])
    assert (np.diff(sup) < 0.0).all() and sup[-1] < 0.1 * sup[0]


def test_ab2_is_second_order_in_time():
    # the wide-stencil eigenfunction sin(2 pi x1) decays like exp(-lambda_h t)
    # exactly in space, so its error is the time error: with dt_max pinning
    # equal steps, halving dt quarters it (forward Euler would halve it)
    grid = Grid(2, 1.0, 8)
    x = node_coords(grid)
    vals = np.sin(2.0 * math.pi * x[..., 0])[..., None]
    t_end = 0.063
    lam_h = (math.sin(2.0 * math.pi * grid.h[0]) / grid.h[0]) ** 2
    interval = t_end / 63
    errors = []
    for steps in (10, 20):
        cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), initial=Prescribed(vals),
                      t_end=t_end, dt_max=interval / (steps - 0.5))
        rec = run(cfg)
        assert rec.dt_history.size == 63 * steps
        assert np.array_equal(rec.times(), np.linspace(0.0, t_end, 64))
        errors.append(abs(rec.snapshots[-1].values.max() - math.exp(-lam_h * t_end)))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_step_constant_steady_state():
    grid = UNIT(8)
    vals = np.full(grid.node_shape + (2,), 1.3)
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
                  initial=Prescribed(vals), N=2)
    rec = run(cfg)
    assert rec.completed
    assert all(np.array_equal(snap.values, vals) for snap in rec.snapshots)
    assert rec.snapshots[-1].time == pytest.approx(cfg.t_end)


def test_heat_eigenfunction_decay():
    # u = sin(2 pi x1) decays like exp(-lambda_h t) with the wide-stencil rate
    grid = UNIT(32)
    x = node_coords(grid)
    vals = np.sin(2.0 * math.pi * x[..., 0])[..., None]
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                  initial=Prescribed(vals), t_end=0.02, snapshot_count=64)
    rec = run(cfg)
    assert rec.completed
    h = grid.h[0]
    lam_h = (math.sin(2.0 * math.pi * h) / h) ** 2  # central-diff eigenvalue
    got = rec.snapshots[-1].values.max()
    assert got == pytest.approx(math.exp(-lam_h * 0.02), rel=2e-3)
    assert got == pytest.approx(math.exp(-4.0 * math.pi**2 * 0.02), rel=0.05)


def test_run_t_end_zero():
    cfg = _config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), t_end=0.0)
    rec = run(cfg)
    assert rec.completed
    assert len(rec.snapshots) == 1
    assert rec.snapshots[0].time == 0.0
    assert np.array_equal(rec.times(), solver._planned_times(cfg))


def test_run_snapshot_layout():
    cfg = _config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), t_end=0.05,
                  snapshot_count=64)
    rec = run(cfg)
    times = rec.times()
    assert len(times) == 64
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.05, abs=1e-14)
    assert np.all(np.diff(times) > 0.0)
    assert all(np.isfinite(s.values).all() for s in rec.snapshots)
    # verify checks its cylinders on these times before it solves
    assert np.array_equal(times, solver._planned_times(cfg))


def test_heat_dissipation_all_flux_kinds():
    for flux in (
        FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
        FluxSpec(FluxKind.PURE_P_LAPLACE, 2.8),
        FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.5),
        FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.6, eps=1e-4),
    ):
        rec = run(_config(UNIT(12), flux, t_end=0.005, snapshot_count=64))
        assert rec.completed
        l2 = [float(np.sum(s.values**2)) for s in rec.snapshots]
        diffs = np.diff(l2)
        assert np.all(diffs <= 1e-12)


def test_determinism_bitwise():
    cfg = _config(UNIT(12), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
                  rhs=RhsSpec(RhsKind.POWER_ALIGNED, w=1.0, c1=0.5),
                  N=2, t_end=0.01)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.dt_history, b.dt_history)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.values, sb.values)


def test_initial_amplitude_linear():
    grid = UNIT(16)
    base = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                   initial=RandomSmooth(seed=3, amplitude=1.0))
    scaled = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                     initial=RandomSmooth(seed=3, amplitude=2.5))
    u1 = initial_field(base).values
    u2 = initial_field(scaled).values
    assert np.allclose(u2, 2.5 * u1, rtol=0.0, atol=0.0)  # exact scalar multiply


def _initial_on_node_coords(config):
    """RandomSmooth data by the formula on the node coordinate stack: every mode
    evaluated over the whole grid, cosines of phase sums on periodic grids and
    products of sines on Dirichlet ones, accumulated into each component."""
    grid, init = config.grid, config.initial
    rng = np.random.default_rng(init.seed)
    x = node_coords(grid)
    vals = np.zeros(grid.node_shape + (config.N,))
    m = init.modes
    if grid.boundary is Boundary.PERIODIC:
        ks = [k for k in np.ndindex(*([m + 1] * grid.n)) if any(k)]
        for comp in range(config.N):
            for k in ks:
                coeff = rng.standard_normal() / (1.0 + sum(ki * ki for ki in k)) ** 2
                arg = rng.uniform(0.0, 2.0 * math.pi)
                for a, ka in enumerate(k):
                    arg = arg + (2.0 * math.pi * ka / grid.extent[a]) * x[..., a]
                vals[..., comp] += coeff * np.cos(arg)
    else:
        for comp in range(config.N):
            for k in np.ndindex(*([m] * grid.n)):
                coeff = rng.standard_normal() / (1.0 + sum((ki + 1) ** 2 for ki in k)) ** 2
                term = np.ones(grid.node_shape)
                for a, ka in enumerate(k):
                    term = term * np.sin(math.pi * (ka + 1) / grid.extent[a] * x[..., a])
                vals[..., comp] += coeff * term
    return init.amplitude * vals


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("n, cells", [(2, 4), (2, 33), (2, 48), (3, 5), (3, 13), (3, 32)])
def test_initial_field_is_the_node_coords_formula_bitwise(n, cells, boundary):
    # the field is built from per-axis 1-D factors, with the formula's operations
    # in its order, so it is the same bits
    grid = Grid(n, (1.0, 0.7, 1.3)[:n], (cells, cells + 1, cells + 2)[:n], boundary)
    for N, modes, seed in ((1, 2, 0), (3, 3, 7)):
        config = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), N=N,
                         initial=RandomSmooth(seed=seed, amplitude=2.5, modes=modes))
        got, want = initial_field(config).values, _initial_on_node_coords(config)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_initial_grid_independent():
    # same continuum function sampled on both grids: coarse nodes are a subset
    coarse, fine = UNIT(8), UNIT(16)
    mk = lambda g: _config(g, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                           initial=RandomSmooth(seed=5, amplitude=1.0))
    uc = initial_field(mk(coarse)).values
    uf = initial_field(mk(fine)).values
    assert np.allclose(uc, uf[::2, ::2, ::2], rtol=1e-12, atol=1e-13)


def test_dirichlet_boundary_frozen():
    grid = UNIT(8, Boundary.DIRICHLET)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(grid.node_shape + (1,))
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                  initial=Prescribed(vals), t_end=0.001)
    rec = run(cfg)
    last = rec.snapshots[-1].values
    assert np.array_equal(last[0], vals[0])
    assert np.array_equal(last[-1], vals[-1])
    assert np.array_equal(last[:, 0], vals[:, 0])
    assert not np.array_equal(last[1:-1, 1:-1, 1:-1], vals[1:-1, 1:-1, 1:-1])


def test_dirichlet_planes_bit_equal_through_run():
    # a forced, nonlinear run: the rate is nonzero on the planes before it is
    # cleared, and signed zeros on the planes must survive every step
    grid = Grid(3, (1.0, 0.8, 0.6), (8, 6, 5), Boundary.DIRICHLET)
    vals = np.random.default_rng(4).standard_normal(grid.node_shape + (2,))
    vals[0, :3] = -0.0
    vals[:, -1, :2] = 0.0
    cfg = _config(grid, FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.5),
                  rhs=RhsSpec(RhsKind.POWER_ALIGNED, w=1.5, c1=1.0, c2=0.5),
                  initial=Prescribed(vals), N=2, t_end=0.05)
    rec = run(cfg)
    assert rec.completed and rec.dt_history.size > len(rec.snapshots)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    for snap in rec.snapshots:
        for a in range(grid.n):
            for side in (0, -1):
                assert np.array_equal(bits(np.take(snap.values, side, axis=a)),
                                      bits(np.take(vals, side, axis=a)))


def test_blowup_detection():
    # strong gradient-coupled forcing past the (lowered) threshold
    cfg = SolveConfig(
        grid=UNIT(12),
        flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
        rhs=RhsSpec(RhsKind.STRUWE_COUPLING, w=2.0),
        initial=RandomSmooth(seed=0, amplitude=40.0, modes=2),
        N=3,
        t_end=0.05,
        blowup_threshold=1e4,
    )
    rec = run(cfg)
    assert rec.status.kind is StatusKind.BLOWUP
    assert rec.status.time is not None and 0.0 <= rec.status.time <= 0.05
    assert rec.snapshots  # partial record survives


def test_divergence_on_dt_floor():
    # eps^(p-2) = 100^6 pushes the stable step under the floor immediately
    grid = UNIT(8)
    cfg = _config(grid, FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 8.0, eps=100.0),
                  initial=Prescribed(np.zeros(grid.node_shape + (1,))))
    rec = run(cfg)
    assert rec.status.kind is StatusKind.DIVERGED


def test_singular_pure_flux_rerouted():
    cfg = _config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 1.5), t_end=1e-4)
    rec = run(cfg)
    assert rec.completed  # p < 2 at smooth extrema would be singular unregularized


def _persisted(config):
    """Every persisted field of a config; RhsSpec has eq=False, so rhs goes field by field,
    and Prescribed too, so prescribed data goes as its values' bytes."""
    rhs = {f"rhs.{f.name}": getattr(config.rhs, f.name)
           for f in fields(config.rhs) if f.name != "source"}  # a source is not persisted
    init = config.initial
    return {f.name: getattr(config, f.name) for f in fields(config) if f.name != "rhs"} | rhs | {
        "initial": init.values.tobytes() if isinstance(init, Prescribed) else init}


def _roundtrip_full():
    # every field away from the defaults, so one that save_run drops reloads
    # as its default and shows in the comparison
    rhs = RhsSpec(RhsKind.POWER_FIXED_DIR, w=1.2, c1=0.3, c2=0.1, direction=(1.0, 1.0))
    cfg = _config(Grid(3, (1.0, 1.5, 1.0), (8, 6, 8), Boundary.DIRICHLET),
                  FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.5), rhs=rhs,
                  initial=RandomSmooth(seed=3, amplitude=0.7, modes=3), N=2, t_end=0.002,
                  cfl=0.3, dt_max=5e-3, snapshot_count=70, blowup_threshold=1e6)
    plain = _persisted(_config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0)))
    assert [name for name, value in _persisted(cfg).items() if value == plain[name]] == []
    return cfg


@pytest.mark.parametrize("make", [
    _roundtrip_full,
    # a q equal to p on a one-power family reloads as the None it is stored as
    lambda: _config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0, q=2.0), t_end=0.002),
    # double power keeps a q equal to p, which a record reloads with
    lambda: _config(UNIT(8), FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.0), t_end=0.002),
    lambda: _config(UNIT(8), FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.5, eps=1e-2),
                    rhs=RhsSpec(RhsKind.POWER_ALIGNED, w=1.0, c1=0.5, direction=(0.6, 0.8)),
                    N=2, t_end=0.002),
    lambda: _config(UNIT(8, Boundary.DIRICHLET), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                    rhs=RhsSpec(RhsKind.STRUWE_COUPLING), N=2, t_end=0.002),
    lambda: _config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 3.0), t_end=0.002),
    lambda: _config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), t_end=0.002,
                    initial=Prescribed(np.random.default_rng(5).standard_normal((8, 8, 8, 1)))),
], ids=["double_power_dirichlet", "pure_q_equals_p", "double_power_q_equals_p",
        "regularized_aligned_direction",
        "struwe", "zero", "prescribed"])
def test_persistence_roundtrip(tmp_path, make):
    cfg = make()
    rec = run(cfg)
    assert rec.completed
    save_run(rec, tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert back.status.to_dict() == rec.status.to_dict()
    assert np.array_equal(back.dt_history, rec.dt_history)
    assert len(back.snapshots) == len(rec.snapshots)
    for a, b in zip(rec.snapshots, back.snapshots):
        assert a.time == b.time
        assert np.array_equal(a.values, b.values)
    assert _persisted(back.config) == _persisted(cfg)
    # config.json is the reloaded config written again, byte for byte
    cfg_path = tmp_path / "run" / "config.json"
    stored = cfg_path.read_text()
    assert json.dumps(solver.config_to_dict(back.config), indent=2) == stored
    assert (tmp_path / "run" / "dt_history.csv").exists()
    # records tagged "manufactured" (written before that tag merged into
    # "prescribed") load as prescribed data from snapshot 0
    cfg_path.write_text(json.dumps(json.loads(stored) | {"initial": {"kind": "manufactured"}}))
    legacy = load_run(tmp_path / "run")
    assert isinstance(legacy.config.initial, Prescribed)
    assert np.array_equal(legacy.config.initial.values, rec.snapshots[0].values)


def test_a_record_past_this_hosts_memory_loads_but_does_not_run(tmp_path):
    """Whether a config is valid does not depend on the machine: a stored record
    whose snapshot_count would not fit here (one that stopped early, say) loads,
    and only a run of it is refused, from the sizes alone."""
    rec = run(_config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), t_end=0.002))
    save_run(rec, tmp_path / "run")
    cfg_path = tmp_path / "run" / "config.json"
    cfg_path.write_text(json.dumps(json.loads(cfg_path.read_text()) | {"snapshot_count": 10**9}))
    back = load_run(tmp_path / "run")
    assert back.config.snapshot_count == 10**9 and len(back.snapshots) == len(rec.snapshots)
    with pytest.raises(ValueError, match="GiB of physical memory"):
        run(back.config)

def test_record_snapshots_are_read_only(tmp_path):
    # the cylinder checks keep |grad u| per stored snapshot: no path may write one
    rec = run(_config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), t_end=0.002))
    save_run(rec, tmp_path / "run")
    for record in (rec, load_run(tmp_path / "run"), pickle.loads(pickle.dumps(rec))):
        for snap in record.snapshots:
            with pytest.raises(ValueError, match="read-only"):
                snap.values[0, 0, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                snap.values += 1.0


def test_records_never_share_a_stack():
    grid = UNIT(8)
    values = np.zeros(grid.node_shape + (1,))
    snaps = [Field(grid, values.copy(), t) for t in np.linspace(0.0, 0.1, 64)]
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), initial=Prescribed(values),
                  t_end=0.1)
    status = solver.RunStatus(StatusKind.COMPLETED)
    a = RunRecord(cfg, snaps, np.full(63, 0.1 / 63), status)
    b = RunRecord(cfg, snaps, np.full(63, 0.1 / 63), status)
    assert psi(a, CylinderSpec((0.5, 0.5, 0.5), 0.1, 0.3), 2.0) == 0.0
    assert a._magnitudes and b._magnitudes == {}
    assert pickle.loads(pickle.dumps(a))._magnitudes == {}


def test_config_validation():
    grid = UNIT(8)
    flux = FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0)
    with pytest.raises(ValueError, match="cfl"):
        _config(grid, flux, cfl=1.5)
    with pytest.raises(ValueError, match="snapshots"):
        _config(grid, flux, snapshot_count=10)
    with pytest.raises(ValueError, match="t_end"):
        _config(grid, flux, t_end=-1.0)
    # one direction entry per component: the march reads d[i] for i < N
    for direction in ((1.0,), (1.0, 0.0, 1.0)):
        rhs = RhsSpec(RhsKind.POWER_FIXED_DIR, w=1.0, c1=1.0, direction=direction)
        with pytest.raises(ValueError, match="direction has"):
            _config(grid, flux, rhs=rhs, N=2)
