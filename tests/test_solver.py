"""Explicit marching: stability limit, statuses, determinism, persistence."""

import json
import math

import numpy as np
import pytest

from gradbound import (
    Boundary,
    Field,
    FluxKind,
    FluxSpec,
    Grid,
    Prescribed,
    RandomSmooth,
    RhsKind,
    RhsSpec,
    SolveConfig,
    StatusKind,
    initial_field,
    load_run,
    node_coords,
    run,
    save_run,
)

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


def test_stable_dt_heat():
    # p = 2, D = 1, h = 0.05: dt = 0.4 * 0.0025 / 6; the first snapshot at
    # t_end / 63 lies past one step, so the first step is not clipped
    grid = UNIT(20)
    cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), t_end=0.02)
    dt = run(cfg).dt_history[0]
    assert dt == pytest.approx(0.4 * 0.05**2 / 6.0, rel=1e-12)
    assert dt == pytest.approx(1.667e-4, rel=1e-3)


def test_stable_dt_zero_field_regularized():
    grid = UNIT(8)
    cfg = _config(grid, FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 3.0, eps=0.1),
                  initial=Prescribed(np.zeros(grid.node_shape + (1,))),
                  dt_max=1.0, t_end=1.0)
    dt = run(cfg).dt_history[0]
    # jacobian at Q = 0 is eps^(p-2) I
    assert dt == pytest.approx(0.4 * 0.125**2 / (6.0 * 0.1), rel=1e-12)
    assert math.isfinite(dt) and dt > 0.0


def test_stable_dt_steep_gradient_scaling():
    # doubling a linear profile scales dt by 2^(2-p) for p > 2
    grid = Grid(3, (1.0, 1.0, 1.0), (8, 8, 8), Boundary.DIRICHLET)
    x = node_coords(grid)
    p = 3.5
    dts = []
    for slope in (1.0, 2.0):
        vals = (slope * x[..., 0])[..., None]
        cfg = _config(grid, FluxSpec(FluxKind.PURE_P_LAPLACE, p),
                      initial=Prescribed(vals), t_end=0.05)
        dts.append(run(cfg).dt_history[0])
    assert dts[1] / dts[0] == pytest.approx(2.0 ** (2.0 - p), rel=1e-12)


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


def test_run_snapshot_layout():
    cfg = _config(UNIT(8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), t_end=0.05,
                  snapshot_count=64)
    rec = run(cfg)
    times = rec.times()
    assert len(times) == 64
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.05, abs=1e-14)
    assert np.all(np.diff(times) > 0.0)
    assert all(s.is_finite() for s in rec.snapshots)


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


def test_persistence_roundtrip(tmp_path):
    cfg = _config(UNIT(8), FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.5),
                  rhs=RhsSpec(RhsKind.POWER_FIXED_DIR, w=1.2, c1=0.3, c2=0.1,
                              direction=(1.0, 1.0)),
                  N=2, t_end=0.002)
    rec = run(cfg)
    save_run(rec, tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert back.status.kind is rec.status.kind
    assert np.array_equal(back.dt_history, rec.dt_history)
    assert len(back.snapshots) == len(rec.snapshots)
    for a, b in zip(rec.snapshots, back.snapshots):
        assert a.time == b.time
        assert np.array_equal(a.values, b.values)
    assert back.config.flux == cfg.flux
    assert back.config.rhs.kind is cfg.rhs.kind
    assert back.config.rhs.direction == cfg.rhs.direction
    assert (tmp_path / "run" / "config.json").exists()
    assert (tmp_path / "run" / "dt_history.csv").exists()
    # records tagged "manufactured" (written before that tag merged into
    # "prescribed") load as prescribed data from snapshot 0
    cfg_path = tmp_path / "run" / "config.json"
    stored = json.loads(cfg_path.read_text())
    stored["initial"] = {"kind": "manufactured"}
    cfg_path.write_text(json.dumps(stored))
    legacy = load_run(tmp_path / "run")
    assert isinstance(legacy.config.initial, Prescribed)
    assert np.array_equal(legacy.config.initial.values, rec.snapshots[0].values)


def test_config_validation():
    grid = UNIT(8)
    flux = FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0)
    with pytest.raises(ValueError, match="cfl"):
        _config(grid, flux, cfl=1.5)
    with pytest.raises(ValueError, match="snapshots"):
        _config(grid, flux, snapshot_count=10)
    with pytest.raises(ValueError, match="t_end"):
        _config(grid, flux, t_end=-1.0)
