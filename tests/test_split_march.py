"""The split march: one run on several forked processes, one slab of planes along
axis 0 each, stores the records of the one-process march byte for byte.

The process count is forced by patching solver._processes, the private rule
that picks it: the grids here are far below the rule's minimum slab.  After
every run, whether it returned, stopped or raised, the test process has no
child left.
"""

import math
import os
import signal

import numpy as np
import pytest

from gradbound import solver
from gradbound.cli import _ordered_map, main
from gradbound.flux import FluxKind, FluxSpec, RhsKind, RhsSpec
from gradbound.mesh import Boundary, Field, Grid, grad_magnitude, gradient_of, node_coords
from gradbound.solver import Prescribed, RandomSmooth, SolveConfig, StatusKind, run

FLUXES = {
    "pure_2": FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
    "pure_2.5": FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
    "pure_1.5": FluxSpec(FluxKind.PURE_P_LAPLACE, 1.5),  # run routes it to regularized
    "double": FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.6),
    "regularized": FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.6, eps=0.05),
}
SINGULAR = "double_power with p = 1.5 < 2 is singular at Q = 0"


@pytest.fixture(autouse=True)
def _time_bound():
    """A march that waits forever fails the test instead: the alarm raises in the
    parent, whose exit from the march kills and reaps its children."""
    def expire(signum, frame):
        raise TimeoutError("the split march did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _on(monkeypatch, processes: int) -> None:
    monkeypatch.setattr(solver, "_processes", lambda config: processes)


def _record_bytes(record) -> tuple:
    return (record.status.to_dict(), record.dt_history.tobytes(),
            [(snap.time, snap.values.tobytes()) for snap in record.snapshots])


def _same_on_1_2_3(monkeypatch, config):
    """The record of config on 1, 2 and 3 processes, which must be one record."""
    records = []
    for processes in (1, 2, 3):
        _on(monkeypatch, processes)
        records.append(run(config))
        _no_child_left()
    first = _record_bytes(records[0])
    for processes, record in zip((2, 3), records[1:]):
        assert _record_bytes(record) == first, f"{processes} processes"
    return records[0]


def _rhs(kind: RhsKind, N: int) -> RhsSpec:
    if kind is RhsKind.MANUFACTURED:  # a table of x, so each slab reads its own nodes
        weights = np.arange(1.0, N + 1.0)
        return RhsSpec(kind, source=lambda x, t: np.cos(3.0 * x.sum(axis=-1, keepdims=True)
                                                        + 20.0 * t) * weights)
    return RhsSpec(kind, w=1.3, c1=0.7, c2=0.2,
                   direction=tuple(range(1, N + 1)) if kind is RhsKind.POWER_FIXED_DIR else None)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("rhs_kind", list(RhsKind))
@pytest.mark.parametrize("flux_name", list(FLUXES))
def test_split_march_stores_the_serial_record(monkeypatch, flux_name, rhs_kind, boundary):
    # n and N vary with the case: each boundary, flux and rhs kind meets both n and every N
    f, r, b = list(FLUXES).index(flux_name), list(RhsKind).index(rhs_kind), \
        list(Boundary).index(boundary)
    n, N = 2 + (r + b) % 2, 1 + (f + r) % 3
    grid = Grid(n, tuple(0.8 + 0.1 * a for a in range(n)), (8, 5, 6)[:n], boundary)
    # regularized p = 1.5 (eps = 1e-6) flattens the Dirichlet field near the
    # walls, where D_max climbs toward eps^-0.5: over 100 steps by 1e-4 already
    config = SolveConfig(grid=grid, flux=FLUXES[flux_name], rhs=_rhs(rhs_kind, N),
                         initial=RandomSmooth(seed=10 * f + 2 * r + b), N=N,
                         t_end=1e-4 if flux_name == "pure_1.5" else 4e-3)
    record = _same_on_1_2_3(monkeypatch, config)
    assert record.completed and record.dt_history.size >= 63


def _spike(value, x0_from: float):
    """A source that puts value on the nodes with x_0 >= x0_from from t = 4e-3 on."""
    return RhsSpec(RhsKind.MANUFACTURED, source=lambda x, t: np.where(
        (x[..., :1] >= x0_from) & (t >= 4e-3), value, 0.0) * np.ones(2))


@pytest.mark.parametrize("value, kind", [
    (math.nan, StatusKind.DIVERGED),
    (-math.inf, StatusKind.DIVERGED),
    (1e3, StatusKind.BLOWUP),   # |u| past the threshold, in the last slab only
    (-1e3, StatusKind.BLOWUP),
])
def test_split_march_stops_at_the_serial_step(monkeypatch, value, kind):
    grid = Grid(3, 1.0, (8, 6, 6), Boundary.DIRICHLET)
    config = SolveConfig(grid=grid, flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
                         rhs=_spike(value, 0.8), initial=RandomSmooth(seed=1), N=2,
                         t_end=0.01, blowup_threshold=5.0)
    record = _same_on_1_2_3(monkeypatch, config)
    assert record.status.kind is kind and 4e-3 < record.status.time < 0.01


def test_split_march_stops_on_a_gradient_in_one_slab(monkeypatch):
    # a growing step at x_0 = 0.8: max |grad u| passes the threshold before
    # max |u| does, in the slabs' maxima of the gradient pass
    grid = Grid(3, 1.0, (9, 6, 6))
    config = SolveConfig(grid=grid, flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                         rhs=_spike(1e4, 0.8), initial=RandomSmooth(seed=2), N=2,
                         t_end=0.02, blowup_threshold=50.0)
    record = _same_on_1_2_3(monkeypatch, config)
    assert record.status.kind is StatusKind.BLOWUP
    assert np.abs(record.snapshots[-1].values).max() < 50.0


def _plateau_field(grid: Grid) -> np.ndarray:
    """Affine samples, nonzero gradient everywhere but at node (4, 3, 3), the centre
    of a constant 3^3 block: planes 3-5 of axis 0, the second of three slabs."""
    x = node_coords(grid)
    u = x[..., 0] + 2.0 * x[..., 1] + 3.0 * x[..., 2]
    u[3:6, 2:5, 2:5] = 1.0
    return u[..., None]


def test_singular_flux_in_the_second_slab_raises_the_serial_error(monkeypatch):
    grid = Grid(3, 1.0, (9, 7, 7))
    values = _plateau_field(grid)
    config = SolveConfig(grid=grid, flux=FluxSpec(FluxKind.DOUBLE_POWER, 1.5, q=2.5),
                         rhs=RhsSpec(RhsKind.ZERO), initial=Prescribed(values), N=1, t_end=0.01)
    zeros = np.argwhere(grad_magnitude(gradient_of(grid, values)) == 0.0)
    assert solver._Team(9, 3).bounds == [0, 3, 6, 9] and zeros.tolist() == [[4, 3, 3]]
    for processes in (1, 2, 3):
        _on(monkeypatch, processes)
        with pytest.raises(ValueError, match=SINGULAR):
            run(config)
        _no_child_left()


def test_singular_flux_in_the_second_slab_exits_1_as_serial(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"grid": {"n": 3, "extent": 1.0, "cells": [9, 7, 7]}, "N": 1, '
                   '"flux": {"kind": "double_power", "p": 1.5, "q": 2.5}, "t_end": 0.01}')
    monkeypatch.setattr(solver, "initial_field",
                        lambda config: Field(config.grid, _plateau_field(config.grid), 0.0))
    outcomes = []
    for processes in (1, 3):
        _on(monkeypatch, processes)
        code = main(["solve", "--config", str(cfg)])
        outcomes.append((code, capsys.readouterr()))
        _no_child_left()
    assert outcomes[0] == outcomes[1]
    code, captured = outcomes[0]
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {SINGULAR}") and captured.err.count("\n") == 1


def test_a_child_that_dies_mid_step_ends_the_run(monkeypatch):
    parent = os.getpid()
    advance = solver._advance

    def dying(state, *args):
        if os.getpid() != parent and state.time > 1e-3:
            os._exit(3)
        return advance(state, *args)

    monkeypatch.setattr(solver, "_advance", dying)
    _on(monkeypatch, 2)
    config = SolveConfig(grid=Grid(3, 1.0, 8), flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                         rhs=RhsSpec(RhsKind.ZERO), initial=RandomSmooth(seed=0), N=1,
                         t_end=0.01)
    with pytest.raises(RuntimeError, match="ended mid-step"):
        run(config)
    _no_child_left()


def _processes_in_worker(config) -> int:
    return solver._processes(config)


def test_pool_workers_march_on_their_share_of_the_cores():
    # 33^3 x 3 Dirichlet, the size of the benchmark's solve, splits where the
    # run holds the cores alone
    config = SolveConfig(grid=Grid(3, 1.0, 32, Boundary.DIRICHLET),
                         flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), rhs=RhsSpec(RhsKind.ZERO),
                         initial=RandomSmooth(seed=0), N=3, t_end=0.01)
    cores = len(os.sched_getaffinity(0))
    alone = solver._processes(config)
    if os.uname().machine == solver._STORE_ORDERED:
        assert alone == min(solver._MAX_PROCESSES, cores)
    with _ordered_map(_processes_in_worker, [config, config]) as results:
        shares = list(results)
    assert shares == ([alone] * 2 if cores == 1 else [min(alone, cores // 2)] * 2)


def test_process_rule_stops_at_the_measured_count(monkeypatch):
    config = SolveConfig(grid=Grid(3, 1.0, 64), flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                         rhs=RhsSpec(RhsKind.ZERO), initial=RandomSmooth(seed=0), N=3,
                         t_end=0.01)
    monkeypatch.setattr(solver, "_cores", 16)
    expected = 2 if os.uname().machine == solver._STORE_ORDERED else 1
    assert solver._MAX_PROCESSES == 2 and solver._processes(config) == expected


def _open_files() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_failed_fork_or_pipe_marches_alone(monkeypatch, call):
    # the second of the two children cannot be made: the first is killed and
    # reaped, its pipe closed, and the parent marches every plane itself
    config = SolveConfig(grid=Grid(3, 1.0, 8), flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
                         rhs=RhsSpec(RhsKind.ZERO), initial=RandomSmooth(seed=4), N=2,
                         t_end=0.01)
    _on(monkeypatch, 1)
    serial = _record_bytes(run(config))
    real, calls = getattr(os, call), []

    def second_fails():
        calls.append(os.getpid())
        if len(calls) == 2:
            raise BlockingIOError(11, f"{call}: resource temporarily unavailable")
        return real()

    _on(monkeypatch, 3)
    monkeypatch.setattr(os, call, second_fails)
    files = _open_files()
    assert _record_bytes(run(config)) == serial
    assert len(calls) == 2 and _open_files() == files
    _no_child_left()


def test_process_rule_keeps_small_grids_and_source_tables_on_one_process():
    small = SolveConfig(grid=Grid(3, 1.0, 16), flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                        rhs=RhsSpec(RhsKind.ZERO), initial=RandomSmooth(seed=0), N=1,
                        t_end=0.01)
    assert 16**3 < 2 * solver._MIN_SLAB_VALUES and solver._processes(small) == 1
    table = RhsSpec(RhsKind.MANUFACTURED, source=lambda x, t: np.zeros(x.shape[:-1] + (3,)))
    big = SolveConfig(grid=Grid(3, 1.0, 32), flux=FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                      rhs=table, initial=RandomSmooth(seed=0), N=3, t_end=0.01)
    assert solver._processes(big) == 1
