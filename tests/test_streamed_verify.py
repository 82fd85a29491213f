"""`gradbound verify` checks each run as its march stores the snapshots.

verify builds the cylinder windows once, on the planned snapshot times that
every run of the campaign shares, and hands them to each campaign worker
(cli._campaign_run).  A worker only marches and checks: it builds the cores
of the public record checks before its march, and its store differentiates
each snapshot the R0 window reads on the R0 box, feeds every core's row and
drops the array.  Its reports are the public checks' reports on run(config),
bit for bit, a run that stops raises the same stop code and message, its
memory does not grow with snapshot_count, and it neither builds a RunRecord
through solver.run nor a window of its own.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import gradbound
from gradbound import energy, solver
from gradbound.cli import EXIT_BLOWUP, EXIT_OK, _campaign_run, _regime, _StatusExit, main
from gradbound.energy import (_chain_rules, _estimate, _window_over, energy_inequality_check,
                              holder_sandwich_check, moser_chain_check, verify_bound)
from gradbound.flux import FluxKind, FluxSpec, RhsKind, RhsSpec
from gradbound.mesh import Boundary, CylinderSpec, Grid
from gradbound.solver import RandomSmooth, SolveConfig, _planned_times, run

SRC = Path(gradbound.__file__).resolve().parents[1]
CAMPAIGN = SRC.parent / "configs" / "verify_campaign.json"
R0 = 0.45


def _config(p: float, boundary: Boundary) -> SolveConfig:
    """One 16^3 run whose R0 = 0.45 resolves the chain."""
    return SolveConfig(Grid(3, 1.0, 16, boundary), FluxSpec(FluxKind.PURE_P_LAPLACE, p),
                       RhsSpec(RhsKind.POWER_ALIGNED, w=1.3, c1=1.0),
                       RandomSmooth(seed=0, amplitude=2.0), N=1, t_end=0.21,
                       snapshot_count=64)


def _windows(config, params, R0, levels, center, t0, time_exponent) -> dict:
    """The worker's windows and chain, built as cmd_verify builds them."""
    grid, planned = config.grid, _planned_times(config)
    cyl = CylinderSpec(grid.center() if center is None else center,
                       float(planned[-1]) if t0 is None else t0, R0, time_exponent)
    radii = [] if levels is None else _chain_rules(grid, R0, levels)
    outer, inner, *chain = (_window_over(grid, planned, dataclasses.replace(cyl, R=r))
                            for r in (R0, R0 / 2.0, *radii))
    return {"outer": outer, "inner": inner,
            "chain": None if levels is None else (chain, _estimate(params, R0)[0])}


def _record_rows(config, levels, params, energy_s, where) -> dict:
    """The worker's result from the public checks on run(config), as verify used to build it."""
    record = run(config)
    tag = {"seed": 0, "amplitude": 2.0}
    chain = None if levels is None else moser_chain_check(record, params, R0, levels, **where)
    return {"run": tag | {"status": record.status.kind.value,
                          "steps": int(record.dt_history.size)},
            "sandwich": tag | holder_sandwich_check(record, params.s0, R0 / 2.0, R0, params.p,
                                                    **where).to_dict(),
            "energy": [tag | energy_inequality_check(record, s, R0 / 2.0, R0, params,
                                                     **where).to_dict() for s in energy_s],
            "chain": chain and chain.to_dict(),
            "pair": verify_bound([record], params, R0, **where).per_run[0]}


# each case: p, boundary, centre, t0, time exponent ("p" for p), levels, energy_s
CASES = {
    "periodic-defaults": (2.0, Boundary.PERIODIC, None, None, 2.0, 3, (0.0, 0.5)),
    "dirichlet-explicit": (2.0, Boundary.DIRICHLET, (0.48, 0.5, 0.53), 0.207, 2.0, None,
                           (0.5, 1.0)),
    "periodic-explicit-p": (2.5, Boundary.PERIODIC, (0.5, 0.47, 0.5), 0.2, "p", 3, (0.0, 1.0)),
    "dirichlet-defaults-p": (2.5, Boundary.DIRICHLET, None, None, "p", None, (0.0, 0.5)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_streamed_checks_are_the_record_checks(case):
    p, boundary, center, t0, exponent, levels, energy_s = CASES[case]
    _, params, violations = _regime({"p": p, "w": 1.3, "N": 1})
    assert not violations
    where = {"center": center, "t0": t0,
             "time_exponent": p if exponent == "p" else exponent}
    config = _config(p, boundary)
    streamed = _campaign_run((0, 2.0, config, True), params, list(energy_s),
                             _estimate(params, R0)[1],
                             **_windows(config, params, R0, levels, **where))
    assert repr(streamed) == repr(_record_rows(config, levels, params, energy_s, where))


def test_a_stopped_run_stops_as_the_record_does():
    """The blowup of the streamed solve's tests: the stop code and message of run(config)."""
    config = SolveConfig(Grid(3, 1.0, 12), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                         RhsSpec(RhsKind.STRUWE_COUPLING, w=1.3),
                         RandomSmooth(seed=0, amplitude=40.0), N=3, t_end=0.05,
                         blowup_threshold=1e4)
    status = run(config).status
    assert status.kind is gradbound.StatusKind.BLOWUP
    _, params, _ = _regime({"p": 2.0, "w": 1.3, "N": 3})
    # no chain: the 12-cell grid resolves too few nodes across R0 = 0.2 for one
    windows = _windows(config, params, 0.2, None, None, None, 2.0)
    with pytest.raises(_StatusExit) as stop:
        _campaign_run((0, 40.0, config, True), params, [params.s0],
                      _estimate(params, 0.2)[1], **windows)
    assert (stop.value.code, str(stop.value)) == (
        EXIT_BLOWUP, f"run (seed=0, amplitude=40.0) ended in blowup at t = {status.time}")


def test_a_status_exit_pickles_with_its_code_and_message():
    """A pool worker's stopped run comes back to the parent through pickle."""
    stop = pickle.loads(pickle.dumps(_StatusExit(EXIT_BLOWUP, "run ended in blowup")))
    assert type(stop) is _StatusExit
    assert (stop.code, str(stop)) == (EXIT_BLOWUP, "run ended in blowup")


# a one-run campaign, which runs inline, with the chain
_ONE_RUN = {"problem": {"p": 2.0, "w": 1.3}, "grid": {"extent": 1.0, "cells": 16},
            "rhs": {"kind": "power_aligned", "c1": 1.0},
            "campaign": {"seeds": [0], "amplitudes": [2.0]}, "cylinder": {"R0": R0},
            "t_end": 0.21, "snapshot_count": 64, "levels": 3}


def _verify_one_run(tmp_path, capsys, monkeypatch, cfg=_ONE_RUN) -> dict:
    monkeypatch.delenv("GRADBOUND_OUTPUT_DIR", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_a_campaign_never_builds_a_run_record(tmp_path, capsys, monkeypatch):
    def refused(config):
        raise AssertionError("the campaign called solver.run")

    monkeypatch.setattr(solver, "run", refused)
    report = _verify_one_run(tmp_path, capsys, monkeypatch)
    assert [row["status"] for row in report["runs"]] == ["completed"]


def test_the_worker_builds_no_window(tmp_path, capsys, monkeypatch):
    """Once a march starts, building a window or applying the cylinder rules raises."""
    expected = _verify_one_run(tmp_path, capsys, monkeypatch)
    marching = []
    march = solver._march

    def marked(config, store):
        marching.append(config)
        return march(config, store)

    def refused(name):
        real = getattr(energy, name)

        def guard(*args):
            if marching:
                raise AssertionError(f"{name} was called after the march started")
            return real(*args)
        return guard

    monkeypatch.setattr(solver, "_march", marked)
    for name in ("_window_over", "_cylinder_rules"):
        monkeypatch.setattr(energy, name, refused(name))
    assert _verify_one_run(tmp_path, capsys, monkeypatch) == expected
    assert len(marching) == 1
    assert expected["chain"] is not None and expected["passed"]


def test_the_worker_differentiates_each_read_snapshot_once(tmp_path, capsys, monkeypatch):
    """One run of the shipped campaign: the R0 window reads 77 of the 80 snapshots, the
    worker's store differentiates exactly those, once each and in order, on the R0 box,
    and each |grad u| is gone by the next store."""
    windows, stores, differentiated, magnitudes, alive = [], [], [], [], []
    magnitude, march, rows = energy._grad_magnitude_of, solver._march, energy._Window.rows

    def counted(grid, values):
        mag = magnitude(grid, values)
        differentiated.append((len(stores) - 1, values.shape[:-1]))
        magnitudes.append(weakref.ref(mag))
        return mag

    def marked(config, store):
        def noted(snapshot):
            alive.append(sum(ref() is not None for ref in magnitudes))
            stores.append(snapshot.time)
            store(snapshot)
        return march(config, noted)

    def fed(win, cores):
        windows.append(win)
        return rows(win, cores)

    monkeypatch.setattr(energy, "_grad_magnitude_of", counted)
    monkeypatch.setattr(solver, "_march", marked)
    monkeypatch.setattr(energy._Window, "rows", fed)
    cfg = json.loads(CAMPAIGN.read_text()) | {"campaign": {"seeds": [0], "amplitudes": [1.0]}}
    assert _verify_one_run(tmp_path, capsys, monkeypatch, cfg)["passed"]
    (outer,) = windows  # the R0 window feeds every core
    assert outer.cyl.R == cfg["cylinder"]["R0"]
    assert len(stores) == outer.times.size == 80
    assert [k for k, _ in differentiated] == outer.support.tolist()  # each once, in order
    assert len(differentiated) == outer.support.size == 77
    assert {shape for _, shape in differentiated} == {outer.box_mask.shape}  # never the grid
    assert outer.box_mask.shape != outer.grid.node_shape
    assert alive == [0] * 80  # no |grad u| outlives the store that made it


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="peak RSS is read with os.wait4")
def test_campaign_peak_memory_does_not_grow_with_snapshot_count(tmp_path):
    """One run of the shipped campaign at 64 and 256 snapshots: 32^3 x 2 records of
    33.6 MB and 134 MB if held, and an R0 box |grad u| per read snapshot of 10 MB more
    at 256 than at 64 if held; the worker drops each |grad u| once its rows are fed."""
    peaks = []
    for count in (64, 256):
        cfg = json.loads(CAMPAIGN.read_text())
        cfg.update(campaign={"seeds": [0], "amplitudes": [1.0]}, snapshot_count=count)
        path = tmp_path / f"config{count}.json"
        path.write_text(json.dumps(cfg))
        env = {k: v for k, v in os.environ.items() if k != "GRADBOUND_OUTPUT_DIR"}
        env["PYTHONPATH"] = str(SRC)
        child = subprocess.Popen([sys.executable, "-m", "gradbound.cli", "verify", "--config",
                                  str(path)], stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        assert child.returncode == EXIT_OK
        peaks.append(usage.ru_maxrss / 1024.0)  # KiB on Linux
    assert abs(peaks[1] - peaks[0]) < 4.0, peaks
