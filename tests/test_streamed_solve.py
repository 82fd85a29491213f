"""`gradbound solve --output` writes each snapshot as the march stores it.

The record directory it leaves is the one save_run(run(config)) writes, byte
for byte.  Its memory does not grow with snapshot_count, and a solve that
fails part-way leaves an existing record as it was, with no march process
left behind.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import gradbound
from gradbound import solver
from gradbound.cli import EXIT_BLOWUP, EXIT_INPUT, EXIT_OK, main
from gradbound.flux import FluxKind, FluxSpec, RhsKind, RhsSpec
from gradbound.mesh import Boundary, Grid
from gradbound.solver import RandomSmooth, SolveConfig, run, save_run

SRC = Path(gradbound.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _time_bound(monkeypatch):
    """A march that waits forever fails the test instead of hanging it; --output holds."""
    monkeypatch.delenv("GRADBOUND_OUTPUT_DIR", raising=False)

    def expire(signum, frame):
        raise TimeoutError("the solve did not finish within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _dirichlet(cells: int, **extra) -> dict:
    """The benchmark's Dirichlet solve: two-term flux, fixed-direction source, N = 3."""
    return {"grid": {"n": 3, "extent": 1.0, "cells": cells, "boundary": "dirichlet"},
            "flux": {"kind": "double_power", "p": 2.0, "q": 2.5},
            "rhs": {"kind": "power_fixed_dir", "w": 1.5, "c1": 1.0, "c2": 0.5,
                    "direction": [1.0, 1.0, 0.0]},
            "initial": {"seed": 0, "amplitude": 4.0, "modes": 3},
            "N": 3, "dt_max": 1e-5} | extra


def _solve(tmp_path, cfg: dict, out: Path) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(["solve", "--config", str(path), "--output", str(out)])


# each CLI config and the SolveConfig it describes
CASES = {
    "periodic": ({"grid": {"n": 3, "extent": 1.0, "cells": 8}, "flux": {"p": 2.5},
                  "initial": {"seed": 3}, "t_end": 0.01},
                 SolveConfig(Grid(3, 1.0, 8), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
                             RhsSpec(RhsKind.ZERO), RandomSmooth(seed=3), N=1, t_end=0.01),
                 EXIT_OK),
    "dirichlet": (_dirichlet(8, t_end=1e-3),
                  SolveConfig(Grid(3, 1.0, 8, Boundary.DIRICHLET),
                              FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.5),
                              RhsSpec(RhsKind.POWER_FIXED_DIR, w=1.5, c1=1.0, c2=0.5,
                                      direction=(1.0, 1.0, 0.0)),
                              RandomSmooth(seed=0, amplitude=4.0, modes=3), N=3, t_end=1e-3,
                              dt_max=1e-5),
                  EXIT_OK),
    "blowup": ({"grid": {"n": 3, "extent": 1.0, "cells": 12}, "flux": {"p": 2.0},
                "rhs": {"kind": "struwe_coupling"}, "initial": {"seed": 0, "amplitude": 40.0},
                "N": 3, "t_end": 0.05, "blowup_threshold": 1e4},
               SolveConfig(Grid(3, 1.0, 12), FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0),
                           RhsSpec(RhsKind.STRUWE_COUPLING), RandomSmooth(seed=0, amplitude=40.0),
                           N=3, t_end=0.05, blowup_threshold=1e4),
               EXIT_BLOWUP),
}


@pytest.mark.parametrize("case", list(CASES))
def test_streamed_record_is_the_librarys(tmp_path, capsys, monkeypatch, case):
    # the solve marches on two processes, the library on the rule's count
    cfg, config, code = CASES[case]
    save_run(run(config), tmp_path / "library")
    monkeypatch.setattr(solver, "_processes", lambda config: 2)
    assert _solve(tmp_path, cfg, tmp_path / "out") == code
    _no_child_left()
    report = json.loads(capsys.readouterr().out)
    streamed = _digests(tmp_path / "out" / "run")
    assert streamed == _digests(tmp_path / "library")
    assert report["snapshots_stored"] == sum(name.startswith("snapshots/") for name in streamed)
    assert sorted(os.listdir(tmp_path / "out")) == ["report.json", "run"]


def test_a_write_that_fails_mid_march_leaves_the_old_record(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert _solve(tmp_path, CASES["periodic"][0], out) == EXIT_OK
    before = _digests(out)
    capsys.readouterr()

    write, forks = solver._Writer.snapshot, []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    def failing(self, snap):
        if len(self.times) == 2:
            raise OSError(28, "No space left on device")
        write(self, snap)

    monkeypatch.setattr(solver._Writer, "snapshot", failing)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(solver, "_processes", lambda config: 2)
    code = _solve(tmp_path, _dirichlet(24, t_end=6.3e-4), out)
    _no_child_left()
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and len(forks) == 1
    assert err == "error: [Errno 28] No space left on device\n"
    assert _digests(out) == before and sorted(os.listdir(out)) == ["report.json", "run"]


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="peak RSS is read with os.wait4")
def test_peak_memory_does_not_grow_with_snapshot_count(tmp_path):
    """64 and 256 snapshots of a 25^3 x 3 record: 24 MB and 96 MB if held."""
    peaks = []
    for count in (64, 256):
        out = tmp_path / f"out{count}"
        path = tmp_path / f"config{count}.json"
        path.write_text(json.dumps(_dirichlet(24, t_end=2.5e-3, snapshot_count=count)))
        env = {k: v for k, v in os.environ.items() if k != "GRADBOUND_OUTPUT_DIR"}
        env["PYTHONPATH"] = str(SRC)
        child = subprocess.Popen([sys.executable, "-m", "gradbound.cli", "solve", "--config",
                                  str(path), "--output", str(out)],
                                 stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        assert child.returncode == EXIT_OK
        assert len(list((out / "run" / "snapshots").iterdir())) == count
        peaks.append(usage.ru_maxrss / 1024.0)  # KiB on Linux
    assert abs(peaks[1] - peaks[0]) < 16.0, peaks
