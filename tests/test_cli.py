"""End-to-end CLI behavior: exit codes, report shapes, artifact layout.

Every JSON report printed by a verb must validate against the shipped
schema; the exit codes are asserted as a contract, not observed.
"""

import contextlib
import copy
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gradbound
import gradbound.cli
import gradbound.energy
import gradbound.solver
from gradbound import build_ladder, load_run
from gradbound.cli import (
    EXIT_BLOWUP,
    EXIT_DIVERGED,
    EXIT_INPUT,
    EXIT_NOT_COVERED,
    EXIT_OK,
    _jsonable,
    main,
)

SCHEMA = json.loads(files("gradbound").joinpath("schemas/reports.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def _write(tmp_path, payload, name="config.json"):
    """payload as a JSON file; a str payload is written as the JSON text it is."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    if report is not None:
        VALIDATOR.validate(report)
    return code, report, captured.err


# --- check -----------------------------------------------------------------


def test_check_covered_tuple(tmp_path, capsys):
    cfg = _write(tmp_path, {"p": 2.0, "w": 1.0})
    code, report, _ = _run(capsys, ["check", "--config", cfg])
    assert code == EXIT_OK
    assert report["theorem_applied"] == "thm1_case1"
    assert report["ladder"] is not None
    assert report["ladder"]["s"][0] == 0.0  # seeded at p_tilde - M


def test_check_uncovered_tuple(tmp_path, capsys):
    cfg = _write(tmp_path, {"p": 2.0, "w": 1.4})
    code, report, _ = _run(capsys, ["check", "--config", cfg])
    assert code == EXIT_NOT_COVERED
    assert report["theorem_applied"] == "not_covered"
    assert "case2" in report["violated_conditions"]


def test_check_explicit_seed(tmp_path, capsys):
    cfg = _write(tmp_path, {"p": 2.0, "w": 1.0, "s0": 0.5, "p_tilde": 2.5})
    code, report, _ = _run(capsys, ["check", "--config", cfg])
    assert code == EXIT_OK
    assert report["theorem_applied"] == "thm3"
    assert report["kappa"] == pytest.approx(2.5)
    # at p_tilde = p, s0 + M = 2.5 > 2 breaks the budget in both verbs
    problem = {"p": 2.0, "w": 1.0, "s0": 0.5}
    code, report, _ = _run(capsys, ["check", "--config", _write(tmp_path, problem)])
    assert code == EXIT_NOT_COVERED
    assert report["violated_conditions"] == ["integrability_budget"]
    code, report, _ = _run(capsys, ["verify", "--config", _write(tmp_path, {"problem": problem})])
    assert code == EXIT_NOT_COVERED
    assert report["regime"]["violated_conditions"] == ["integrability_budget"]


def test_check_rejects_unknown_key(tmp_path, capsys):
    cfg = _write(tmp_path, {"p": 2.0, "pp": 1})
    code, _, err = _run(capsys, ["check", "--config", cfg])
    assert code == EXIT_INPUT
    assert "unknown config key 'pp'" in err


@pytest.mark.parametrize("steps, needle", [
    (0, "ladder_steps"),
    (3000, "ladder depth 3000 overflows"),  # beta^3000 is past the largest double
    (True, "ladder_steps"),  # a JSON boolean is a Python int, but not a depth
], ids=["zero", "overflow", "bool"])
def test_check_rejects_bad_ladder_steps(tmp_path, capsys, steps, needle):
    cfg = _write(tmp_path, {"p": 2.0, "ladder_steps": steps})
    code, _, err = _run(capsys, ["check", "--config", cfg])
    assert code == EXIT_INPUT
    assert err.startswith("error:") and needle in err


def test_check_deep_ladder(tmp_path, capsys):
    cfg = _write(tmp_path, {"p": 2.0, "w": 1.0, "ladder_steps": 1000})
    code, report, _ = _run(capsys, ["check", "--config", cfg])
    assert code == EXIT_OK
    assert report["ladder"] == build_ladder(0.0, 2.0, 2.0, 3, 1000).to_dict()


@pytest.mark.parametrize("text", [
    "not json {",
    "[1, 2]",
    # a string flag is not a boolean: "false" would read as true and hide s0_vs_c2
    pytest.param('{"p": 2, "q": 2.2, "w": 1, "s0": -0.5, "c2_zero": "false"}',
                 id="c2_zero-string"),
])
def test_check_rejects_malformed_config(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = _run(capsys, ["check", "--config", str(path)])
    assert code == EXIT_INPUT
    assert err.startswith("error:")


def test_check_rejects_missing_file(tmp_path, capsys):
    code, _, err = _run(capsys, ["check", "--config", str(tmp_path / "absent.json")])
    assert code == EXIT_INPUT
    assert "cannot read" in err


def test_missing_config_flag(capsys):
    code, _, err = _run(capsys, ["check"])
    assert code == EXIT_INPUT
    assert "--config" in err


# --- solve -----------------------------------------------------------------


def _heat_solve_cfg(**extra):
    base = {
        "grid": {"n": 3, "extent": 1.0, "cells": 8},
        "flux": {"p": 2.0},
        "initial": {"seed": 3},
        "t_end": 0.01,
    }
    base.update(extra)
    return base


def test_solve_completes_and_persists(tmp_path, capsys):
    out = tmp_path / "artifacts"
    cfg = _write(tmp_path, _heat_solve_cfg())
    code, report, _ = _run(capsys, ["solve", "--config", cfg, "--output", str(out)])
    assert code == EXIT_OK
    assert report["status"]["kind"] == "completed"
    assert report["steps"] > 0
    assert report["final_time"] == pytest.approx(0.01)
    assert (out / "report.json").exists()
    assert json.loads((out / "report.json").read_text()) == report
    record = load_run(out / "run")
    assert len(record.snapshots) == report["snapshots_stored"]
    assert record.completed


def test_solve_blowup_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "grid": {"n": 3, "extent": 1.0, "cells": 12},
        "flux": {"p": 2.0},
        "rhs": {"kind": "struwe_coupling"},
        "initial": {"seed": 0, "amplitude": 40.0},
        "N": 3,
        "t_end": 0.05,
        "blowup_threshold": 1e4,
    })
    code, report, _ = _run(capsys, ["solve", "--config", cfg])
    assert code == EXIT_BLOWUP
    assert report["status"]["kind"] == "blowup"


def test_solve_divergence_exit_code(tmp_path, capsys):
    # eps^(p-2) = 100^6 drives the stable step under the floor immediately
    cfg = _write(tmp_path, {
        "grid": {"n": 3, "extent": 1.0, "cells": 8},
        "flux": {"kind": "regularized_p_laplace", "p": 8.0, "eps": 100.0},
        "initial": {"seed": 0, "amplitude": 0.0},
        "t_end": 0.01,
    })
    code, report, _ = _run(capsys, ["solve", "--config", cfg])
    assert code == EXIT_DIVERGED
    assert report["status"]["kind"] == "diverged"


@pytest.mark.parametrize("mutate, needle", [
    (lambda c: c.pop("t_end"), "t_end"),
    (lambda c: c["flux"].update(kind="exotic"), "unknown flux kind"),
    (lambda c: c.update(rhs={"kind": "manufactured"}), "programmatically"),
    (lambda c: c["grid"].update(cells=2), "4 cells"),
])
def test_solve_input_errors(tmp_path, capsys, mutate, needle):
    cfg_obj = _heat_solve_cfg(rhs={"kind": "zero"})
    mutate(cfg_obj)
    cfg = _write(tmp_path, cfg_obj)
    code, _, err = _run(capsys, ["solve", "--config", cfg])
    assert code == EXIT_INPUT
    assert needle in err


# --- verify refusals ---------------------------------------------------------


def _refusal(tmp_path, capsys, problem):
    cfg = _write(tmp_path, {"problem": problem})
    code, report, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == EXIT_NOT_COVERED
    assert report["passed"] is False
    assert "runs" not in report  # refusal happens before any solve
    return report


def test_verify_refuses_growth_at_p(tmp_path, capsys):
    report = _refusal(tmp_path, capsys, {"p": 2.0, "w": 2.0})
    assert report["regime"]["theorem_applied"] == "not_covered"


def test_verify_refuses_two_dimensions(tmp_path, capsys):
    report = _refusal(tmp_path, capsys, {"p": 2.0, "w": 1.0, "n": 2, "s0": 0.0})
    assert "dimension" in report["regime"]["violated_conditions"]


def test_verify_refuses_seed_at_window_edge(tmp_path, capsys):
    # default window at p = 2 gives lam/Lam = 1; the floor is strict
    report = _refusal(tmp_path, capsys, {"p": 2.0, "w": 1.3, "s0": -1.0})
    assert "s0_lower_bound" in report["regime"]["violated_conditions"]


def test_verify_refuses_nonpositive_kappa(tmp_path, capsys):
    report = _refusal(tmp_path, capsys, {"p": 2.0, "q": 2.9, "w": 1.0, "s0": 0.0})
    assert "kappa_positive" in report["regime"]["violated_conditions"]


def test_verify_refuses_integrability_budget(tmp_path, capsys):
    # thm3 admits (s0 = 0.5, M = 2) but s0 + M = 2.5 > p_tilde = 2
    report = _refusal(tmp_path, capsys, {"p": 2.0, "w": 1.0, "s0": 0.5})
    assert "integrability_budget" in report["regime"]["violated_conditions"]
    assert report["budget"]["within"] is False


@pytest.mark.parametrize("verb, config", [
    ("check", lambda problem: problem),
    ("verify", lambda problem: {"problem": problem}),
    ("verify", lambda problem: _campaign_cfg(problem=problem)),
], ids=["check", "verify-problem", "verify-campaign"])
@pytest.mark.parametrize("problem, needle", [
    ({"p": 2.0, "w": 2.5}, "need 0 <= w <= p"),  # derived mode, where the classifier runs
    ({"p": 2.0, "w": 2.5, "s0": 0.0}, "need 0 <= w <= p"),
    ({"p": 2.0, "w": 2.5, "n": 4}, "need 0 <= w <= p"),
    ({"p": 2.0, "q": 3.0}, "need p <= q < p+1"),
    ({"p": 2.0, "p_tilde": 1.5}, "need p_tilde >= p"),
    ({"p": 2.0, "lam": 2.0, "Lam": 1.0}, "need 0 < lam <= Lam"),
])
def test_outside_the_structural_model_exits_1_in_every_mode(tmp_path, monkeypatch, verb, config,
                                                            problem, needle):
    assert needle in _exits_1(tmp_path, monkeypatch, verb, config(problem))


def test_verify_reads_the_campaign_before_its_verdict(tmp_path, capsys, monkeypatch):
    # s0 = 0 breaks the budget, and the cylinder top lies past t_end
    monkeypatch.setattr(gradbound.solver, "run", _no_solve)
    cfg = _campaign_cfg(problem={"p": 2.0, "w": 1.3, "s0": 0.0}, cylinder={"R0": 0.24, "t0": 1.0})
    code, report, err = _run(capsys, ["verify", "--config", _write(tmp_path, cfg)])
    assert code == EXIT_INPUT and report is None
    assert "past t_end" in err
    cfg["cylinder"] = {"R0": 0.24}
    code, report, _ = _run(capsys, ["verify", "--config", _write(tmp_path, cfg)])
    assert code == EXIT_NOT_COVERED
    assert report["regime"]["violated_conditions"] == ["integrability_budget"]


@st.composite
def _problems(draw) -> dict:
    """Problem sections inside the structural model, some keys left to their defaults."""
    p = draw(st.floats(1.05, 3.5))
    problem = {"p": p, "w": draw(st.floats(0.0, p))}
    optional = {"p_tilde": st.floats(p, p + 1.0), "s0": st.floats(-1.5, 2.0),
                "q": st.floats(p, p + 1.0, exclude_max=True), "n": st.integers(2, 5)}
    for key, values in optional.items():
        if draw(st.booleans()):
            problem[key] = draw(values)
    return problem


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(problem={"p": 2.0, "w": 0.0})
@example(problem={"p": 1.5, "w": 0.7})
@example(problem={"p": 2.0, "w": 1.0, "s0": 0.5})
@given(problem=_problems())
def test_one_verdict_for_check_verify_and_the_estimate(tmp_path, capsys, problem):
    check, report, _ = _run(capsys, ["check", "--config", _write(tmp_path, problem)])
    verify, verified, err = _run(capsys, ["verify", "--config",
                                          _write(tmp_path, {"problem": problem})])
    _, params, violations = gradbound.cli._regime(problem)
    assert check == (EXIT_NOT_COVERED if violations else EXIT_OK)
    assert (verify == EXIT_NOT_COVERED) == (check == EXIT_NOT_COVERED)
    if violations:
        assert verified["regime"] == {k: v for k, v in report.items() if k != "ladder"}
        assert verified["regime"]["violated_conditions"] == violations
    else:
        # covered: a problem-only config lacks its campaign, and the estimate runs
        assert verify == EXIT_INPUT and "'campaign'" in err and "not covered" not in err
        gradbound.energy._bound_exponents(params, 0.24)


def test_verify_rejects_inconsistent_c2(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "problem": {"p": 2.0, "w": 1.3, "c2_zero": True},
        "rhs": {"kind": "power_aligned", "c1": 1.0, "c2": 0.5},
    })
    code, _, err = _run(capsys, ["verify", "--config", cfg])
    assert code == EXIT_INPUT
    assert "c2_zero" in err


def _campaign_cfg(**extra):
    base = {
        "problem": {"p": 2.0, "w": 1.3},
        "grid": {"extent": 1.0, "cells": 16},
        "rhs": {"kind": "power_aligned", "c1": 1.0},
        "campaign": {"seeds": [0], "amplitudes": [1.0, 2.0]},
        "cylinder": {"R0": 0.24},
        "t_end": 0.06,
        "snapshot_count": 80,
    }
    base.update(extra)
    return base


@pytest.mark.parametrize("mutate, needle", [
    (lambda c: c.update(campaign={"seeds": [], "amplitudes": [1.0]}), "empty campaign"),
    (lambda c: c["cylinder"].update(R0=0.3, t0=0.05), "below t = 0"),
    (lambda c: c["cylinder"].update(t0=0.2), "past t_end"),
    (lambda c: c.update(levels=1), "levels"),
    (lambda c: c["problem"].update(c2_zero="false"), "'problem.c2_zero' must be true or false"),
    (lambda c: c["cylinder"].update(center=[0.5, 0.5]), "'cylinder.center' must be a list of 3"),
    (lambda c: c["cylinder"].update(R0=-0.24, time_exponent=2.5), "radius must be positive"),
    (lambda c: c.update(max_spread=-1.0), "'max_spread' must be >= 0, got -1.0"),
    # refused before the seed-0 run, not after it with numpy's unnamed range error
    (lambda c: c["campaign"].update(seeds=[0, -1]), "'campaign.seeds' must be >= 0, got -1"),
    (lambda c: c["campaign"].update(modes=0), "'campaign.modes' must be >= 1, got 0"),
    # the cylinder rules that every check applies, on the planned snapshot times
    (lambda c: c["cylinder"].update(center=[0.1, 0.5, 0.5]), "ball exits the spatial domain"),
    (lambda c: c["cylinder"].update(time_exponent=6.0),
     "only 1 snapshots inside the cylinder window"),
    # Q_{R0} holds 5 snapshots, the bound fit's Q_{R0/2} one
    (lambda c: c["cylinder"].update(time_exponent=4.0),
     "only 1 snapshots inside the cylinder window"),
    (lambda c: c.update(energy_s=[-5.0]), "s = -5.0 violates the energy-inequality range"),
    # the Moser chain's rules: R0 = 0.24 holds 4 nodes per axis at 16 cells,
    # and a ladder 2000 levels deep overflows beta^levels
    (lambda c: c.update(levels=3), "resolves < 8 nodes per axis"),
    (lambda c: c.update(levels=2000, grid={"extent": 1.0, "cells": 32}), "overflows"),
])
def test_verify_campaign_input_errors(tmp_path, capsys, monkeypatch, mutate, needle):
    monkeypatch.setattr(gradbound.solver, "run", _no_solve)
    cfg_obj = _campaign_cfg()
    mutate(cfg_obj)
    cfg = _write(tmp_path, cfg_obj)
    out = tmp_path / "out"
    code, report, err = _run(capsys, ["verify", "--config", cfg, "--output", str(out)])
    assert code == EXIT_INPUT
    assert needle in err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert report is None  # refused before the first run: no report, no runs row
    assert not out.exists()


def test_verify_campaign_passes(tmp_path, capsys):
    """Two-run derived-mode campaign on a coarse grid: the full report with
    per-run table must come back green."""
    out = tmp_path / "campaign"
    cfg = _write(tmp_path, _campaign_cfg())
    code, report, _ = _run(capsys, ["verify", "--config", cfg, "--output", str(out)])
    assert code == EXIT_OK
    assert report["passed"] is True
    assert report["regime"]["theorem_applied"] == "thm1_case2"
    assert report["budget"]["within"] is True
    assert [row["status"] for row in report["runs"]] == ["completed", "completed"]
    assert all(row["satisfied"] for row in report["sandwich"])
    assert all(row["satisfied"] for row in report["energy"])
    assert report["spread"]["value"] <= report["spread"]["max_allowed"]
    rows = (out / "per_run.csv").read_text().strip().splitlines()
    assert rows[0] == "seed,amplitude,lhs,rhs_base,ratio"
    assert len(rows) == 3
    assert (out / "report.json").exists()


# --- the campaign pool --------------------------------------------------------
#
# verify solves and checks each run in a worker of a fork pool sized
# min(runs, cores), or inline on one core; the report, the exit code and the
# stop line must be those of the runs taken one after another in campaign order.

_POOL_PROBLEM = {"p": 2.0, "w": 1.3}
_POOL_T_END, _POOL_R0, _POOL_LEVELS, _POOL_ENERGY_S = 0.21, 0.45, 3, (0.0, 0.5)


def _pool_cfg(amplitudes=(1.0, 2.0, 4.0), **extra):
    """A 16^3 campaign whose R0 resolves the chain's 8 nodes per axis."""
    return _campaign_cfg(campaign={"seeds": [0], "amplitudes": list(amplitudes)},
                         cylinder={"R0": _POOL_R0}, t_end=_POOL_T_END, snapshot_count=64,
                         levels=_POOL_LEVELS, energy_s=list(_POOL_ENERGY_S)) | extra


def _pool_config(amplitude: float, **extra) -> gradbound.SolveConfig:
    """The SolveConfig verify builds for one run of _pool_cfg."""
    return gradbound.SolveConfig(**{
        "grid": gradbound.Grid(3, 1.0, 16),
        "flux": gradbound.FluxSpec(gradbound.FluxKind.PURE_P_LAPLACE, 2.0),
        "rhs": gradbound.RhsSpec(gradbound.RhsKind.POWER_ALIGNED, w=1.3, c1=1.0),
        "initial": gradbound.RandomSmooth(seed=0, amplitude=amplitude),
        "N": 1, "t_end": _POOL_T_END, "snapshot_count": 64} | extra)


def _json(obj):
    return json.loads(json.dumps(obj))


def _serial_reference(amplitudes) -> dict:
    """The campaign's rows, chain and bound from the library, one run after another."""
    s0 = gradbound.classify_thm1(2.0, 1.3, 2.0).s0_effective
    params = gradbound.ProblemParams(n=3, N=1, p=2.0, w=1.3, s0=s0)
    where = {"t0": _POOL_T_END, "time_exponent": 2.0}
    records = [gradbound.run(_pool_config(a)) for a in amplitudes]
    tags = [{"seed": 0, "amplitude": a} for a in amplitudes]
    rho = _POOL_R0 / 2.0
    return _json({
        "runs": [tag | {"status": "completed", "steps": int(r.dt_history.size)}
                 for tag, r in zip(tags, records)],
        "sandwich": [tag | gradbound.holder_sandwich_check(r, s0, rho, _POOL_R0, 2.0,
                                                           **where).to_dict()
                     for tag, r in zip(tags, records)],
        "energy": [tag | gradbound.energy_inequality_check(r, s, rho, _POOL_R0, params,
                                                           **where).to_dict()
                   for tag, r in zip(tags, records) for s in _POOL_ENERGY_S],
        "chain": gradbound.moser_chain_check(records[0], params, _POOL_R0, _POOL_LEVELS,
                                             **where).to_dict(),
        "bound": gradbound.verify_bound(records, params, _POOL_R0, **where).to_dict(),
    })


def _cores(monkeypatch, count: int) -> list:
    """Pretend the process may run on count cores; returns the pool contexts made."""
    import multiprocessing

    made = []
    real = multiprocessing.get_context

    def get_context(method=None):
        made.append(method)
        return real(method)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return made


def test_verify_pool_matches_serial_reference(tmp_path, capsys, monkeypatch):
    made = _cores(monkeypatch, 3)
    amplitudes = (1.0, 2.0, 4.0)
    out = tmp_path / "out"
    code, report, err = _run(capsys, ["verify", "--config", _write(tmp_path, _pool_cfg(amplitudes)),
                                      "--output", str(out)])
    assert code == EXIT_OK, err
    assert made == ["fork"]
    reference = _serial_reference(amplitudes)
    assert {key: report[key] for key in reference} == reference
    rows = (out / "per_run.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:4] for row in rows] == [
        [repr(lhs), repr(rhs)] for lhs, rhs in reference["bound"]["per_run"]]


def test_verify_one_core_runs_inline(tmp_path, capsys, monkeypatch):
    amplitudes = (1.0, 2.0, 4.0)
    cfg = _write(tmp_path, _pool_cfg(amplitudes))
    _cores(monkeypatch, 2)
    code, pooled, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == EXIT_OK
    reference = _serial_reference(amplitudes)
    assert {key: pooled[key] for key in reference} == reference
    made = _cores(monkeypatch, 1)
    code, inline, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == EXIT_OK
    assert inline == pooled
    # a platform without an affinity mask runs inline too
    monkeypatch.delattr(os, "sched_getaffinity")
    code, no_mask, _ = _run(capsys, ["verify", "--config", cfg])
    assert code == EXIT_OK
    assert no_mask == pooled
    assert made == []  # no pool either way


# Under the struwe coupling f = u |grad u|^2 and a threshold of 1e4, amplitude 2
# blows up at t ~ 0.0098 and amplitude 20 within two steps; amplitude 1 completes.
_BLOWUP = {"problem": {"p": 2.0, "w": 1.3, "N": 3}, "rhs": {"kind": "struwe_coupling"},
           "blowup_threshold": 1e4}


@pytest.mark.parametrize("amplitudes, stopped", [
    ((2.0, 1.0), 2.0),
    ((1.0, 2.0), 2.0),
    ((2.0, 20.0), 2.0),  # the later run stops sooner, but campaign order decides
], ids=["first", "second", "both"])
def test_verify_pool_stops_at_first_stopped_run(tmp_path, capsys, monkeypatch,
                                                amplitudes, stopped):
    _cores(monkeypatch, 2)
    cfg = _pool_cfg(amplitudes) | _BLOWUP
    cfg.pop("levels")
    cfg.pop("energy_s")
    out = tmp_path / "out"
    code, report, err = _run(capsys, ["verify", "--config", _write(tmp_path, cfg),
                                      "--output", str(out)])
    status = gradbound.run(_pool_config(
        stopped, N=3, rhs=gradbound.RhsSpec(gradbound.RhsKind.STRUWE_COUPLING, w=1.3),
        blowup_threshold=1e4)).status
    assert status.kind is gradbound.StatusKind.BLOWUP
    assert code == EXIT_BLOWUP
    assert err == f"stopped: run (seed=0, amplitude={stopped}) ended in blowup at t = {status.time}\n"
    assert report is None
    assert not out.exists()


def _raise_on_amplitude(amplitude, check):
    def patched(record, *args, **kwargs):
        if record.config.initial.amplitude == amplitude:
            raise ValueError(f"check refused amplitude {amplitude}")
        return check(record, *args, **kwargs)
    return patched


@pytest.mark.parametrize("name, amplitude", [
    ("moser_chain_check", 1.0),  # the chain runs on the first run only
    ("energy_inequality_check", 2.0),
    ("holder_sandwich_check", 4.0),
], ids=["chain-first-run", "energy-second-run", "sandwich-last-run"])
def test_verify_pool_worker_error_exits_1(tmp_path, capsys, monkeypatch, name, amplitude):
    _cores(monkeypatch, 3)
    monkeypatch.setattr(gradbound.energy, name,
                        _raise_on_amplitude(amplitude, getattr(gradbound.energy, name)))
    out = tmp_path / "out"
    code, report, err = _run(capsys, ["verify", "--config", _write(tmp_path, _pool_cfg()),
                                      "--output", str(out)])
    assert code == EXIT_INPUT
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"check refused amplitude {amplitude}" in err, err
    assert "Traceback" not in err
    assert report is None
    assert not out.exists()


def test_check_imports_no_process_pool(tmp_path):
    """`gradbound check`, the benchmark campaign's set-up probe, never loads a pool,
    the split march's shared memory, numpy or a numeric module: it runs only the
    regime arithmetic."""
    unused = {"multiprocessing", "concurrent.futures", "mmap", "numpy"} | {
        f"gradbound.{name}" for name in ("mesh", "flux", "solver", "energy", "verify")}
    probe = ("import sys; from gradbound.cli import main; code = main(sys.argv[1:]); "
             f"print(sorted({unused!r} & set(sys.modules)), "
             "file=sys.stderr); sys.exit(code)")
    pythonpath = [str(IMPORT_ROOT), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run([sys.executable, "-c", probe, "check", "--config",
                           _write(tmp_path, {"p": 2.0, "w": 1.3})],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == "[]\n"


def test_verify_oracles(capsys):
    code, report, _ = _run(capsys, ["verify", "oracles"])
    assert code == EXIT_OK
    assert report["passed"] is True
    assert {r["name"] for r in report["oracles"]} >= {
        "ladder_recursion_vs_rational_oracle",
        "radial_map_residual_order",
        "manufactured_heat_source_formula",
    }
    assert all(r["ok"] for r in report["oracles"])


# --- counterexample -----------------------------------------------------------


def test_counterexample_order_window(tmp_path, capsys):
    cfg = _write(tmp_path, {"cells": 24, "extent": 4.0, "annulus": [0.5, 1.5]})
    code, report, _ = _run(capsys, ["counterexample", "--config", cfg])
    assert code == EXIT_OK
    assert report["ok"] is True
    assert 1.5 <= report["order_estimate"] <= 2.5
    assert report["grid_h"] == pytest.approx(4.0 / 24.0)


@pytest.mark.parametrize("payload, needle", [
    ({"annulus": [0.5]}, "annulus"),
    ({"n": 3.5}, "integer"),
    ({"n": 2, "cells": 24, "extent": 4.0}, "needs n = 3"),
    ({"cells": 24, "extent": 4.0, "annulus": [0.05, 1.5]}, "singular"),
])
def test_counterexample_input_errors(tmp_path, capsys, payload, needle):
    cfg = _write(tmp_path, payload)
    code, _, err = _run(capsys, ["counterexample", "--config", cfg])
    assert code == EXIT_INPUT
    assert needle in err


# --- output routing -----------------------------------------------------------


def test_env_var_overrides_output_flag(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("GRADBOUND_OUTPUT_DIR", str(env_dir))
    cfg = _write(tmp_path, {"p": 2.0, "w": 1.0})
    code, _, _ = _run(capsys, ["check", "--config", cfg, "--output", str(flag_dir)])
    assert code == EXIT_OK
    assert (env_dir / "report.json").exists()
    assert not flag_dir.exists()


def test_config_output_dir_used_without_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GRADBOUND_OUTPUT_DIR", raising=False)
    out = tmp_path / "from_config"
    cfg = _write(tmp_path, {
        "grid": {"n": 3, "extent": 1.0, "cells": 8},
        "flux": {"p": 2.0},
        "t_end": 0.005,
        "output_dir": str(out),
    })
    code, _, _ = _run(capsys, ["solve", "--config", cfg])
    assert code == EXIT_OK
    assert (out / "report.json").exists()


def test_check_writes_report_to_config_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GRADBOUND_OUTPUT_DIR", raising=False)
    out = tmp_path / "from_config"
    cfg = _write(tmp_path, {"p": 2.0, "w": 1.0, "output_dir": str(out)})
    code, report, _ = _run(capsys, ["check", "--config", cfg])
    assert code == EXIT_OK
    assert json.loads((out / "report.json").read_text()) == report


# --- config type checks ---------------------------------------------------------
#
# Every value is type-checked against the verb's key table before anything
# runs, so a wrong type exits 1 with one error line that names the dotted key
# and the value, prints no report, creates no output directory and starts no
# solve.


def _set(cfg: dict, path: str, value) -> dict:
    cfg = copy.deepcopy(cfg)
    *outer, key = path.split(".")
    node = cfg
    for part in outer:
        node = node.setdefault(part, {})
    node[key] = value
    return cfg


def _no_solve(config):
    raise AssertionError("a config that is refused reached the solver")


def _refused(tmp_path, monkeypatch, verb, cfg_obj, path, value):
    """Run verb on cfg_obj in-process and check the refusal contract."""
    err = _exits_1(tmp_path, monkeypatch, verb, cfg_obj)
    assert f"'{path}'" in err and json.dumps(value) in err, err


def _exits_1(tmp_path, monkeypatch, verb, cfg_obj) -> str:
    """Run verb on cfg_obj in-process: exit 1 with one error line, no report,
    no traceback, no output directory and no solve.  Returns the line."""
    monkeypatch.delenv("GRADBOUND_OUTPUT_DIR", raising=False)
    monkeypatch.setattr(gradbound.solver, "run", _no_solve)
    out_dir = tmp_path / "out"
    cfg = _write(tmp_path, cfg_obj, name="probe.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([verb, "--config", cfg, "--output", str(out_dir)])
    err = err.getvalue()
    assert code == EXIT_INPUT, err
    assert out.getvalue() == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out_dir.exists()
    return err


# stands in for the JSON number 1e400, which json reads as inf
_E400 = "<1e400>"

_PROBE_BASES = {"check": lambda: {"p": 2.0, "w": 1.0},
                "solve": _heat_solve_cfg,
                "verify": _campaign_cfg}


@pytest.mark.parametrize("verb, path, value", [
    # values that ended in an uncaught TypeError
    ("solve", "t_end", None),
    ("solve", "cfl", None),
    ("solve", "initial.seed", None),
    ("solve", "flux.eps", None),
    ("solve", "rhs.direction", 5),
    ("check", "w", None),
    ("check", "lam", "a"),
    ("check", "output_dir", 5),
    ("verify", "cylinder.R0", None),
    ("verify", "cylinder.center", 5),
    ("verify", "max_spread", None),
    # values that ran silently truncated or converted
    ("solve", "N", 1.7),
    ("solve", "snapshot_count", 64.9),
    ("solve", "grid.cells", 8.5),
    ("solve", "initial.seed", 1.5),
    ("solve", "flux.p", "2"),
    # integer keys take JSON integers only
    ("solve", "grid.cells", 32.0),
    ("check", "N", "2"),
    # lists of the wrong length
    ("solve", "grid.extent", [1.0, 1.0]),
    ("solve", "rhs.direction", [1.0, 0.0]),
    ("verify", "cylinder.center", [0.5, 0.5]),
    # right-typed values out of range
    ("solve", "blowup_threshold", -1.0),
    ("solve", "blowup_threshold", 0.0),
    ("solve", "initial.seed", -1),
    ("solve", "initial.modes", 0),
    ("solve", "initial.modes", -1),
    ("verify", "campaign.modes", -1),
] + [
    # numbers whose float is not finite, where they ran to a traceback, a
    # diverged march (exit 4) or a completed one (exit 0)
    (verb, path, value)
    for verb, path in [("solve", "t_end"), ("solve", "grid.extent"),
                       ("solve", "initial.amplitude"), ("solve", "flux.eps"),
                       ("check", "p"), ("verify", "cylinder.R0")]
    for value in [math.nan, math.inf, _E400, 10**400]
] + [
    # integers past the signed 64-bit range, where they ran to a traceback or
    # to numpy's "Maximum allowed size exceeded", which names no key
    (verb, path, value)
    for verb, path in [("solve", "N"), ("solve", "grid.cells"), ("solve", "snapshot_count"),
                       ("solve", "initial.modes"), ("solve", "initial.seed"),
                       ("verify", "campaign.modes")]
    for value in [10**400, 2**63]
] + [
    ("solve", "grid.cells", [8, 8, 2**63]),
    ("verify", "campaign.seeds", [0, 10**400]),
], ids=lambda v: "10**400" if v == 10**400 else None)
def test_config_type_probes(tmp_path, monkeypatch, verb, path, value):
    cfg = _set(_PROBE_BASES[verb](), path, value)
    if value == _E400:  # json.dumps writes an inf as Infinity, so 1e400 goes in as text
        cfg, value = json.dumps(cfg).replace(json.dumps(_E400), "1e400"), math.inf
    _refused(tmp_path, monkeypatch, verb, cfg, path, value)


def _never(*args):
    raise AssertionError("reached after a refusal")


@contextlib.contextmanager
def _address_space_cap(extra: int):
    """Inside the block this process may map at most extra more bytes."""
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    cap = mapped + extra if hard == resource.RLIM_INFINITY else min(hard, mapped + extra)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _refused_for_memory(capsys, monkeypatch, argv):
    """Exit 1 with one error line naming the memory bound, refused from the
    sizes alone: under a 1 GiB cap on new mappings, so np.linspace's
    snapshot_count floats would fail with another message, and before any
    march starts."""
    monkeypatch.setattr(gradbound.solver, "initial_field", _never)
    with _address_space_cap(2**30):
        code, report, err = _run(capsys, argv)
    assert code == EXIT_INPUT and report is None
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "GiB, more than the" in err and "GiB of physical memory" in err, err


@pytest.mark.parametrize("path, value", [("N", 10**12), ("grid.cells", 10**6)])
def test_impossible_allocation_exits_1(tmp_path, capsys, monkeypatch, path, value):
    """A size inside the 64-bit range whose snapshots cannot fit in physical
    memory: run refuses it from the sizes alone, allocating nothing."""
    cfg = _set(_heat_solve_cfg(), path, value)
    _refused_for_memory(capsys, monkeypatch, ["solve", "--config", _write(tmp_path, cfg)])


@pytest.mark.parametrize("verb", ["solve", "verify"])
def test_snapshot_count_past_physical_memory_exits_1(tmp_path, capsys, monkeypatch, verb):
    cfg = _set(_PROBE_BASES[verb](), "snapshot_count", 10**9)
    _refused_for_memory(capsys, monkeypatch, [verb, "--config", _write(tmp_path, cfg)])


def test_memory_error_exits_1(tmp_path, capsys, monkeypatch):
    """main maps a MemoryError raised inside a verb to one error line."""
    def out_of_memory(config):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,)")

    monkeypatch.setattr(gradbound.solver, "run", out_of_memory)
    code, report, err = _run(capsys, ["solve", "--config", _write(tmp_path, _heat_solve_cfg())])
    assert code == EXIT_INPUT and report is None
    assert err == "error: Unable to allocate 7.45 GiB for an array with shape (1000000000,)\n"


def test_jsonable_maps_numpy_scalars_and_non_finite_numbers():
    report = {"int": np.int64(7), "f32": np.float32(0.1), "f64": np.float64(2.5),
              "nan": np.float64("nan"), "inf": np.float64("inf"), "neg": -math.inf,
              "flag": True, "nested": (1, (np.float64("nan"), [np.int32(2), False]), "s"),
              "none": None}
    clean = _jsonable(report)
    assert json.dumps(clean) == json.dumps({
        "int": 7, "f32": float(np.float32(0.1)), "f64": 2.5, "nan": None, "inf": None,
        "neg": None, "flag": True, "nested": [1, [None, [2, False]], "s"], "none": None})
    assert type(clean["int"]) is int and type(clean["f32"]) is float
    assert clean["flag"] is True and clean["nested"][1][1][1] is False


# Each verb's shipped config with more of its keys set, each to a value of
# the right type, so that the fuzz reaches every kind of key.
_FUZZ_BASES = {
    "check": ("check_fast_growth.json", {
        "n": 3, "N": 1, "q": 2.0, "p_tilde": 2.0, "s0": 0.0, "lam": 1.0, "Lam": 1.0,
        "c2_zero": True}),
    "solve": ("solve_heat.json", {
        "grid.boundary": "periodic", "flux.q": 2.0, "flux.eps": 0.0, "rhs.w": 1.0,
        "rhs.c1": 0.0, "rhs.c2": 0.0, "rhs.direction": [1.0], "cfl": 0.4, "dt_max": 0.01,
        "blowup_threshold": 1e8}),
    "verify": ("verify_campaign.json", {
        "problem.n": 3, "problem.c2_zero": True, "problem.s0": 0.0,
        "flux.kind": "pure_p_laplace", "flux.eps": 0.0, "rhs.c2": 0.0,
        "rhs.direction": [1.0, 0.0], "campaign.modes": 2, "cylinder.center": [0.5, 0.5, 0.5],
        "cylinder.t0": 0.06, "cylinder.time_exponent": 2.0, "energy_s": [0.0], "cfl": 0.4,
        "dt_max": 0.01, "blowup_threshold": 1e8}),
    "counterexample": ("counterexample.json", {}),
}


def _fuzz_base(verb: str, tmp_path) -> dict:
    name, extra = _FUZZ_BASES[verb]
    cfg = json.loads(Path(_repo_config(name)).read_text())
    for path, value in extra.items():
        cfg = _set(cfg, path, value)
    return cfg | {"output_dir": str(tmp_path / "out")}


def _paths(cfg: dict, where: str = ""):
    for key, value in cfg.items():
        yield f"{where}{key}", value
        if isinstance(value, dict):
            yield from _paths(value, f"{where}{key}.")


_NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
_OBJECTS = st.dictionaries(st.text(max_size=4), st.none() | _NUMBERS, max_size=2)
# every base config has n = 3, so no list of another length fits a per-axis key;
# "p" is left out because cylinder.time_exponent takes it
_TEXT = st.text(max_size=6).filter(lambda t: t != "p")
_NUMBER_LISTS = st.lists(_NUMBERS, max_size=5).filter(lambda xs: len(xs) != 3)


def _wrong_type(base):
    """Values of a JSON type that the key holding `base` never takes."""
    junk = st.none() | _OBJECTS
    if isinstance(base, bool):
        return junk | _NUMBERS | _TEXT | st.lists(_NUMBERS)
    if isinstance(base, int):
        return junk | st.booleans() | st.floats(allow_nan=False) | _TEXT | _NUMBER_LISTS
    if isinstance(base, float):
        return junk | st.booleans() | _TEXT | _NUMBER_LISTS
    if isinstance(base, str):
        return junk | st.booleans() | _NUMBERS | st.lists(_NUMBERS)
    if isinstance(base, list):  # a number list of any length may be valid
        return junk | st.booleans() | _NUMBERS | _TEXT | st.lists(junk | _TEXT, min_size=1)
    return st.none() | st.booleans() | _NUMBERS | _TEXT | st.lists(_NUMBERS)  # an object


@pytest.mark.parametrize("verb", sorted(_FUZZ_BASES))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_wrong_type_is_refused(tmp_path, monkeypatch, verb, data):
    base = _fuzz_base(verb, tmp_path)
    path, old = data.draw(st.sampled_from(sorted(_paths(base))), label="key")
    value = data.draw(_wrong_type(old), label="value")
    _refused(tmp_path, monkeypatch, verb, _set(base, path, value), path, value)


_NONPOSITIVE = st.integers(max_value=0) | st.floats(max_value=0.0, allow_nan=False,
                                                    allow_infinity=False)


def _one_bad(bad, good, length):
    """A list of good values with one bad value at a drawn position."""
    return st.tuples(st.lists(good, min_size=length, max_size=length), bad,
                     st.integers(0, length - 1)).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2] + 1:])


def _out_of_range(verb: str, base: dict) -> dict:
    """Keys of verb with a strategy of right-typed values outside their range."""
    extent = _NONPOSITIVE | _one_bad(_NONPOSITIVE, st.floats(0.1, 5.0), 3)
    cells = st.integers(max_value=3) | _one_bad(st.integers(max_value=3), st.integers(4, 8), 3)
    cfl = (_NONPOSITIVE | st.integers(min_value=2)
           | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False))
    grid = {"grid.extent": extent, "grid.cells": cells, "cfl": cfl}
    if verb == "check":
        return {"ladder_steps": st.integers(max_value=0)}
    if verb == "solve":
        return grid
    if verb == "verify":
        # a top within 1e-12 of the last snapshot is clipped to it, as in every window
        return grid | {"cylinder.R0": _NONPOSITIVE,
                       "cylinder.t0": st.floats(min_value=base["t_end"] + 1e-12,
                                                exclude_min=True, allow_infinity=False),
                       "levels": st.integers(max_value=1)}
    return {"extent": extent, "cells": cells,
            "annulus": _one_bad(_NONPOSITIVE, st.floats(0.1, 2.0), 2)}


@pytest.mark.parametrize("verb", sorted(_FUZZ_BASES))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_out_of_range_is_refused(tmp_path, monkeypatch, verb, data):
    # radii and extents <= 0, cells < 4, cfl outside (0, 1], a cylinder top
    # past t_end by more than 1e-12, levels < 2 and ladder_steps < 1
    base = _fuzz_base(verb, tmp_path)
    keys = _out_of_range(verb, base)
    path = data.draw(st.sampled_from(sorted(keys)), label="key")
    value = data.draw(keys[path], label="value")
    _exits_1(tmp_path, monkeypatch, verb, _set(base, path, value))


# --- shipped example configs ----------------------------------------------


def _repo_config(name):
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "configs" / name
    if not path.exists():
        pytest.skip(f"{name} not present in this checkout")
    return str(path)


def test_shipped_check_config(capsys):
    code, report, _ = _run(capsys, ["check", "--config", _repo_config("check_fast_growth.json")])
    assert code == EXIT_OK
    assert report["theorem_applied"] == "thm1_case2"


def test_shipped_solve_config(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRADBOUND_OUTPUT_DIR", str(tmp_path / "out"))
    code, report, _ = _run(capsys, ["solve", "--config", _repo_config("solve_heat.json")])
    assert code == EXIT_OK
    assert report["status"]["kind"] == "completed"


def test_shipped_counterexample_config(capsys):
    code, report, _ = _run(capsys, ["counterexample", "--config", _repo_config("counterexample.json")])
    assert code == EXIT_OK
    assert report["ok"] is True


def test_shipped_campaign_config_parses():
    # the full six-run campaign runs in the acceptance suite; here only
    # the file's shape is pinned
    cfg = json.loads(open(_repo_config("verify_campaign.json")).read())
    assert set(cfg) >= {"problem", "grid", "campaign", "cylinder", "t_end"}
    assert cfg["campaign"]["seeds"] and cfg["campaign"]["amplitudes"]


# --- console script --------------------------------------------------------
#
# An installer turns the [project.scripts] entry into a wrapper on PATH whose
# body is `sys.exit(<function>())`.  A source checkout installs nothing, so the
# declared entry point is run through that same body in a fresh interpreter;
# the script file on PATH is checked only where the distribution is installed.

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# the directory this process imported gradbound from: the child runs the code under test
IMPORT_ROOT = Path(gradbound.__file__).resolve().parent.parent


def _declared_console_script():
    """The `gradbound` entry under [project.scripts] in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text()).get("project", {}).get("scripts", {})
    assert "gradbound" in scripts, "pyproject.toml declares no 'gradbound' console script"
    return scripts["gradbound"]


def _installed_distribution():
    try:
        return importlib.metadata.distribution("gradbound")
    except importlib.metadata.PackageNotFoundError:
        return None


def _script_check(cmd, tmp_path, payload=None, env=None):
    """Run `<cmd> check [--config FILE]` as its own process."""
    args = [*cmd, "check"]
    if payload is not None:
        args += ["--config", _write(tmp_path, payload)]
    return subprocess.run(args, capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env=env)


def test_console_script_installed(tmp_path):
    target = _declared_console_script()
    module, _, func = target.partition(":")
    assert module and func.isidentifier(), f"not a module:function entry point: {target!r}"
    wrapper = [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]
    pythonpath = [str(IMPORT_ROOT), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}

    proc = _script_check(wrapper, tmp_path, {"p": 2.0, "w": 1.0}, env)
    assert proc.returncode == EXIT_OK, proc.stderr
    VALIDATOR.validate(json.loads(proc.stdout))

    # a nonzero code must become the process status, not only main's return value
    proc = _script_check(wrapper, tmp_path, {"p": 2.0, "w": 1.4}, env)
    assert proc.returncode == EXIT_NOT_COVERED, proc.stderr
    VALIDATOR.validate(json.loads(proc.stdout))

    proc = _script_check(wrapper, tmp_path, env=env)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines()), proc.stderr


@pytest.mark.skipif(_installed_distribution() is None,
                    reason="the 'gradbound' distribution is not installed "
                           "(importlib.metadata.PackageNotFoundError), so no console script is on PATH")
def test_console_script_on_path(tmp_path):
    entries = _installed_distribution().entry_points.select(group="console_scripts", name="gradbound")
    assert [ep.value for ep in entries] == [_declared_console_script()]
    exe = shutil.which("gradbound")
    assert exe, "console script 'gradbound' is not on PATH"
    proc = _script_check([exe], tmp_path, {"p": 2.0, "w": 1.0})
    assert proc.returncode == EXIT_OK, proc.stderr
    VALIDATOR.validate(json.loads(proc.stdout))
