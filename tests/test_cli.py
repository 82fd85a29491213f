"""End-to-end CLI behavior: exit codes, report shapes, artifact layout.

Every JSON report printed by a verb must validate against the shipped
schema; the exit codes are asserted as a contract, not observed.
"""

import contextlib
import copy
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gradbound
import gradbound.cli
from gradbound import build_ladder, load_run
from gradbound.cli import (
    EXIT_BLOWUP,
    EXIT_DIVERGED,
    EXIT_INPUT,
    EXIT_NOT_COVERED,
    EXIT_OK,
    main,
)

SCHEMA = json.loads(files("gradbound").joinpath("schemas/reports.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
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
    cfg = _write(tmp_path, {"p": 2.0, "w": 1.0, "s0": 0.5})
    code, report, _ = _run(capsys, ["check", "--config", cfg])
    assert code == EXIT_OK
    assert report["theorem_applied"] == "thm3"
    assert report["kappa"] == pytest.approx(2.5)


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
])
def test_verify_campaign_input_errors(tmp_path, capsys, mutate, needle):
    cfg_obj = _campaign_cfg()
    mutate(cfg_obj)
    cfg = _write(tmp_path, cfg_obj)
    code, report, err = _run(capsys, ["verify", "--config", cfg])
    assert code == EXIT_INPUT
    assert needle in err
    assert report is None  # refused before the first run: no report, no runs row


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
    raise AssertionError("a config with a wrong type reached the solver")


def _refused(tmp_path, monkeypatch, verb, cfg_obj, path, value):
    """Run verb on cfg_obj in-process and check the refusal contract."""
    monkeypatch.delenv("GRADBOUND_OUTPUT_DIR", raising=False)
    monkeypatch.setattr(gradbound.cli, "run", _no_solve)
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
    assert f"'{path}'" in err and json.dumps(value) in err, err
    assert not out_dir.exists()


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
])
def test_config_type_probes(tmp_path, monkeypatch, verb, path, value):
    _refused(tmp_path, monkeypatch, verb, _set(_PROBE_BASES[verb](), path, value), path, value)


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
