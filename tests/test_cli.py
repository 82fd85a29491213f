"""End-to-end CLI behavior: exit codes, report shapes, artifact layout.

Every JSON report printed by a verb must validate against the shipped
schema; the exit codes are asserted as a contract, not observed.
"""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

import gradbound
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
])
def test_verify_campaign_input_errors(tmp_path, capsys, mutate, needle):
    cfg_obj = _campaign_cfg()
    mutate(cfg_obj)
    cfg = _write(tmp_path, cfg_obj)
    code, _, err = _run(capsys, ["verify", "--config", cfg])
    assert code == EXIT_INPUT
    assert needle in err


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
