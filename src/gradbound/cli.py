"""Command-line entry point: config files in, machine-readable reports out.

Four verbs share one shape: `gradbound <verb> --config FILE [--output DIR]`.

check           classify a parameter tuple and print the exponent report
solve           march one configured problem and persist the run record
verify          run a campaign and test the gradient bound's stability
                (`verify oracles` runs the built-in oracle self-checks instead)
counterexample  residual convergence study for the unit radial map x/|x|

Exit codes are a stable contract:
    0 ok, 1 input error, 2 not covered by the verified regimes,
    3 blowup detected, 4 divergence, 5 verification failure.

Configs are JSON with nested sections.  Each verb's key table gives every key
its JSON type; unknown keys and values of the wrong type are refused before
anything runs, so typos fail loudly instead of silently using a default.
All randomness flows from the config's seeds.  Reports print to stdout and,
when an output directory is configured (--output, config "output_dir", or
the GRADBOUND_OUTPUT_DIR environment variable overriding both), land there
as report.json plus CSV tables and, for solve, the binary snapshot record.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .energy import (
    _energy_s_floor,
    _require_s_admissible,
    energy_inequality_check,
    holder_sandwich_check,
    moser_chain_check,
    verify_bound,
)
from .flux import FluxKind, FluxSpec, RhsKind, RhsSpec
from .mesh import Boundary, Grid, grad_magnitude, gradient, node_coords
from .regimes import (
    ProblemParams,
    RegimeReport,
    Theorem,
    build_ladder,
    check_thm2,
    check_thm3,
    classify_thm1,
    kappa,
)
from .solver import RandomSmooth, RunRecord, SolveConfig, StatusKind, run, save_run
from .verify import (
    SeparableTarget,
    ladder_oracle,
    manufactured_problem,
    struwe_field,
    struwe_residual,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_COVERED = 2
EXIT_BLOWUP = 3
EXIT_DIVERGED = 4
EXIT_VERIFY_FAILED = 5

ORDER_WINDOW = (1.5, 2.5)


class InputError(Exception):
    """Malformed configuration; maps to exit code 1."""


class _StatusExit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- config plumbing ------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must be a JSON object")
    return cfg


class _Leaf:
    """The JSON type one config key takes, and how the verbs read its value."""

    def __init__(self, expected: str, accepts: Callable[[object], bool],
                 read: Callable[[object], object] = lambda v: v, plural: str = "",
                 refusal: str = "'{label}' must be {expected}, got {value}"):
        self.expected, self.accepts, self.read = expected, accepts, read
        self.plural, self.refusal = plural, refusal

    def check(self, value, label: str, root: dict):
        if not self.accepts(value):
            raise InputError(self.refusal.format(label=label, expected=self.expected,
                                                 value=json.dumps(value)))
        return self.read(value)


class _Vector:
    """A list of `item` values, read as a tuple; per_axis also takes one bare item.

    length is an int, None for any length, or (key, ..., default): the path
    to the dimension key of the same config that the length must equal.
    """

    def __init__(self, item: _Leaf, length=None, per_axis: bool = False):
        self.item, self.length, self.per_axis = item, length, per_axis

    def _size(self, root: dict) -> int | None:
        if not isinstance(self.length, tuple):
            return self.length
        *path, default = self.length
        n = root
        for key in path:
            n = n.get(key, default) if isinstance(n, dict) else default
        return n if _INTEGER.accepts(n) else None  # a bad dimension is refused on its own key

    def check(self, value, label: str, root: dict):
        if self.per_axis and self.item.accepts(value):
            return self.item.read(value)
        n = self._size(root)
        if (isinstance(value, list) and n in (None, len(value))
                and all(self.item.accepts(v) for v in value)):
            return tuple(self.item.read(v) for v in value)
        one = f"{self.item.expected} or " if self.per_axis else ""
        size = "" if n is None else f"{n} "
        raise InputError(f"'{label}' must be {one}a list of {size}{self.item.plural}, "
                         f"got {json.dumps(value)}")


def _one_of(noun: str, kinds: type) -> _Leaf:
    """One of the values of an Enum, read as its member."""
    names = [kind.value for kind in kinds]
    return _Leaf("one of " + ", ".join(map(json.dumps, names)), lambda v: v in names, kinds,
                 refusal=f"unknown {noun} {{value}} at '{{label}}': expected {{expected}}")


_NUMBER = _Leaf("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
                float, plural="numbers")
_INTEGER = _Leaf("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool),
                 plural="integers")
_BOOLEAN = _Leaf("true or false", lambda v: isinstance(v, bool))
_STRING = _Leaf("a string", lambda v: isinstance(v, str))

# Config defaults of the dimension keys: n space dimensions, N components.
_DIM, _COMPONENTS = 3, 1


def _validate(cfg: dict, table: dict, root: dict | None = None, where: str = "") -> dict:
    """Check every key of cfg against the verb's key table before anything runs.

    Returns a copy holding each value as the verbs read it: numbers as
    floats, lists as tuples, kinds as their enum members.
    """
    root = cfg if root is None else root
    out = {}
    for key, value in cfg.items():
        label = f"{where}{key}"
        if key not in table:
            raise InputError(f"unknown config key '{label}'")
        sub = table[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise InputError(f"'{label}' must be an object, got {json.dumps(value)}")
            out[key] = _validate(value, sub, root, where=f"{label}.")
        else:
            out[key] = sub.check(value, label, root)
    return out


def _need(cfg: dict, key: str, where: str = "") -> object:
    if key not in cfg:
        raise InputError(f"missing required config key '{where}{key}'")
    return cfg[key]


def _build(cls, cfg: dict, **fields):
    """cls from the given fields plus each of its fields that cfg sets.

    Keys cfg leaves out are not passed, so their defaults live on cls alone.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    try:
        return cls(**({k: v for k, v in cfg.items() if k in names} | fields))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _resolve_outdir(cli_output: str | None, cfg: dict) -> Path | None:
    env = os.environ.get("GRADBOUND_OUTPUT_DIR")
    if env:
        return Path(env)
    if cli_output:
        return Path(cli_output)
    out = cfg.get("output_dir")
    return Path(out) if out else None


def _jsonable(obj):
    """Strict-JSON clean copy: non-finite numbers become null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _emit(report: dict, outdir: Path | None) -> None:
    payload = json.dumps(_jsonable(report), indent=2)
    print(payload)
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(payload + "\n")


# --- regime classification shared by check and verify ----------------------------

_PROBLEM_KEYS = {
    "n": _INTEGER, "N": _INTEGER, "p": _NUMBER, "q": _NUMBER, "w": _NUMBER,
    "p_tilde": _NUMBER, "s0": _NUMBER, "lam": _NUMBER, "Lam": _NUMBER, "c2_zero": _BOOLEAN,
}


def _classify_config(cfg: dict, where: str = "") -> tuple[RegimeReport, ProblemParams | None]:
    """Classification cascade shared by the check and verify verbs.

    Without "s0" the tuple runs in derived mode: the three-case classifier
    decides (n = 3, q = p), and its s0_effective = p_tilde - M seeds the
    params; with n != 3 or q != p the derived s0 goes straight to the
    general checks.  With "s0" the explicit checks decide alone; the
    classifier examples (e.g. w just past the case-2 endpoint) must not be
    resurrected by an implicit fallback.  params is None only for tuples
    the classifier rejects outside the structural model (w > p).
    """
    p = _need(cfg, "p", where)
    n, N = cfg.get("n", _DIM), cfg.get("N", _COMPONENTS)
    q = cfg.get("q", p)

    params_with = functools.partial(_build, ProblemParams, cfg, n=n, N=N)
    if "s0" in cfg:
        params = params_with(s0=cfg["s0"])
    elif n == 3 and q == p:
        try:
            report = classify_thm1(p, cfg.get("w", 0.0), cfg.get("p_tilde", p))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if not report.covered:
            return report, None
        return report, params_with(s0=report.s0_effective)
    else:
        # derived s0 outside the classifier's scope: hand p_tilde - M to the
        # general checks and let their named conditions decide
        probe = params_with(s0=0.0)
        probe_report = check_thm3(probe) if q == p else check_thm2(probe)
        params = params_with(s0=probe.p_tilde - probe_report.M)

    report = check_thm3(params) if q == p else check_thm2(params)
    return report, params


def _ladder_or_none(report: RegimeReport, params: ProblemParams | None, steps: int):
    if not report.covered or params is None:
        return None
    if not kappa(report.s0_effective, params.p, report.M, params.n) > 0.0:
        return None  # e.g. case-1 tuples whose recursion denominator closes at <= 0
    return build_ladder(report.s0_effective, params.p, report.M, params.n, steps)


# --- check ------------------------------------------------------------------------

_CHECK_KEYS = _PROBLEM_KEYS | {"ladder_steps": _INTEGER, "output_dir": _STRING}


def cmd_check(cfg: dict, outdir: Path | None) -> int:
    steps = cfg.get("ladder_steps", 8)
    if steps < 1:
        raise InputError(f"'ladder_steps' must be a positive integer, got {steps}")
    report, params = _classify_config(cfg)
    ladder = _ladder_or_none(report, params, steps)
    out = report.to_dict()
    out["ladder"] = ladder.to_dict() if ladder is not None else None
    _emit(out, outdir)
    return EXIT_OK if report.covered else EXIT_NOT_COVERED


# --- solve ------------------------------------------------------------------------


def _grid_keys(n: tuple) -> dict:
    return {"extent": _Vector(_NUMBER, n, per_axis=True),
            "cells": _Vector(_INTEGER, n, per_axis=True),
            "boundary": _one_of("boundary", Boundary)}


_FLUX_KIND = _one_of("flux kind", FluxKind)
_RHS_KIND = _one_of("rhs kind", RhsKind)

# SolveConfig keys that solve and verify both take at the top level
_RUN_KEYS = {"t_end": _NUMBER, "cfl": _NUMBER, "dt_max": _NUMBER,
             "snapshot_count": _INTEGER, "blowup_threshold": _NUMBER, "output_dir": _STRING}

_SOLVE_KEYS = {
    "grid": {"n": _INTEGER} | _grid_keys(("grid", "n", None)),
    "flux": {"kind": _FLUX_KIND, "p": _NUMBER, "q": _NUMBER, "eps": _NUMBER},
    "rhs": {"kind": _RHS_KIND, "w": _NUMBER, "c1": _NUMBER, "c2": _NUMBER,
            "direction": _Vector(_NUMBER, ("N", _COMPONENTS))},
    "initial": {"kind": _Leaf('"random_smooth"', lambda v: v == "random_smooth"),
                "seed": _INTEGER, "amplitude": _NUMBER, "modes": _INTEGER},
    "N": _INTEGER,
} | _RUN_KEYS


def _grid_from(cfg: dict) -> Grid:
    for key in ("n", "extent", "cells"):
        _need(cfg, key, "grid.")
    return _build(Grid, cfg)


def _flux_from(cfg: dict) -> FluxSpec:
    """A q equal to p is dropped unless the family has two powers."""
    kind = cfg.get("kind", FluxKind.PURE_P_LAPLACE)
    if cfg.get("q") == _need(cfg, "p", "flux.") and kind is not FluxKind.DOUBLE_POWER:
        cfg = {k: v for k, v in cfg.items() if k != "q"}
    return _build(FluxSpec, cfg, kind=kind)


def _rhs_from(cfg: dict) -> RhsSpec:
    kind = cfg.get("kind", RhsKind.ZERO)
    if kind is RhsKind.MANUFACTURED:
        raise InputError("manufactured sources are built programmatically, not from configs")
    return _build(RhsSpec, cfg, kind=kind)


def _status_code(kind: StatusKind) -> int:
    return {StatusKind.COMPLETED: EXIT_OK,
            StatusKind.BLOWUP: EXIT_BLOWUP,
            StatusKind.DIVERGED: EXIT_DIVERGED}[kind]


def cmd_solve(cfg: dict, outdir: Path | None) -> int:
    config = _build(SolveConfig, cfg,
                    grid=_grid_from(_need(cfg, "grid")),
                    flux=_flux_from(_need(cfg, "flux")),
                    rhs=_rhs_from(cfg.get("rhs", {})),
                    initial=_build(RandomSmooth, {"seed": 0} | cfg.get("initial", {})),
                    N=cfg.get("N", _COMPONENTS), t_end=_need(cfg, "t_end"))
    record = run(config)
    saved = None
    if outdir is not None:
        save_run(record, outdir / "run")
        saved = str(outdir / "run")
    _emit({
        "status": record.status.to_dict(),
        "steps": int(record.dt_history.size),
        "snapshots_stored": len(record.snapshots),
        "final_time": float(record.snapshots[-1].time),
        "record": saved,
    }, outdir)
    return _status_code(record.status.kind)


# --- verify -----------------------------------------------------------------------

_VERIFY_KEYS = {
    "problem": _PROBLEM_KEYS,
    "grid": _grid_keys(("problem", "n", _DIM)),
    "flux": {"kind": _FLUX_KIND, "eps": _NUMBER},
    "rhs": {"kind": _RHS_KIND, "c1": _NUMBER, "c2": _NUMBER,
            "direction": _Vector(_NUMBER, ("problem", "N", _COMPONENTS))},
    "campaign": {"seeds": _Vector(_INTEGER), "amplitudes": _Vector(_NUMBER),
                 "modes": _INTEGER},
    "cylinder": {"R0": _NUMBER, "center": _Vector(_NUMBER, ("problem", "n", _DIM)),
                 "t0": _NUMBER,
                 "time_exponent": _Leaf('a number or "p"', lambda v: v == "p" or _NUMBER.accepts(v),
                                        lambda v: v if v == "p" else float(v))},
    "energy_s": _Vector(_NUMBER),
    "levels": _INTEGER,
    "max_spread": _NUMBER,
} | _RUN_KEYS


def cmd_verify(cfg: dict, outdir: Path | None) -> int:
    problem_cfg = _need(cfg, "problem")
    c2_nonzero = bool(cfg.get("rhs", {}).get("c2"))
    if "c2_zero" not in problem_cfg:
        problem_cfg = problem_cfg | {"c2_zero": not c2_nonzero}
    elif problem_cfg["c2_zero"] and c2_nonzero:
        raise InputError("problem.c2_zero is true but rhs.c2 is nonzero")

    report, params = _classify_config(problem_cfg, where="problem.")
    budget = params.s0 + report.M if report.covered and params is not None else None
    violations = list(report.violated_conditions)
    if report.covered and budget > params.p_tilde:
        violations.append("integrability_budget")

    regime_out = report.to_dict()
    regime_out["violated_conditions"] = violations
    header = {
        "regime": regime_out,
        "budget": None if budget is None else {
            "s0_plus_M": budget, "p_tilde": params.p_tilde,
            "within": budget <= params.p_tilde,
        },
    }
    if violations or not report.covered:
        _emit(header | {"passed": False, "reason": "parameters not covered"}, outdir)
        return EXIT_NOT_COVERED

    campaign_cfg = _need(cfg, "campaign")
    seeds = _need(campaign_cfg, "seeds", "campaign.")
    amplitudes = _need(campaign_cfg, "amplitudes", "campaign.")
    if not seeds or not amplitudes:
        raise InputError("empty campaign: need at least one seed and one amplitude")

    grid = _grid_from(_need(cfg, "grid") | {"n": params.n})
    two_powers = {"kind": FluxKind.DOUBLE_POWER, "q": params.q} if params.q != params.p else {}
    flux = _flux_from({"p": params.p} | two_powers | cfg.get("flux", {}))
    rhs = _rhs_from(cfg.get("rhs", {}) | {"w": params.w})

    cyl_cfg = _need(cfg, "cylinder")
    R0 = _need(cyl_cfg, "R0", "cylinder.")
    t_end = _need(cfg, "t_end")
    t0 = cyl_cfg.get("t0", t_end)
    time_exponent = cyl_cfg.get("time_exponent", 2.0)
    if time_exponent == "p":
        time_exponent = params.p
    center = cyl_cfg.get("center")
    if t0 - R0**time_exponent < -1e-12:
        raise InputError(
            f"cylinder reaches below t = 0: t0 - R0^e = {t0 - R0 ** time_exponent}"
        )
    if t0 > t_end:
        raise InputError(f"cylinder top t0 = {t0} is past t_end = {t_end}")

    levels = cfg.get("levels")
    if levels is not None and levels < 2:
        raise InputError(f"'levels' must be an integer >= 2, got {levels}")
    max_spread = cfg.get("max_spread", 10.0)
    energy_s = cfg.get("energy_s")
    if energy_s is None:
        try:
            _require_s_admissible(params.s0, params)
        except ValueError:
            energy_s = []
        else:
            energy_s = [params.s0]

    def make_config(seed: int, amplitude: float) -> SolveConfig:
        initial = _build(RandomSmooth, campaign_cfg, seed=seed, amplitude=amplitude)
        return _build(SolveConfig, cfg, grid=grid, flux=flux, rhs=rhs, initial=initial,
                      N=params.N, t_end=t_end)

    run_rows: list[dict] = []
    sandwich_rows: list[dict] = []
    energy_rows: list[dict] = []
    chain_out: dict | None = None
    chain_requested = levels is not None

    def campaign() -> Iterator[RunRecord]:
        nonlocal chain_out
        for seed in seeds:
            for amplitude in amplitudes:
                record = run(make_config(seed, amplitude))
                kind = record.status.kind
                run_rows.append({"seed": seed, "amplitude": amplitude,
                                 "status": kind.value,
                                 "steps": int(record.dt_history.size)})
                if kind is not StatusKind.COMPLETED:
                    raise _StatusExit(
                        _status_code(kind),
                        f"run (seed={seed}, amplitude={amplitude}) ended in "
                        f"{kind.value} at t = {record.status.time}",
                    )
                sw = holder_sandwich_check(record, params.s0, R0 / 2.0, R0,
                                           params.p, center=center, t0=t0,
                                           time_exponent=time_exponent)
                sandwich_rows.append({"seed": seed, "amplitude": amplitude}
                                     | sw.to_dict())
                for s in energy_s:
                    er = energy_inequality_check(record, s, R0 / 2.0, R0,
                                                 params, center=center, t0=t0,
                                                 time_exponent=time_exponent)
                    energy_rows.append({"seed": seed, "amplitude": amplitude}
                                       | er.to_dict())
                if chain_requested and chain_out is None:
                    chain_out = moser_chain_check(record, params, R0, levels,
                                                  center=center, t0=t0,
                                                  time_exponent=time_exponent).to_dict()
                yield record

    bound = verify_bound(campaign(), params, R0, center=center, t0=t0,
                         time_exponent=time_exponent)

    ratios = [lhs / (rhs_base + 1.0) for lhs, rhs_base in bound.per_run]
    r_max, r_min = max(ratios), min(ratios)
    spread = 1.0 if r_max == 0.0 else (math.inf if r_min == 0.0 else r_max / r_min)

    checks = {
        "spread_ok": spread <= max_spread,
        "sandwich_ok": all(row["satisfied"] for row in sandwich_rows),
        "energy_ok": all(row["satisfied"] for row in energy_rows),
    }
    if chain_requested:
        checks["chain_ok"] = bool(chain_out and chain_out["satisfied"])
    passed = all(checks.values())

    _emit(header | {
        "runs": run_rows,
        "bound": bound.to_dict(),
        "spread": {"value": spread, "max_allowed": max_spread},
        "sandwich": sandwich_rows,
        "energy": energy_rows,
        "energy_skipped": None if energy_s else
            f"s0 = {params.s0} is outside the energy s-range "
            f"(needs s > {_energy_s_floor(params)})",
        "chain": chain_out,
        "checks": checks,
        "passed": passed,
    }, outdir)

    if outdir is not None:
        with (outdir / "per_run.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "amplitude", "lhs", "rhs_base", "ratio"])
            for row, (lhs, rhs_base), ratio in zip(run_rows, bound.per_run, ratios):
                writer.writerow([row["seed"], row["amplitude"], repr(lhs),
                                 repr(rhs_base), repr(ratio)])
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# --- oracle self-checks (verify oracles) -------------------------------------------


def _oracle_suite() -> list[dict]:
    results = []

    ladder = build_ladder(0.0, 2.0, 2.0, 3, 3)
    oracle = ladder_oracle(0.0, 2.0, 2.0, 3, 3)
    err = max(abs(a - b) for a, b in zip(ladder.s, oracle))
    results.append({"name": "ladder_recursion_vs_rational_oracle",
                    "ok": err <= 1e-12, "detail": f"max abs deviation {err:.3e}"})

    grid = Grid(3, (4.0, 4.0, 4.0), (32, 32, 32), Boundary.DIRICHLET)
    rep = struwe_residual(grid, (0.7, 1.4))
    fld = struwe_field(grid)
    x = node_coords(grid)
    r = np.sqrt(np.sum((x - np.asarray(grid.center())) ** 2, axis=-1))
    mask = (r >= 0.9) & (r <= 1.1)
    mag = grad_magnitude(gradient(fld))
    dev = float(np.abs(mag[mask] * r[mask] / math.sqrt(2.0) - 1.0).max())
    results.append({"name": "radial_map_gradient_magnitude",
                    "ok": dev <= 0.05,
                    "detail": f"max relative deviation from sqrt(2)/|x|: {dev:.3e}"})
    results.append({"name": "radial_map_residual_order",
                    "ok": ORDER_WINDOW[0] <= rep.order_estimate <= ORDER_WINDOW[1],
                    "detail": f"order {rep.order_estimate:.3f} on 32^3 -> 64^3"})

    hgrid = Grid(3, (1.0, 1.0, 1.0), (16, 16, 16), Boundary.PERIODIC)
    target = SeparableTarget(
        V=lambda xx: np.sin(2.0 * math.pi * xx[..., 0])[..., None],
        T=lambda t: math.exp(-t),
        dT=lambda t: -math.exp(-t),
        div_flux_V=lambda xx: (-4.0 * math.pi**2
                               * np.sin(2.0 * math.pi * xx[..., 0]))[..., None],
        name="single_mode",
    )
    rhs, _ = manufactured_problem(target, FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0), hgrid)
    xs = node_coords(hgrid)
    got = rhs.source(xs, 0.25)
    want = (4.0 * math.pi**2 - 1.0) * math.exp(-0.25) \
        * np.sin(2.0 * math.pi * xs[..., 0])[..., None]
    mms_err = float(np.abs(got - want).max())
    results.append({"name": "manufactured_heat_source_formula",
                    "ok": mms_err <= 1e-12, "detail": f"max abs deviation {mms_err:.3e}"})
    return results


def cmd_oracles(outdir: Path | None) -> int:
    results = _oracle_suite()
    passed = all(r["ok"] for r in results)
    _emit({"oracles": results, "passed": passed}, outdir)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# --- counterexample ----------------------------------------------------------------

_COUNTER_KEYS = {"n": _INTEGER,
                 "cells": _Vector(_INTEGER, ("n", _DIM), per_axis=True),
                 "extent": _Vector(_NUMBER, ("n", _DIM), per_axis=True),
                 "annulus": _Vector(_NUMBER, 2),
                 "output_dir": _STRING}


def cmd_counterexample(cfg: dict, outdir: Path | None) -> int:
    try:
        grid = Grid(cfg.get("n", _DIM), cfg.get("extent", 4.0), cfg.get("cells", 48),
                    Boundary.DIRICHLET)
        rep = struwe_residual(grid, cfg.get("annulus", (0.5, 1.5)))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    ok = ORDER_WINDOW[0] <= rep.order_estimate <= ORDER_WINDOW[1]
    _emit(rep.to_dict() | {"order_window": list(ORDER_WINDOW), "ok": ok}, outdir)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# --- entry point --------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradbound",
        description="Numerical laboratory for sup-gradient bounds of "
                    "quasilinear parabolic systems with fast-growing lower order terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp_check = sub.add_parser("check", help="classify parameters against the covered regimes")
    sp_solve = sub.add_parser("solve", help="run one configured problem")
    sp_verify = sub.add_parser("verify", help="campaign bound verification (or 'verify oracles')")
    sp_counter = sub.add_parser("counterexample",
                                help="residual study of the unbounded-gradient radial map")
    sp_verify.add_argument("mode", nargs="?", choices=["campaign", "oracles"],
                           default="campaign")
    for sp in (sp_check, sp_solve, sp_verify, sp_counter):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--output", help="directory for reports and artifacts")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify" and getattr(args, "mode", None) == "oracles":
            return cmd_oracles(_resolve_outdir(args.output, {}))
        if args.config is None:
            raise InputError(f"'{args.command}' needs --config FILE")
        table, verb = {"check": (_CHECK_KEYS, cmd_check),
                       "solve": (_SOLVE_KEYS, cmd_solve),
                       "verify": (_VERIFY_KEYS, cmd_verify),
                       "counterexample": (_COUNTER_KEYS, cmd_counterexample)}[args.command]
        cfg = _validate(_load_config(args.config), table)
        return verb(cfg, _resolve_outdir(args.output, cfg))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _StatusExit as exc:
        print(f"stopped: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
