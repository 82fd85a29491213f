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

Configs are JSON with nested sections; unknown keys are rejected so typos
fail loudly instead of silently using a default.  All randomness flows from
the config's seeds.  Reports print to stdout and, when an output directory
is configured (--output, config "output_dir", or the GRADBOUND_OUTPUT_DIR
environment variable overriding both), land there as report.json plus CSV
tables and, for solve, the binary snapshot record.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterator, Sequence

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


def _reject_unknown(cfg: dict, allowed: dict, where: str = "") -> None:
    """Recursively refuse keys outside the allowed tree (typo safety)."""
    for key, value in cfg.items():
        label = f"{where}{key}"
        if key not in allowed:
            raise InputError(f"unknown config key '{label}'")
        sub = allowed[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise InputError(f"config key '{label}' must be an object")
            _reject_unknown(value, sub, where=f"{label}.")


def _need(cfg: dict, key: str, where: str = "") -> object:
    if key not in cfg:
        raise InputError(f"missing required config key '{where}{key}'")
    return cfg[key]


def _flag(cfg: dict, key: str, default: bool, where: str = "") -> bool:
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise InputError(f"'{where}{key}' must be true or false, got {value!r}")
    return value


def _as_tuple(value, n: int, label: str) -> tuple:
    if isinstance(value, (int, float)):
        return (value,) * n
    if isinstance(value, list) and len(value) == n:
        return tuple(value)
    raise InputError(f"'{label}' must be a number or a list of length {n}")


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

_PROBLEM_KEYS = {"n", "N", "p", "q", "w", "p_tilde", "s0", "lam", "Lam", "c2_zero"}


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
    p = float(_need(cfg, "p", where))
    n = cfg.get("n", 3)
    N = cfg.get("N", 1)
    w = float(cfg.get("w", 0.0))
    q = float(cfg.get("q", p))
    p_tilde = float(cfg.get("p_tilde", p))
    lam = cfg.get("lam")
    Lam = cfg.get("Lam")
    c2_zero = _flag(cfg, "c2_zero", True, where)
    derived = "s0" not in cfg

    def params_with(s0: float) -> ProblemParams:
        try:
            return ProblemParams(n=n, N=N, p=p, q=q, w=w, p_tilde=p_tilde,
                                 s0=s0, lam=lam, Lam=Lam, c2_zero=c2_zero)
        except ValueError as exc:
            raise InputError(str(exc)) from exc

    if derived:
        if n == 3 and q == p:
            try:
                report = classify_thm1(p, w, p_tilde)
            except ValueError as exc:
                raise InputError(str(exc)) from exc
            if not report.covered:
                return report, None
            return report, params_with(report.s0_effective)
        # derived s0 outside the classifier's scope: hand p_tilde - M to the
        # general checks and let their named conditions decide
        probe = params_with(0.0)
        probe_report = check_thm3(probe) if q == p else check_thm2(probe)
        params = params_with(p_tilde - probe_report.M)
    else:
        params = params_with(float(cfg["s0"]))

    report = check_thm3(params) if q == p else check_thm2(params)
    return report, params


def _ladder_or_none(report: RegimeReport, params: ProblemParams | None, steps: int):
    if not report.covered or params is None:
        return None
    if not kappa(report.s0_effective, params.p, report.M, params.n) > 0.0:
        return None  # e.g. case-1 tuples whose recursion denominator closes at <= 0
    return build_ladder(report.s0_effective, params.p, report.M, params.n, steps)


# --- check ------------------------------------------------------------------------

_CHECK_KEYS = {k: None for k in _PROBLEM_KEYS} | {"ladder_steps": None}


def cmd_check(cfg: dict, outdir: Path | None) -> int:
    _reject_unknown(cfg, _CHECK_KEYS)
    steps = cfg.get("ladder_steps", 8)
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise InputError(f"'ladder_steps' must be a positive integer, got {steps}")
    report, params = _classify_config(cfg)
    ladder = _ladder_or_none(report, params, steps)
    out = report.to_dict()
    out["ladder"] = ladder.to_dict() if ladder is not None else None
    _emit(out, outdir)
    return EXIT_OK if report.covered else EXIT_NOT_COVERED


# --- solve ------------------------------------------------------------------------

_SOLVE_KEYS = {
    "grid": {"n": None, "extent": None, "cells": None, "boundary": None},
    "flux": {"kind": None, "p": None, "q": None, "eps": None},
    "rhs": {"kind": None, "w": None, "c1": None, "c2": None, "direction": None},
    "initial": {"kind": None, "seed": None, "amplitude": None, "modes": None},
    "N": None,
    "t_end": None,
    "cfl": None,
    "dt_max": None,
    "snapshot_count": None,
    "blowup_threshold": None,
    "output_dir": None,
}


def _grid_from(cfg: dict, n: int | None = None, where: str = "grid.") -> Grid:
    if n is None:
        n = _need(cfg, "n", where)
    if not isinstance(n, int):
        raise InputError(f"'{where}n' must be an integer")
    extent = _as_tuple(_need(cfg, "extent", where), n, where + "extent")
    cells = _as_tuple(_need(cfg, "cells", where), n, where + "cells")
    kind = cfg.get("boundary", "periodic")
    try:
        return Grid(n, extent, cells, Boundary(kind))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _flux_from(cfg: dict, p: float | None = None, q: float | None = None) -> FluxSpec:
    if p is None:
        p = _need(cfg, "p", "flux.")
    kind = cfg.get("kind", "pure_p_laplace")
    try:
        fk = FluxKind(kind)
    except ValueError as exc:
        raise InputError(f"unknown flux kind '{kind}'") from exc
    fq = cfg.get("q", q)
    if fq is not None and fq == p and fk is not FluxKind.DOUBLE_POWER:
        fq = None
    try:
        return FluxSpec(fk, float(p), q=fq, eps=float(cfg.get("eps", 0.0)))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _rhs_from(cfg: dict, w: float | None = None) -> RhsSpec:
    kind = cfg.get("kind", "zero")
    try:
        rk = RhsKind(kind)
    except ValueError as exc:
        raise InputError(f"unknown rhs kind '{kind}'") from exc
    if rk is RhsKind.MANUFACTURED:
        raise InputError("manufactured sources are built programmatically, not from configs")
    if w is None:
        w = float(cfg.get("w", 0.0))
    direction = cfg.get("direction")
    try:
        return RhsSpec(rk, w=w, c1=float(cfg.get("c1", 0.0)), c2=float(cfg.get("c2", 0.0)),
                       direction=tuple(direction) if direction else None)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _initial_from(cfg: dict) -> RandomSmooth:
    kind = cfg.get("kind", "random_smooth")
    if kind != "random_smooth":
        raise InputError(
            f"config initial data supports kind 'random_smooth' only, got '{kind}'"
        )
    return RandomSmooth(seed=int(cfg.get("seed", 0)),
                        amplitude=float(cfg.get("amplitude", 1.0)),
                        modes=int(cfg.get("modes", 2)))


def _status_code(kind: StatusKind) -> int:
    return {StatusKind.COMPLETED: EXIT_OK,
            StatusKind.BLOWUP: EXIT_BLOWUP,
            StatusKind.DIVERGED: EXIT_DIVERGED}[kind]


def cmd_solve(cfg: dict, outdir: Path | None) -> int:
    _reject_unknown(cfg, _SOLVE_KEYS)
    grid = _grid_from(dict(_need(cfg, "grid")))
    flux = _flux_from(dict(_need(cfg, "flux")))
    rhs = _rhs_from(dict(cfg.get("rhs", {})))
    initial = _initial_from(dict(cfg.get("initial", {})))
    try:
        config = SolveConfig(grid=grid, flux=flux, rhs=rhs, initial=initial,
                             N=int(cfg.get("N", 1)),
                             t_end=float(_need(cfg, "t_end")),
                             cfl=float(cfg.get("cfl", 0.4)),
                             dt_max=float(cfg.get("dt_max", 1e-2)),
                             snapshot_count=int(cfg.get("snapshot_count", 64)),
                             blowup_threshold=float(cfg.get("blowup_threshold", 1e8)))
    except ValueError as exc:
        raise InputError(str(exc)) from exc

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
    "problem": {k: None for k in _PROBLEM_KEYS},
    "grid": {"extent": None, "cells": None, "boundary": None},
    "flux": {"kind": None, "eps": None},
    "rhs": {"kind": None, "c1": None, "c2": None, "direction": None},
    "campaign": {"seeds": None, "amplitudes": None, "modes": None},
    "cylinder": {"R0": None, "center": None, "t0": None, "time_exponent": None},
    "t_end": None,
    "cfl": None,
    "dt_max": None,
    "snapshot_count": None,
    "blowup_threshold": None,
    "energy_s": None,
    "levels": None,
    "max_spread": None,
    "output_dir": None,
}


def cmd_verify(cfg: dict, outdir: Path | None) -> int:
    _reject_unknown(cfg, _VERIFY_KEYS)
    problem_cfg = dict(_need(cfg, "problem"))
    rhs_cfg = dict(cfg.get("rhs", {}))
    c2 = float(rhs_cfg.get("c2", 0.0))
    if "c2_zero" not in problem_cfg:
        problem_cfg["c2_zero"] = c2 == 0.0
    elif _flag(problem_cfg, "c2_zero", True, "problem.") and c2 != 0.0:
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

    seeds = _need(dict(_need(cfg, "campaign")), "seeds", "campaign.")
    amplitudes = _need(dict(cfg["campaign"]), "amplitudes", "campaign.")
    modes = int(cfg["campaign"].get("modes", 2))
    if not isinstance(seeds, list) or not isinstance(amplitudes, list):
        raise InputError("'campaign.seeds' and 'campaign.amplitudes' must be lists")
    if not seeds or not amplitudes:
        raise InputError("empty campaign: need at least one seed and one amplitude")

    grid = _grid_from(dict(_need(cfg, "grid")), n=params.n)
    default_kind = "double_power" if params.q != params.p else "pure_p_laplace"
    flux_cfg = dict(cfg.get("flux", {}))
    flux_cfg.setdefault("kind", default_kind)
    flux = _flux_from(flux_cfg, p=params.p, q=params.q if params.q != params.p else None)
    rhs = _rhs_from(rhs_cfg, w=params.w)

    cyl_cfg = dict(_need(cfg, "cylinder"))
    R0 = float(_need(cyl_cfg, "R0", "cylinder."))
    t_end = float(_need(cfg, "t_end"))
    t0 = float(cyl_cfg.get("t0", t_end))
    e_raw = cyl_cfg.get("time_exponent", 2.0)
    time_exponent = params.p if e_raw == "p" else float(e_raw)
    center = cyl_cfg.get("center")
    if center is not None:
        center = tuple(float(c) for c in center)
    if t0 - R0**time_exponent < -1e-12:
        raise InputError(
            f"cylinder reaches below t = 0: t0 - R0^e = {t0 - R0 ** time_exponent}"
        )
    if t0 > t_end:
        raise InputError(f"cylinder top t0 = {t0} is past t_end = {t_end}")

    levels = cfg.get("levels")
    if levels is not None and (not isinstance(levels, int) or levels < 2):
        raise InputError(f"'levels' must be an integer >= 2, got {levels}")
    max_spread = float(cfg.get("max_spread", 10.0))
    energy_s = cfg.get("energy_s")
    if energy_s is None:
        try:
            _require_s_admissible(params.s0, params)
        except ValueError:
            energy_s = []
        else:
            energy_s = [params.s0]
    elif not isinstance(energy_s, list):
        raise InputError("'energy_s' must be a list of exponents")

    def make_config(seed: int, amplitude: float) -> SolveConfig:
        try:
            return SolveConfig(
                grid=grid, flux=flux, rhs=rhs,
                initial=RandomSmooth(int(seed), float(amplitude), modes),
                N=params.N, t_end=t_end,
                cfl=float(cfg.get("cfl", 0.4)),
                dt_max=float(cfg.get("dt_max", 1e-2)),
                snapshot_count=int(cfg.get("snapshot_count", 64)),
                blowup_threshold=float(cfg.get("blowup_threshold", 1e8)),
            )
        except ValueError as exc:
            raise InputError(str(exc)) from exc

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
                    er = energy_inequality_check(record, float(s), R0 / 2.0, R0,
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

_COUNTER_KEYS = {"n": None, "cells": None, "extent": None, "annulus": None,
                 "output_dir": None}


def cmd_counterexample(cfg: dict, outdir: Path | None) -> int:
    _reject_unknown(cfg, _COUNTER_KEYS)
    n = cfg.get("n", 3)
    if not isinstance(n, int):
        raise InputError("'n' must be an integer")
    cells = _as_tuple(cfg.get("cells", 48), n, "cells")
    extent = _as_tuple(cfg.get("extent", 4.0), n, "extent")
    annulus = cfg.get("annulus", [0.5, 1.5])
    if not (isinstance(annulus, list) and len(annulus) == 2):
        raise InputError("'annulus' must be [r_min, r_max]")
    try:
        grid = Grid(n, extent, cells, Boundary.DIRICHLET)
        rep = struwe_residual(grid, (float(annulus[0]), float(annulus[1])))
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
        cfg = _load_config(args.config)
        outdir = _resolve_outdir(args.output, cfg)
        if args.command == "check":
            return cmd_check(cfg, outdir)
        if args.command == "solve":
            return cmd_solve(cfg, outdir)
        if args.command == "verify":
            return cmd_verify(cfg, outdir)
        return cmd_counterexample(cfg, outdir)
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
