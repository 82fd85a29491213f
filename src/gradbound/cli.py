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
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import numbers
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

# numpy and the numeric modules are imported by the functions that run them,
# so `check`, which runs only the regime arithmetic, starts without them
from .regimes import (
    ProblemParams,
    RegimeReport,
    _ladder_beta,
    _regime_check,
    _s_floor,
    build_ladder,
    classify_thm1,
    compute_M_general,
)

if TYPE_CHECKING:
    from .flux import FluxSpec, RhsSpec
    from .mesh import Grid
    from .solver import StatusKind

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


def _finite(value) -> bool:
    try:  # json reads NaN, Infinity and 1e400 (as inf), and keeps 10**400 an int
        return math.isfinite(value)
    except OverflowError:
        return False


_NUMBER = _Leaf("a finite number",
                lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v),
                float, plural="finite numbers")
_INTEGER = _Leaf("a 64-bit integer",  # numpy's index range: no size, count or seed needs more
                 lambda v: isinstance(v, int) and not isinstance(v, bool)
                 and -2**63 <= v < 2**63,
                 plural="64-bit integers")
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


def _build(cls, cfg: dict, keys: dict[str, str] | None = None, **fields):
    """cls from the given fields plus each of its fields that cfg sets.

    Keys cfg leaves out are not passed, so their defaults live on cls alone.
    A refusal that quotes a field, as 'seed', quotes its config key from
    keys instead, as 'initial.seed'.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    try:
        return cls(**({k: v for k, v in cfg.items() if k in names} | fields))
    except ValueError as exc:
        message = str(exc)
        for name, key in (keys or {}).items():
            message = message.replace(f"'{name}'", f"'{key}'")
        raise InputError(message) from exc


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
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, numbers.Integral):  # numpy's integers are registered as Integral
        return int(obj)
    if isinstance(obj, numbers.Real):  # and its floats as Real
        return float(obj) if math.isfinite(obj) else None
    return obj


def _emit(report: dict, outdir: Path | None) -> None:
    payload = json.dumps(_jsonable(report), indent=2)
    print(payload)
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(payload + "\n")


# --- the regime verdict shared by check and verify --------------------------------

_PROBLEM_KEYS = {
    "n": _INTEGER, "N": _INTEGER, "p": _NUMBER, "q": _NUMBER, "w": _NUMBER,
    "p_tilde": _NUMBER, "s0": _NUMBER, "lam": _NUMBER, "Lam": _NUMBER, "c2_zero": _BOOLEAN,
}


def _regime(cfg: dict, where: str = "") -> tuple[RegimeReport, ProblemParams, list[str]]:
    """The one regime verdict of check and verify: covered only when violations is empty.

    ProblemParams holds the structural model's ranges, so a tuple outside
    them (w > p among them) is an input error in every mode.  Without "s0"
    the tuple runs in derived mode: the three-case classifier names the case
    (n = 3, q = p) and seeds s0 = p_tilde - M; with n != 3 or q != p the
    general window's M seeds it.  With "s0" the general checks decide alone,
    with no classifier fallback.  All params must pass them, the estimate's
    own admissibility, and then the budget s0 + M <= p_tilde.  The report is
    the classifier's where it names the case, else the checks'.
    """
    _need(cfg, "p", where)
    params = _build(ProblemParams, cfg, n=cfg.get("n", _DIM), N=cfg.get("N", _COMPONENTS))
    report = None
    if "s0" not in cfg:
        if params.n == 3 and params.q == params.p:
            report = classify_thm1(params.p, params.w, params.p_tilde)
            s0 = report.s0_effective
        else:
            s0 = params.p_tilde - compute_M_general(params.p, params.q, params.w)
        params = dataclasses.replace(params, s0=s0)
    checked = _regime_check(params)
    if report is None or (report.covered and not checked.covered):
        report = checked
    if not report.covered:
        return report, params, list(report.violated_conditions)
    within = params.s0 + report.M <= params.p_tilde
    return report, params, [] if within else ["integrability_budget"]


# --- check ------------------------------------------------------------------------

_CHECK_KEYS = _PROBLEM_KEYS | {"ladder_steps": _INTEGER, "output_dir": _STRING}


def cmd_check(cfg: dict, outdir: Path | None) -> int:
    steps = cfg.get("ladder_steps", 8)
    if steps < 1:
        raise InputError(f"'ladder_steps' must be a positive integer, got {steps}")
    if cfg.get("n", _DIM) >= 3:  # a depth past the doubles is an input error, covered or not
        _ladder_beta(cfg.get("n", _DIM), steps)
    report, params, violations = _regime(cfg)
    out = report.to_dict() | {"violated_conditions": violations}
    # covered: kappa(s0, p, M) >= kappa(s0, p, M_general) > 0, so the ladder closes
    out["ladder"] = None if violations else \
        build_ladder(report.s0_effective, params.p, report.M, params.n, steps).to_dict()
    _emit(out, outdir)
    return EXIT_NOT_COVERED if violations else EXIT_OK


# --- solve ------------------------------------------------------------------------


# The solve and verify key tables name the enums of mesh and flux, so each
# is built when its verb runs.

def _grid_keys(n: tuple) -> dict:
    from .mesh import Boundary

    return {"extent": _Vector(_NUMBER, n, per_axis=True),
            "cells": _Vector(_INTEGER, n, per_axis=True),
            "boundary": _one_of("boundary", Boundary)}


# SolveConfig keys that solve and verify both take at the top level
_RUN_KEYS = {"t_end": _NUMBER, "cfl": _NUMBER, "dt_max": _NUMBER,
             "snapshot_count": _INTEGER, "blowup_threshold": _NUMBER, "output_dir": _STRING}


def _solve_keys() -> dict:
    from .flux import FluxKind, RhsKind

    return {
        "grid": {"n": _INTEGER} | _grid_keys(("grid", "n", None)),
        "flux": {"kind": _one_of("flux kind", FluxKind), "p": _NUMBER, "q": _NUMBER,
                 "eps": _NUMBER},
        "rhs": {"kind": _one_of("rhs kind", RhsKind), "w": _NUMBER, "c1": _NUMBER,
                "c2": _NUMBER, "direction": _Vector(_NUMBER, ("N", _COMPONENTS))},
        "initial": {"kind": _Leaf('"random_smooth"', lambda v: v == "random_smooth"),
                    "seed": _INTEGER, "amplitude": _NUMBER, "modes": _INTEGER},
        "N": _INTEGER,
    } | _RUN_KEYS


def _grid_from(cfg: dict) -> Grid:
    from .mesh import Grid

    for key in ("n", "extent", "cells"):
        _need(cfg, key, "grid.")
    return _build(Grid, cfg)


def _flux_from(cfg: dict) -> FluxSpec:
    from .flux import FluxKind, FluxSpec

    _need(cfg, "p", "flux.")
    return _build(FluxSpec, cfg, kind=cfg.get("kind", FluxKind.PURE_P_LAPLACE))


def _rhs_from(cfg: dict) -> RhsSpec:
    from .flux import RhsKind, RhsSpec

    kind = cfg.get("kind", RhsKind.ZERO)
    if kind is RhsKind.MANUFACTURED:
        raise InputError("manufactured sources are built programmatically, not from configs")
    return _build(RhsSpec, cfg, kind=kind)


def _status_code(kind: StatusKind) -> int:
    from .solver import StatusKind

    return {StatusKind.COMPLETED: EXIT_OK,
            StatusKind.BLOWUP: EXIT_BLOWUP,
            StatusKind.DIVERGED: EXIT_DIVERGED}[kind]


def cmd_solve(cfg: dict, outdir: Path | None) -> int:
    from .solver import RandomSmooth, SolveConfig, run, save_run

    config = _build(SolveConfig, cfg,
                    grid=_grid_from(_need(cfg, "grid")),
                    flux=_flux_from(_need(cfg, "flux")),
                    rhs=_rhs_from(cfg.get("rhs", {})),
                    initial=_build(RandomSmooth, {"seed": 0} | cfg.get("initial", {}),
                                   {"seed": "initial.seed", "modes": "initial.modes"}),
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

def _verify_keys() -> dict:
    from .flux import FluxKind, RhsKind

    return {
        "problem": _PROBLEM_KEYS,
        "grid": _grid_keys(("problem", "n", _DIM)),
        "flux": {"kind": _one_of("flux kind", FluxKind), "eps": _NUMBER},
        "rhs": {"kind": _one_of("rhs kind", RhsKind), "c1": _NUMBER, "c2": _NUMBER,
                "direction": _Vector(_NUMBER, ("problem", "N", _COMPONENTS))},
        "campaign": {"seeds": _Vector(_INTEGER), "amplitudes": _Vector(_NUMBER),
                     "modes": _INTEGER},
        "cylinder": {"R0": _NUMBER, "center": _Vector(_NUMBER, ("problem", "n", _DIM)),
                     "t0": _NUMBER,
                     "time_exponent": _Leaf('a finite number or "p"',
                                            lambda v: v == "p" or _NUMBER.accepts(v),
                                            lambda v: v if v == "p" else float(v))},
        "energy_s": _Vector(_NUMBER),
        "levels": _INTEGER,
        "max_spread": _NUMBER,
    } | _RUN_KEYS


def _campaign_run(job: tuple, params: ProblemParams, R0: float, energy_s: Sequence[float],
                  exponents: tuple[float, float], where: dict) -> dict:
    """Solve one campaign run and check it; only its rows and bound pair come back.

    job is (seed, amplitude, config, levels), with levels None on every run
    but the first, the one the Moser chain checks.  A run that does not
    complete returns its exit code and stop message under "stopped" instead
    of raising, so the caller stops at the first such run in campaign order.
    """
    from .energy import (_bound_pair, energy_inequality_check, holder_sandwich_check,
                         moser_chain_check)
    from .solver import StatusKind, run

    seed, amplitude, config, levels = job
    record = run(config)
    kind = record.status.kind
    tag = {"seed": seed, "amplitude": amplitude}
    if kind is not StatusKind.COMPLETED:
        return {"stopped": (_status_code(kind), f"run (seed={seed}, amplitude={amplitude}) "
                                                f"ended in {kind.value} at t = {record.status.time}")}
    sandwich = holder_sandwich_check(record, params.s0, R0 / 2.0, R0, params.p, **where)
    energy = [tag | energy_inequality_check(record, s, R0 / 2.0, R0, params, **where).to_dict()
              for s in energy_s]
    chain = None if levels is None else moser_chain_check(record, params, R0, levels, **where)
    return {"run": tag | {"status": kind.value, "steps": int(record.dt_history.size)},
            "sandwich": tag | sandwich.to_dict(),
            "energy": energy,
            "chain": chain and chain.to_dict(),
            "pair": _bound_pair(record, R0, exponents, **where)}


@contextlib.contextmanager
def _ordered_map(fn: Callable, jobs: list) -> Iterator[Iterator]:
    """fn over jobs, results in job order, on min(len(jobs), cores) forked workers.

    With one worker fn runs inline through map and no pool is made; so it
    does where the platform has no affinity mask (os.sched_getaffinity is
    Linux's).  Each pool worker marches its runs on its share of the cores,
    cores // workers: one process each when the pool holds every core.
    Leaving the block terminates and joins the workers, also when the
    caller stops at a result before the last.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cores)
    if workers == 1:
        yield map(fn, jobs)
        return
    import multiprocessing  # here: the verbs that never fork do not pay for it

    with multiprocessing.get_context("fork").Pool(workers, _share_cores,
                                                  (cores // workers,)) as pool:
        yield pool.imap(fn, jobs)


def _share_cores(count: int) -> None:
    """Pool initializer: the runs of this worker march on count cores at most."""
    from . import solver

    solver._cores = count


def cmd_verify(cfg: dict, outdir: Path | None) -> int:
    from .energy import (_bound_exponents, _bound_fit, _bound_ratio, _chain_rules,
                         _cylinder_rules, _radius_rule, _require_s_admissible)
    from .flux import FluxKind
    from .mesh import CylinderSpec
    from .solver import RandomSmooth, SolveConfig, _planned_times

    problem_cfg = _need(cfg, "problem")
    c2_nonzero = bool(cfg.get("rhs", {}).get("c2"))
    if "c2_zero" not in problem_cfg:
        problem_cfg = problem_cfg | {"c2_zero": not c2_nonzero}
    elif problem_cfg["c2_zero"] and c2_nonzero:
        raise InputError("problem.c2_zero is true but rhs.c2 is nonzero")

    report, params, violations = _regime(problem_cfg, where="problem.")
    header = {
        "regime": report.to_dict() | {"violated_conditions": violations},
        "budget": {"s0_plus_M": params.s0 + report.M, "p_tilde": params.p_tilde,
                   "within": not violations} if report.covered else None,
    }
    refusal = header | {"passed": False, "reason": "parameters not covered"}
    # input errors come before the verdict: a config that names a campaign
    # has each of its sections read first, a problem-only one gets the verdict
    if violations and cfg.keys() <= {"problem", "output_dir"}:
        _emit(refusal, outdir)
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
    # the spec holds the radius and exponent rules; build it before any solve
    cyl = CylinderSpec(grid.center() if center is None else center, t0, R0, time_exponent)

    # and every run's initial data, so a bad seed or modes names its key before any solve
    initials = {(seed, amplitude): _build(RandomSmooth, campaign_cfg,
                                          {"seed": "campaign.seeds", "modes": "campaign.modes"},
                                          seed=seed, amplitude=amplitude)
                for seed in seeds for amplitude in amplitudes}

    _radius_rule(R0)
    levels = cfg.get("levels")
    if levels is not None:
        _chain_rules(grid, R0, levels)
    max_spread = cfg.get("max_spread", 10.0)
    if not max_spread >= 0.0:
        raise InputError(f"'max_spread' must be >= 0, got {max_spread}")
    energy_s = cfg.get("energy_s")
    for s in energy_s or ():
        _require_s_admissible(s, params)
    if energy_s is None:
        try:
            _require_s_admissible(params.s0, params)
        except ValueError:
            energy_s = []
        else:
            energy_s = [params.s0]

    jobs = [(seed, amplitude,
             _build(SolveConfig, cfg, grid=grid, flux=flux, rhs=rhs,
                    initial=initials[seed, amplitude], N=params.N, t_end=t_end),
             levels if k == 0 else None)
            for k, (seed, amplitude) in enumerate(itertools.product(seeds, amplitudes))]
    # the cylinder rules on the planned snapshot times: Q_{R0} and the bound
    # fit's Q_{R0/2}, whose window every other check's lies between
    for radius in (R0, R0 / 2.0):
        _cylinder_rules(grid, _planned_times(jobs[0][2]), dataclasses.replace(cyl, R=radius))
    if violations:
        _emit(refusal, outdir)
        return EXIT_NOT_COVERED

    # the verdict holds the estimate's regime check, and the radius rule has run
    exponents = _bound_exponents(params, R0)
    worker = functools.partial(_campaign_run, params=params, R0=R0, energy_s=energy_s,
                               exponents=exponents,
                               where={"center": center, "t0": t0, "time_exponent": time_exponent})
    done = []
    with _ordered_map(worker, jobs) as results:
        for result in results:
            if "stopped" in result:
                raise _StatusExit(*result["stopped"])
            done.append(result)
    run_rows = [result["run"] for result in done]
    sandwich_rows = [result["sandwich"] for result in done]
    energy_rows = [row for result in done for row in result["energy"]]
    chain_out = done[0]["chain"]
    bound = _bound_fit(exponents[0], [result["pair"] for result in done])

    ratios = [_bound_ratio(lhs, rhs_base) for lhs, rhs_base in bound.per_run]
    r_max, r_min = max(ratios), min(ratios)
    spread = 1.0 if r_max == 0.0 else (math.inf if r_min == 0.0 else r_max / r_min)

    checks = {
        "spread_ok": spread <= max_spread,
        "sandwich_ok": all(row["satisfied"] for row in sandwich_rows),
        "energy_ok": all(row["satisfied"] for row in energy_rows),
    }
    if levels is not None:
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
            f"(needs s > {_s_floor(params)})",
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
    import numpy as np

    from .flux import FluxKind, FluxSpec
    from .mesh import Boundary, Grid, grad_magnitude, gradient, node_coords
    from .verify import (SeparableTarget, ladder_oracle, manufactured_problem, struwe_field,
                         struwe_residual)

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
    from .mesh import Boundary, Grid
    from .verify import struwe_residual

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
        keys, verb = {"check": (lambda: _CHECK_KEYS, cmd_check),
                      "solve": (_solve_keys, cmd_solve),
                      "verify": (_verify_keys, cmd_verify),
                      "counterexample": (lambda: _COUNTER_KEYS, cmd_counterexample)}[args.command]
        cfg = _validate(_load_config(args.config), keys())
        return verb(cfg, _resolve_outdir(args.output, cfg))
    except _StatusExit as exc:
        print(f"stopped: {exc}", file=sys.stderr)
        return exc.code
    # a size numpy cannot allocate or index is an input error too
    except (InputError, ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
