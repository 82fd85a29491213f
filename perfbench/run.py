"""gradbound benchmark: closed loop, one client, one child process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/gradbound` and
`configs/`).  Each workload sets up, then runs operations one after another
until S seconds of operations have elapsed (at least one).  Every operation
is a fresh child process (`python -m gradbound.cli ...`, or the library-level
`perfbench/recheck_op.py`) whose wall time, CPU time and peak RSS are taken
from `os.wait4`, and whose outputs are checked.  With `--trace 1` the loop
alternates untraced and traced operations; the traced child runs through
`perfbench/traced.py`, which rebinds gradbound's public functions with span
recorders, and the per-layer metrics come from its spans.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  Earlier lines
record the environment and a human-readable summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SCHEMA_PATH = SRC / "gradbound" / "schemas" / "reports.schema.json"
CAMPAIGN_CONFIG = ROOT / "configs" / "verify_campaign.json"
REFERENCES = json.loads((HERE / "references.json").read_text())

OP_TIMEOUT_S = 150.0
WARMUPS = 7  # set-up repetitions for the CLI workloads; setup_s is their median
NPROC = len(os.sched_getaffinity(0))
MB = 1024.0 * 1024.0

sys.path.insert(0, str(HERE))
from tracer import TRACED  # noqa: E402


# --- child processes ------------------------------------------------------------


@dataclass
class Child:
    """One finished child process with its resource usage and captured output."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    def report(self) -> dict:
        return json.loads(self.stdout)


def spawn(argv: list[str], work: Path, tag: str) -> Child:
    """Run argv to completion; os.wait4 gives the child's own CPU time and peak RSS."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    env = {k: v for k, v in os.environ.items() if k != "GRADBOUND_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(NPROC)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Child(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss * 1024.0 / MB,  # ru_maxrss is in KiB on Linux
                 out_path.read_text(), err_path.read_text())


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def cli_argv(*args: str) -> list[str]:
    return python_argv("-m", "gradbound.cli", *args)


def traced_argv(spans: Path, kind: str, *args: str) -> list[str]:
    return python_argv(str(HERE / "traced.py"), str(spans), kind, *args)


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2))
    return path


class Checker:
    """Schema validation of gradbound reports plus reference-constant comparison."""

    def __init__(self, seed: int, smoke: bool):
        import jsonschema

        self.schema = json.loads(SCHEMA_PATH.read_text())
        self._validator = jsonschema.Draft202012Validator
        self.compare = seed == REFERENCES["seed"] and not smoke
        self.rel_tol = REFERENCES["rel_tol"]

    def schema_errors(self, report, definition: str | None = None) -> list[str]:
        schema = self.schema if definition is None else {
            "$defs": self.schema["$defs"], "$ref": f"#/$defs/{definition}"}
        return [f"schema: {e.message}" for e in self._validator(schema).iter_errors(report)]

    def reference_errors(self, workload: str, observed: dict) -> list[str]:
        """Compare observed constants with the references recorded for the default seed."""
        if not self.compare:
            return []
        errors = []
        for key, want in REFERENCES["workloads"][workload].items():
            got = observed.get(key)
            wants, gots = (want, got) if isinstance(want, list) else ([want], [got])
            if not isinstance(gots, list) or len(gots) != len(wants) or any(
                    g is None or abs(g - w) > self.rel_tol * abs(w) for g, w in zip(gots, wants)):
                errors.append(f"{key} = {got}, reference {want} (rel_tol {self.rel_tol})")
        return errors


# --- workloads -------------------------------------------------------------------


class CliWorkload:
    """A gradbound CLI verb on a generated config.

    Set-up writes the configs and classifies the workload's parameter tuple
    with `gradbound check` WARMUPS times (imports, byte-compilation and the
    regime pre-flight); setup_s is the median of those.
    """

    verb = ""
    check_exit = 0

    def __init__(self, seed: int, smoke: bool, work: Path, checker: Checker):
        self.seed, self.smoke, self.work, self.checker = seed, smoke, work, checker
        self.config = work / "config.json"

    def check_tuple(self) -> dict:
        raise NotImplementedError

    def setup(self) -> list[float]:
        check_cfg = write_json(self.work / "check.json", self.check_tuple())
        times = []
        for i in range(WARMUPS):
            child = spawn(cli_argv("check", "--config", str(check_cfg)), self.work, f"setup{i}")
            errors = [] if child.code == self.check_exit else [f"exit code {child.code}"]
            errors += self.checker.schema_errors(child.report()) if not errors else []
            if errors:
                raise RuntimeError(f"set-up check failed: {errors}: {child.stderr}")
            times.append(child.wall_s)
        return times

    def op_argv(self, index: int, spans: Path | None) -> list[str]:
        args = [self.verb, "--config", str(self.config), "--output", str(self.work / f"out{index}")]
        return traced_argv(spans, "cli", *args) if spans else cli_argv(*args)


class Campaign(CliWorkload):
    verb = "verify"

    def __init__(self, *args):
        super().__init__(*args)
        cfg = json.loads(CAMPAIGN_CONFIG.read_text())
        cfg["campaign"] = {"seeds": [self.seed], "amplitudes": [1.0, 4.0]}
        if self.smoke:
            cfg.update(grid={"extent": 1.0, "cells": 16}, cylinder={"R0": 0.45},
                       t_end=0.21, snapshot_count=64)
        self.cfg = cfg
        write_json(self.config, cfg)

    def check_tuple(self) -> dict:
        return dict(self.cfg["problem"])

    def working_set_mb(self) -> float:
        cells, snaps = self.cfg["grid"]["cells"], self.cfg["snapshot_count"]
        return cells**3 * self.cfg["problem"]["N"] * 8 * snaps / MB  # one streamed record

    def check(self, child: Child, index: int) -> tuple[list[str], dict]:
        report = child.report()
        errors = self.checker.schema_errors(report)
        runs = report.get("runs", [])
        if not report.get("passed"):
            errors.append(f"campaign did not pass: {report.get('checks')}")
        if len(runs) != 2 or any(r["status"] != "completed" for r in runs):
            errors.append(f"runs not all completed: {runs}")
        observed = {"bound.fitted_C": report["bound"]["fitted_C"],
                    "energy.c": [row["c"] for row in report.get("energy", [])],
                    "chain.C": (report.get("chain") or {}).get("C")} if not errors else {}
        return errors, observed


class SolveDirichlet(CliWorkload):
    verb = "solve"
    check_exit = 2  # w = 1.5 with c2 != 0 lies outside the verified regimes

    def __init__(self, *args):
        super().__init__(*args)
        cells, t_end = (12, 0.002) if self.smoke else (32, 0.005)
        self.cfg = {
            "grid": {"n": 3, "extent": 1.0, "cells": cells, "boundary": "dirichlet"},
            "flux": {"kind": "double_power", "p": 2.0, "q": 2.5},
            "rhs": {"kind": "power_fixed_dir", "w": 1.5, "c1": 1.0, "c2": 0.5,
                    "direction": [1.0, 1.0, 0.0]},
            "initial": {"kind": "random_smooth", "seed": self.seed, "amplitude": 4.0,
                        "modes": 3},
            "N": 3, "t_end": t_end, "snapshot_count": 64,
            # Below the stability limit for every seed, so the step count
            # (504 at full size) does not depend on the seed.
            "dt_max": 1e-5,
        }
        write_json(self.config, self.cfg)

    def check_tuple(self) -> dict:
        return {"p": 2.0, "q": 2.5, "w": 1.5, "N": 3, "c2_zero": False}

    def working_set_mb(self) -> float:
        return (self.cfg["grid"]["cells"] + 1) ** 3 * 3 * 8 * 64 / MB  # record written

    def check(self, child: Child, index: int) -> tuple[list[str], dict]:
        from gradbound.solver import load_run

        report = child.report()
        errors = self.checker.schema_errors(report)
        status = report.get("status", {}).get("kind")
        if status != "completed" or report.get("snapshots_stored") != 64:
            errors.append(f"solve report: {report}")
        if errors:
            return errors, {}
        record = load_run(report["record"])
        if len(record.snapshots) != 64 or not record.completed:
            errors.append(f"reloaded record: {len(record.snapshots)} snapshots, "
                          f"status {record.status.kind.value}")
        final = record.snapshots[-1].values
        observed = {"final.max_abs_u": float(abs(final).max()),
                    "final.rms_u": float(math.sqrt((final * final).mean()))}
        shutil.rmtree(self.work / f"out{index}", ignore_errors=True)
        return errors, observed


class Recheck:
    """Re-verification of two stored records through the library.

    Set-up solves and saves each record in its own child process; setup_s
    is the median of the two per-record set-up times.
    """

    def __init__(self, seed: int, smoke: bool, work: Path, checker: Checker):
        self.work, self.checker = work, checker
        cells, t_end, R0 = (16, 0.14, 0.45) if smoke else (32, 0.03, 0.24)
        self.records = []
        for i in range(2):
            self.records.append({
                "record": str(work / f"record{i}"), "cells": cells, "p": 2.5, "w": 1.3,
                "N": 2, "seed": seed + i, "amplitude": 1.0, "modes": 2, "t_end": t_end,
                "snapshot_count": 64})
        self.config = write_json(work / "check.json", {
            "records": [r["record"] for r in self.records],
            "problem": {"n": 3, "N": 2, "p": 2.5, "w": 1.3},
            "R0": R0, "time_exponent": 2.5, "energy_s": [0.0, 0.5, 1.0], "levels": 4})

    def setup(self) -> list[float]:
        times = []
        for i, rec in enumerate(self.records):
            cfg = write_json(self.work / f"setup{i}.json", rec)
            child = spawn(python_argv(str(HERE / "recheck_op.py"), "setup", str(cfg)),
                          self.work, f"setup{i}")
            report = child.report() if child.code == 0 else {}
            snapshots = report.get("snapshots")
            if report.get("status") != "completed" or snapshots != rec["snapshot_count"]:
                raise RuntimeError(f"record set-up failed: {child.stdout} {child.stderr}")
            times.append(child.wall_s)
        return times

    def working_set_mb(self) -> float:
        r = self.records[0]
        return 2 * r["cells"] ** 3 * r["N"] * 8 * r["snapshot_count"] / MB  # both records loaded

    def op_argv(self, index: int, spans: Path | None) -> list[str]:
        if spans:
            return traced_argv(spans, "recheck", "check", str(self.config))
        return python_argv(str(HERE / "recheck_op.py"), "check", str(self.config))

    def check(self, child: Child, index: int) -> tuple[list[str], dict]:
        report = child.report()
        errors = []
        for key, definition in (("sandwich", "sandwich_report"), ("energy", "energy_report"),
                                ("chains", "chain_report")):
            for row in report[key]:
                errors += self.checker.schema_errors(row, definition)
        errors += self.checker.schema_errors(report["bound"], "bound_report")
        if len(report["sandwich"]) != 2 or len(report["energy"]) != 6 or len(report["chains"]) != 2:
            errors.append("missing report rows")
        for key in ("sandwich", "chains"):
            errors += [f"{key} row not satisfied: {r}" for r in report[key] if not r["satisfied"]]
        observed = {"bound.fitted_C": report["bound"]["fitted_C"],
                    "energy.c": [r["c"] for r in report["energy"]],
                    "chain.C": [r["C"] for r in report["chains"]]}
        return errors, observed


WORKLOADS = {"campaign_p2_32": Campaign, "recheck_p25_32": Recheck,
             "solve_dirichlet_32": SolveDirichlet}


# --- metrics -------------------------------------------------------------------


def end_to_end(ops: list[Child], setups: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(c.wall_s for c in ops), "s"),
        "cpu_s": (med(c.cpu_s for c in ops), "s"),
        "peak_rss_mb": (med(c.peak_rss_mb for c in ops), "MB"),
        "setup_s": (med(setups), "s"),
    }


def per_layer(spans_doc: dict, op_wall_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced operation from its spans and counters."""
    spans, counters = spans_doc["spans"], spans_doc["counters"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls, self_s, incl_s = Counter(), defaultdict(float), defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child_s):
        calls[name] += 1
        self_s[name] += end - start - inner
        incl_s[name] += end - start

    out = {}
    for module in ("mesh", "flux", "energy"):
        for fn in TRACED[module]:
            out[f"{module}.{fn}.calls"] = (calls[f"{module}.{fn}"], "count")
            out[f"{module}.{fn}.self_s"] = (self_s[f"{module}.{fn}"], "s")
    steps = counters.get("solver.steps", 0)
    snapshots = counters.get("energy.snapshots_read", 0)
    regimes = [f"regimes.{fn}" for fn in TRACED["regimes"]]
    out.update({
        "mesh.stencil.bytes_computed": (counters.get("mesh.stencil.bytes_computed", 0), "B"),
        "solver.run.calls": (calls["solver.run"], "count"),
        "solver.run.self_s": (self_s["solver.run"], "s"),
        "solver.steps": (steps, "count"),
        "solver.s_per_step": (incl_s["solver.run"] / steps if steps else 0.0, "s"),
        "solver.initial_field.self_s": (self_s["solver.initial_field"], "s"),
        "solver.save_run.self_s": (self_s["solver.save_run"], "s"),
        "solver.save_run.bytes": (counters.get("solver.save_run.bytes", 0), "B"),
        "solver.load_run.self_s": (self_s["solver.load_run"], "s"),
        "solver.load_run.bytes": (counters.get("solver.load_run.bytes", 0), "B"),
        "energy.gradients_per_snapshot": (
            counters.get("energy.gradient_of_calls", 0) / snapshots if snapshots else 0.0,
            "1/snapshot"),
        "regimes.calls": (sum(calls[r] for r in regimes), "count"),
        "regimes.self_s": (sum(self_s[r] for r in regimes), "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "process.startup_s": (op_wall_s - incl_s["cli.main"], "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    })
    return out


def environment() -> dict:
    import numpy

    model, l3 = "unknown", "unknown"
    try:
        model = next(line.split(":", 1)[1].strip()
                     for line in Path("/proc/cpuinfo").read_text().splitlines()
                     if line.startswith("model name"))
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return {"nproc": NPROC, "cpu_model": model, "l3_cache": l3,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_start": os.getloadavg()}


# --- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCES["seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for checking the output format only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in (SRC / "gradbound" / "cli.py", SCHEMA_PATH, CAMPAIGN_CONFIG):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a gradbound checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        checker = Checker(args.seed, args.smoke)
        workload = WORKLOADS[args.workload](args.seed, args.smoke, work, checker)
        env = {"workload": args.workload, "seed": args.seed, **environment(),
               "working_set_mb": round(workload.working_set_mb(), 1)}
        setups = workload.setup()

        # untraced ops give the end-to-end metrics; traced ops are (child, spans) pairs
        untraced, traced, failures, observed = [], [], [], {}
        start = time.perf_counter()
        while True:
            index = len(untraced) + len(traced)
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            spans = work / f"spans{index}.json" if trace_this else None
            child = spawn(workload.op_argv(index, spans), work, f"op{index}")
            try:
                errors = [f"exit code {child.code}: {child.stderr[-2000:]}"] if child.code else []
                if trace_this:
                    traced.append((child, json.loads(spans.read_text())))
                else:
                    untraced.append(child)
                if not errors:
                    errors, observed = workload.check(child, index)
                    errors += checker.reference_errors(args.workload, observed)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            if errors:
                failures.append((index, errors))
                print(f"op {index} failed: {errors}", file=sys.stderr)
            attempted = index + 1
            paired = not args.trace or len(traced) == len(untraced)
            # a traced op that failed may never pair up, so it ends the loop too
            if time.perf_counter() - start >= args.seconds and (paired or (trace_this and errors)):
                break
        env["loadavg_end"] = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    if args.trace and not traced:
        print("error: no traced operation left spans", file=sys.stderr)
        return 1

    metrics = end_to_end(untraced, setups)
    print("env " + json.dumps(env))
    print("observed constants " + json.dumps(observed))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (median of "
              f"{len(setups) if name == 'setup_s' else len(untraced)})")
    print(f"{args.workload} untraced op wall_s, cpu_s "
          + json.dumps([(round(c.wall_s, 3), round(c.cpu_s, 3)) for c in untraced]))
    print(f"{args.workload} failed_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted})")
    if args.trace:
        overhead = statistics.median(c.wall_s for c, _ in traced) / metrics["wall_s"][0] - 1.0
        layers = [per_layer(doc, c.wall_s, overhead) for c, doc in traced]
        # median_low keeps counts integral when there are two traced ops
        metrics = {name: (statistics.median_low(layer[name][0] for layer in layers), unit)
                   for name, (_, unit) in layers[0].items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
