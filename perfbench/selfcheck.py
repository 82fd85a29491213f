"""Self-test of the benchmark harness on tiny grids (about a minute).

    python3 perfbench/selfcheck.py

From the root of a checkout it runs every workload once untraced and twice
traced in `--smoke` mode, and checks that:

- the last stdout line has exactly the keys correct, attempted, failed and
  metrics, and the run is correct with no failures;
- the metric names and units are exactly those in BENCHMARK.json
  (end_to_end untraced, per_layer traced);
- every count and byte metric repeats exactly between two traced runs of
  the same seed;
- without the program next to it (only BENCHMARK.json and perfbench/), the
  benchmark exits non-zero and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess, trace: int) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, out
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}, "metric names or units differ from BENCHMARK.json"
    return out["metrics"]


def main() -> int:
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        result(run(workload, 0), 0)
        first, second = (result(run(workload, 1), 1) for _ in range(2))
        for name, metric in first.items():
            if metric["unit"] in ("count", "B"):
                assert metric["value"] == second[name]["value"], (workload, name)
        print(f"{workload}: ok")

    bare = HERE / "_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(BENCHMARK["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without the program: exits non-zero, no result: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
