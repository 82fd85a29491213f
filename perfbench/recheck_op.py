"""Library-level re-verification of stored runs, one child process per call.

    python perfbench/recheck_op.py setup CONFIG_JSON   solve one record and save it
    python perfbench/recheck_op.py check CONFIG_JSON   load records and re-run the checks

`check` loads every record with `load_run`, runs the Holder sandwich at
s0, the energy inequality at each configured s and the Moser chain on
each, then fits the bound across all of them, and prints the rows as JSON.
Functions are called through their modules so the tracer's rebinding
reaches them.
"""

import json
import sys
from pathlib import Path

from gradbound import energy, flux, mesh, regimes, solver


def setup(cfg: dict) -> dict:
    grid = mesh.Grid(3, (1.0,) * 3, (cfg["cells"],) * 3, mesh.Boundary.PERIODIC)
    config = solver.SolveConfig(
        grid=grid,
        flux=flux.FluxSpec(flux.FluxKind.PURE_P_LAPLACE, cfg["p"]),
        rhs=flux.RhsSpec(flux.RhsKind.POWER_ALIGNED, w=cfg["w"], c1=1.0),
        initial=solver.RandomSmooth(cfg["seed"], cfg["amplitude"], cfg["modes"]),
        N=cfg["N"], t_end=cfg["t_end"], snapshot_count=cfg["snapshot_count"],
    )
    record = solver.run(config)
    solver.save_run(record, cfg["record"])
    return {"status": record.status.kind.value, "steps": int(record.dt_history.size),
            "snapshots": len(record.snapshots)}


def check(cfg: dict) -> dict:
    params = regimes.ProblemParams(**cfg["problem"])
    R0, e = cfg["R0"], cfg["time_exponent"]
    records = [solver.load_run(d) for d in cfg["records"]]
    sandwich, energy_rows, chains = [], [], []
    for record in records:
        sandwich.append(energy.holder_sandwich_check(
            record, params.s0, R0 / 2.0, R0, params.p, time_exponent=e).to_dict())
        for s in cfg["energy_s"]:
            energy_rows.append(energy.energy_inequality_check(
                record, float(s), R0 / 2.0, R0, params, time_exponent=e).to_dict())
        chains.append(energy.moser_chain_check(
            record, params, R0, cfg["levels"], time_exponent=e).to_dict())
    bound = energy.verify_bound(records, params, R0, time_exponent=e).to_dict()
    return {"sandwich": sandwich, "energy": energy_rows, "chains": chains, "bound": bound}


def main(argv) -> int:
    mode, path = argv
    cfg = json.loads(Path(path).read_text())
    print(json.dumps({"setup": setup, "check": check}[mode](cfg)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
