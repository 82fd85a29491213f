"""Span tracing of gradbound's public functions, installed from outside the package.

`Tracer.install()` wraps each function listed in `TRACED` and rebinds the
wrapper under every name that points at the original in every loaded
`gradbound` module, so intra-package calls (`mesh.gradient` calling
`gradient_of`, `verify_bound` calling `psi`) are traced without editing the
package.  Spans (name, start, end, parent) stay in memory; `write()` dumps
them with the counters once the traced operation has ended.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# module -> public functions traced in it; span names are "<module>.<function>".
TRACED = {
    "mesh": ("gradient_of", "divergence", "grad_magnitude", "ball_mask",
             "spatial_integral", "time_integral", "save_field", "load_field"),
    "flux": ("flux_eval", "flux_jacobian_bounds", "rhs_eval"),
    "solver": ("run", "initial_field", "save_run", "load_run"),
    "energy": ("holder_sandwich_check", "energy_inequality_check",
               "moser_chain_check", "verify_bound", "psi"),
    "regimes": ("classify_thm1", "check_thm2", "check_thm3", "build_ladder"),
}
STENCILS = {"mesh.gradient_of": 1, "mesh.divergence": 1, "mesh.grad_magnitude": 0}
RECORD_CHECKS = ("energy.holder_sandwich_check", "energy.energy_inequality_check",
                 "energy.moser_chain_check", "energy.psi")


def _tree_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        # Configs of the records the energy checks read, kept alive so their
        # ids stay unique: id(config) -> snapshot count.
        self._records: dict[int, tuple[object, int]] = {}

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = [start, end]

    def _observe(self, name: str, args: tuple, result) -> None:
        if name in STENCILS:
            computed = args[STENCILS[name]].nbytes + result.nbytes
            self.counters["mesh.stencil.bytes_computed"] += computed
            if name == "mesh.gradient_of" and self._under_energy():
                self.counters["energy.gradient_of_calls"] += 1
        elif name == "solver.run":
            self.counters["solver.steps"] += int(result.dt_history.size)
        elif name == "solver.save_run":
            self.counters["solver.save_run.bytes"] += _tree_bytes(args[1])
        elif name == "solver.load_run":
            self.counters["solver.load_run.bytes"] += _tree_bytes(args[0])
        elif name in RECORD_CHECKS:
            record = args[0]
            self._records[id(record.config)] = (record.config, len(record.snapshots))

    def _under_energy(self) -> bool:
        """Whether the innermost enclosing energy or solver span is an energy one.

        The CLI's campaign generator runs the solver inside `verify_bound`,
        so solver work must not count as work of the checks.
        """
        for index in reversed(self._stack):
            layer = self.spans[index][0].split(".", 1)[0]
            if layer in ("energy", "solver"):
                return layer == "energy"
        return False

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._observe(name, args, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded gradbound module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "gradbound" or key.startswith("gradbound."))]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"gradbound.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def write(self, path) -> None:
        counters = dict(self.counters)
        counters["energy.snapshots_read"] = sum(n for _, n in self._records.values())
        Path(path).write_text(json.dumps({"spans": self.spans, "counters": counters}))
