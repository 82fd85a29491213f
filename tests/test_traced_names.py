"""The benchmark tracer's contract with the package.

perfbench/tracer.py wraps gradbound functions by name from outside the
package; a deleted or renamed function would break the benchmark's traced
mode without failing any other test.  Every traced name is also public, in
its module's __all__, so a trim of the surface cannot quietly make private a
function the benchmark wraps.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    if not TRACER.exists():
        pytest.skip("perfbench/tracer.py not present in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED, "tracer lists no functions"
    for module_name, functions in tracer.TRACED.items():
        module = importlib.import_module(f"gradbound.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"gradbound.{module_name}.{name}"
            assert name in module.__all__, f"gradbound.{module_name}.{name} is not public"
