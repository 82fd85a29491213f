"""The package surface: names resolve on first use to their home modules' objects,
and every module uses what it imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradbound

IMPORT_ROOT = Path(gradbound.__file__).resolve().parent.parent

# every name the package gives, by home module
SURFACE = {
    "regimes": ["ExponentLadder", "ProblemParams", "RegimeReport", "Theorem", "bound_exponent",
                "build_ladder", "check_thm2", "check_thm3", "classify_thm1",
                "compute_M_general", "kappa", "thm1_case2_sup"],
    "mesh": ["Boundary", "CutoffFn", "CylinderSpec", "Field", "Grid", "ball_mask", "divergence",
             "grad_magnitude", "gradient", "load_field", "node_coords", "save_field"],
    "flux": ["FluxKind", "FluxSpec", "RhsKind", "RhsSpec", "flux_eval", "flux_jacobian_bounds",
             "rhs_eval"],
    "solver": ["Prescribed", "RandomSmooth", "RunRecord", "RunStatus", "SolveConfig",
               "StatusKind", "initial_field", "load_run", "run", "save_run"],
    "energy": ["BoundReport", "EnergyReport", "MoserChainReport", "SandwichReport",
               "energy_inequality_check", "holder_sandwich_check", "moser_chain_check", "psi",
               "verify_bound"],
    "verify": ["ResidualReport", "SeparableTarget", "ladder_oracle", "manufactured_problem",
               "struwe_field", "struwe_residual"],
}


# every module's __all__, whole: a name made public or private shows here
PUBLIC = {
    "mesh": ["Boundary", "CutoffFn", "CylinderSpec", "Field", "Grid", "ball_mask", "divergence",
             "grad_magnitude", "gradient", "gradient_of", "load_field", "save_field",
             "spatial_integral", "time_integral"],
    "flux": SURFACE["flux"],
    "regimes": SURFACE["regimes"],
    "energy": SURFACE["energy"],
    "solver": SURFACE["solver"],
    "verify": SURFACE["verify"],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC))
def test_each_module_all_is_pinned(module_name):
    listed = importlib.import_module(f"gradbound.{module_name}").__all__
    assert len(listed) == len(set(listed)), listed
    assert sorted(listed) == PUBLIC[module_name]


def test_the_all_total_is_58():
    assert {name: len(names) for name, names in PUBLIC.items()} == {
        "mesh": 14, "flux": 7, "regimes": 12, "energy": 9, "solver": 10, "verify": 6}
    modules = sorted((IMPORT_ROOT / "gradbound").glob("*.py"))
    assert [path.stem for path in modules if "__all__" in path.read_text()] == sorted(PUBLIC)


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_names_resolve_to_their_home_objects(module_name):
    home = importlib.import_module(f"gradbound.{module_name}")
    assert getattr(gradbound, module_name) is home
    listed = dir(gradbound)
    assert module_name in listed
    for name in SURFACE[module_name]:
        assert getattr(gradbound, name) is getattr(home, name), name
        assert name in listed, name
        namespace = {}
        exec(f"from gradbound import {name}", namespace)
        assert namespace[name] is getattr(home, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'gradient_of'"):
        gradbound.gradient_of  # public in mesh, not given by the package
    with pytest.raises(ImportError):
        exec("from gradbound import no_such_name", {})
    assert not hasattr(gradbound, "cli_main")


def test_version_unchanged():
    assert gradbound.__version__ == "0.1.0"


def test_import_loads_no_numeric_module():
    probe = ("import sys, gradbound; "
             "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('gradbound')))")
    pythonpath = [str(IMPORT_ROOT), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['gradbound']\n"


def _own_nodes(scope):
    """The nodes of scope outside the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _dead_imports(tree) -> list:
    """Each import that no code or annotation of its scope reads, as (line, name).

    With postponed annotations, an annotation is still parsed to names, so
    the imports under `if TYPE_CHECKING:` that annotations use are read.
    """
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    dead = []
    for scope in scopes:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        dead.append((node.lineno, name))
    return sorted(dead)


@pytest.mark.parametrize("path", sorted((IMPORT_ROOT / "gradbound").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert _dead_imports(ast.parse(path.read_text())) == []


def test_the_import_check_sees_a_dead_import():
    source = ("from __future__ import annotations\n"
              "import math, os\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from pathlib import Path\n"
              "def f(x: Path) -> int:\n"
              "    import json\n"
              "    return os.sep\n")
    assert _dead_imports(ast.parse(source)) == [(2, "math"), (7, "json")]


def _private_definitions(trees) -> list:
    """Each private function, class or method (dunders aside), as (module, line, name)."""
    return sorted((module, node.lineno, node.name) for module, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name.startswith("_")
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def _dead_private_names(trees) -> list:
    """The private definitions that no Name, Attribute, import alias or string constant reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.update({node.name, node.asname})
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [d for d in _private_definitions(trees) if d[2] not in read]


def test_every_private_definition_is_used():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((IMPORT_ROOT / "gradbound").glob("*.py"))}
    assert _private_definitions(trees)  # the walk sees the package's definitions
    assert _dead_private_names(trees) == []


def test_the_private_name_check_sees_a_dead_definition():
    source = ("def _used(): return 1\n"
              "def _named(): return 2\n"
              "class _Shape:\n"
              "    def _area(self): return self._side()\n"
              "    def _side(self): return _used()\n"
              "    def __len__(self): return 0\n"
              "def _dead(): return 3\n"
              "TABLE = {'named': '_named'}\n"
              "from os import path as _alias\n"
              "def _alias(): return 4\n")
    assert _dead_private_names({"m.py": ast.parse(source)}) == [
        ("m.py", 3, "_Shape"), ("m.py", 4, "_area"), ("m.py", 7, "_dead")]
