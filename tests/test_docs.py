"""README.md against the code it describes.

The exit-code table lists exactly the codes `gradbound.cli` defines, and
every backticked dotted name in the README resolves: to a module or an
attribute of the package (`energy._Window.rows`, `RunRecord._magnitudes`),
to a dotted config key of a verb (`cylinder.center`), or to a file name
(`status.json`).
"""

import importlib
import pkgutil
import re
from pathlib import Path

import gradbound
from gradbound import cli

README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
FILE_SUFFIXES = {"json", "toml", "bin", "py", "md"}
MODULES = {info.name: importlib.import_module(f"gradbound.{info.name}")
           for info in pkgutil.iter_modules(gradbound.__path__)}
KEY_TABLES = (cli._CHECK_KEYS, cli._solve_keys(), cli._verify_keys(), cli._COUNTER_KEYS)


def _resolves_in_code(parts: list[str]) -> bool:
    head, *rest = parts
    if head == "gradbound":
        head, *rest = rest
    if head in MODULES:
        obj = MODULES[head]
    else:
        homes = [m for m in MODULES.values() if hasattr(m, head)]
        if not homes:
            return False
        obj = getattr(homes[0], head)
    for name in rest:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _is_config_key(parts: list[str]) -> bool:
    for table in KEY_TABLES:
        node = table
        for name in parts:
            if not (isinstance(node, dict) and name in node):
                break
            node = node[name]
        else:
            return True
    return False


def resolves(name: str) -> bool:
    parts = name.split(".")
    return (_resolves_in_code(parts) or _is_config_key(parts)
            or (len(parts) == 2 and parts[1] in FILE_SUFFIXES))


def test_exit_code_table_matches_cli():
    table = README.read_text().split("Exit codes are a stable contract:\n\n", 1)[1]
    table = table.split("\n\n", 1)[0]
    rows = re.findall(r"^\|\s*(\d+)\s*\|", table, flags=re.M)
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(map(int, rows)) == sorted(codes)


def test_backticked_dotted_names_resolve():
    names = set(DOTTED.findall(README.read_text()))
    assert {"energy._Window.rows", "RunRecord._magnitudes", "cylinder.center"} <= names
    assert sorted(name for name in names if not resolves(name)) == []


def test_a_stale_name_does_not_resolve():
    assert resolves("energy._Window.rows") and resolves("_Window.rows")
    assert not resolves("_Window.sweep")
    assert not resolves("energy._window")
    assert not resolves("grid.spacing")
