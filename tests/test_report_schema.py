"""The report schema's contract with the report dataclasses.

Every report's JSON keys are its dataclass fields in declaration order
(regimes._Report.to_dict), so the schema entry of each report must list
exactly those fields, in that order.  A field added to a report without its
schema entry, or a schema key left behind by a removed field, fails here.
"""

import dataclasses
import json
from importlib.resources import files

import pytest

from gradbound import (
    BoundReport,
    EnergyReport,
    ExponentLadder,
    MoserChainReport,
    RegimeReport,
    ResidualReport,
    RunStatus,
    SandwichReport,
)

DEFS = json.loads(files("gradbound").joinpath("schemas/reports.schema.json").read_text())["$defs"]

# (path to the object schema under $defs, report class, keys the verb adds to the report)
PAIRS = [
    (("ladder",), ExponentLadder, ()),
    (("regime_report",), RegimeReport, ()),
    (("energy_report",), EnergyReport, ()),
    (("sandwich_report",), SandwichReport, ()),
    (("chain_report",), MoserChainReport, ()),
    (("bound_report",), BoundReport, ()),
    (("solve_report", "status"), RunStatus, ()),
    (("counterexample_report",), ResidualReport, ("order_window", "ok")),
]


@pytest.mark.parametrize("path, cls, added", PAIRS, ids=[cls.__name__ for _, cls, _ in PAIRS])
def test_schema_keys_are_the_report_fields(path, cls, added):
    schema = DEFS[path[0]]
    for key in path[1:]:
        schema = schema["properties"][key]
    keys = [key for key in schema["properties"] if key not in added]
    assert keys == [f.name for f in dataclasses.fields(cls)]
