"""Run one benchmark operation under the tracer.

    python perfbench/traced.py SPANS_JSON cli <gradbound cli arguments...>
    python perfbench/traced.py SPANS_JSON recheck <recheck_op arguments...>

The operation's entry point is recorded as the span `cli.main`; the spans
and counters are written to SPANS_JSON when it returns.
"""

import sys

import gradbound.cli
import recheck_op
from tracer import Tracer


def main() -> int:
    spans_path, kind, *argv = sys.argv[1:]
    entry = {"cli": gradbound.cli.main, "recheck": recheck_op.main}[kind]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli.main", entry, argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
