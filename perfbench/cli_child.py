"""Run the hardyworlds CLI with spans recorded around its layer calls.

Usage: python -X importtime perfbench/cli_child.py SPANS_JSON CLI_ARGS...

Behaves like ``python -m hardyworlds CLI_ARGS...`` and, at exit, writes the
spans and their summary to SPANS_JSON.
"""

import json
import sys

from tracing import Tracer, summarize


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import hardyworlds.cli
    from hardyworlds import analysis, formulas, modelio, quantum, semantics, worlds

    modules = {
        "cli": hardyworlds.cli,
        "analysis": analysis,
        "formulas": formulas,
        "modelio": modelio,
        "quantum": quantum,
        "semantics": semantics,
        "worlds": worlds,
    }
    tracer = Tracer(modules)
    tracer.install()
    try:
        code = hardyworlds.cli.main(argv)
    finally:
        tracer.uninstall()
        spans = tracer.take()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"summary": summarize(spans), "spans": spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
