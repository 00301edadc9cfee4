"""Traced CLI call: ``python3 perfbench/cli_child.py SPANS_JSON VERB ARGS...``.

Runs ``fracpast.cli.main`` with the tracer installed in this fresh
interpreter, exits with the CLI's exit code, and writes the span
aggregates to SPANS_JSON for the parent benchmark process to add up.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import fracpast.cli

    tracer = Tracer()
    tracer.install()
    try:
        return fracpast.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
