"""Run the qentropy CLI in this process with the tracer installed.

    python3 perfbench/cli_traced.py SPANS_JSON CLI_ARG...

Behaves as ``python -m qentropy.cli CLI_ARG...`` and exits with its code,
then writes the spans of the library calls to SPANS_JSON.
"""

import json
import sys

import qentropy.cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    tracer.on = True
    try:
        return qentropy.cli.main(argv)
    finally:
        tracer.on = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
