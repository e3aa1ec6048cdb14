"""Traced stand-in for `python -m spheremaps.cli`, used by the traced
cli-cold run:

    python3 bench/trace_cli.py SPANS.json OP_ID <cli arguments>

It imports the CLI, wraps every layer's public functions, runs the command,
writes the spans and recorded warnings to SPANS.json and exits with the
command's exit code.  The import itself is recorded as a `cli.import` span.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spheremaps.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main():
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op_id
    tracer.spans.append(("cli.import", T0, time.perf_counter(), -1, op_id,
                         None))
    tracer.install()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = spheremaps.cli.main(argv)
    counts = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans, "warnings": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
