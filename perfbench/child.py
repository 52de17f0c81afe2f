"""Traced stand-in for `python -m qsdiag.cli`, used by the cli-cold trace.

Usage: python child.py SPANS_FILE RECORD SPAWN_NS -- CLI_ARGS...

Times the interpreter start (from SPAWN_NS, taken by the parent just before
it started this process), the numpy import and the qsdiag import as
start-up spans, runs qsdiag.cli.main under the tracer and appends the spans
to SPANS_FILE as one JSON line tagged with RECORD.
"""

import time

_START = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, clock  # noqa: E402


def main() -> int:
    spans_file, record, spawn_ns = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer()
    tracer.job = record
    tracer.span("startup.interpreter", spawn_ns, _START)
    t0 = clock()
    import numpy  # noqa: F401
    t1 = clock()
    import qsdiag.cli
    t2 = clock()
    tracer.span("startup.numpy_import", t0, t1)
    tracer.span("startup.qsdiag_import", t1, t2)
    tracer.install()
    try:
        return qsdiag.cli.main(argv)
    finally:
        with open(spans_file, "a") as fh:
            fh.write(json.dumps(tracer.spans) + "\n")


if __name__ == "__main__":
    sys.exit(main())
