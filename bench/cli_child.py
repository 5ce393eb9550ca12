"""Run one superharm CLI call in this process with the benchmark tracer on.

    python3 bench/cli_child.py STATS_JSON ARGV...

Behaves like ``python3 -m superharm.cli ARGV...``: same stdout, same exit
code, same traceback on an uncaught error.  It also writes the package
import time, the call's time and the trace of the call to STATS_JSON.
"""

import json
import sys
import time

_T0 = time.perf_counter()
from superharm import cli  # noqa: E402  (timed: this is the import cost)
_T1 = time.perf_counter()

import superharm  # noqa: E402
import tracer as tracing  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tr.install(superharm)
    tr.start()
    tr.task[0] = 0
    tr.active[0] = True
    t2 = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        t3 = time.perf_counter()
        tr.active[0] = False
        with open(path, "w") as fh:
            json.dump({"import_s": _T1 - _T0, "compute_s": t3 - t2, "trace": tr.snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(main())
