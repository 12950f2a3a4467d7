"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN RESULT MODE

MODE is ``plain`` (run the pass) or ``traced`` (run the pass under the
outside-in tracer).  The import of ``invman`` and ``invman.cli`` is timed
first, before anything else loads numpy, so it measures what every one-shot
CLI call pays.  The reference loop is timed right after it, at the same
machine speed.  The result is written to RESULT as JSON.
"""

import time

_start = time.perf_counter()
import invman  # noqa: E402
import invman.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import reference_s, run_pass  # noqa: E402

SETUP_REFERENCES = 5  # reference loops timed after the import; their median is kept


def main(argv) -> int:
    plan, result_path, mode = argv
    setup_ref_s = statistics.median(reference_s() for _ in range(SETUP_REFERENCES))
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    result = {
        "setup_s": SETUP_S,
        "setup_ref_s": setup_ref_s,
        "records": run_pass(json.loads(Path(plan).read_text()), tracer),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
