"""One benchmark iteration, run in a fresh interpreter by run.py.

Usage: python3 child.py <src dir> <spec json>

The import of ``corkcalc.cli`` is timed first, before this file imports
anything else, so the figure is what a user's ``corkcalc`` invocation pays.
Then each ``verify`` argv in the spec goes through ``cli.main`` and is timed;
an exception is recorded and the next call still runs. The result (timings,
exit codes, peak RSS) is written as JSON to the spec's ``result`` path and,
when tracing, the spans to its ``spans`` path.
"""

import sys
import time

_T0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import corkcalc.cli as cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import corkcalc  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

TRACE_NAMES = {"off": None, "full": SPAN_NAMES, "run_case": ("suites.run_case",)}


def main() -> None:
    spec = json.loads(sys.argv[2])
    result = {"setup_s": SETUP_S, "corkcalc_file": corkcalc.__file__,
              "version": corkcalc.__version__, "calls": []}
    tracer = None
    names = TRACE_NAMES[spec.get("trace", "off")]
    if names is not None:
        tracer = Tracer(names)
        tracer.install()
    for argv in spec.get("calls", ()):
        error = None
        rc = None
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a raising call fails its cases; the next call still runs
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        result["calls"].append({"rc": rc, "error": error, "wall_s": wall})
    if tracer is not None:
        tracer.write(spec["spans"])
    result["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
