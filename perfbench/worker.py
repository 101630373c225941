"""Run one session of a workload in a fresh interpreter.

The process imports the program, builds the workload's inputs from the seed
and makes the first LAPACK calls, then prints one JSON line: the parent times
everything up to that line as set-up. With ``--session K`` it then runs the
operations of session K, checks each output, and prints a second JSON line
with the operation times (and, with ``--trace 1``, the span totals).
"""

import time

_IMPORT_START = time.perf_counter()

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from bgknet import cli  # noqa: E402,F401  (the console script's module)

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def warm_up(seed: int) -> None:
    """First calls into the LAPACK of numpy and of scipy, as users pay them."""
    a = np.random.default_rng(seed).standard_normal((100, 101))
    np.linalg.svd(a)
    scipy.linalg.lu_factor(a[:, :100])


def run_session(operations: list, tracer: Tracer) -> dict:
    """Time each operation; check its output untimed."""
    times, problems = [], []
    failed = 0
    for op in operations:
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception:  # a failed operation is counted, the session goes on
            failed += 1
            print(f"operation {op.label!r} failed:", file=sys.stderr)
            traceback.print_exc()
            continue
        times.append(time.perf_counter() - t0)
        with tracer.paused():
            try:
                problems += [f"{op.label}: {p}" for p in op.check(value, tracer.last)]
            except Exception as exc:  # a check that cannot run is a failed check
                problems.append(f"{op.label}: check raised {exc!r}")
        tracer.last.clear()
        del value
    return {"op_times": times, "attempted": len(operations), "failed": failed,
            "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, help="directory for CLI outputs")
    parser.add_argument("--session", type=int, help="session to run (none: set-up only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    warm_up(args.seed)
    print(json.dumps({"import_s": IMPORT_S, "sessions": len(workload.sessions)}),
          flush=True)
    if args.session is None:
        return 0

    tracer = Tracer(timed=bool(args.trace), tapped=workload.taps)
    tracer.install()
    report = run_session(workload.sessions[args.session](), tracer)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        report["totals"] = tracer.totals()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
