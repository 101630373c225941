"""Benchmark of bgknet: every workload in a fresh interpreter, one at a time.

    python3 perfbench/run.py                       # all workloads, untraced
    python3 perfbench/run.py --workload graded --seed 3 --trace 0

Each workload runs in whole rounds for at least ``--seconds``, by default the
``run_seconds`` of ``BENCHMARK.json``, with which the benchmark's command is
always invoked. A round is a
list of sessions, and every session is a fresh worker process, as a user runs
one CLI command or one script. A worker's set-up (interpreter start, imports,
seeded inputs, first LAPACK calls) is timed up to its ready line; ``setup_s``
is the median over the run. Only the operations count towards ``wall_s``, the
median time of a round, and every output is checked. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``. The
same object, with the raw samples, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "node-1000", "compare", "graded")
#: Fewest set-up samples per run; set-up-only processes make up the count.
SETUP_SAMPLES = 5
#: A run must end within 180 s; every process is stopped by then.
DEADLINE_S = 170.0
#: Longest ``--seconds``: the last round of the slowest workload (about 14 s)
#: and its checks then still end well before DEADLINE_S.
MAX_SECONDS = 60.0


class BenchError(RuntimeError):
    """The benchmark could not measure: the program is missing or a process died."""


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"the run exceeded {DEADLINE_S:.0f} s")
    return left


def _session(command: list, env: dict, deadline: float) -> tuple[float, dict, dict]:
    """Run one worker process: its set-up seconds, its ready line, its report.

    Set-up is the time from process start to the ready line, which the worker
    prints once its inputs are built and LAPACK is warm.
    """
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        watchdog = threading.Timer(_remaining(deadline), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read().strip().splitlines()
            proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    if proc.returncode != 0 or not line or ("--session" in command and not rest):
        raise BenchError(f"a worker process exited with status {proc.returncode}")
    return setup_s, json.loads(line), json.loads(rest[-1]) if rest else {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Whole rounds for at least ``seconds``, one process per session: metrics."""
    env = _environment()
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RESULTS)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", workdir, "--trace", str(int(trace))]
    run = {"round_times": [], "setup_samples": [], "import_samples": [],
           "attempted": 0, "failed": 0, "problems": [], "peak_rss_mb": 0.0}
    totals = []
    sessions = 1  # until the first worker reports how many a round has
    start = time.perf_counter()
    try:
        while not run["round_times"] or time.perf_counter() - start < seconds:
            busy, k = 0.0, 0
            while k < sessions:
                setup_s, ready, report = _session(command + ["--session", str(k)],
                                                  env, deadline)
                sessions = ready["sessions"]
                run["setup_samples"].append(setup_s)
                run["import_samples"].append(ready["import_s"])
                busy += sum(report["op_times"])
                for key in ("attempted", "failed", "problems"):
                    run[key] += report[key]
                run["peak_rss_mb"] = max(run["peak_rss_mb"], report["peak_rss_mb"])
                if trace:
                    totals.append(report["totals"])
                k += 1
            run["round_times"].append(busy)
        while len(run["setup_samples"]) < SETUP_SAMPLES:
            setup_s, ready, _ = _session(command, env, deadline)
            run["setup_samples"].append(setup_s)
            run["import_samples"].append(ready["import_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run["wall_s"] = statistics.median(run["round_times"])
    if trace:
        metrics = layer_metrics(totals, len(run["round_times"]))
        metrics["setup.import_s"] = {"value": statistics.median(run["import_samples"]),
                                     "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(run["setup_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    run["metrics"] = metrics
    return run


def _print_report(workload: str, report: dict) -> None:
    rounds = ", ".join(f"{t:.3f}" for t in report["round_times"])
    print(f"{workload}: {len(report['round_times'])} rounds ({rounds} s), "
          f"attempted {report['attempted']}, failed {report['failed']}, "
          f"wall_s {report['wall_s']:.4f} s")
    for name, metric in report["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="minimum measured time per workload, in whole rounds "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bgknet" / "__init__.py").is_file():
        print(f"error: no bgknet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not 0 < seconds <= MAX_SECONDS:
        print(f"error: --seconds must lie in (0, {MAX_SECONDS:g}]", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(names)
    reports = {}
    try:
        for name in names:
            reports[name] = run_workload(name, args.seed, seconds,
                                         bool(args.trace), deadline)
            _print_report(name, reports[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{m}": v for w, r in reports.items() for m, v in r["metrics"].items()}
    correct = all(not r["problems"] for r in reports.values())
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "runs": reports}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
