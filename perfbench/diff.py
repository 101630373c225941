"""Compare two benchmark result files metric by metric.

    python3 perfbench/diff.py perfbench/results/graded-seed1-trace0.json other.json

Each file is one written by ``run.py`` (or its last stdout line saved to a
file). Prints both values, the relative change of the second against the
first, and the check status and failure share of each.
"""

import json
import sys


def _load(path: str) -> dict:
    with open(path) as handle:
        text = handle.read().strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.splitlines()[-1])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (_load(p) for p in args)
    for label, r in (("A", a), ("B", b)):
        print(f"{label}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    print(f"{'metric':40s} {'A':>14s} {'B':>14s} {'B/A-1':>9s} unit")
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        unit = (a["metrics"].get(name) or b["metrics"][name])["unit"]
        change = f"{vb / va - 1:+9.2%}" if va and vb is not None else f"{'-':>9s}"
        fa = "-" if va is None else f"{va:.6g}"
        fb = "-" if vb is None else f"{vb:.6g}"
        print(f"{name:40s} {fa:>14s} {fb:>14s} {change} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
