"""Regenerate the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Writes, next to this script:

- ``deltas_3.csv`` and ``deltas_inf.csv``, the ``bgknet deltas`` sweeps over
  N = 5..160 for the node degrees 3 and infinity;
- ``node_case<c>_N<N>_summary.csv``, the ``bgknet node`` summary of each
  (case, N) of NODE, as written;
- ``node_case<c>_N<N>_distributions.csv``, every NODE_STRIDE-th row of its
  three edge distributions side by side: ``v,edge1,edge2,edge3``, the values
  copied as text.

A change that regenerates them names every moved file and its largest move.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from bgknet.cli import main

GOLDEN = Path(__file__).resolve().parent
#: (node degree, N range) of each golden sweep
DELTAS = {"3": "5:160", "inf": "5:160"}
#: (case, N) of each golden node solve: the four presets at the default N and
#: case 1 at N = 1000
NODE = [(1, 100), (2, 100), (3, 100), (4, 100), (1, 1000)]
#: the distribution rows kept: 0, NODE_STRIDE, ..., the last of the default 1201
NODE_STRIDE = 20
EDGES = 3


def node_name(case: int, N: int, part: str) -> str:
    return f"node_case{case}_N{N}_{part}.csv"


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for degree, span in DELTAS.items():
            out = Path(tmp) / degree
            if main(["deltas", "--n", degree, "--N", span, "--out", str(out)]) != 0:
                sys.exit(f"bgknet deltas --n {degree} failed")
            shutil.copyfile(out / "deltas.csv", GOLDEN / f"deltas_{degree}.csv")
        for case, N in NODE:
            out = Path(tmp) / f"node{case}_{N}"
            if main(["node", "--case", str(case), "--N", str(N), "--out", str(out)]) != 0:
                sys.exit(f"bgknet node --case {case} --N {N} failed")
            shutil.copyfile(out / f"node_case{case}_summary.csv",
                            GOLDEN / node_name(case, N, "summary"))
            edges = [(out / f"node_case{case}_edge{i + 1}_distribution.csv").read_text()
                     .splitlines()[1:] for i in range(EDGES)]
            lines = ["v," + ",".join(f"edge{i + 1}" for i in range(EDGES))]
            for rows in zip(*(rows[::NODE_STRIDE] for rows in edges)):
                lines.append(",".join([rows[0].split(",")[0]]
                                      + [row.split(",")[1] for row in rows]))
            (GOLDEN / node_name(case, N, "distributions")).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    regenerate()
