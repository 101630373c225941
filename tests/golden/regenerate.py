"""Regenerate the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py [deltas] [node] [runs]

Writes the named groups of files, or all three, next to this script:

- ``deltas``: ``deltas_3.csv`` and ``deltas_inf.csv``, the ``bgknet deltas`` sweeps over
  N = 5..160 for the node degrees 3 and infinity;
- ``node``: ``node_case<c>_N<N>_summary.csv``, the ``bgknet node`` summary of each
  (case, N) of NODE, as written;
- ``node_case<c>_N<N>_distributions.csv``, every NODE_STRIDE-th row of its
  three edge distributions side by side: ``v,edge1,edge2,edge3``, the values
  copied as text;
- ``runs``, for each case of RUNS at the CLI defaults: ``kinetic_case<c>_profiles.csv``
  and ``composite_case<c>_profiles.csv``, every PROFILE_STRIDE-th cell of the
  ``bgknet kinetic`` and ``bgknet composite`` profiles, one row per edge and
  cell: ``edge,x,rho,q,S``; ``kinetic_case<c>_node.csv``, the kinetic node
  distributions ``edge,v,f``, every row; and ``compare_case<c>_summary.csv``,
  the ``bgknet compare`` summary as written.

Every file that an overwrite moves is printed with its largest deviation from
the old pin, relative to the largest entry of each column of the old pin (the
measure ``tests/test_golden.py`` checks), or with its changed header or shape.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

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
#: the cases whose kinetic, composite and compare outputs are pinned
RUNS = (1, 2, 3, 4)
#: the profile cells kept: 0, PROFILE_STRIDE, ..., of the default 600
PROFILE_STRIDE = 20
FIELDS = ("rho", "q", "S")


def node_name(case: int, N: int, part: str) -> str:
    return f"node_case{case}_N{N}_{part}.csv"


def parse_csv(text: str) -> tuple[list, np.ndarray]:
    header, *rows = text.splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def read_csv(path: Path) -> tuple[list, np.ndarray]:
    return parse_csv(path.read_text())


def column_deviation(rows: np.ndarray, golden: np.ndarray, scale=None) -> float:
    """Largest |rows - golden| relative to scale, by default the largest |golden|
    of its column: a value that is zero up to rounding, such as q_inf on edge 1,
    moves by ulps of its column, not of itself."""
    if scale is None:
        scale = np.max(np.abs(golden), axis=0)
    return float(np.max(np.abs(rows - golden) / scale))


def profile_pin(out: Path, tag: str) -> str:
    """``edge,x,rho,q,S`` of every PROFILE_STRIDE-th cell of the
    ``<field>_<tag>_<edge>.csv`` profiles in out, edge by edge, the values
    copied as text."""
    lines = ["edge,x," + ",".join(FIELDS)]
    for edge in range(1, EDGES + 1):
        columns = [(out / f"{field}_{tag}_{edge}.csv").read_text().splitlines()[1:]
                   for field in FIELDS]
        for rows in zip(*(column[::PROFILE_STRIDE] for column in columns)):
            x = rows[0].split(",")[0]
            lines.append(",".join([f"{edge}", x] + [row.split(",")[1] for row in rows]))
    return "\n".join(lines) + "\n"


def node_pin(out: Path) -> str:
    """``edge,v,f`` of every row of the ``f_kinetic_<edge>.csv`` distributions in out."""
    lines = ["edge,v,f"]
    for edge in range(1, EDGES + 1):
        lines += [f"{edge},{row}"
                  for row in (out / f"f_kinetic_{edge}.csv").read_text().splitlines()[1:]]
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> None:
    if main(argv) != 0:
        sys.exit(f"bgknet {' '.join(argv)} failed")


def write_pin(name: str, text: str) -> None:
    """Write a pinned file and report it if the overwrite moved it."""
    path = GOLDEN / name
    old = path.read_text() if path.exists() else None
    path.write_text(text)
    if old is None:
        print(f"{name}: new")
    elif old != text:
        old_header, *old_rows = old.splitlines()
        new_header, *new_rows = text.splitlines()
        if old_header != new_header or len(old_rows) != len(new_rows):
            print(f"{name}: header or shape changed")
        else:
            _, before = parse_csv(old)
            _, after = parse_csv(text)
            print(f"{name}: largest deviation {column_deviation(after, before):.2e} "
                  f"relative to the column's max")


def regenerate_deltas(tmp: Path) -> None:
    for degree, span in DELTAS.items():
        out = tmp / degree
        run_cli(["deltas", "--n", degree, "--N", span, "--out", str(out)])
        write_pin(f"deltas_{degree}.csv", (out / "deltas.csv").read_text())


def regenerate_node(tmp: Path) -> None:
    for case, N in NODE:
        out = tmp / f"node{case}_{N}"
        run_cli(["node", "--case", str(case), "--N", str(N), "--out", str(out)])
        write_pin(node_name(case, N, "summary"),
                  (out / f"node_case{case}_summary.csv").read_text())
        edges = [(out / f"node_case{case}_edge{i + 1}_distribution.csv").read_text()
                 .splitlines()[1:] for i in range(EDGES)]
        lines = ["v," + ",".join(f"edge{i + 1}" for i in range(EDGES))]
        for rows in zip(*(rows[::NODE_STRIDE] for rows in edges)):
            lines.append(",".join([rows[0].split(",")[0]]
                                  + [row.split(",")[1] for row in rows]))
        write_pin(node_name(case, N, "distributions"), "\n".join(lines) + "\n")


def regenerate_runs(tmp: Path) -> None:
    for case in RUNS:
        outs = {command: tmp / f"{command}{case}"
                for command in ("kinetic", "composite", "compare")}
        for command, out in outs.items():
            run_cli([command, "--case", str(case), "--out", str(out)])
        write_pin(f"kinetic_case{case}_profiles.csv", profile_pin(outs["kinetic"], "kinetic"))
        write_pin(f"kinetic_case{case}_node.csv", node_pin(outs["kinetic"]))
        write_pin(f"composite_case{case}_profiles.csv",
                  profile_pin(outs["composite"], "composite"))
        write_pin(f"compare_case{case}_summary.csv",
                  (outs["compare"] / "compare_summary.csv").read_text())


GROUPS = {"deltas": regenerate_deltas, "node": regenerate_node, "runs": regenerate_runs}


def regenerate(groups=tuple(GROUPS)) -> None:
    unknown = set(groups) - set(GROUPS)
    if unknown:
        sys.exit(f"unknown groups {sorted(unknown)}; choose from {list(GROUPS)}")
    with tempfile.TemporaryDirectory() as tmp:
        for group in groups:
            GROUPS[group](Path(tmp))


if __name__ == "__main__":
    regenerate(sys.argv[1:] or tuple(GROUPS))
