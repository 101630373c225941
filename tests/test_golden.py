"""Default CLI outputs against the golden files in ``tests/golden``.

The golden files are written by ``tests/golden/regenerate.py``. Outputs are
compared at a relative tolerance of 1e-12, so ulp moves, such as those of
another OpenBLAS kernel or thread count, pass and any real change fails. Each
test prints the largest deviation it saw (shown with ``pytest -s``).
"""

from pathlib import Path

import numpy as np
import pytest

from bgknet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
#: (case, N) of each golden node solve and the distribution rows kept, as in
#: tests/golden/regenerate.py
NODE = [(1, 100), (2, 100), (3, 100), (4, 100), (1, 1000)]
NODE_STRIDE = 20


def read_csv(path: Path) -> tuple[list, np.ndarray]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


@pytest.mark.parametrize("degree", ["3", "inf"])
def test_deltas_sweep(tmp_path, degree):
    assert main(["deltas", "--n", degree, "--N", "5:160", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "deltas.csv")
    golden_header, golden = read_csv(GOLDEN / f"deltas_{degree}.csv")
    assert header == golden_header and rows.shape == golden.shape
    np.testing.assert_array_equal(rows[:, 0], golden[:, 0])
    # delta_1 and delta_2 at RTOL; log10 |delta(N) - delta(N - 1)| through the
    # increment itself, whose error is that of two deltas: 2 RTOL max |delta|
    scale = np.abs(golden[:, 1:3])
    delta_dev = np.max(np.abs(rows[:, 1:3] - golden[:, 1:3]) / scale)
    increments, golden_increments = 10.0 ** rows[:, 3:], 10.0 ** golden[:, 3:]
    increment_dev = np.max(np.abs(increments - golden_increments) / np.max(scale, axis=0))
    print(f"deltas_{degree}.csv: largest deviation {delta_dev:.2e} (delta, relative), "
          f"{increment_dev:.2e} (increment, relative to max |delta|)")
    assert delta_dev <= RTOL
    assert increment_dev <= 2.0 * RTOL


def column_deviation(rows: np.ndarray, golden: np.ndarray) -> float:
    """Largest |rows - golden| relative to the largest |golden| of its column: a
    value that is zero up to rounding, such as q_inf on edge 1, moves by ulps
    of its column, not of itself."""
    return float(np.max(np.abs(rows - golden) / np.max(np.abs(golden), axis=0)))


@pytest.mark.parametrize("case,N", NODE)
def test_node_solve(tmp_path, case, N):
    assert main(["node", "--case", str(case), "--N", str(N), "--out", str(tmp_path)]) == 0
    header, summary = read_csv(tmp_path / f"node_case{case}_summary.csv")
    golden_header, golden = read_csv(GOLDEN / f"node_case{case}_N{N}_summary.csv")
    assert header == golden_header and summary.shape == golden.shape
    np.testing.assert_array_equal(summary[:, 0], golden[:, 0])
    summary_dev = column_deviation(summary[:, 1:], golden[:, 1:])
    edges = [read_csv(tmp_path / f"node_case{case}_edge{i}_distribution.csv")[1][::NODE_STRIDE]
             for i in (1, 2, 3)]
    _, golden = read_csv(GOLDEN / f"node_case{case}_N{N}_distributions.csv")
    assert all(edge.shape == (golden.shape[0], 2) for edge in edges)
    for edge in edges:
        np.testing.assert_array_equal(edge[:, 0], golden[:, 0])
    distributions = np.column_stack([edge[:, 1] for edge in edges])
    distribution_dev = column_deviation(distributions, golden[:, 1:])
    print(f"node case {case}, N = {N}: largest deviation {summary_dev:.2e} (summary), "
          f"{distribution_dev:.2e} (distributions), relative to the column's max")
    assert summary_dev <= RTOL
    assert distribution_dev <= RTOL
