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
