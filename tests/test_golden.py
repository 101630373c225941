"""Default CLI outputs against the golden files in ``tests/golden``.

The golden files are written by ``tests/golden/regenerate.py``, whose file
layouts, kept rows and deviation measure these tests share. Outputs are
compared at a relative tolerance of 1e-12, so ulp moves, such as those of
another OpenBLAS kernel or thread count, pass and any real change fails. Each
test prints the largest deviation it saw (shown with ``pytest -s``).
"""

import numpy as np
import pytest

from bgknet.cli import main
from golden.regenerate import (GOLDEN, NODE, NODE_STRIDE, RUNS, column_deviation,
                               node_pin, parse_csv, profile_pin, read_csv)

RTOL = 1e-12


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


#: pinned file of each produced output; compare's copies of the profiles are
#: held to the pins of the kinetic and composite commands. The summary's errors
#: are differences of O(1) profiles and carry their rounding (case 2's move by
#: 5.1e-12 of their columns' largest entries between one and two OpenBLAS
#: threads), so they are held at RTOL of the largest kinetic profile entry
RUN_PINS = {"kinetic profiles": "kinetic_case{}_profiles.csv",
            "kinetic node": "kinetic_case{}_node.csv",
            "composite profiles": "composite_case{}_profiles.csv",
            "compare summary": "compare_case{}_summary.csv",
            "compare's kinetic profiles": "kinetic_case{}_profiles.csv",
            "compare's composite profiles": "composite_case{}_profiles.csv"}


@pytest.mark.parametrize("case", RUNS)
def test_kinetic_composite_compare(tmp_path, case):
    outs = {command: tmp_path / command for command in ("kinetic", "composite", "compare")}
    for command, out in outs.items():
        assert main([command, "--case", str(case), "--out", str(out)]) == 0
    produced = {"kinetic profiles": profile_pin(outs["kinetic"], "kinetic"),
                "kinetic node": node_pin(outs["kinetic"]),
                "composite profiles": profile_pin(outs["composite"], "composite"),
                "compare summary": (outs["compare"] / "compare_summary.csv").read_text(),
                "compare's kinetic profiles": profile_pin(outs["compare"], "kinetic"),
                "compare's composite profiles": profile_pin(outs["compare"], "composite")}
    profile_scale = np.max(np.abs(read_csv(GOLDEN / RUN_PINS["kinetic profiles"]
                                           .format(case))[1][:, 2:]))
    deviations = {}
    for name, text in produced.items():
        header, rows = parse_csv(text)
        golden_header, golden = read_csv(GOLDEN / RUN_PINS[name].format(case))
        assert header == golden_header and rows.shape == golden.shape, name
        scale = profile_scale if name == "compare summary" else None
        deviations[name] = column_deviation(rows, golden, scale)
    print(f"case {case}: largest deviation, relative to the column's max (the summary: "
          f"to the largest kinetic entry): "
          + ", ".join(f"{name} {dev:.2e}" for name, dev in deviations.items()))
    assert max(deviations.values()) <= RTOL
