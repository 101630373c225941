"""Regenerate the golden outputs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Writes ``deltas_3.csv`` and ``deltas_inf.csv``, the ``bgknet deltas`` sweeps
over N = 5..160 for the node degrees 3 and infinity, next to this script. A
change that regenerates them names every moved file and its largest move.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from bgknet.cli import main

GOLDEN = Path(__file__).resolve().parent
#: (node degree, N range) of each golden sweep
DELTAS = {"3": "5:160", "inf": "5:160"}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for degree, span in DELTAS.items():
            out = Path(tmp) / degree
            if main(["deltas", "--n", degree, "--N", span, "--out", str(out)]) != 0:
                sys.exit(f"bgknet deltas --n {degree} failed")
            shutil.copyfile(out / "deltas.csv", GOLDEN / f"deltas_{degree}.csv")


if __name__ == "__main__":
    regenerate()
