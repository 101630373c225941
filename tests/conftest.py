"""Shared fixtures: cached spectral operators and coefficients per resolution.

Property tests run under one deterministic hypothesis profile: a fixed example
sequence, no example database and no per-example deadline. Hypothesis still
caches the constants it reads from the source; that cache goes to the pytest
cache directory instead of a ``.hypothesis/`` folder in the working directory.
"""

import os
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import settings

from bgknet import NodeOperators, NodeTopology, compute_coefficients

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      str(Path(__file__).resolve().parent.parent / ".pytest_cache" / "hypothesis"))
settings.register_profile("bgknet", derandomize=True, database=None, deadline=None,
                          max_examples=30)
settings.load_profile("bgknet")


@lru_cache(maxsize=16)
def cached_ops(N: int) -> NodeOperators:
    return NodeOperators.build(N)


@lru_cache(maxsize=32)
def cached_coefficients(N: int, n):
    return compute_coefficients(cached_ops(N), NodeTopology.symmetric(n))


@pytest.fixture(scope="session")
def ops_factory():
    return cached_ops


@pytest.fixture(scope="session")
def coeff_factory():
    return cached_coefficients
