"""Closed-form acoustic network solution and the composite layer expansion.

For piecewise-constant edge data the macroscopic solution is a single wave of
speed a = sqrt(3) per edge: (q, S) jump from the node states (q_inf, S_inf) to
the initial states across x = a t, and the density bulk value left of the wave
is rho_0 + (S_inf - S_0)/3 because the zero characteristic carries no wave.
The composite density adds the O(eps)-wide kinetic layer (modal exponentials
from the half-space spectrum) and the O(sqrt(eps t))-wide viscous layer, an
erfc profile solving the heat equation of the zero characteristic with the
constant boundary value fixed by the node solution.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import ACOUSTIC_SPEED, NodeSolution, _finite
from .kinetic import InitialData

__all__ = ["rho_left", "exact_macro", "composite_rho", "viscous_amplitudes"]

# the standard library's erfc, elementwise: importing scipy's special functions
# for this one would cost every bgknet process about 60 ms and 3.7 MB at start
_erfc = np.vectorize(math.erfc, otypes=[float])


def rho_left(data: InitialData, solution: NodeSolution) -> np.ndarray:
    """Per-edge bulk density left of the wave, rho_L = rho_0 + (S_inf - S_0)/3."""
    if data.n_edges != solution.D.size:
        raise ValueError(f"data has {data.n_edges} edges, the node solution "
                         f"{solution.D.size}")
    return data.rho0 + (solution.S_inf - data.S0) / 3.0


def _positions(x, t: float) -> np.ndarray:
    if not (_finite("time", t) and t > 0):
        raise ValueError(f"time must be finite and positive, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 1:
        raise ValueError(f"x must be a scalar or a 1-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    return x


def _wave(left: np.ndarray, right: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """Per-edge profile equal to ``left`` behind the front x = a t, ``right`` ahead."""
    return np.where((x < ACOUSTIC_SPEED * t)[None, :], left[:, None], right[:, None])


def exact_macro(data: InitialData, solution: NodeSolution,
                x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bulk (rho, q, S) profiles at time t > 0, shape (n_edges, len(x)) each."""
    x = _positions(x, t)
    return (_wave(rho_left(data, solution), data.rho0, x, t),
            _wave(solution.q_inf, data.q0, x, t),
            _wave(solution.S_inf, data.S0, x, t))


def composite_rho(data: InitialData, solution: NodeSolution, epsilon: float,
                  x: np.ndarray, t: float) -> np.ndarray:
    """Composite density: bulk wave + viscous erfc corrector + kinetic layer modes.

    The viscous layer has width sqrt(eps t); kinetic mode i decays over
    sqrt(2) lambda_i eps with the modal density amplitude of the node solution.
    """
    x = _positions(x, t)
    if np.any(x < 0):
        raise ValueError("positions must be nonnegative")
    if not (_finite("epsilon", epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    left = rho_left(data, solution)
    viscous = (solution.rho_inf - left)[:, None] \
        * _erfc(x / (2.0 * np.sqrt(epsilon * t)))[None, :]
    decay = np.sqrt(2.0) * solution.layer_eigenvalues * epsilon
    with np.errstate(under="ignore"):
        kinetic = solution.rho_layer_amplitudes @ np.exp(-x[None, :] / decay[:, None])
    return _wave(left, data.rho0, x, t) + viscous + kinetic


def viscous_amplitudes(data: InitialData, solution: NodeSolution) -> np.ndarray:
    """Per-edge viscous amplitudes r_hat0 = 3 (rho_L - rho_inf); they sum to zero."""
    return 3.0 * (rho_left(data, solution) - solution.rho_inf)
