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

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .coupling import ACOUSTIC_SPEED, NodeSolution
from .kinetic import InitialData

__all__ = [
    "MacroState",
    "CompositeProfile",
    "characteristics",
    "macro_state",
    "exact_macro",
    "composite_profile",
    "composite_rho",
    "viscous_amplitudes",
    "viscous_layer_check",
]


def characteristics(rho, q, S) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Characteristic values (r_-, r_0, r_+) = (S - a q, S - a^2 rho, S + a q)."""
    a = ACOUSTIC_SPEED
    return S - a * q, S - a * a * rho, S + a * q


@dataclass(frozen=True)
class MacroState:
    """Per-edge bulk states left of the wave and the initial (right) states."""

    rho_left: np.ndarray
    q_left: np.ndarray
    S_left: np.ndarray
    rho_right: np.ndarray
    q_right: np.ndarray
    S_right: np.ndarray
    wave_speed: float = ACOUSTIC_SPEED


def macro_state(data: InitialData, solution: NodeSolution) -> MacroState:
    """Bulk left states from the node solution; rho_L = rho_0 + (S_inf - S_0)/3."""
    rho_left = data.rho0 + (solution.S_inf - data.S0) / 3.0
    return MacroState(rho_left, solution.q_inf.copy(), solution.S_inf.copy(),
                      data.rho0.copy(), data.q0.copy(), data.S0.copy())


def exact_macro(data: InitialData, solution: NodeSolution,
                x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bulk (rho, q, S) profiles at time t > 0, shape (n_edges, len(x)) each."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ms = macro_state(data, solution)
    left = (x < ms.wave_speed * t)[None, :]
    rho = np.where(left, ms.rho_left[:, None], ms.rho_right[:, None])
    q = np.where(left, ms.q_left[:, None], ms.q_right[:, None])
    S = np.where(left, ms.S_left[:, None], ms.S_right[:, None])
    return rho, q, S


@dataclass(frozen=True)
class CompositeProfile:
    """Layer ingredients of the composite density on every edge.

    ``decay_scales`` are the physical kinetic decay lengths sqrt(2) lambda_i eps;
    ``rho_modes`` the modal density amplitudes (4/sqrt3) gamma_i (e_1^T r_i);
    ``r_hat0`` the viscous amplitudes 3 (rho_L - rho_inf) of the zero
    characteristic, whose viscous scale at time t is sqrt(eps t).
    """

    epsilon: float
    rho_inf: np.ndarray
    rho_left: np.ndarray
    rho_right: np.ndarray
    gamma: np.ndarray
    rho_modes: np.ndarray
    decay_scales: np.ndarray
    r_hat0: np.ndarray

    def viscous_scale(self, t: float) -> float:
        return float(np.sqrt(self.epsilon * t))


def composite_profile(data: InitialData, solution: NodeSolution,
                      epsilon: float) -> CompositeProfile:
    """Collect the time-independent layer data of the composite solution."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    rho_left = macro_state(data, solution).rho_left
    return CompositeProfile(
        epsilon=epsilon,
        rho_inf=solution.rho_inf.copy(),
        rho_left=rho_left,
        rho_right=data.rho0.copy(),
        gamma=solution.gamma.copy(),
        rho_modes=solution.rho_layer_amplitudes.copy(),
        decay_scales=np.sqrt(2.0) * solution.layer_eigenvalues * epsilon,
        r_hat0=viscous_amplitudes(data, solution),
    )


def composite_rho(data: InitialData, solution: NodeSolution, epsilon: float,
                  x: np.ndarray, t: float) -> np.ndarray:
    """Composite density: bulk wave + viscous erfc corrector + kinetic layer modes."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("positions must be nonnegative")
    prof = composite_profile(data, solution, epsilon)
    bulk = np.where((x < ACOUSTIC_SPEED * t)[None, :],
                    prof.rho_left[:, None], prof.rho_right[:, None])
    viscous = (prof.rho_inf - prof.rho_left)[:, None] \
        * erfc(x / (2.0 * prof.viscous_scale(t)))[None, :]
    with np.errstate(under="ignore"):
        kinetic = prof.rho_modes @ np.exp(-x[None, :] / prof.decay_scales[:, None])
    return bulk + viscous + kinetic


def viscous_amplitudes(data: InitialData, solution: NodeSolution) -> np.ndarray:
    """Per-edge viscous amplitudes r_hat0 = 3 (rho_L - rho_inf)."""
    return 3.0 * (macro_state(data, solution).rho_left - solution.rho_inf)


def viscous_layer_check(data: InitialData, solution: NodeSolution) -> float:
    """Residual of sum_i r_hat0^i = 0, i.e. sum (D - 3B) = sum (S_0 - 3 rho_0)."""
    lhs = np.sum(solution.S_inf - 3.0 * solution.rho_inf)
    rhs = np.sum(data.S0 - 3.0 * data.rho0)
    return float(abs(lhs - rhs))
