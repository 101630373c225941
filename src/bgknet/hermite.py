"""Gauss-Hermite velocity grid, orthonormal Hermite basis and moment transform.

The velocity discretization lives on the 2N Gauss-Hermite nodes for the weight
e^{-v^2}. All basis evaluations carry the exponential weight, i.e. we work with
the Hermite functions H_k(v) = P_k(v) e^{-v^2/2} built from the orthonormal
polynomials P_0 = pi^{-1/4}, P_1 = sqrt(2) pi^{-1/4} v and the three-term
recursion v P_k = alpha_{k+1} P_{k+1} + alpha_k P_{k-1} with alpha_k = sqrt(k/2).
Carrying the weight inside the recursion keeps every table entry representable
for large N, where the raw polynomial values overflow and the raw quadrature
weights underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "MAX_HALF_ORDER",
    "QuadratureRule",
    "MomentTransform",
    "recursion_coefficients",
    "hermite_functions",
    "build_rule",
]

MAX_HALF_ORDER = 1500


def readonly(*arrays: np.ndarray) -> None:
    """Mark constructed arrays immutable; shared objects must not be written."""
    for array in arrays:
        array.flags.writeable = False


def recursion_coefficients(count: int) -> np.ndarray:
    """Return alpha_k = sqrt(k/2) for k = 1..count."""
    return np.sqrt(np.arange(1, count + 1) / 2.0)


def hermite_functions(points, count: int) -> np.ndarray:
    """Evaluate the Hermite functions H_k at arbitrary points.

    Returns the (count, len(points)) table H[k, i] = P_k(x_i) e^{-x_i^2/2}.
    The recursion runs on dynamically rescaled values so that intermediate
    polynomial magnitudes never overflow; entries whose true size is below
    the double-precision range come out as an honest zero.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    x = np.atleast_1d(np.asarray(points, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"points must be a scalar or a 1-d array, got shape {x.shape}")
    out = np.empty((count, x.size))
    log_scale = -0.5 * x * x - 0.25 * np.log(np.pi)
    u_prev = np.zeros_like(x)
    u = np.ones_like(x)
    mag, work = np.empty_like(x), np.empty_like(x)
    with np.errstate(under="ignore"):
        np.exp(log_scale, out=out[0])
        alpha = recursion_coefficients(count)
        for k in range(count - 1):
            # u_{k+1} = (x u_k - alpha_k u_{k-1}) / alpha_{k+1}, built in u_prev's buffer
            np.multiply(u_prev, alpha[k - 1] if k >= 1 else 0.0, out=u_prev)
            np.multiply(x, u, out=work)
            np.subtract(work, u_prev, out=u_prev)
            np.divide(u_prev, alpha[k], out=u_prev)
            u, u_prev = u_prev, u
            # after the rescale max(|u|, |u_prev|) = 1, so mag is never zero
            np.maximum(np.abs(u, out=mag), np.abs(u_prev, out=work), out=mag)
            u /= mag
            u_prev /= mag
            log_scale += np.log(mag, out=mag)
            row = np.exp(log_scale, out=out[k + 1])
            row *= u
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule with 2N nodes for the weight e^{-v^2}.

    ``scaled_weights`` holds w_i e^{v_i^2}; this is the combination entering the
    discrete Maxwellian and the only form that stays representable at large N.
    ``basis`` is the Hermite function table H_k(v_i), k < 2N, the weights were
    computed from; it is the one table of the rule's N, and the moment
    transform is built on it.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    scaled_weights: np.ndarray
    basis: np.ndarray

    @property
    def half(self) -> int:
        """N, the number of positive velocities."""
        return self.order // 2


def check_half_order(N) -> None:
    """Reject an N that is not an integer in [1, MAX_HALF_ORDER]."""
    if not isinstance(N, (int, np.integer)) or not 1 <= N <= MAX_HALF_ORDER:
        raise ValueError(f"N must be an integer in [1, {MAX_HALF_ORDER}], got {N!r}")


def build_rule(N: int) -> QuadratureRule:
    """Build the 2N-point Gauss-Hermite rule by the Golub-Welsch construction.

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix with
    off-diagonal alpha_k = sqrt(k/2); weights are sqrt(pi) times the squared
    first components of the normalized eigenvectors, evaluated through the
    stable identity w_i e^{v_i^2} = 1 / sum_k H_k(v_i)^2. The table is
    evaluated at the N positive nodes and mirrored by H_k(-v) = (-1)^k H_k(v),
    which the recursion satisfies bit for bit on the exactly symmetric nodes.
    """
    check_half_order(N)
    order = 2 * N
    offdiag = recursion_coefficients(order - 1)
    nodes = eigh_tridiagonal(np.zeros(order), offdiag, eigvals_only=True)
    nodes = 0.5 * (nodes - nodes[::-1])  # enforce exact +- symmetry
    half = hermite_functions(nodes[N:], order)
    scaled_half = 1.0 / np.einsum("ki,ki->i", half, half)
    table = np.empty((order, order))
    table[:, N:] = half
    np.negative(half[1::2, ::-1], out=table[1::2, :N])
    table[0::2, :N] = half[0::2, ::-1]
    scaled = np.concatenate((scaled_half[::-1], scaled_half))
    with np.errstate(under="ignore"):
        weights = scaled * np.exp(-nodes * nodes)
    readonly(nodes, weights, scaled, table)
    return QuadratureRule(order, nodes, weights, scaled, table)


@dataclass(frozen=True)
class MomentTransform:
    """The invertible map between nodal values f_i and moments g_k = sum_i H_k(v_i) f_i,
    g = ``matrix`` @ f.

    The 2N-node rule integrates polynomials up to degree 4N - 1 exactly, so
    the discrete orthonormality S diag(w~) S^T = I with w~ = ``scaled_weights``
    makes the inverse the weighted transpose, S^{-1} = diag(w~) S^T.
    """

    matrix: np.ndarray
    scaled_weights: np.ndarray

    def solve(self, g: np.ndarray) -> np.ndarray:
        """Inverse transform f = diag(w~) S^T g; g is one moment vector or a (2N, k) batch."""
        f = self.matrix.T @ g
        return f * self.scaled_weights.reshape((-1,) + (1,) * (f.ndim - 1))
