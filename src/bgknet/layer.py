"""Discrete half-space layer ODE: tridiagonal system, stable manifold, lift.

The interface-layer moments g = (g_4, ..., g_{2N-1}) obey the linear ODE
sqrt(2) A dg/dx = -g with A the symmetric tridiagonal matrix of recursion
coefficients alpha_5..alpha_{2N-1} and zero diagonal. Bounded solutions on
[0, inf) live on the span of the eigenvectors with positive eigenvalue; the
lift matrix maps the reduced unknowns (D, C, B, gamma) of a layer solution to
the full moment vector at x = 0.

A is the Jacobi matrix of the Hermite recursion shifted by four, so its modes
come from the engine that builds the Gauss-Hermite rule
(``hermite._golub_welsch`` at offset 4; Golub and Welsch, Math. Comp. 23,
1969). The zero diagonal makes A the Golub-Kahan form of the lower-bidiagonal
B of order m = N - 2, with diagonal alpha_5, alpha_7, ... and subdiagonal
alpha_6, alpha_8, ...: A has the eigenvalues +-sigma_j, B's singular values,
which LAPACK's dbdsdc gets without vectors (dqds) to high relative accuracy.
One Newton step in Christoffel-Darboux form polishes them; the eigenvector of
sigma_j is then the offset-4 recursion at sigma_j, normalized by its
Christoffel sum, and its entries below 2^-122 are zero. The recursion starts
at q_0 > 0, so the first nonzero entry of every positive mode is positive.
The eigenvector of -sigma_j is that of sigma_j with its odd entries negated.
The values and the recursion run elementwise or in one LAPACK thread, so the
modes have the same bits at every BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .hermite import (_flush, _golub_welsch, check_half_order, readonly,
                      recursion_coefficients)

# The layer matrix is the Jacobi matrix of the Hermite recursion from alpha_5 on.
_OFFSET = 4
# A layer mode holds no nonzero entry below 2^-122 ~ 1.9e-37, and so neither
# does the lift: the rule's table floor (hermite._FLOOR = 2^-900) keeps every
# product of a table entry with a lift entry of 2^-122 or more a normal double.
# Without the flush the modes at N = 1000 hold about 900 subnormal entries.
_FLOOR = 2.0 ** -122
# The recursion table of one batch of layer orders holds at most this many
# bytes. A batch lives until the lift of its last N is built, beside the rule
# batch (hermite._BATCH_BYTES) of those N and one N's operators; at 2^20 the
# traced peak of the N = 4..160 sweep passed that of single builds at
# N = 150..160 (3.99 against 3.29 MiB), at 2^19 it stays below (3.11 MiB).
_BATCH_BYTES = 2 ** 19

__all__ = [
    "LayerMatrix",
    "LayerSpectrum",
    "build_layer_matrix",
    "stable_modes",
    "stable_manifold",
    "build_lift",
]


@dataclass(frozen=True)
class LayerMatrix:
    """Symmetric tridiagonal layer matrix of dimension 2(N-2), zero diagonal."""

    dim: int
    offdiag: np.ndarray

    def dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        idx = np.arange(self.dim - 1)
        a[idx, idx + 1] = self.offdiag
        a[idx + 1, idx] = self.offdiag
        return a


@dataclass(frozen=True)
class LayerSpectrum:
    """Eigen-decomposition of a LayerMatrix with the stable manifold extracted.

    Eigenvalues are ascending; ``R2plus`` is the view of the eigenvectors of
    the N-2 positive eigenvalues (ascending, so the last N-2 columns), each
    with its first nonzero component positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    positive_indices: np.ndarray
    R2plus: np.ndarray

    @property
    def positive_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.positive_indices]


def build_layer_matrix(N: int) -> LayerMatrix:
    """Layer matrix for 2N velocities, N an integer in [4, MAX_HALF_ORDER]."""
    _orders([N])
    offdiag = recursion_coefficients(2 * N - 1)[4:]  # alpha_5 .. alpha_{2N-1}
    readonly(offdiag)
    return LayerMatrix(2 * (N - 2), offdiag)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # First *nonzero* component positive: leading components of high-eigenvalue
    # eigenvectors underflow to exact zeros at large N and must be skipped.
    # An all-zero column has argmax 0 and a zero lead, so it is left alone.
    first = np.argmax(vectors != 0.0, axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    np.multiply(vectors, np.where(lead < 0.0, -1.0, 1.0), out=vectors)
    return vectors


def _orders(halves) -> list:
    """m = N - 2 for each N of ``halves``, every N checked as by build_layer_matrix."""
    for N in halves:
        check_half_order(N)
        if N < 4:
            raise ValueError(f"layer system needs N >= 4, got {N}")
    return [N - 2 for N in halves]


def _modes(halves):
    """Yield stable_modes(build_layer_matrix(N)) for each N of the sequence
    ``halves``, in order: the offset-4 case of ``hermite._golub_welsch``,
    whose recursion tables hold at most _BATCH_BYTES each. The modes of an N
    are read-only views of its run's table, so the table lives until the
    caller drops the modes of the run's last N."""
    yield from _golub_welsch(_orders(halves), _OFFSET, _BATCH_BYTES, _normalize)


def _normalize(m: int, sigma: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (sigma, modes) of layer order m: each recursion column of
    ``vectors`` scaled to unit length, its Christoffel sum, and its entries
    below _FLOOR flushed, in place."""
    if not sigma[0] > 0.0:
        raise NumericalError(f"expected {m} positive layer eigenvalues, "
                             f"the smallest is {sigma[0]}")
    vectors /= np.sqrt(np.einsum("ki,ki->i", vectors, vectors))
    _flush(vectors, _FLOOR)
    readonly(sigma, vectors)
    return sigma, vectors


def stable_modes(matrix: LayerMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The N-2 positive layer eigenvalues, ascending, and the 2(N-2) x (N-2)
    stable-manifold basis of their eigenvectors, ``LayerSpectrum.R2plus``
    without the rest of the spectrum; ``matrix`` is that of
    :func:`build_layer_matrix`."""
    N = matrix.dim // 2 + 2
    if not np.array_equal(matrix.offdiag, build_layer_matrix(N).offdiag):
        raise ValueError("matrix must be the layer matrix of build_layer_matrix")
    return next(_modes([N]))


def stable_manifold(matrix: LayerMatrix) -> LayerSpectrum:
    """Full spectrum of the layer matrix and the positive-eigenvalue basis."""
    sigma, modes = stable_modes(matrix)
    m = sigma.size
    vec = np.empty((2 * m, 2 * m))
    negative, r2plus = vec[:, :m], vec[:, m:]
    r2plus[...] = modes
    # -sigma_j pairs with the mode's odd entries negated; reversed, the
    # eigenvalues ascend
    negative[0::2] = r2plus[0::2, ::-1]
    np.negative(r2plus[1::2, ::-1], out=negative[1::2])
    _fix_signs(negative)
    lam = np.concatenate((-sigma[::-1], sigma))
    positive = np.arange(m, 2 * m)
    readonly(lam, vec, positive, r2plus)
    return LayerSpectrum(lam, vec, positive, r2plus)


def build_lift(r2: np.ndarray) -> np.ndarray:
    """The read-only 2N x (N+1) lift from (D, C, B, gamma) to (g_0, ..., g_{2N-1}) at x = 0,
    from the 2(N-2) x (N-2) stable-manifold basis ``LayerSpectrum.R2plus``."""
    r2 = np.asarray(r2)
    if r2.ndim != 2 or r2.shape[1] < 1 or r2.shape[0] != 2 * r2.shape[1]:
        raise ValueError(f"r2 must be a 2-d (2m, m) array with m >= 1, got shape {r2.shape}")
    N = r2.shape[1] + 2
    e1r = r2[0, :]
    T = np.zeros((2 * N, N + 1))
    T[0, 2] = 1.0 / np.sqrt(2.0)                   # g0 = B/sqrt2 + (2 sqrt2/sqrt3) g4
    T[0, 3:] = (2.0 * np.sqrt(2.0) / np.sqrt(3.0)) * e1r
    T[1, 1] = 1.0 / np.sqrt(2.0)                   # g1 = C/sqrt2
    T[2, 0] = 0.5                                  # g2 = (D-B)/2 - (2/sqrt3) g4
    T[2, 2] = -0.5
    T[2, 3:] = -(2.0 / np.sqrt(3.0)) * e1r
    # g3 row stays zero: bounded layers force g3 = 0
    T[4:, 3:] = r2
    readonly(T)
    return T
