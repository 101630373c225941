"""Discrete half-space layer ODE: tridiagonal system, stable manifold, lift.

The interface-layer moments g = (g_4, ..., g_{2N-1}) obey the linear ODE
sqrt(2) A dg/dx = -g with A the symmetric tridiagonal matrix of recursion
coefficients alpha_5..alpha_{2N-1} and zero diagonal. Bounded solutions on
[0, inf) live on the span of the eigenvectors with positive eigenvalue; the
lift matrix maps the reduced unknowns (D, C, B, gamma) of a layer solution to
the full moment vector at x = 0.

The zero diagonal makes A the Golub-Kahan form of a bidiagonal matrix: the
even rows and odd columns of A are the lower-bidiagonal B of order m = N - 2,
with diagonal alpha_5, alpha_7, ... and subdiagonal alpha_6, alpha_8, ....
From B = U diag(sigma) V^T, A has the eigenvalues +-sigma_j, and the
eigenvector of +-sigma_j interleaves u_j (even entries) and +-v_j (odd
entries), divided by sqrt(2). One SVD of B by LAPACK's dbdsdc, which gets
every sigma to high relative accuracy, gives the whole spectrum; the stable
manifold needs only the m positive modes. The checked dbdsdc call lives in
``hermite``, whose rule takes its nodes from the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .hermite import _bidiagonal_svd, check_half_order, readonly, recursion_coefficients

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
    flipped so its first nonzero component is positive.
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
    check_half_order(N)
    if N < 4:
        raise ValueError(f"layer system needs N >= 4, got {N}")
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


def _positive_modes(matrix: LayerMatrix, out: np.ndarray) -> np.ndarray:
    """Write the m eigenvectors of positive eigenvalue into the (2m, m) ``out``
    and return those eigenvalues sigma, ascending: column j interleaves u_j and
    v_j of sigma_j, divided by sqrt(2), its first nonzero component positive."""
    d, e = matrix.offdiag[0::2].copy(), matrix.offdiag[1::2].copy()
    u, vt = _bidiagonal_svd(d, e)
    np.divide(u[:, ::-1], np.sqrt(2.0), out=out[0::2])
    np.divide(vt[::-1].T, np.sqrt(2.0), out=out[1::2])
    _fix_signs(out)
    sigma = d[::-1].copy()
    if not sigma[0] > 0.0:
        raise NumericalError(f"expected {sigma.size} positive layer eigenvalues, "
                             f"the smallest is {sigma[0]}")
    return sigma


def stable_modes(matrix: LayerMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The N-2 positive layer eigenvalues, ascending, and the 2(N-2) x (N-2)
    stable-manifold basis of their eigenvectors, ``LayerSpectrum.R2plus``
    without the rest of the spectrum."""
    r2plus = np.empty((matrix.dim, matrix.dim // 2))
    sigma = _positive_modes(matrix, r2plus)
    readonly(sigma, r2plus)
    return sigma, r2plus


def stable_manifold(matrix: LayerMatrix) -> LayerSpectrum:
    """Full spectrum of the layer matrix and the positive-eigenvalue basis."""
    m = matrix.dim // 2
    vec = np.empty((matrix.dim, matrix.dim))
    negative, r2plus = vec[:, :m], vec[:, m:]
    sigma = _positive_modes(matrix, r2plus)
    # -sigma_j pairs with (u_j, -v_j); reversed, the eigenvalues ascend
    negative[0::2] = r2plus[0::2, ::-1]
    np.negative(r2plus[1::2, ::-1], out=negative[1::2])
    _fix_signs(negative)
    lam = np.concatenate((-sigma[::-1], sigma))
    positive = np.arange(m, matrix.dim)
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
