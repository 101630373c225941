"""Gauss-Hermite velocity grid and orthonormal Hermite basis; the rule is its own
moment transform.

The velocity discretization lives on the 2N Gauss-Hermite nodes for the weight
e^{-v^2}. All basis evaluations carry the exponential weight, i.e. we work with
the Hermite functions H_k(v) = P_k(v) e^{-v^2/2} built from the orthonormal
polynomials P_0 = pi^{-1/4}, P_1 = sqrt(2) pi^{-1/4} v and the three-term
recursion v P_k = alpha_{k+1} P_{k+1} + alpha_k P_{k-1} with alpha_k = sqrt(k/2).
Carrying the weight inside the recursion keeps every table entry representable
for large N, where the raw polynomial values overflow and the raw quadrature
weights underflow.

The Jacobi matrix of the rule has a zero diagonal, so it is the Golub-Kahan
form of a bidiagonal matrix and its positive eigenvalues, the positive nodes,
are singular values. This module holds the one checked call of LAPACK's
bidiagonal SVD, dbdsdc, that the rule and the layer spectrum share; the routine
itself is bound in ``_lapack``, from the LAPACK numpy links.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._lapack import dbdsdc as _dbdsdc
from .errors import NumericalError

__all__ = [
    "MAX_HALF_ORDER",
    "QuadratureRule",
    "recursion_coefficients",
    "hermite_functions",
    "build_rule",
]

MAX_HALF_ORDER = 1500

# Every H_k(x) with k < 10^100 underflows long before |x| = 1e150, and x^2 is
# still finite there; larger points are evaluated at this magnitude.
_CLIP = 1e150
# Between two rescales the recursion may grow or shrink by at most e^600, so no
# intermediate value leaves the normal range of a double.
_LOG_BLOCK = 600.0


def readonly(*arrays: np.ndarray) -> None:
    """Mark constructed arrays immutable; shared objects must not be written."""
    for array in arrays:
        array.flags.writeable = False


def _bidiagonal_svd(d: np.ndarray, e: np.ndarray, compq: str = "I"):
    """SVD B = U diag(sigma) V^T of the lower-bidiagonal B with diagonal ``d``
    and subdiagonal ``e``, by LAPACK dbdsdc: divide and conquer with vectors,
    dqds (Fernando and Parlett) for the values alone.

    Works in place: ``d`` comes back holding sigma, descending, and ``e`` is
    overwritten. With ``compq="I"`` returns the Fortran-ordered (U, V^T); with
    ``compq="N"`` only sigma is computed and None is returned. LAPACK reads and
    writes the raw buffers, so every argument is checked before the call.
    """
    if compq not in ("N", "I"):
        raise ValueError(f"compq must be 'N' or 'I', got {compq!r}")
    for name, array in (("d", d), ("e", e)):
        if not isinstance(array, np.ndarray) or array.dtype != np.float64 or array.ndim != 1:
            raise ValueError(f"{name} must be a 1-d float64 array")
        if not (array.flags.c_contiguous and array.flags.writeable):
            raise ValueError(f"{name} must be contiguous and writeable")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} must be finite")
    m = d.size
    if m < 1:
        raise ValueError("d must hold at least one entry")
    if e.size != m - 1:
        raise ValueError(f"e must hold len(d) - 1 = {m - 1} entries, got {e.size}")
    if compq == "I":
        u, vt = np.empty((m, m), order="F"), np.empty((m, m), order="F")
        work = np.empty(3 * m * m + 4 * m)
        u_data, vt_data = u.ctypes.data, vt.ctypes.data
    else:
        # u and vt are not referenced for compq = "N"
        work, u_data, vt_data = np.empty(4 * m), None, None
    iwork = _lapack.integer_array(8 * m)
    n, info = ctypes.byref(_lapack.integer(m)), _lapack.integer(0)
    # q and iq are referenced only for compq = "P"
    _dbdsdc(b"L", compq.encode(), n, d.ctypes.data, e.ctypes.data, u_data, n, vt_data, n,
            None, None, work.ctypes.data, iwork.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise NumericalError(f"bidiagonal SVD (dbdsdc) of order {m} failed, info = {info.value}")
    return (u, vt) if compq == "I" else None


def recursion_coefficients(count: int) -> np.ndarray:
    """Return alpha_k = sqrt(k/2) for k = 1..count."""
    return np.sqrt(np.arange(1, count + 1) / 2.0)


def hermite_functions(points, count: int) -> np.ndarray:
    """Evaluate the Hermite functions H_k at arbitrary points.

    Returns the (count, len(points)) table H[k, i] = P_k(x_i) e^{-x_i^2/2}.
    The recursion writes unnormalized values straight into the rows of the
    table and carries the weight e^{-x^2/2} as a log scale. Every R steps the
    last two rows are divided by the larger of their magnitudes and a new
    block, with its own log scale, begins; at the end each block is multiplied
    twice by the exponential of half its scale, since e^scale alone can
    underflow where the block's rows are large. R follows from max |x|: one step
    changes the pair's magnitude by at most sqrt(2)(1 + |x|), so no
    intermediate value of a block leaves the normal range and no finite point
    overflows. Entries whose true size is below the double-precision range
    come out as an honest zero.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    x = np.atleast_1d(np.asarray(points, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"points must be a scalar or a 1-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    x = np.clip(x, -_CLIP, _CLIP)
    out = np.empty((count, x.size))
    out[0] = np.pi ** -0.25
    if count > 1:
        np.multiply(x, math.sqrt(2.0) * np.pi ** -0.25, out=out[1])
    peak = float(np.max(np.abs(x), initial=0.0))
    block = max(1, int(_LOG_BLOCK / math.log(math.sqrt(2.0) * (1.0 + peak))))
    alpha = recursion_coefficients(count)
    work = np.empty_like(x)
    starts, scales = [0], [-0.5 * x * x]
    for k in range(1, count - 1):
        if k % block == 0:
            # rows k - 1 and k open the next block; max(|u_{k-1}|, |u_k|) > 0
            pair = out[k - 1:k + 1]
            mag = np.maximum(np.abs(pair[0]), np.abs(pair[1]))
            pair /= mag
            starts.append(k - 1)
            scales.append(scales[-1] + np.log(mag))
        # u_{k+1} = (x u_k - alpha_k u_{k-1}) / alpha_{k+1}
        row = out[k + 1]
        np.multiply(out[k - 1], alpha[k - 1], out=row)
        np.multiply(x, out[k], out=work)
        np.subtract(work, row, out=row)
        np.divide(row, alpha[k], out=row)
    starts.append(count)
    with np.errstate(under="ignore"):
        for start, stop, scale in zip(starts, starts[1:], scales):
            # two half factors: e^scale alone may leave the normal range
            # where the block's rows are large
            half = np.exp(0.5 * scale)
            rows = out[start:stop]
            rows *= half
            rows *= half
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule with 2N nodes for the weight e^{-v^2}.

    ``scaled_weights`` holds w_i e^{v_i^2}; this is the combination entering the
    discrete Maxwellian and the only form that stays representable at large N.
    ``basis`` is the Hermite function table S = H_k(v_i), k < 2N, the weights
    were computed from, and the moment transform g = S f. The rule is exact to
    degree 4N - 1, so S diag(w~) S^T = I with w~ = ``scaled_weights`` and
    :meth:`solve` applies S^{-1} = diag(w~) S^T.
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

    def solve(self, g: np.ndarray) -> np.ndarray:
        """Inverse transform f = diag(w~) S^T g; g is one moment vector or a (2N, k) batch."""
        f = self.basis.T @ g
        return f * self.scaled_weights.reshape((-1,) + (1,) * (f.ndim - 1))


def check_half_order(N) -> None:
    """Reject an N that is not an integer in [1, MAX_HALF_ORDER]."""
    if not isinstance(N, (int, np.integer)) or not 1 <= N <= MAX_HALF_ORDER:
        raise ValueError(f"N must be an integer in [1, {MAX_HALF_ORDER}], got {N!r}")


def _newton_step(x: np.ndarray, order: int) -> np.ndarray:
    """One Newton step on the monic Hermite polynomial p_order at the points ``x``.

    The ratios s_k = p_{k+1}/p_k obey s_0 = x, s_k = x - (k/2)/s_{k-1}, and
    p_order' = order p_{order-1}, so the step is x - s_{order-1}/order. A zero
    ratio gives an infinite next one and a ratio x after it, as the recursion
    of the p_k does.
    """
    s = x.copy()
    with np.errstate(divide="ignore"):
        for k in range(1, order):
            np.divide(0.5 * k, s, out=s)
            np.subtract(x, s, out=s)
    return x - s / order


def build_rule(N: int) -> QuadratureRule:
    """Build the 2N-point Gauss-Hermite rule (Golub and Welsch, Math. Comp. 23, 1969).

    The nodes are the eigenvalues of the zero-diagonal Jacobi matrix with
    off-diagonal alpha_k = sqrt(k/2). Its even rows and odd columns form the
    N x N lower bidiagonal with diagonal alpha_1, alpha_3, ..., alpha_{2N-1}
    and subdiagonal alpha_2, ..., alpha_{2N-2}, whose singular values are the
    N positive nodes (dbdsdc, values only). One Newton step on P_{2N} polishes
    them, and they are mirrored to -v exactly. The weights take the
    Christoffel form w_i e^{v_i^2} = 1 / sum_k H_k(v_i)^2. The table is
    evaluated at the N positive nodes and mirrored by H_k(-v) = (-1)^k H_k(v),
    which the recursion satisfies bit for bit on the exactly symmetric nodes.
    """
    check_half_order(N)
    order = 2 * N
    alpha = recursion_coefficients(order - 1)
    d, e = alpha[0::2].copy(), alpha[1::2].copy()
    _bidiagonal_svd(d, e, "N")
    positive = _newton_step(d[::-1], order)
    nodes = np.concatenate((-positive[::-1], positive))
    half = hermite_functions(positive, order)
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

