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
are singular values. One Golub-Welsch engine (:func:`_golub_welsch`) builds
the rule and the layer spectrum, whose Jacobi matrix is the rule's with the
recursion coefficients shifted by four: LAPACK's bidiagonal SVD dbdsdc,
values only (bound in ``_lapack``, from the LAPACK numpy links), one Newton
step in Christoffel-Darboux form and the eigenvectors from one recursion.
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
# The recursion table of one batch of rules holds at most this many bytes.
_BATCH_BYTES = 2 ** 20
# A rule's table holds no nonzero entry below 2^-900 ~ 1.2e-271: the product of
# an entry with an operand of 2^-122 or more is then a normal double, and BLAS
# runs at full speed (a subnormal operand slows a product at N = 1000 about
# twofold). The smallest nonzero lift entry at N = 1000 is about 1e-33 ~ 2^-109,
# and a dropped term is below 2^-900 times its operand. No table with N <= 300
# has an entry below the floor; at N = 1000 about 49,000 do.
_FLOOR = 2.0 ** -900
# Rows of a rule's table flushed at once.
_FLUSH_ROWS = 64


def readonly(*arrays: np.ndarray) -> None:
    """Mark constructed arrays immutable; shared objects must not be written."""
    for array in arrays:
        array.flags.writeable = False


def _bidiagonal_svd(d: np.ndarray, e: np.ndarray) -> None:
    """Singular values of the lower-bidiagonal B with diagonal ``d`` and
    subdiagonal ``e``, by LAPACK dbdsdc without vectors: dqds (Fernando and
    Parlett), every value to high relative accuracy.

    Works in place: ``d`` comes back holding sigma, descending, and ``e`` is
    overwritten. LAPACK reads and writes the raw buffers, so every argument is
    checked before the call.
    """
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
    work, iwork = np.empty(4 * m), _lapack.integer_array(8 * m)
    n, info = ctypes.byref(_lapack.integer(m)), _lapack.integer(0)
    # values only (compq = "N"): u, vt, q and iq are not referenced
    _dbdsdc(b"L", b"N", n, d.ctypes.data, e.ctypes.data, None, n, None, n,
            None, None, work.ctypes.data, iwork.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise NumericalError(f"bidiagonal SVD (dbdsdc) of order {m} failed, info = {info.value}")


def recursion_coefficients(count: int) -> np.ndarray:
    """Return alpha_k = sqrt(k/2) for k = 1..count."""
    return np.sqrt(np.arange(1, count + 1) / 2.0)


def hermite_functions(points, count: int) -> np.ndarray:
    """Evaluate the Hermite functions H_k at arbitrary points.

    Returns the (count, len(points)) table H[k, i] = P_k(x_i) e^{-x_i^2/2}:
    the one-group case of :func:`_recurrence`. Entries whose true size is
    below the double-precision range come out as an honest zero.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    x = np.atleast_1d(np.asarray(points, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"points must be a scalar or a 1-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    return _recurrence(np.clip(x, -_CLIP, _CLIP), [(int(count), x.size)])


def _recurrence(x: np.ndarray, groups, offset: int = 0) -> np.ndarray:
    """The Hermite functions of several column groups of ``x`` in one recursion.

    ``groups`` lists (count, stop) pairs with non-increasing counts: group g is
    the columns from the previous stop up to ``stop``, and its entries of the
    returned (groups[0][0], x.size) table are H_k(x_i) for k < count; its rows
    from count on are left unwritten. The columns still stepped at k are then
    a prefix, and every step is four numpy calls on it.

    ``offset`` shifts the recursion coefficients: row k + 1 is
    (x u_k - alpha_{k+offset} u_{k-1}) / alpha_{k+1+offset}, from u_0 = pi^{-1/4}
    e^{-x^2/2} and u_1 = x u_0 / alpha_{1+offset}. Offset 0 gives the Hermite
    functions; at an eigenvalue x of the zero-diagonal Jacobi matrix with
    off-diagonal alpha_{1+offset}, ..., alpha_{count-1+offset}, the column is
    an eigenvector, unnormalized (Golub and Welsch).

    The recursion writes unnormalized values straight into the rows of the
    table and carries the weight e^{-x^2/2} as a log scale. Every R steps of a
    group, its last two rows are divided by the larger of their magnitudes and
    a new block, with its own log scale, begins; at the end each block is
    multiplied twice by the exponential of half its scale, since e^scale alone
    can underflow where the block's rows are large. R follows from the group's
    max |x|: one step changes the pair's magnitude by at most
    sqrt(2)(1 + |x|) at any offset, so no intermediate value of a block leaves
    the normal range and no finite point overflows. Each entry is made by the
    same operations as in a recursion over its group alone.
    """
    count = groups[0][0]
    out = np.empty((count, x.size))
    out[0] = np.pi ** -0.25
    if count > 1:
        # 1 / alpha_{1+offset} = sqrt(2 / (1 + offset))
        np.multiply(x, math.sqrt(2.0 / (1 + offset)) * np.pi ** -0.25, out=out[1])
    alpha = recursion_coefficients(count + offset)[offset:]
    work = np.empty_like(x)
    columns, starts, scales, rescales, begin = [], [], [], {}, 0
    for g, (rows, stop) in enumerate(groups):
        cols, begin = slice(begin, stop), stop
        peak = float(np.max(np.abs(x[cols]), initial=0.0))
        block = max(1, int(_LOG_BLOCK / math.log(math.sqrt(2.0) * (1.0 + peak))))
        for k in range(block, rows - 1, block):
            rescales.setdefault(k, []).append(g)
        columns.append(cols)
        starts.append([0])
        scales.append([-0.5 * x[cols] * x[cols]])
    # step k writes row k + 1, so groups[:stepped] are those with k + 1 < count
    stepped, table, xs, ws = len(groups), out, x, work
    for k in range(1, count - 1):
        if groups[stepped - 1][0] <= k + 1:
            while groups[stepped - 1][0] <= k + 1:
                stepped -= 1
            m = groups[stepped - 1][1]
            table, xs, ws = out[:, :m], x[:m], work[:m]
        for g in rescales.get(k, ()):
            # rows k - 1 and k open the next block; max(|u_{k-1}|, |u_k|) > 0
            pair = out[k - 1:k + 1, columns[g]]
            mag = np.maximum(np.abs(pair[0]), np.abs(pair[1]))
            pair /= mag
            starts[g].append(k - 1)
            scales[g].append(scales[g][-1] + np.log(mag))
        # u_{k+1} = (x u_k - alpha_k u_{k-1}) / alpha_{k+1}
        row = table[k + 1]
        np.multiply(table[k - 1], alpha[k - 1], out=row)
        np.multiply(xs, table[k], out=ws)
        np.subtract(ws, row, out=row)
        np.divide(row, alpha[k], out=row)
    with np.errstate(under="ignore"):
        for (rows, _), cols, group_starts, group_scales in zip(groups, columns, starts, scales):
            for start, stop, scale in zip(group_starts, group_starts[1:] + [rows],
                                          group_scales):
                # two half factors: e^scale alone may leave the normal range
                # where the block's rows are large
                half = np.exp(0.5 * scale)
                entries = out[start:stop, cols]
                entries *= half
                entries *= half
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule with 2N nodes for the weight e^{-v^2}.

    ``scaled_weights`` holds w_i e^{v_i^2}; this is the combination entering the
    discrete Maxwellian and the only form that stays representable at large N.
    ``basis`` is the Hermite function table S = H_k(v_i), k < 2N, and the
    moment transform g = S f; its entries below 2^-900 in magnitude are zero,
    and the weights were computed before they were flushed. The rule is exact to
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


def _christoffel_step(x: np.ndarray, order: np.ndarray, offset: int) -> np.ndarray:
    """One Newton step on q_order at the points ``x``, ``order`` holding each
    point's order, non-increasing; q_k are the orthonormal polynomials of the
    recursion x q_k = alpha_{k+1+offset} q_{k+1} + alpha_{k+offset} q_{k-1}.

    The Christoffel-Darboux identity gives q_n' at a zero of q_n as
    sum_{k<n} q_k^2 / (alpha_{n+offset} q_{n-1}), so the step is
    x - alpha_{n+offset} q_n q_{n-1} / sum_{k<n} q_k^2: the Rayleigh quotient
    of (q_0, ..., q_{n-1}) for the Jacobi matrix of order n. It runs on the
    ratios
    s_k = alpha_{k+1+offset} q_{k+1} / q_k, s_0 = x and
    s_k = x - a_k / s_{k-1} with a_k = alpha_{k+offset}^2, and
    t_k = sum_{j<=k} q_j^2 / q_k^2 = 1 + t_{k-1} a_k / s_{k-1}^2, t_0 = 1: the
    step is x - s_{n-1} / t_{n-1}. A point whose ratios leave the range of a
    double, as at an exact zero of some q_k, keeps its value. The points still
    stepped at k are a prefix, and each point's ratios are made by the same
    operations as in a step over its order alone.
    """
    orders = order.tolist()
    s, t, ratio = x.copy(), np.ones_like(x), np.empty_like(x)
    stepped, xs, ss, ts, rs = x.size, x, s, t, ratio
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(1, orders[0]):
            if orders[stepped - 1] <= k:
                while orders[stepped - 1] <= k:
                    stepped -= 1
                xs, ss, ts, rs = x[:stepped], s[:stepped], t[:stepped], ratio[:stepped]
            np.divide(0.5 * (k + offset), ss, out=rs)
            ts *= rs
            ts /= ss
            ts += 1.0
            np.subtract(xs, rs, out=ss)
        step = s / t
    return x - np.where(np.isfinite(step), step, 0.0)


def build_rule(N: int) -> QuadratureRule:
    """Build the 2N-point Gauss-Hermite rule (Golub and Welsch, Math. Comp. 23, 1969).

    The nodes are the eigenvalues of the zero-diagonal Jacobi matrix with
    off-diagonal alpha_k = sqrt(k/2): the N positive ones are the singular
    values of its N x N bidiagonal, polished by one Newton step in
    Christoffel-Darboux form on P_{2N} (:func:`_golub_welsch` at offset 0),
    and they are mirrored to -v exactly. The weights take the Christoffel form
    w_i e^{v_i^2} = 1 / sum_k H_k(v_i)^2. The table is evaluated at the N
    positive nodes and mirrored by H_k(-v) = (-1)^k H_k(v), which the
    recursion satisfies bit for bit on the exactly symmetric nodes; its
    entries below 2^-900 are flushed to zero after the weights are taken, so
    that products with it never meet a subnormal number. The rule is the
    one-rule batch of :func:`_rules`, which checks N.
    """
    return next(_rules([N]))


def _rules(halves):
    """Yield build_rule(N) for each N of the sequence ``halves``, in order: the
    offset-0 case of :func:`_golub_welsch`, whose recursion tables hold at most
    _BATCH_BYTES each."""
    for N in halves:
        check_half_order(N)
    yield from _golub_welsch(halves, 0, _BATCH_BYTES, _rule)


def _golub_welsch(orders, offset: int, budget: int, finish):
    """Yield finish(m, x, vectors) for each order m of the sequence ``orders``,
    in order, from the eigenpairs of the zero-diagonal Jacobi matrix of order
    2m with off-diagonal alpha_{1+offset}, ..., alpha_{2m-1+offset} (Golub and
    Welsch, Math. Comp. 23, 1969; Gautschi 2004).

    Its positive eigenvalues are the singular values (dbdsdc, values only) of
    the m x m lower bidiagonal with diagonal alpha_{1+offset},
    alpha_{3+offset}, ... and subdiagonal alpha_{2+offset}, alpha_{4+offset},
    .... Those of every m, ascending, are polished by one
    :func:`_christoffel_step` on all of them at once, taken by m descending
    so that the points still stepped at k are a prefix. Runs of consecutive
    orders whose recursion table fits in ``budget`` bytes (:func:`_runs`)
    share one :func:`_recurrence`, made when the run's first order is asked
    for; ``x`` is m's polished values and column j of the 2m x m view
    ``vectors`` of the table the unnormalized eigenvector of x_j. ``finish``
    runs once per distinct m of a run, at m's first request, and a suspended
    run holds nothing of an m after its last request.
    """
    down = sorted(set(orders), reverse=True)
    singular = []
    for m in down:
        alpha = recursion_coefficients(2 * m - 1 + offset)[offset:]
        d, e = alpha[0::2].copy(), alpha[1::2].copy()
        _bidiagonal_svd(d, e)
        singular.append(d[::-1])
    polished = _christoffel_step(np.concatenate(singular), np.repeat([2 * m for m in down], down),
                                 offset)
    values = dict(zip(down, np.split(polished, np.cumsum(down)[:-1])))
    del singular, polished
    for run in _runs(orders, budget):
        down = sorted(set(run), reverse=True)
        stops = np.cumsum(down).tolist()
        x = np.concatenate([values[m] for m in down])
        table = _recurrence(x, [(2 * m, stop) for m, stop in zip(down, stops)], offset)
        # each m's views until its first request, its result until its last
        views = {m: (x[stop - m:stop], table[:2 * m, stop - m:stop])
                 for m, stop in zip(down, stops)}
        del x, table
        made = {}
        for i, m in enumerate(run):
            if m in views:
                made[m] = finish(m, *views.pop(m))
            yield made[m] if m in run[i + 1:] else made.pop(m)


def _runs(sizes, budget: int):
    """Split the sequence ``sizes`` into runs of consecutive entries whose
    recursion table, 2 max(size) rows by sum(size) columns of doubles, fits in
    ``budget`` bytes; a larger size is a run of its own."""
    run = []
    for size in sizes:
        if run and 16 * max(*run, size) * (sum(run) + size) > budget:
            yield run
            run = []
        run.append(size)
    if run:
        yield run


def _flush(table: np.ndarray, floor: float) -> None:
    """Zero the entries of ``table`` below ``floor`` in magnitude, in place and
    a block of rows at a time, so that no temporary is larger than a block."""
    for start in range(0, table.shape[0], _FLUSH_ROWS):
        block = table[start:start + _FLUSH_ROWS]
        np.copyto(block, 0.0, where=np.abs(block) < floor)


def _rule(N: int, positive: np.ndarray, half: np.ndarray) -> QuadratureRule:
    """The rule from its N positive nodes and their Hermite table ``half``,
    which is flushed below _FLOOR in place after the weights are taken."""
    order = 2 * N
    nodes = np.concatenate((-positive[::-1], positive))
    scaled_half = 1.0 / np.einsum("ki,ki->i", half, half)
    _flush(half, _FLOOR)
    table = np.empty((order, order))
    table[:, N:] = half
    np.negative(half[1::2, ::-1], out=table[1::2, :N])
    table[0::2, :N] = half[0::2, ::-1]
    scaled = np.concatenate((scaled_half[::-1], scaled_half))
    with np.errstate(under="ignore"):
        weights = scaled * np.exp(-nodes * nodes)
    readonly(nodes, weights, scaled, table)
    return QuadratureRule(order, nodes, weights, scaled, table)
