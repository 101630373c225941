"""Node coupling: invariant extraction, macroscopic conditions, half-space solves.

At a node of degree n the half-space layer problems on all edges are coupled
through velocity reflection, f^i(0, v) = sum_j beta_ij f^j(0, -v) for v > 0,
which decouples in the eigenbasis of beta into one N x (N+1) map
M(mu) = (1 - mu) E + (1 + mu) O per eigenvalue, E and O the even and odd
parts of the layer distributions in v. The null vectors of M(mu) are the one
modal kernel of the module: the null vector (D, C, B, gamma) of the
symmetric-node map M(-1/(n-1)) gives the macroscopic coupling coefficients by
D + delta_1 C = 0 (for S + delta_1 q) and B + delta_2 C = 0 (for
rho + delta_2 q), and the node solves fix the coefficients of the null vectors
by the outgoing characteristics and the balance. The full node solve returns
the asymptotic states and layer amplitudes of every edge and the reconstructed
moments at x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import DegeneracyError, NumericalError, SingularSystemError
from .hermite import QuadratureRule, _rules, hermite_functions, readonly
from .layer import _modes, build_lift

__all__ = [
    "ACOUSTIC_SPEED",
    "INFINITE",
    "SV_CUTOFF",
    "NodeTopology",
    "NodeOperators",
    "CouplingCoefficients",
    "MacroCouplingSystem",
    "NodeProblem",
    "NodeSolution",
    "compute_coefficients",
    "maxwell_delta",
    "build_macro_system",
    "macro_determinant",
    "macro_coupling_solve",
    "solve_node",
    "solve_node_general",
    "node_distribution",
    "coupling_residual",
    "odd_moment_residual",
    "flux_residual",
]

#: Acoustic wave speed a with a^2 = 3.
ACOUSTIC_SPEED = math.sqrt(3.0)

#: Symbolic degree of the infinite symmetric node.
INFINITE = math.inf

#: Relative singular-value cutoff used by every rank decision in this module.
SV_CUTOFF = 1e-10

# Rows of M(mu) summed per block by _sum_modal.
_SUM_ROWS = 64
# node_distribution evaluates the Hermite table for blocks of samples whose
# table holds at most this many bytes: at the CLI default of 1,201 samples and
# N = 1000 three blocks instead of one 19 MB table, so the distribution stage
# holds little beside the operators.
_TABLE_BYTES = 2 ** 23


def _check_degree(n: int | float) -> None:
    if n != INFINITE and (not _finite("n", n) or not float(n).is_integer() or n < 2):
        raise ValueError(f"node degree must be an integer >= 2 or INFINITE, got {n}")


@dataclass(frozen=True)
class NodeTopology:
    """Node degree and coupling weights; ``beta=None`` means the symmetric node."""

    n: int | float
    beta: np.ndarray | None = None

    def __post_init__(self):
        _check_degree(self.n)
        if self.beta is None:
            return
        if self.n == INFINITE:
            raise ValueError("an explicit coupling matrix requires a finite node degree")
        beta = _real_array("beta", self.beta)
        n = int(self.n)
        if beta.shape != (n, n):
            raise ValueError(f"beta must be {n}x{n}, got {beta.shape}")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")
        if np.any(beta < 0.0):
            raise ValueError("beta must have nonnegative weights")
        colsums = beta.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > 1e-10:
            raise ValueError(f"beta must have unit column sums (conservation), got {colsums}")
        object.__setattr__(self, "beta", beta)

    @classmethod
    def symmetric(cls, n: int | float) -> "NodeTopology":
        """Fully symmetric node: beta_ij = 1/(n-1) off the diagonal."""
        return cls(n=n, beta=None)

    def beta_matrix(self) -> np.ndarray:
        """Explicit coupling matrix (finite degree only)."""
        if self.beta is not None:
            return self.beta
        if self.n == INFINITE:
            raise ValueError("the infinite node has no explicit coupling matrix")
        n = int(self.n)
        return (np.ones((n, n)) - np.eye(n)) / (n - 1)


@dataclass(frozen=True)
class NodeOperators:
    """Quadrature rule, positive layer eigenvalues, lift and its parity halves
    shared by all node computations at fixed N. The rule is also the moment
    transform S (see :class:`QuadratureRule`).

    ``lift`` = T maps the reduced unknowns (D, C, B, gamma) of one edge to its
    moments at x = 0, and f = S^{-1} T to its distribution values. By the
    parity H_k(-v) = (-1)^k H_k(v), the even moments of T give ``even`` =
    E = (f(v) + f(-v))/2 and the odd ones ``odd`` = O = (f(v) - f(-v))/2 over
    the N positive velocities v, ascending, so f(v) = E + O and
    f(-v) = E - O. The lift puts C only in g_1 and D and B only in g_0 and
    g_2, so E's C column and O's D and B columns are exactly zero. Row 4 of
    the lift, from column 3 on, is e_1^T r_j of the layer eigenvectors; the
    stable-manifold basis is dropped once the lift is built, and the negative
    half of the layer spectrum is never formed.
    """

    rule: QuadratureRule
    layer_eigenvalues: np.ndarray
    lift: np.ndarray
    even: np.ndarray
    odd: np.ndarray
    # mu -> orthonormal null basis of M(mu), kept by compute_coefficients, which
    # reads delta off it, so that a solve_node at the same mu makes no second QR
    _null_spaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, N: int) -> "NodeOperators":
        return next(_sweep([N]))

    @classmethod
    def _assemble(cls, N: int, next_modes, next_rule) -> "NodeOperators":
        """The operators at N, with the layer modes and the rule that
        ``next_modes()`` and ``next_rule()`` return."""
        # the layer modes go before the rule is asked for, so the two largest
        # stages of the build are never alive together
        eigenvalues, r2plus = next_modes()
        lift = build_lift(r2plus)
        del r2plus
        rule = next_rule()
        positive, weights = rule.positive, rule.scaled_weights[N:, None]
        even = positive[0::2].T @ lift[0::2]
        odd = positive[1::2].T @ lift[1::2]
        even *= weights
        odd *= weights
        readonly(even, odd)
        return cls(rule, eigenvalues, lift, even, odd)

    @property
    def N(self) -> int:
        return self.rule.half

    @property
    def transform(self) -> QuadratureRule:
        """The rule, under the name :func:`coupling_residual` callers pass it by."""
        return self.rule


def _sweep(halves):
    """Yield ``NodeOperators.build(N)`` for each N of the sequence ``halves``.

    The layer modes and the rules of consecutive N come from one recursion
    each in batches (``layer._modes``, ``hermite._rules``); a batch's table
    is made at the stage of its first N and lives until the stage after its
    last, or, for the rules, which keep views of it, until no operators of
    its N are held. The generator holds nothing of the operators it
    yields, so a caller that drops them holds no N's operators while the next
    are built.
    """
    modes, rules = _modes(halves), _rules(halves)
    for N in halves:
        yield NodeOperators._assemble(N, modes.__next__, rules.__next__)


def _sum_modal(ops: NodeOperators, mu: complex, out: np.ndarray) -> None:
    """Sum M(mu) = (1 - mu) E + (1 + mu) O into the N x (N+1) ``out``, its columns
    in the order (gamma, D, C, B): row k of M(mu) is f(v_k) - mu f(-v_k) over
    the positive velocities v_k.

    The sum goes through a block of _SUM_ROWS rows at a time, which stays in
    cache while it is written to ``out`` in either memory order, and no
    N x (N+1) temporary is made. A complex ``out`` is summed by its real and
    imaginary parts, so E and O are never cast to complex.
    """
    N = ops.N
    parts = [(out.real, 1.0 - mu.real, 1.0 + mu.real)]
    if np.iscomplexobj(out):
        parts.append((out.imag, -mu.imag, mu.imag))
    for start in range(0, N, _SUM_ROWS):
        rows = slice(start, start + _SUM_ROWS)
        for part, even, odd in parts:
            block = ops.even[rows] * even
            block += odd * ops.odd[rows]
            part[rows, :N - 2] = block[:, 3:]
            part[rows, N - 2:] = block[:, :3]


@dataclass(frozen=True)
class CouplingCoefficients:
    """Macroscopic coupling coefficients: ``delta1`` multiplies q in the
    S-invariant, ``delta2`` in the rho-invariant."""

    delta1: float
    delta2: float


@dataclass(frozen=True)
class _Reduction:
    """One QR of the row-equilibrated M(mu), its columns in the order (gamma, D,
    C, B), with the right-hand-side columns of M(mu) y = rhs carried along.

    ``qr`` is the Fortran-ordered buffer [gamma | D C B | rhs] after LAPACK
    geqrf. Above its diagonal it holds R, the (N-2) x (N-2) triangular factor of
    the gamma block, T = Q_1^H A for the (D, C, B) columns A, and b = Q^H rhs;
    below it, the Householder vectors of Q, with their scalars in ``tau``.
    ``scale`` holds the row equilibration and ``norm`` the Frobenius norm of
    the equilibrated M(mu), the scale for rank decisions; row equilibration
    leaves every null space unchanged.
    """

    qr: np.ndarray
    tau: np.ndarray
    scale: np.ndarray
    norm: float

    def solve(self, b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solutions of M(mu) y = rhs, the kernel of both node solves.

        ``b`` is Q^H rhs, by default the columns carried in ``qr``. Returns
        (particular, null, s): one solution y per column of rhs, the null
        vectors of M(mu) as columns (not orthonormal), and the singular values
        s of K = Q_2^H A, where Q_2 spans the two-dimensional left null space
        of the gamma block; K's rank is cut at SV_CUTOFF times ``norm``. The
        null vectors are (x, -R^{-1} T x) with K x = 0. A particular solution
        takes the minimum-norm x of K x = Q_2^H rhs, exact when K has full row
        rank, and gamma by back substitution; with no rhs there is none.
        """
        qr = self.qr
        split, cols = qr.shape[0] - 2, qr.shape[0] + 1
        b = qr[:, cols:] if b is None else b
        T = qr[:split, split:cols]
        # the 2 x 3 block under T, K triangularized by a unitary factor
        K = qr[split:, split:cols].copy()
        K[1, 0] = 0.0  # a reflector entry, below R's diagonal
        u, s, vh = np.linalg.svd(K)
        rank = int(np.count_nonzero(s > SV_CUTOFF * self.norm))
        X = vh[rank:].conj().T
        null = np.vstack([X, -_lapack.trtrs(qr, np.asfortranarray(T @ X))])
        if not b.shape[1]:
            return null[:, :0], null, s
        x = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ b[split:]) / s[:rank, None])
        gamma = _lapack.trtrs(qr, np.asfortranarray(b[:split] - T @ x))
        return np.vstack([x, gamma]), null, s

    def conjugate_solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`solve` for conj(M(mu)) y = rhs, which is M(conj(mu)) y = rhs:
        the same reflectors applied to conj(rhs) (LAPACK unmqr) solve
        M(mu) conj(y) = conj(rhs), so no second QR is needed."""
        c = np.empty(rhs.shape, self.qr.dtype, order="F")
        np.conjugate(rhs, out=c)
        c /= self.scale
        particular, null, s = self.solve(_lapack.unmqr(self.qr, self.tau, c))
        return particular.conj(), null.conj(), s


def _reduce(ops: NodeOperators, mu: complex, rhs: np.ndarray | None = None) -> _Reduction:
    """The :class:`_Reduction` of M(mu), carrying ``rhs`` along.

    M(mu) is summed straight into the one Fortran-ordered buffer the QR works
    in, so no copy of it is made; the QR's R-factor is checked by LAPACK
    trcon, and a rank-deficient gamma block raises DegeneracyError.
    """
    N, cols = ops.N, ops.N + 1
    k = 0 if rhs is None else rhs.shape[1]
    dtype = np.result_type(mu, ops.even, *(() if rhs is None else (rhs,)))
    qr = np.empty((N, cols + k), dtype, order="F")
    _sum_modal(ops, mu, qr[:, :cols])
    scale = np.max(np.abs(qr[:, :cols]), axis=1, keepdims=True)
    if not np.all(np.isfinite(scale)):
        raise NumericalError("invariant matrix contains non-finite entries")
    if np.any(scale == 0.0):
        raise DegeneracyError("invariant matrix has an identically zero row")
    qr[:, :cols] /= scale
    if k:
        np.divide(rhs, scale, out=qr[:, cols:])
    # the Frobenius norm of the triangular factor, read before the QR: Q is unitary
    norm = float(np.linalg.norm(qr[:, :cols]))
    tau = _lapack.geqrf(qr)
    rcond = _lapack.trcon(qr, N - 2)
    if not rcond > SV_CUTOFF:
        raise DegeneracyError(f"gamma block of the invariant matrix is rank deficient "
                              f"(reciprocal condition {rcond:.3e}); singular_values "
                              "holds the magnitudes of its triangular factor's diagonal",
                              singular_values=np.abs(np.diag(qr[:N - 2, :N - 2])))
    return _Reduction(qr, tau, scale, norm)


def compute_coefficients(ops: NodeOperators, topology: NodeTopology) -> CouplingCoefficients:
    """delta_1 = -D/C and delta_2 = -B/C of a symmetric node, read off the unit
    null vector (D, C, B, gamma) of M(mu) at mu = -1/(n-1), or mu = 0 for
    INFINITE, which :func:`_modal_null_space` gives.

    The vector is kept on ``ops`` at this mu for a :func:`solve_node` there.
    A null space of other than one vector, or a null vector with
    |C| <= SV_CUTOFF, raises DegeneracyError.
    """
    mu = _symmetric_mu(topology)
    null = _modal_null_space(ops, mu)
    if null.shape[1] != 1 or not abs(null[1, 0]) > SV_CUTOFF:
        # only a new null vector fails (a kept one passed), so the QR is redone only here
        raise DegeneracyError(f"invariant matrix has {null.shape[1]} null vectors, C "
                              f"components {np.abs(null[1])}, expected one with C != 0; "
                              "singular_values holds those of its 2 x 3 reduction",
                              singular_values=_reduce(ops, mu).solve()[2])
    readonly(null)
    ops._null_spaces[mu] = null
    D, C, B = null[:3, 0]
    return CouplingCoefficients(float(-D / C), float(-B / C))


def _symmetric_mu(topology: NodeTopology) -> float:
    """mu of a symmetric node: -1/(n-1), or 0 for INFINITE."""
    if topology.beta is not None:
        raise ValueError("compute_coefficients supports only symmetric topologies; "
                         "use solve_node for an arbitrary coupling matrix")
    return 0.0 if topology.n == INFINITE else -1.0 / (topology.n - 1.0)


def maxwell_delta(n: int | float) -> tuple[float, float]:
    """First-two-half-moment (Maxwell) approximation of the coupling coefficients.

    delta_1 = 4(n-2)/(n sqrt(2 pi)), delta_2 = ((n-2)/n) 2(pi-2)/sqrt(2 pi);
    INFINITE takes the n -> infinity limit.
    """
    _check_degree(n)
    factor = 1.0 if n == INFINITE else (n - 2.0) / n
    root = math.sqrt(2.0 * math.pi)
    return 4.0 * factor / root, factor * 2.0 * (math.pi - 2.0) / root


def _finite(name: str, value) -> bool:
    """math.isfinite(value); a value that is not a real number, such as a
    string, None or a bool, raises a ValueError that starts with ``name``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return math.isfinite(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array; a complex value raises a ValueError that
    names ``name``, where a cast would drop its imaginary part."""
    array = np.asarray(value)
    if np.iscomplexobj(array):
        raise ValueError(f"{name} must be real, got a complex value")
    return np.asarray(array, dtype=float)


def _node_data(n: int | float, incoming, zero_balance) -> tuple[np.ndarray, float]:
    """``incoming`` as a float vector of length n and ``zero_balance`` as a
    float; a wrong length or a complex or non-finite value raises a
    ValueError that names the parameter."""
    incoming = _real_array("incoming", incoming)
    if incoming.ndim != 1 or incoming.size != n:
        raise ValueError(f"incoming must be a vector of length {n}, got shape {incoming.shape}")
    if not np.all(np.isfinite(incoming)):
        raise ValueError(f"incoming must be finite, got {incoming}")
    zero_balance = _real_array("zero_balance", zero_balance)
    if zero_balance.ndim != 0:
        raise ValueError(f"zero_balance must be a scalar, got shape {zero_balance.shape}")
    zero_balance = float(zero_balance)
    if not math.isfinite(zero_balance):
        raise ValueError(f"zero_balance must be finite, got {zero_balance}")
    return incoming, zero_balance


def _check_edge_count(n) -> None:
    """Reject an edge count of the macroscopic system that is not an integer >= 2."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")


def _check_finite(**values) -> None:
    """Reject a NaN or infinite value with a ValueError that names it."""
    for name, value in values.items():
        if not _finite(name, value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class MacroCouplingSystem:
    """The 3n x 3n block system for the asymptotic states (D, C, B) of all edges."""

    calA: np.ndarray
    rhs: np.ndarray


def build_macro_system(delta1: float, delta2: float, n: int,
                       incoming: np.ndarray, zero_balance: float) -> MacroCouplingSystem:
    """Assemble the macroscopic block system for unknowns m = (D^i, C^i, B^i)."""
    _check_edge_count(n)
    _check_finite(delta1=delta1, delta2=delta2)
    incoming, zero_balance = _node_data(n, incoming, zero_balance)
    diff = np.zeros((n, n))
    idx = np.arange(1, n)
    diff[idx, idx - 1] = 1.0
    diff[idx, idx] = -1.0
    ones_row = np.zeros((n, n))
    ones_row[0, :] = 1.0
    eye = np.eye(n)
    zero = np.zeros((n, n))
    calA = np.block([
        [diff, ones_row + delta1 * diff, zero],
        [eye, -ACOUSTIC_SPEED * eye, zero],
        [ones_row, delta2 * diff, -3.0 * ones_row + diff],
    ])
    rhs = np.concatenate([np.zeros(n), incoming, [zero_balance], np.zeros(n - 1)])
    return MacroCouplingSystem(calA, rhs)


def macro_determinant(n: int, delta1: float) -> float:
    """Closed-form determinant (-1)^{n+1} 3 n^2 (a + delta_1)^{n-1} of the block system.

    Schur reduction of the block structure: the (D, C) blocks contribute
    det(-aI) det(A + (B + delta_1 A)/a) = (-1)^n n (a + delta_1)^{n-1} and the
    density block det(A - 3B) = -3n. The system is singular exactly at
    delta_1 = -a and invertible for every nonnegative delta_1.
    """
    _check_edge_count(n)
    _check_finite(delta1=delta1)
    return (-1.0) ** (n + 1) * 3.0 * n ** 2 * (ACOUSTIC_SPEED + delta1) ** (n - 1)


def macro_coupling_solve(coefficients: CouplingCoefficients, incoming: np.ndarray,
                         zero_balance: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the macroscopic coupling system; returns per-edge (S_inf, q_inf, rho_inf)."""
    _check_edge_count(n)
    if abs(ACOUSTIC_SPEED + coefficients.delta1) <= 1e-12:
        raise SingularSystemError(
            f"delta1 = {coefficients.delta1} makes the coupling system singular "
            "(delta1 = -a)")
    system = build_macro_system(coefficients.delta1, coefficients.delta2, n,
                                incoming, zero_balance)
    m = np.linalg.solve(system.calA, system.rhs)
    return m[:n], m[n:2 * n], m[2 * n:]


@dataclass(frozen=True)
class NodeProblem:
    """Data of a coupled half-space problem at one node, checked when built:
    the topology has a finite degree, ``incoming`` has one finite entry per
    edge and ``zero_balance`` is finite."""

    topology: NodeTopology
    incoming: np.ndarray
    zero_balance: float

    def __post_init__(self):
        if self.topology.n == INFINITE:
            raise ValueError("topology must have a finite node degree, got INFINITE")
        incoming, zero_balance = _node_data(self.topology.n, self.incoming, self.zero_balance)
        incoming = incoming.copy()
        incoming.flags.writeable = False
        object.__setattr__(self, "incoming", incoming)
        object.__setattr__(self, "zero_balance", zero_balance)

    @classmethod
    def from_macro_data(cls, topology: NodeTopology,
                        coefficients: CouplingCoefficients | None,
                        rho0: np.ndarray, q0: np.ndarray, S0: np.ndarray) -> "NodeProblem":
        """Build incoming characteristics r_- = S0 - a q0 and the zero-characteristic balance.

        ``coefficients`` is neither stored nor read, and may be None; the
        solve needs no coupling coefficients.
        """
        rho0, q0, S0 = (_real_array(name, v) for name, v in (("rho0", rho0), ("q0", q0),
                                                              ("S0", S0)))
        incoming, zero_balance = _closing(S0, q0, rho0)
        return cls(topology, incoming, float(zero_balance))


def _closing(D: np.ndarray, C: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closing map of the node system: the outgoing characteristics
    D - a C of every edge and the zero-characteristic balance sum (D - 3B),
    summed over the edges, the first axis."""
    return D - ACOUSTIC_SPEED * C, np.sum(D - 3.0 * B, axis=0)


@dataclass(frozen=True)
class NodeSolution:
    """Per-edge asymptotic states, layer amplitudes and reconstructed node moments.

    ``layer_eigenvalues`` and ``rho_layer_amplitudes`` carry the modal density
    contributions sqrt2 T[0, 3+j] gamma_j, the share of gamma_j in rho = sqrt2 g_0
    through the lift T, so the composite solution can be evaluated without the
    spectrum object.
    """

    D: np.ndarray
    C: np.ndarray
    B: np.ndarray
    gamma: np.ndarray
    rho_at_0: np.ndarray
    g_at_0: np.ndarray
    layer_eigenvalues: np.ndarray
    rho_layer_amplitudes: np.ndarray

    @property
    def S_inf(self) -> np.ndarray:
        return self.D

    @property
    def q_inf(self) -> np.ndarray:
        return self.C

    @property
    def rho_inf(self) -> np.ndarray:
        return self.B


def _package_solution(m: np.ndarray, ops: NodeOperators) -> NodeSolution:
    # m has shape (n_edges, N+1) with per-edge ordering (D, C, B, gamma)
    D, C, B = m[:, 0].copy(), m[:, 1].copy(), m[:, 2].copy()
    gamma = m[:, 3:].copy()
    g_at_0 = m @ ops.lift.T
    rho_at_0 = np.sqrt(2.0) * g_at_0[:, 0]
    modal = np.sqrt(2.0) * ops.lift[0, 3:] * gamma
    readonly(D, C, B, gamma, rho_at_0, g_at_0, modal)
    return NodeSolution(D, C, B, gamma, rho_at_0, g_at_0, ops.layer_eigenvalues, modal)


def _conservation_null_space(N: int) -> np.ndarray:
    """The null basis [e_D, e_B] of M(1) = 2 O, (N+1) x 2 in the order (D, C,
    B, gamma): O's D and B columns are exactly zero and its C and gamma
    columns independent, so the even Maxwellians at rest span the null
    space of the conservation mode mu = 1 of every column-stochastic beta."""
    null = np.zeros((N + 1, 2))
    null[0, 0] = null[2, 1] = 1.0
    readonly(null)
    return null


def _modal_null_space(ops: NodeOperators, mu: complex) -> np.ndarray:
    """Orthonormal null-space basis (columns) of M(mu): that of
    :func:`_conservation_null_space` for mu within 1e-12 of 1, the one
    compute_coefficients kept at a mu within 1e-12, else the left singular
    vectors of the null vectors of a new reduction."""
    if abs(mu - 1.0) <= 1e-12:
        return _conservation_null_space(ops.N)
    for seen, null in ops._null_spaces.items():
        if abs(mu - seen) <= 1e-12:
            return null
    return np.linalg.svd(_reduce(ops, mu).solve()[1], full_matrices=False)[0]


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis (columns) of M, rank cut at SV_CUTOFF."""
    _, s, vh = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > SV_CUTOFF * s[0]))
    return vh[rank:].conj().T


def _eigenmodes(beta: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """Distinct eigenvalues of beta (within 1e-12), each with an orthonormal
    eigenspace basis: the null space of beta - mu I, because LAPACK's
    eigenvectors of a repeated eigenvalue can be linearly dependent even for a
    diagonalizable beta (beta = ones/4, for one).
    """
    modes = []
    for mu in np.linalg.eigvals(beta):
        if any(abs(mu - seen) <= 1e-12 for seen, _ in modes):
            continue
        mu = mu.real if mu.imag == 0 else mu
        modes.append((mu, _null_space(beta - mu * np.eye(len(beta)))))
    return modes


def solve_node(problem: NodeProblem, ops: NodeOperators) -> NodeSolution:
    """Solve the coupled half-space problem at a node of finite degree.

    With beta = V diag(mu) V^{-1}, write the edge unknowns (D, C, B, gamma)_i
    as m_i = sum_k V_ik y_k. The reflection conditions then read
    M(mu_k) y_k = 0 mode by mode, so y_k lies in the null space of M(mu_k);
    the eigenvectors of one eigenvalue share one null basis. The outgoing
    characteristics D - a C = r_- on every edge and the zero-characteristic
    balance sum (D - 3B) = sum (S0 - 3 rho0) fix the n+1 null-space
    coefficients. Flux balance and the odd-moment sums follow from
    conservation. A solution that is not real or misses the raw reflection
    equations, the characteristics or the balance raises NumericalError
    (:func:`_check_solution`).

    Any diagonalizable conservative beta works; a defective one raises
    DegeneracyError and is left to :func:`solve_node_general`.
    """
    topo = problem.topology
    n = int(topo.n)
    beta = topo.beta_matrix()
    modes = _eigenmodes(beta)
    V = np.hstack([vecs for _, vecs in modes])
    if V.shape[1] != n or np.linalg.cond(V) > 1.0 / SV_CUTOFF:
        raise DegeneracyError("coupling matrix has no well-conditioned eigenbasis "
                              "(defective beta); use solve_node_general")
    weights, columns = [], []             # one (eigenvector, null vector) pair per unknown
    nulls = {}
    for mu, vecs in modes:
        # M(conj(mu)) = conj(M(mu)): a conjugate pair shares one QR
        partner = np.conj(mu)
        null = nulls[mu] = (nulls[partner].conj() if partner in nulls
                            else _modal_null_space(ops, mu))
        weights.append(np.repeat(vecs, null.shape[1], axis=1))
        columns.append(np.tile(null, vecs.shape[1]))
    W, Z = np.hstack(weights), np.hstack(columns)
    if Z.shape[1] != n + 1:
        raise DegeneracyError(f"modal null spaces give {Z.shape[1]} unknowns, "
                              f"expected {n + 1}")
    # edge i's unknowns for free coefficient k: W_ik times null vector Z_k
    return _closed_solution(W[:, None, :] * Z, beta, problem.incoming, problem.zero_balance,
                            ops)


def _reflected(ops: NodeOperators, y: np.ndarray) -> np.ndarray:
    """Mr y = E y - O y, the lift at the negative velocities; a complex y is
    taken by its real and imaginary parts, so E and O are never cast to complex."""
    if not np.iscomplexobj(y):
        return ops.even @ y - ops.odd @ y
    return _reflected(ops, y.real) + 1j * _reflected(ops, y.imag)


def solve_node_general(topology: NodeTopology, incoming: np.ndarray,
                       zero_balance: float, ops: NodeOperators) -> NodeSolution:
    """Solve the node problem from the raw coupling equations through the Schur
    form of beta.

    The reflection equations X P^T - beta X Mr^T = 0 in the n x (N+1) edge
    unknowns X (P = f(v_k) = E + O, Mr = f(-v_k) = E - O over the positive
    v_k) form a generalized Sylvester equation. With beta = Q U Q^H, U upper
    triangular and sorted so that mu = 1 comes last, Y = Q^H X satisfies the
    block triangular system M(U_ii) y_i = Mr sum_{j>i} U_ij y_j, solved from the
    last block to the first (Bartels and Stewart, Comm. ACM 15, 1972). The
    last block, mu = 1 to rounding, never sees a right-hand side and adds the
    two null vectors of M(1), which :func:`_conservation_null_space` writes
    down. Every other block takes one QR of M(U_ii) that carries its
    right-hand sides and adds its one null vector to the free coefficients;
    the two blocks of a complex pair share one QR, as
    M(conj(mu)) = conj(M(mu)). The n outgoing characteristics D - a C = r_-
    and the zero-characteristic balance fix those n+1 coefficients.

    It checks the modal kernel of :func:`solve_node`, with which it coincides
    for every diagonalizable beta, and it is the only solver for a defective
    beta. A rank-deficient system (a disconnected node, beta = I) raises
    DegeneracyError carrying the singular values of the offending reduction.
    The closing and the check are those of :func:`solve_node`.
    """
    beta = topology.beta_matrix()
    n = int(topology.n)
    incoming, zero_balance = _node_data(n, incoming, zero_balance)
    from scipy.linalg import rsf2csf, schur  # the only scipy call of the solver

    # eigenvalues farther than 1e-8 from 1 go to the top left, so the block of
    # mu = 1 comes last; a 2 x 2 block of a complex pair makes the form complex,
    # with the pair's eigenvalues at i and i + 1 for every i in ``pairs``
    U, Q, _ = schur(beta, output="real", sort=lambda re, im: abs(complex(re, im) - 1.0) > 1e-8)
    pairs = set(np.flatnonzero(np.diag(U, -1)).tolist())
    if pairs:
        U, Q = rsf2csf(U, Q)
    # y_i = Y[i] c in the free coefficients c, introduced block by block; the
    # last block, mu = 1, takes the two known null vectors of M(1)
    Y = np.zeros((n, ops.N + 1, n + 1), U.dtype)
    Y[n - 1, :, :2] = _conservation_null_space(ops.N)
    kept = None  # the QR of block i + 1 while block i is its conjugate partner
    for i in range(n - 2, -1, -1):
        mu = U[i, i].real if U[i, i].imag == 0 else U[i, i]
        free = n - i  # the coefficients that blocks i + 1, ..., n - 1 introduced
        rhs = _reflected(ops, np.tensordot(U[i, i + 1:], Y[i + 1:, :, :free], axes=1))
        if i in pairs:  # mu is conj(U[i+1, i+1]) to rounding
            particular, null, s = kept.conjugate_solve(rhs)
        else:
            kept = _reduce(ops, mu, rhs)
            particular, null, s = kept.solve()
        if i - 1 not in pairs:
            kept = None  # freed before the next block's QR is made
        if null.shape[1] != 1:
            raise DegeneracyError(f"coupling system is rank deficient: the block of eigenvalue "
                                  f"{mu:.6g} has {null.shape[1]} null vectors, expected 1; "
                                  "singular_values holds those of its 2 x 3 reduction",
                                  singular_values=s)
        Y[i, :, :free] = particular
        Y[i, :, free] = null[:, 0]
    return _closed_solution(np.tensordot(Q, Y, axes=1), beta, incoming, zero_balance, ops)


def _closed_solution(X: np.ndarray, beta: np.ndarray, incoming: np.ndarray,
                     zero_balance: float, ops: NodeOperators) -> NodeSolution:
    """The node solution m = X c, X the n x (N+1) x (n+1) edge unknowns
    (D, C, B, gamma) of each free coefficient, whose n+1 coefficients c meet
    the characteristics D - a C = r_- and the balance; checked by
    :func:`_check_solution`.

    Characteristics and balance that do not fix c raise DegeneracyError
    carrying the singular values of their system.
    """
    closing = np.vstack(_closing(X[:, 0], X[:, 1], X[:, 2]))
    s = np.linalg.svd(closing, compute_uv=False)
    if not s[-1] > SV_CUTOFF * s[0]:
        raise DegeneracyError("characteristics and balance do not fix the free coefficients; "
                              "singular_values holds those of their system",
                              singular_values=s)
    m = X @ np.linalg.solve(closing, np.append(incoming, zero_balance))
    _check_solution(m, beta, incoming, zero_balance, ops)
    return _package_solution(m.real, ops)


def _check_solution(m: np.ndarray, beta: np.ndarray, incoming: np.ndarray,
                    zero_balance: float, ops: NodeOperators) -> None:
    """Raise NumericalError unless the edge unknowns m, n x (N+1), are real
    and meet the characteristics, the balance and the n N raw reflection
    equations f^i(v_k) = sum_j beta_ij f^j(-v_k), each divided by the largest
    entry of its row: |f(v_k) - beta_ii f(-v_k)| on the diagonal block,
    beta_ij |f(-v_k)| off it. The row scales take one M(beta_ii) per distinct
    beta_ii, summed into one N x (N+1) buffer."""
    n, E, O = len(beta), ops.even, ops.odd
    imaginary = np.max(np.abs(m.imag))
    m = m.real
    block = np.empty(E.shape)
    peak = np.max(np.abs(np.subtract(E, O, out=block), out=block), axis=1)
    diagonal = {}
    scale = np.empty((n, ops.N))
    for i in range(n):
        if beta[i, i] not in diagonal:
            _sum_modal(ops, beta[i, i], block)  # M(beta_ii), the order of its columns aside
            diagonal[beta[i, i]] = np.max(np.abs(block, out=block), axis=1)
        np.maximum(diagonal[beta[i, i]], np.max(np.delete(beta[i], i)) * peak, out=scale[i])
    even, odd = m @ E.T, m @ O.T
    reflection = (even + odd - beta @ (even - odd)) / scale
    characteristics, balance = _closing(m[:, 0], m[:, 1], m[:, 2])
    residual = max(imaginary, np.max(np.abs(reflection)),
                   np.max(np.abs(characteristics - incoming)) / ACOUSTIC_SPEED,
                   abs(balance - zero_balance) / 3.0)
    bound = 1e-8 * max(1.0, np.max(np.abs(incoming)) / ACOUSTIC_SPEED, abs(zero_balance) / 3.0)
    if not residual <= bound:
        raise NumericalError(f"node solution misses the coupling equations or a real value "
                             f"by {residual:.3e}")


def node_distribution(solution: NodeSolution, v_samples: np.ndarray) -> np.ndarray:
    """Distribution of every edge at the node, f(v) = H_0(v/sqrt2) sum_k g_k H_k(v/sqrt2),
    as an (n_edges, len(v_samples)) array. The Hermite table of a block of
    samples, at most _TABLE_BYTES, is evaluated once for all edges."""
    v = np.asarray(v_samples, dtype=float)
    if v.ndim > 1:
        raise ValueError(f"v_samples must be a scalar or a 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("v_samples must be finite")
    u = np.atleast_1d(v / np.sqrt(2.0))
    edges, moments = solution.g_at_0.shape
    f = np.empty((edges, u.size))
    block = max(1, _TABLE_BYTES // (8 * moments))
    for start in range(0, u.size, block):
        h = hermite_functions(u[start:start + block], moments)
        for g, row in zip(solution.g_at_0, f):
            row[start:start + block] = h[0] * (g @ h)
        del h  # before the next block's table is made
    return f


def coupling_residual(solution: NodeSolution, topology: NodeTopology,
                      transform: QuadratureRule) -> float:
    """Max violation of f^i(0, v) = sum_j beta_ij f^j(0, -v) over positive velocities;
    ``transform`` is the rule of the solution's N, and a mismatch raises a ValueError.
    f = diag(w~) S^T g is taken at the positive nodes from the rule's half
    table by parity, H_k(-v) = (-1)^k H_k(v): f(+-v) = w~ (even +- odd) with
    the sums over the even and the odd moments."""
    g = solution.g_at_0
    edges, moments = g.shape
    if topology.n != edges:
        raise ValueError(f"topology has degree {topology.n}, the solution {edges} edges")
    if transform.order != moments:
        raise ValueError(f"transform has order {transform.order}, the solution {moments}")
    beta = topology.beta_matrix()
    table, weights = transform.positive, transform.scaled_weights[transform.half:]
    even, odd = g[:, 0::2] @ table[0::2], g[:, 1::2] @ table[1::2]
    return float(np.max(np.abs(weights * (even + odd) - beta @ (weights * (even - odd)))))


def odd_moment_residual(solution: NodeSolution) -> float:
    """Max over odd k of |sum_i g^i_k(0)|, zero for conservative coupling."""
    totals = solution.g_at_0.sum(axis=0)
    return float(np.max(np.abs(totals[1::2])))


def flux_residual(solution: NodeSolution) -> float:
    """|sum_i C^i|, the flux balance violation."""
    return float(abs(solution.C.sum()))
