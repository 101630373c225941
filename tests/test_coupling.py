import math
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import eigh_tridiagonal

from bgknet import (
    ACOUSTIC_SPEED,
    INFINITE,
    DegeneracyError,
    InitialData,
    NodeOperators,
    NumericalError,
    NodeProblem,
    NodeTopology,
    SingularSystemError,
    build_layer_matrix,
    build_lift,
    build_macro_system,
    compute_coefficients,
    coupling_residual,
    flux_residual,
    macro_coupling_solve,
    macro_determinant,
    maxwell_delta,
    node_distribution,
    odd_moment_residual,
    solve_node,
    solve_node_general,
    stable_manifold,
)
from bgknet import coupling
from bgknet.coupling import SV_CUTOFF, _modal_null_space, _reflected, _sum_modal, _sweep
from bgknet.hermite import _FLOOR, _mirrored, hermite_functions
from bgknet.layer import _fix_signs

A = ACOUSTIC_SPEED


def svd_extract(M):
    """The three-SVD extraction that one QR replaced, kept as an oracle.

    Returns delta_1, delta_2 and the right null vector of the row-equilibrated
    M: delta_1 from the left null vector of the (B, gamma) columns, delta_2
    from that of the (D, gamma) columns.
    """
    Ms = M / np.max(np.abs(M), axis=1)[:, None]
    eta = np.linalg.svd(Ms)[2][-1]

    def left_null(sub):
        return np.linalg.svd(sub)[0][:, -1]

    z1 = left_null(Ms[:, 2:]) @ Ms
    z2 = left_null(Ms[:, np.r_[0, 3:Ms.shape[1]]]) @ Ms
    return z1[1] / z1[0], z2[1] / z2[2], eta


def stemr_operators(ops):
    """ops with the layer part rebuilt as NodeOperators.build made it from the
    full tridiagonal eigensolve (LAPACK stemr, all 2(N-2) eigenvectors) that
    one bidiagonal SVD replaced, kept as an oracle."""
    N = ops.N
    matrix = build_layer_matrix(N)
    lam, vec = eigh_tridiagonal(np.zeros(matrix.dim), matrix.offdiag)
    r2plus = _fix_signs(vec)[:, N - 2:]
    lift = build_lift(r2plus)
    positive, weights = ops.rule.basis[:, N:], ops.rule.scaled_weights[N:, None]
    even = weights * (positive[0::2].T @ lift[0::2])
    odd = weights * (positive[1::2].T @ lift[1::2])
    return replace(ops, layer_eigenvalues=lam[N - 2:], lift=lift, even=even, odd=odd)


def chain_coefficients(eta):
    """The paper's chain coefficients from consecutive components of the unit
    null vector eta = (D, C, B, gamma_1, ...): C + dt_1 gamma_1 and
    gamma_{k-1} + dt_k gamma_k are the invariants that close the layer unknowns.

    Components below the rounding floor carry no information, and any O(1)
    coefficient on those coordinates annihilates the null vector equally well;
    a ratio of two sub-floor components, however, can come out arbitrarily
    small and turn the recurrence between consecutive cross-edge differences
    into a noise amplifier. The neutral value 1 stands where numerator and
    denominator are both noise, and the denominator is capped where only it is.
    """
    floor = np.finfo(float).eps
    numer = np.concatenate(([eta[1]], eta[3:-1]))
    denom = eta[3:]
    resolved_den = np.abs(denom) >= floor
    resolved_num = np.abs(numer) >= floor
    safe_den = np.where(resolved_den, denom, np.where(denom < 0.0, -floor, floor))
    return np.where(resolved_den | resolved_num, -numer / safe_den, 1.0)


def nodal_lift(ops):
    """The 2N x (N+1) nodal lift S^{-1} T, ascending in v, rebuilt from its
    parity halves: f(v) = E + O at the positive nodes, f(-v) = E - O at their
    mirrors."""
    return np.vstack([(ops.even - ops.odd)[::-1], ops.even + ops.odd])


def modal_matrix(ops, mu):
    """M(mu) = (1 - mu) E + (1 + mu) O as one N x (N+1) array in the column
    order (D, C, B, gamma), summed by the helper that fills the QR's buffer."""
    N = ops.N
    M = np.empty((N, N + 1), np.result_type(mu, ops.even))
    _sum_modal(ops, mu, M)
    return np.hstack([M[:, N - 2:], M[:, :N - 2]])


def held_coefficients(ops, M):
    """delta_1 and delta_2 read off a held N x (N+1) matrix M by the QR of
    compute_coefficients: the infinite node has mu = 0 and M(0) = E + O, so
    operators with E = M and O = 0 hand M itself to the QR."""
    return compute_coefficients(replace(ops, even=M, odd=np.zeros_like(M)),
                                NodeTopology.symmetric(INFINITE))


def parity_halves(f):
    """E and O of a 2N-row nodal array f, ascending in v."""
    N = f.shape[0] // 2
    return 0.5 * (f[N:] + f[N - 1::-1]), 0.5 * (f[N:] - f[N - 1::-1])


def held_buffers(obj, held=None):
    """Distinct array buffers reachable through the dataclass fields of obj,
    as {id of the owning array: its bytes}; a view counts as its owner."""
    held = {} if held is None else held
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        held[id(obj)] = obj.nbytes
    elif is_dataclass(obj):
        for field in fields(obj):
            held_buffers(getattr(obj, field.name), held)
    return held


def svd_null_space(M):
    """Orthonormal null basis of the row-equilibrated M by SVD, rank cut at SV_CUTOFF."""
    Ms = M / np.max(np.abs(M), axis=1)[:, None]
    _, s, vh = np.linalg.svd(Ms)
    rank = int(np.count_nonzero(s > SV_CUTOFF * s[0]))
    return vh[rank:].conj().T


def lstsq_general(topology, incoming, zero_balance, ops):
    """The gelsd (SVD) solve of the raw node system that one QR replaced, kept
    as an oracle: the same equations and row equilibration, least squares with
    the rank cut at SV_CUTOFF. Returns the (n, N+1) edge unknowns (D, C, B, gamma).
    """
    beta = topology.beta_matrix()
    n, N = int(topology.n), ops.N
    f = nodal_lift(ops)
    size = N + 1
    system = np.zeros((n * N + n + 1, n * size))
    blocks = system[:n * N].reshape(n, N, n, size)
    for i in range(n):
        for j in range(n):
            blocks[i, :, j] = -beta[i, j] * f[N - 1::-1]
        blocks[i, :, i] += f[N:]
    edges = np.arange(n)
    system[n * N + edges, edges * size] = 1.0
    system[n * N + edges, edges * size + 1] = -A
    system[-1, edges * size] = 1.0
    system[-1, edges * size + 2] = -3.0
    b = np.concatenate([np.zeros(n * N), incoming, [zero_balance]])
    scale = np.max(np.abs(system), axis=1)
    m, _, rank, sv = np.linalg.lstsq(system / scale[:, None], b / scale, rcond=SV_CUTOFF)
    if rank < n * size:
        raise DegeneracyError(f"effective rank {rank} < {n * size}", singular_values=sv)
    return m.reshape(n, size)


def seeded_beta(kind, n, seed):
    """Column-stochastic beta: random, near a cyclic shift, rank one or defective."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(n, n))
    random = raw / raw.sum(axis=0)
    if kind == "random":
        return random
    if kind == "near-cyclic":
        return 0.99 * np.roll(np.eye(n), 1, axis=0) + 0.01 * random
    if kind == "rank-one":
        return np.outer(random[:, 0], np.ones(n))
    # defective: e_0 is fixed and e_j -> e_{j-1}, one Jordan block for eigenvalue 0
    beta = np.eye(n, k=1)
    beta[0, 0] = 1.0
    return beta


def preset_problem(case, N, ops_factory, coeff_factory):
    """Preset data built from the coefficients at the same N (self-consistent)."""
    coeff = coeff_factory(N, 3)
    data = InitialData.preset(case, coeff.delta1, coeff.delta2)
    topo = NodeTopology.symmetric(3)
    problem = NodeProblem.from_macro_data(topo, coeff, data.rho0, data.q0, data.S0)
    return data, topo, coeff, problem


class TestInvariantMatrix:
    def test_pairing_structure_finite(self, ops_factory):
        # row k pairs velocity v_k with its mirror -v_k only:
        # (n - 1) M_k = (n - 1) f(v_k) + f(-v_k)
        ops = ops_factory(8)
        M = modal_matrix(ops, -0.5)
        N = 8
        assert M.shape == (N, N + 1)
        f = nodal_lift(ops)
        tol = 1e-15 * np.max(np.abs(f))
        for k in range(N):
            np.testing.assert_allclose(2.0 * M[k], 2.0 * f[N + k] + f[N - 1 - k],
                                       rtol=0.0, atol=tol)

    def test_pairing_structure_infinite(self, ops_factory):
        # mu = 0: row k selects the positive velocity v_k alone
        ops = ops_factory(8)
        M = modal_matrix(ops, 0.0)
        f = nodal_lift(ops)
        for k in range(8):
            np.testing.assert_array_equal(M[k], f[8 + k])

    def test_lifted_is_inverse_transform_of_lift(self, ops_factory):
        ops = ops_factory(8)
        np.testing.assert_allclose(ops.transform.basis @ nodal_lift(ops), ops.lift,
                                   rtol=0.0, atol=1e-13)

    def test_rejects_general_topology(self, ops_factory):
        ops = ops_factory(8)
        beta = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            compute_coefficients(ops, NodeTopology(2, beta))


class TestExtractDeltas:
    def test_golden_values_moderate_n3(self, coeff_factory):
        coeff = coeff_factory(50, 3)
        assert abs(coeff.delta1 - 0.5298) < 1e-3
        assert abs(coeff.delta2 - 0.3458) < 1e-3

    def test_golden_values_moderate_infinite(self, coeff_factory):
        coeff = coeff_factory(50, INFINITE)
        assert abs(coeff.delta1 - 1.5826) < 1e-3
        assert abs(coeff.delta2 - 1.0079) < 3e-3

    def test_sign_flip_invariance(self, ops_factory, coeff_factory):
        ops = ops_factory(30)
        base = coeff_factory(30, 3)
        r2 = stable_manifold(build_layer_matrix(30)).R2plus.copy()
        r2[:, 4] *= -1.0
        lift = build_lift(r2)
        even, odd = parity_halves(ops.transform.solve(lift))
        flipped_ops = replace(ops, lift=lift, even=even, odd=odd)
        coeff = compute_coefficients(flipped_ops, NodeTopology.symmetric(3))
        assert abs(coeff.delta1 - base.delta1) < 1e-12
        assert abs(coeff.delta2 - base.delta2) < 1e-12

    def test_row_scaling_invariance(self, ops_factory, coeff_factory):
        ops = ops_factory(30)
        base = coeff_factory(30, 3)
        # M(mu) is linear in E and O, so scaling their rows scales its rows
        rng = np.random.default_rng(2)
        scales = 10.0 ** rng.uniform(-3, 3, size=ops.N)[:, None]
        scaled = replace(ops, even=ops.even * scales, odd=ops.odd * scales)
        coeff = compute_coefficients(scaled, NodeTopology.symmetric(3))
        assert abs(coeff.delta1 - base.delta1) < 1e-11
        assert abs(coeff.delta2 - base.delta2) < 1e-11

    def test_convergence_trend(self, coeff_factory):
        # |delta(N) - delta(N-1)| shrinks over the sweep
        errs = []
        for N in (10, 20, 30, 40):
            a = coeff_factory(N, 3)
            b = coeff_factory(N - 1, 3)
            errs.append(abs(a.delta1 - b.delta1))
        assert all(x > y for x, y in zip(errs, errs[1:]))
        assert errs[-1] < errs[0] / 10

    def test_finite_degree_approaches_infinite(self, coeff_factory):
        ref = coeff_factory(30, INFINITE)
        gaps = [abs(coeff_factory(30, n).delta1 - ref.delta1) for n in (10, 50, 200)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < gaps[0] / 10

    @pytest.mark.parametrize("n", [3, 4, 50, 200, INFINITE])
    def test_positive_in_tested_regime(self, coeff_factory, n):
        coeff = coeff_factory(30, n)
        assert coeff.delta1 > 0 and coeff.delta2 > 0

    @pytest.mark.parametrize("N", [20, 99, 300])
    @pytest.mark.parametrize("n", [3, 4, INFINITE])
    def test_matches_svd_oracle(self, ops_factory, coeff_factory, N, n):
        coeff = coeff_factory(N, n)
        mu = 0.0 if n == INFINITE else -1.0 / (n - 1.0)
        delta1, delta2, eta = svd_extract(modal_matrix(ops_factory(N), mu))
        assert abs(coeff.delta1 - delta1) <= 1e-13
        assert abs(coeff.delta2 - delta2) <= 1e-13
        # the chain of the QR kernel's null vector against the SVD one, wherever
        # both components are above the rounding floor; each unit-vector
        # component carries an absolute error of a few eps
        null = _modal_null_space(ops_factory(N), mu)
        assert null.shape[1] == 1
        eps = np.finfo(float).eps
        numer, denom = np.concatenate(([eta[1]], eta[3:-1])), eta[3:]
        resolved = (np.abs(numer) >= eps) & (np.abs(denom) >= eps)
        ratio = -numer / denom
        rounding = np.abs(ratio) * eps * (1.0 / np.abs(numer) + 1.0 / np.abs(denom))
        err = np.abs(chain_coefficients(null[:, 0]) - ratio)
        assert np.all(err[resolved] <= 16.0 * rounding[resolved])

    @pytest.mark.parametrize("n", [3, INFINITE])
    def test_layout_independent(self, ops_factory, n):
        ops, topology = ops_factory(99), NodeTopology.symmetric(n)
        c_order = compute_coefficients(replace(ops, even=np.ascontiguousarray(ops.even),
                                               odd=np.ascontiguousarray(ops.odd)), topology)
        f_order = compute_coefficients(replace(ops, even=np.asfortranarray(ops.even),
                                               odd=np.asfortranarray(ops.odd)), topology)
        assert c_order.delta1 == f_order.delta1
        assert c_order.delta2 == f_order.delta2

    @pytest.mark.parametrize("mu", [-0.5, 0.0, 1.0, 0.9j])
    def test_modal_null_space_spans_svd_null_space(self, ops_factory, mu):
        ops = ops_factory(60)
        basis = _modal_null_space(ops, mu)
        reference = svd_null_space(modal_matrix(ops, mu))
        assert basis.shape == reference.shape
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]),
                                   rtol=0.0, atol=1e-13)
        # sine of the largest principal angle between the two subspaces
        sine = np.linalg.norm(basis - reference @ (reference.conj().T @ basis), 2)
        assert sine <= 1e-10

    def test_degenerate_matrix_rejected(self, ops_factory):
        ops = ops_factory(8)
        even, odd = ops.even.copy(), ops.odd.copy()
        even[3], odd[3] = even[2], odd[2]  # a duplicate row of M(mu): rank deficient
        with pytest.raises(DegeneracyError) as err:
            compute_coefficients(replace(ops, even=even, odd=odd), NodeTopology.symmetric(3))
        assert err.value.singular_values is not None


class TestLayerSolverAgreement:
    """Operators from the bidiagonal SVD against the stemr operators it replaced."""

    @pytest.mark.parametrize("N", [20, 99, 300])
    @pytest.mark.parametrize("n", [3, INFINITE])
    def test_coefficients(self, ops_factory, coeff_factory, N, n):
        expected = compute_coefficients(stemr_operators(ops_factory(N)),
                                        NodeTopology.symmetric(n))
        got = coeff_factory(N, n)
        assert abs(got.delta1 - expected.delta1) <= 1e-14 * abs(expected.delta1)
        assert abs(got.delta2 - expected.delta2) <= 1e-14 * abs(expected.delta2)

    def test_node_state_case1(self, ops_factory, coeff_factory):
        data, topo, coeff, problem = preset_problem(1, 100, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(100))
        expected = solve_node(problem, stemr_operators(ops_factory(100)))
        for got, want in ((sol.D, expected.D), (sol.C, expected.C), (sol.B, expected.B)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(sol.layer_eigenvalues, expected.layer_eigenvalues,
                                   rtol=1e-13, atol=0.0)
        assert (sol.layer_eigenvalues.tobytes()
                == stable_manifold(build_layer_matrix(100)).positive_eigenvalues.tobytes())


class TestMaxwellDelta:
    def test_closed_forms(self):
        d1, d2 = maxwell_delta(3)
        assert d1 == pytest.approx(4 / (3 * math.sqrt(2 * math.pi)), rel=1e-15)
        assert d2 == pytest.approx((2 * (math.pi - 2)) / (3 * math.sqrt(2 * math.pi)),
                                   rel=1e-15)

    def test_reported_values(self):
        # printed constants are 4-decimal roundings; see the golden acceptance test
        assert maxwell_delta(3) == pytest.approx((0.5320, 0.3033), abs=5e-4)
        assert maxwell_delta(INFINITE) == pytest.approx((1.5958, 0.9109), abs=5e-4)

    def test_degree_two_vanishes(self):
        assert maxwell_delta(2) == (0.0, 0.0)

    def test_rejects_bad_degree(self):
        for n in (1, 3.5):
            with pytest.raises(ValueError):
                maxwell_delta(n)


class TestMacroSystem:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("delta1", [0.0, 0.5298, 2.0])
    def test_determinant_closed_form(self, n, delta1):
        system = build_macro_system(delta1, 0.3458, n, np.zeros(n), 0.0)
        det = np.linalg.det(system.calA)
        expected = macro_determinant(n, delta1)
        assert abs(det - expected) < 1e-9 * abs(expected)

    def test_case1_fixed_point(self, coeff_factory):
        # data built to satisfy the coupling conditions: q_inf = (S0 + a q0)/(delta1 + a)
        coeff = coeff_factory(30, 3)
        d1, d2 = coeff.delta1, coeff.delta2
        data = InitialData.preset(1, d1, d2)
        incoming = data.S0 - A * data.q0
        balance = float(np.sum(data.S0 - 3 * data.rho0))
        S_inf, q_inf, rho_inf = macro_coupling_solve(coeff, incoming, balance, 3)
        np.testing.assert_allclose(q_inf, [0.0, 1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(S_inf, data.S0, atol=1e-12)
        np.testing.assert_allclose(rho_inf, data.rho0, atol=1e-12)

    def test_case3_bulk_formula(self, coeff_factory):
        coeff = coeff_factory(30, 3)
        d1, d2 = coeff.delta1, coeff.delta2
        data = InitialData.preset(3, d1, d2)
        incoming = data.S0 - A * data.q0
        balance = float(np.sum(data.S0 - 3 * data.rho0))
        S_inf, q_inf, rho_inf = macro_coupling_solve(coeff, incoming, balance, 3)
        q_bar = (2 * d1 + A) / (d1 + A)
        assert q_inf[1] == pytest.approx(q_bar, abs=1e-12)
        assert rho_inf[1] == pytest.approx(1 - d2 * q_bar, abs=1e-12)

    def test_zero_data_zero_solution(self, coeff_factory):
        coeff = coeff_factory(30, 3)
        out = macro_coupling_solve(coeff, np.zeros(3), 0.0, 3)
        for arr in out:
            assert np.max(np.abs(arr)) < 1e-14

    @pytest.mark.parametrize("bad_delta1", [-A])
    def test_singular_coefficients_rejected(self, coeff_factory, bad_delta1):
        coeff = replace(coeff_factory(30, 3), delta1=bad_delta1)
        with pytest.raises(SingularSystemError):
            macro_coupling_solve(coeff, np.zeros(3), 0.0, 3)

    def test_invertible_at_minus_inverse_speed(self, coeff_factory):
        # the determinant vanishes only at delta1 = -a; at -1/a it is 36 (n = 3)
        coeff = replace(coeff_factory(30, 3), delta1=-1.0 / A)
        incoming, balance = np.array([0.3, -0.2, 1.1]), 0.4
        m = np.concatenate(macro_coupling_solve(coeff, incoming, balance, 3))
        system = build_macro_system(coeff.delta1, coeff.delta2, 3, incoming, balance)
        assert macro_determinant(3, coeff.delta1) == pytest.approx(36.0)
        np.testing.assert_allclose(system.calA @ m, system.rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, -3, 2.5, 3.0, math.inf, math.nan, "3", None])
    def test_rejects_an_invalid_edge_count(self, coeff_factory, n):
        # n = 0 used to end in an IndexError, n = 1 in a one-edge "solution"
        # and 2.5 or infinity in a message about the length of incoming
        incoming = np.zeros(3)
        coeff = coeff_factory(30, 3)
        for call in (lambda: build_macro_system(0.5, 0.3, n, incoming, 0.0),
                     lambda: macro_coupling_solve(coeff, incoming, 0.0, n),
                     lambda: macro_determinant(n, 0.5)):
            with pytest.raises(ValueError, match="^n must be an integer >= 2"):
                call()

    def test_accepts_a_numpy_integer_edge_count(self):
        system = build_macro_system(0.5, 0.3, np.int64(3), np.zeros(3), 0.0)
        assert system.calA.shape == (9, 9)
        assert macro_determinant(np.int64(3), 0.5) == macro_determinant(3, 0.5)


class TestSolveNode:
    def test_zero_data(self, ops_factory):
        problem = NodeProblem(NodeTopology.symmetric(3), np.zeros(3), 0.0)
        sol = solve_node(problem, ops_factory(30))
        for arr in (sol.D, sol.C, sol.B, sol.gamma, sol.rho_at_0):
            assert np.max(np.abs(arr)) < 1e-12

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_residuals(self, ops_factory, coeff_factory, case):
        data, topo, coeff, problem = preset_problem(case, 30, ops_factory, coeff_factory)
        ops = ops_factory(30)
        sol = solve_node(problem, ops)
        assert coupling_residual(sol, topo, ops.transform) < 1e-9
        assert odd_moment_residual(sol) < 1e-9
        assert flux_residual(sol) < 1e-10

    def test_residual_rejects_a_topology_of_another_degree(self, ops_factory):
        sol = solve_node(NodeProblem(NodeTopology.symmetric(3), np.ones(3), 0.0), ops_factory(20))
        with pytest.raises(ValueError, match="^topology"):
            coupling_residual(sol, NodeTopology.symmetric(4), ops_factory(20).transform)

    def test_residual_rejects_the_rule_of_another_N(self, ops_factory):
        sol = solve_node(NodeProblem(NodeTopology.symmetric(3), np.ones(3), 0.0), ops_factory(20))
        with pytest.raises(ValueError, match="^transform"):
            coupling_residual(sol, NodeTopology.symmetric(3), ops_factory(30).transform)

    def test_invariant_equalities_across_edges(self, ops_factory, coeff_factory):
        data, topo, coeff, problem = preset_problem(3, 30, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(30))
        s_inv = sol.D + coeff.delta1 * sol.C
        r_inv = sol.B + coeff.delta2 * sol.C
        assert np.max(np.abs(s_inv - s_inv[0])) < 1e-9
        assert np.max(np.abs(r_inv - r_inv[0])) < 1e-9

    def test_chain_invariants_across_edges(self, ops_factory, coeff_factory):
        # the paper's chain coefficients close the layer amplitudes: the
        # invariants C + dt_1 gamma_1 and gamma_{k-1} + dt_k gamma_k agree
        # across edges wherever the chain is numerically resolved
        data, topo, coeff, problem = preset_problem(3, 30, ops_factory, coeff_factory)
        ops = ops_factory(30)
        sol = solve_node(problem, ops)
        dt = chain_coefficients(svd_extract(modal_matrix(ops, -0.5))[2])
        first = sol.C + dt[0] * sol.gamma[:, 0]
        assert np.max(np.abs(first - first[0])) < 1e-10
        for k in range(2, 12):
            inv_k = sol.gamma[:, k - 2] + dt[k - 1] * sol.gamma[:, k - 1]
            assert np.max(np.abs(inv_k - inv_k[0])) < 1e-10

    def test_golden_case1(self, ops_factory, coeff_factory):
        data, topo, coeff, problem = preset_problem(1, 100, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(100))
        assert sol.rho_inf[1] == pytest.approx(0.6542, abs=1e-3)
        assert sol.rho_at_0[1] == pytest.approx(0.7245, abs=1e-3)

    def test_golden_case2_shares_case1_node_state(self, ops_factory, coeff_factory):
        # case 2 differs from case 1 only in the initial density, so the node
        # state coincides with case 1's: the figures plot the same constants
        data, topo, coeff, problem = preset_problem(2, 100, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(100))
        assert sol.rho_inf[1] == pytest.approx(0.6542, abs=1e-3)
        assert sol.rho_at_0[1] == pytest.approx(0.7245, abs=1e-3)

    def test_golden_case3(self, ops_factory, coeff_factory):
        data, topo, coeff, problem = preset_problem(3, 100, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(100))
        assert sol.rho_inf[1] == pytest.approx(0.5732, abs=1e-3)
        assert sol.rho_at_0[1] == pytest.approx(0.6599, abs=1e-3)

    def test_case4_density_matches_initial(self, ops_factory, coeff_factory):
        # merged layers: the asymptotic density equals the initial one
        data, topo, coeff, problem = preset_problem(4, 100, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(100))
        np.testing.assert_allclose(sol.rho_inf, data.rho0, atol=1e-10)

    def test_matches_macro_solve(self, ops_factory, coeff_factory):
        data, topo, coeff, problem = preset_problem(2, 30, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(30))
        S_inf, q_inf, rho_inf = macro_coupling_solve(
            coeff, problem.incoming, problem.zero_balance, 3)
        np.testing.assert_allclose(sol.D, S_inf, atol=1e-10)
        np.testing.assert_allclose(sol.C, q_inf, atol=1e-10)
        np.testing.assert_allclose(sol.B, rho_inf, atol=1e-10)

    def test_rho_at_node_decomposition(self, ops_factory, coeff_factory):
        data, topo, coeff, problem = preset_problem(1, 30, ops_factory, coeff_factory)
        ops = ops_factory(30)
        sol = solve_node(problem, ops)
        spectrum = stable_manifold(build_layer_matrix(30))
        np.testing.assert_array_equal(sol.layer_eigenvalues, spectrum.positive_eigenvalues)
        e1r = spectrum.R2plus[0]
        expected = sol.B + 4 / np.sqrt(3) * (sol.gamma @ e1r)
        np.testing.assert_allclose(sol.rho_at_0, expected, atol=1e-13)
        np.testing.assert_allclose(sol.rho_layer_amplitudes.sum(axis=1),
                                   sol.rho_at_0 - sol.B, atol=1e-13)

    def test_rejects_infinite_topology(self, ops_factory):
        with pytest.raises(ValueError, match="^topology"):
            problem = NodeProblem(NodeTopology.symmetric(INFINITE), np.zeros(3), 0.0)
            solve_node(problem, ops_factory(30))


class TestSolveNodeGeneral:
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_matches_symmetric_solver(self, ops_factory, coeff_factory, case):
        data, topo, coeff, problem = preset_problem(case, 30, ops_factory, coeff_factory)
        ops = ops_factory(30)
        sym = solve_node(problem, ops)
        beta = topo.beta_matrix()
        gen = solve_node_general(NodeTopology(3, beta), problem.incoming,
                                 problem.zero_balance, ops)
        for name in ("D", "C", "B", "gamma"):
            np.testing.assert_allclose(getattr(gen, name), getattr(sym, name),
                                       atol=1e-8)

    def test_pass_through_node(self, ops_factory):
        # transparent two-edge node: glued-line solution, no layer
        ops = ops_factory(30)
        beta = np.array([[0.0, 1.0], [1.0, 0.0]])
        rho0 = np.array([1.0, 0.6])
        q0 = np.array([0.2, -0.5])
        S0 = np.array([1.1, 0.9])
        incoming = S0 - A * q0
        balance = float(np.sum(S0 - 3 * rho0))
        sol = solve_node_general(NodeTopology(2, beta), incoming, balance, ops)
        assert np.max(np.abs(sol.gamma)) < 1e-10
        assert sol.D[0] == pytest.approx(sol.D[1], abs=1e-10)
        assert sol.B[0] == pytest.approx(sol.B[1], abs=1e-10)
        assert sol.C[0] == pytest.approx(-sol.C[1], abs=1e-10)
        np.testing.assert_allclose(sol.rho_at_0, sol.B, atol=1e-10)

    def test_random_conservative_coupling(self, ops_factory):
        # arbitrary column-stochastic beta: the solved node must satisfy the
        # raw reflection conditions, and flux balance plus vanishing odd-moment
        # sums follow from conservation without being imposed per edge
        rng = np.random.default_rng(42)
        ops = ops_factory(20)
        for _ in range(3):
            raw = rng.uniform(0.05, 1.0, size=(3, 3))
            topo = NodeTopology(3, raw / raw.sum(axis=0, keepdims=True))
            rho0 = rng.uniform(0.5, 1.5, 3)
            q0 = rng.uniform(-1.0, 1.0, 3)
            S0 = rng.uniform(0.5, 1.5, 3)
            sol = solve_node_general(topo, S0 - A * q0,
                                     float(np.sum(S0 - 3 * rho0)), ops)
            assert coupling_residual(sol, topo, ops.transform) < 1e-12
            assert odd_moment_residual(sol) < 1e-12
            assert flux_residual(sol) < 1e-12

    def test_edge_permutation_symmetry(self, ops_factory, coeff_factory):
        data, topo, coeff, problem = preset_problem(3, 20, ops_factory, coeff_factory)
        ops = ops_factory(20)
        perm = np.array([2, 0, 1])
        base = solve_node_general(NodeTopology(3, topo.beta_matrix()),
                                  problem.incoming, problem.zero_balance, ops)
        beta_p = topo.beta_matrix()[np.ix_(perm, perm)]
        permuted = solve_node_general(NodeTopology(3, beta_p),
                                      problem.incoming[perm], problem.zero_balance, ops)
        np.testing.assert_allclose(permuted.D, base.D[perm], atol=1e-9)
        np.testing.assert_allclose(permuted.C, base.C[perm], atol=1e-9)
        np.testing.assert_allclose(permuted.B, base.B[perm], atol=1e-9)
        np.testing.assert_allclose(permuted.gamma, base.gamma[perm], atol=1e-9)

    # a 2 x 2 column-stochastic beta is never defective, so n = 2 has no such case
    @pytest.mark.parametrize("N", [20, 100])
    @pytest.mark.parametrize("n, kind", [(n, kind) for n in (2, 3, 5)
                                         for kind in ("random", "near-cyclic", "rank-one",
                                                      "defective")
                                         if (n, kind) != (2, "defective")])
    def test_matches_lstsq_oracle(self, ops_factory, N, n, kind):
        topology = NodeTopology(n, seeded_beta(kind, n, seed=10 * N + n))
        rng = np.random.default_rng(N + n)
        incoming, balance = rng.uniform(-1.0, 1.0, n), float(rng.uniform(-1.0, 1.0))
        ops = ops_factory(N)
        sol = solve_node_general(topology, incoming, balance, ops)
        expected = lstsq_general(topology, incoming, balance, ops)
        got = np.column_stack([sol.D, sol.C, sol.B, sol.gamma])
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
        if kind != "defective":  # the modal solver meets the oracle on its own
            modal = solve_node(NodeProblem(topology, incoming, balance), ops)
            got = np.column_stack([modal.D, modal.C, modal.B, modal.gamma])
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("N", [20, 100])
    def test_identity_coupling_degenerate_like_oracle(self, ops_factory, N):
        topology = NodeTopology(3, np.eye(3))
        ops = ops_factory(N)
        for solve in (solve_node_general, lstsq_general):
            with pytest.raises(DegeneracyError) as info:
                solve(topology, np.array([0.3, -0.2, 0.5]), 0.1, ops)
            assert info.value.singular_values is not None

    def test_no_copy_of_the_system(self, ops_factory):
        # the solve holds no copy of the augmented system [A | b]: its peak
        # stays below 1.5 times one such system
        N, n = 200, 3
        ops = ops_factory(N)
        topology = NodeTopology(n, seeded_beta("random", n, seed=7))
        incoming = np.array([0.3, -0.2, 0.5])
        lifted_before, incoming_before = nodal_lift(ops), incoming.copy()
        system_bytes = (n * N + n + 1) * (n * (N + 1) + 1) * 8
        tracemalloc.start()
        try:
            solve_node_general(topology, incoming, 0.1, ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * system_bytes
        np.testing.assert_array_equal(nodal_lift(ops), lifted_before)
        np.testing.assert_array_equal(incoming, incoming_before)

    @pytest.mark.parametrize("N", [20, 100])
    def test_disconnected_node_degenerate_like_oracle(self, ops_factory, N):
        # two column-stochastic blocks: eigenvalue 1 is double, the node splits
        beta = np.zeros((5, 5))
        beta[:2, :2] = [[0.3, 0.6], [0.7, 0.4]]
        beta[2:, 2:] = seeded_beta("random", 3, seed=N)
        topology = NodeTopology(5, beta)
        ops = ops_factory(N)
        for solve in (solve_node_general, lstsq_general):
            with pytest.raises(DegeneracyError) as info:
                solve(topology, np.array([0.3, -0.2, 0.5, 0.1, -0.4]), 0.1, ops)
            assert info.value.singular_values is not None

    @pytest.mark.parametrize("n", [3, 5])
    def test_complex_eigenvalues_match_modal_solver_at_large_N(self, ops_factory, n):
        # near a cyclic shift, beta has complex eigenvalues and a complex Schur form
        N = 300
        topology = NodeTopology(n, seeded_beta("near-cyclic", n, seed=n))
        assert np.any(np.abs(np.linalg.eigvals(topology.beta).imag) > 0.5)
        rng = np.random.default_rng(10 + n)
        incoming, balance = rng.uniform(-1.0, 1.0, n), float(rng.uniform(-1.0, 1.0))
        ops = ops_factory(N)
        general = solve_node_general(topology, incoming, balance, ops)
        modal = modal_solve(topology, incoming, balance, ops)
        for name in ("D", "C", "B", "gamma"):
            np.testing.assert_allclose(getattr(general, name), getattr(modal, name),
                                       rtol=0.0, atol=1e-9)
        for sol in (general, modal):
            assert coupling_residual(sol, topology, ops.transform) < 1e-12
            assert flux_residual(sol) < 1e-12
            assert odd_moment_residual(sol) < 1e-12

    def test_peak_memory_below_half_the_dense_system(self, ops_factory):
        # one N x (N+1) block at a time, complex here: no n(N+1)-column system
        N, n = 200, 5
        ops = ops_factory(N)
        topology = NodeTopology(n, seeded_beta("near-cyclic", n, seed=7))
        incoming = np.linspace(-0.5, 0.5, n)
        lifted_before = nodal_lift(ops)
        dense_bytes = (n * N + n + 1) * (n * (N + 1) + 1) * 8
        tracemalloc.start()
        try:
            solve_node_general(topology, incoming, 0.1, ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * dense_bytes
        np.testing.assert_array_equal(nodal_lift(ops), lifted_before)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_modal_solver_at_large_N(self, ops_factory, n):
        N = 300
        topology = NodeTopology(n, seeded_beta("random", n, seed=n))
        rng = np.random.default_rng(n)
        incoming, balance = rng.uniform(-1.0, 1.0, n), float(rng.uniform(-1.0, 1.0))
        ops = ops_factory(N)
        general = solve_node_general(topology, incoming, balance, ops)
        modal = modal_solve(topology, incoming, balance, ops)
        for name in ("D", "C", "B", "gamma"):
            np.testing.assert_allclose(getattr(general, name), getattr(modal, name),
                                       rtol=0.0, atol=1e-9)
        for sol in (general, modal):
            assert coupling_residual(sol, topology, ops.transform) < 1e-12
            assert flux_residual(sol) < 1e-12
            assert odd_moment_residual(sol) < 1e-12


@st.composite
def conservative_couplings(draw):
    """Column-stochastic beta with n in {2..5}, random or near a cyclic shift."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n))
    beta = np.reshape(weights, (n, n))
    beta = beta / beta.sum(axis=0)
    mix = draw(st.sampled_from([None, 0.0, 1e-6, 1e-2, 0.2]))
    if mix is not None:  # complex eigenvalues near the roots of unity
        beta = (1.0 - mix) * np.roll(np.eye(n), 1, axis=0) + mix * beta
    return NodeTopology(n, beta)


def node_data(n):
    return st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                     st.floats(-1.0, 1.0))


def modal_solve(topology, incoming, zero_balance, ops):
    return solve_node(NodeProblem(topology, np.asarray(incoming, dtype=float), zero_balance),
                      ops)


class TestModalKernel:
    """solve_node diagonalizes beta; solve_node_general is its raw-equation reference."""

    N = 20

    @given(data=st.data(), topology=conservative_couplings())
    def test_matches_general_solver(self, ops_factory, data, topology):
        incoming, balance = data.draw(node_data(topology.n))
        ops = ops_factory(self.N)
        modal = modal_solve(topology, incoming, balance, ops)
        general = solve_node_general(topology, incoming, balance, ops)
        for name in ("D", "C", "B", "gamma"):
            np.testing.assert_allclose(getattr(modal, name), getattr(general, name),
                                       rtol=0.0, atol=1e-9)
        # conservation: flux balance and odd-moment sums are not imposed
        assert coupling_residual(modal, topology, ops.transform) < 1e-12
        assert flux_residual(modal) < 1e-12
        assert odd_moment_residual(modal) < 1e-12

    @given(data=st.data(), topology=conservative_couplings())
    def test_edge_permutation_equivariance(self, ops_factory, data, topology):
        n = topology.n
        incoming, balance = data.draw(node_data(n))
        perm = np.array(data.draw(st.permutations(range(n))))
        ops = ops_factory(self.N)
        base = modal_solve(topology, incoming, balance, ops)
        permuted = modal_solve(NodeTopology(n, topology.beta[np.ix_(perm, perm)]),
                               np.asarray(incoming)[perm], balance, ops)
        for name in ("D", "C", "B", "gamma"):
            np.testing.assert_allclose(getattr(permuted, name), getattr(base, name)[perm],
                                       rtol=0.0, atol=1e-10)

    @given(data=st.data(), topology=conservative_couplings(),
           weights=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    def test_linear_in_data(self, ops_factory, data, topology, weights):
        (r1, z1), (r2, z2) = data.draw(node_data(topology.n)), data.draw(node_data(topology.n))
        a, b = weights
        ops = ops_factory(self.N)
        s1 = modal_solve(topology, r1, z1, ops)
        s2 = modal_solve(topology, r2, z2, ops)
        combined = modal_solve(topology, a * np.asarray(r1) + b * np.asarray(r2),
                               a * z1 + b * z2, ops)
        for name in ("D", "C", "B", "gamma", "g_at_0"):
            np.testing.assert_allclose(getattr(combined, name),
                                       a * getattr(s1, name) + b * getattr(s2, name),
                                       rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("weights", [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
    def test_rank_one_coupling(self, ops_factory, weights):
        # beta_ij = w_i: a triple eigenvalue 0 whose LAPACK eigenvectors are
        # linearly dependent although beta is diagonalizable
        topology = NodeTopology(4, np.outer(weights, np.ones(4)))
        ops = ops_factory(self.N)
        incoming, balance = [0.3, -0.2, 0.5, 0.1], -0.4
        modal = modal_solve(topology, incoming, balance, ops)
        general = solve_node_general(topology, incoming, balance, ops)
        for name in ("D", "C", "B", "gamma"):
            np.testing.assert_allclose(getattr(modal, name), getattr(general, name),
                                       rtol=0.0, atol=1e-9)

    def test_defective_coupling_left_to_general_solver(self, ops_factory):
        # a single Jordan block for eigenvalue 0: no eigenbasis
        topology = NodeTopology(3, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                             [0.0, 0.0, 0.0]]))
        ops = ops_factory(self.N)
        incoming, balance = [0.3, -0.2, 0.5], 0.1
        with pytest.raises(DegeneracyError, match="solve_node_general"):
            modal_solve(topology, incoming, balance, ops)
        sol = solve_node_general(topology, incoming, balance, ops)
        assert coupling_residual(sol, topology, ops.transform) < 1e-12

    def test_identity_coupling_is_degenerate(self, ops_factory):
        # full reflection leaves every edge undetermined up to its own layer
        topology = NodeTopology(3, np.eye(3))
        ops = ops_factory(self.N)
        with pytest.raises(DegeneracyError):
            modal_solve(topology, [0.3, -0.2, 0.5], 0.1, ops)
        with pytest.raises(DegeneracyError):
            solve_node_general(topology, [0.3, -0.2, 0.5], 0.1, ops)


class TestSolutionCheck:
    """Both node solvers end in one check: the solution is real and meets the
    raw reflection equations, the characteristics and the balance."""

    N = 20
    PUSHES = {
        # scaled: the homogeneous reflection equations still hold, the
        # characteristics and the balance do not
        "closing": lambda m: m * (1.0 + 1e-6),
        # the gamma amplitudes moved: only the reflection equations fail
        "reflection": lambda m: m + 1e-6 * (np.arange(m.shape[1]) >= 3),
        "imaginary": lambda m: m + 1e-6j,
    }

    @pytest.mark.parametrize("push", sorted(PUSHES))
    @pytest.mark.parametrize("kind", ["symmetric", "near-cyclic"])
    @pytest.mark.parametrize("solve", [modal_solve, solve_node_general],
                             ids=["solve_node", "solve_node_general"])
    def test_solution_off_the_equations_raises(self, ops_factory, monkeypatch, solve, kind,
                                               push):
        beta = (NodeTopology.symmetric(3).beta_matrix() if kind == "symmetric"
                else seeded_beta(kind, 3, seed=3))
        args = (NodeTopology(3, beta), [0.3, -0.2, 0.5], 0.1, ops_factory(self.N))
        solve(*args)  # the unpushed solution passes
        check = coupling._check_solution
        monkeypatch.setattr(coupling, "_check_solution",
                            lambda m, *rest: check(self.PUSHES[push](m), *rest))
        with pytest.raises(NumericalError, match="misses the coupling equations"):
            solve(*args)


class TestNodeDistribution:
    def test_moments_by_quadrature(self, ops_factory, coeff_factory):
        # oracle: continuous velocity integrals of the reconstruction
        data, topo, coeff, problem = preset_problem(2, 30, ops_factory, coeff_factory)
        ops = ops_factory(30)
        sol = solve_node(problem, ops)
        v = np.linspace(-14.0, 14.0, 28001)
        f = node_distribution(sol, v)[1]
        rho = simpson(f, x=v)
        q = simpson(v * f, x=v)
        S = simpson(v * v * f, x=v)
        assert rho == pytest.approx(sol.rho_at_0[1], abs=1e-8)
        assert q == pytest.approx(sol.C[1], abs=1e-8)
        assert S == pytest.approx(sol.D[1], abs=1e-8)

    def test_layer_free_distribution_flux(self, ops_factory):
        # pass-through solution has gamma = 0: pure Maxwellian reconstruction
        ops = ops_factory(30)
        beta = np.array([[0.0, 1.0], [1.0, 0.0]])
        rho0 = np.array([1.0, 0.6])
        q0 = np.array([0.2, -0.5])
        S0 = np.array([1.1, 0.9])
        sol = solve_node_general(NodeTopology(2, beta), S0 - A * q0,
                                 float(np.sum(S0 - 3 * rho0)), ops)
        v = np.linspace(-14.0, 14.0, 28001)
        f = node_distribution(sol, v)[0]
        assert simpson(v * f, x=v) == pytest.approx(sol.C[0], abs=1e-8)

    def test_one_row_per_edge_from_one_table(self, ops_factory, coeff_factory):
        # each edge's row is its own product with the shared Hermite table
        data, topo, coeff, problem = preset_problem(3, 30, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(30))
        v = np.linspace(-6.0, 6.0, 121)
        f = node_distribution(sol, v)
        h = hermite_functions(v / np.sqrt(2.0), 60)
        assert f.shape == (3, v.size)
        for i in range(3):
            np.testing.assert_array_equal(f[i], h[0] * (sol.g_at_0[i] @ h))

    def test_blocks_of_samples(self, ops_factory, coeff_factory, monkeypatch):
        # only one block's table is alive at a time, and the blocks give the
        # values of one table to rounding (a block rescales where its own
        # largest |v| asks)
        data, topo, coeff, problem = preset_problem(1, 100, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(100))
        v = np.linspace(-6.0, 6.0, 1201)
        whole = node_distribution(sol, v)
        block = 8 * 200 * 300  # the table of 300 samples, a quarter of all
        monkeypatch.setattr(coupling, "_TABLE_BYTES", block)
        tracemalloc.start()
        try:
            blocks = node_distribution(sol, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * block + blocks.nbytes + v.nbytes
        np.testing.assert_allclose(blocks, whole, rtol=0.0, atol=1e-14 * np.max(np.abs(whole)))

    def test_high_resolution_jump_at_zero(self, ops_factory, coeff_factory):
        # the node distribution of test case 2 is discontinuous at v = 0; at
        # N = 1000 the reconstruction resolves the jump and is smooth elsewhere
        data, topo, coeff, problem = preset_problem(2, 1000, ops_factory,
                                                    coeff_factory)
        sol = solve_node(problem, ops_factory(1000))
        assert sol.rho_at_0[1] == pytest.approx(0.7245, abs=1e-3)
        f = node_distribution(sol, np.array([-0.05, 0.05, 1.0, 1.05]))[1]
        assert f[1] - f[0] > 0.1            # jump across v = 0
        assert abs(f[3] - f[2]) < 0.02      # smooth away from it

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_samples(self, bad, ops_factory, coeff_factory):
        # NaN gave NaN rows and +-inf a RuntimeWarning inside hermite_functions
        data, topo, coeff, problem = preset_problem(1, 30, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(30))
        with pytest.raises(ValueError, match="^v_samples must be finite"):
            node_distribution(sol, np.array([0.0, bad, 1.0]))

    def test_rejects_multidimensional_samples(self, ops_factory, coeff_factory):
        # a 2-d array used to fail inside the table product with a broadcast error
        data, topo, coeff, problem = preset_problem(1, 30, ops_factory, coeff_factory)
        sol = solve_node(problem, ops_factory(30))
        with pytest.raises(ValueError, match="^v_samples must be a scalar or a 1-d array"):
            node_distribution(sol, np.zeros((2, 2)))


class TestImmutability:
    def test_constructed_arrays_are_readonly(self, ops_factory):
        ops = ops_factory(8)
        for arr in (ops.rule.nodes, ops.rule.weights, ops.rule.scaled_weights,
                    ops.rule.positive, ops.rule.basis, ops.layer_eigenvalues, ops.lift,
                    ops.even, ops.odd):
            with pytest.raises(ValueError):
                arr[..., 0] = 0.0

    def test_node_solution_is_readonly(self, ops_factory, coeff_factory):
        data, topo, coeff, problem = preset_problem(1, 30, ops_factory,
                                                    coeff_factory)
        sol = solve_node(problem, ops_factory(30))
        with pytest.raises(ValueError):
            sol.gamma[0, 0] = 1.0
        with pytest.raises(ValueError):
            sol.rho_at_0[0] = 1.0
        with pytest.raises(ValueError):
            sol.layer_eigenvalues[0] = 1.0

    def test_node_problem_keeps_a_readonly_copy(self):
        # an edit of the caller's array after construction must not reach the
        # problem, which was checked finite when built
        incoming = np.array([0.1, 0.2, 0.3])
        problem = NodeProblem(NodeTopology.symmetric(3), incoming, 0.0)
        incoming[0] = np.nan
        np.testing.assert_array_equal(problem.incoming, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            problem.incoming[0] = 1.0


class TestParityHalves:
    """E and O against the 2N-row S^{-1} T they replace, ops.transform.solve(ops.lift)."""

    @pytest.mark.parametrize("N", [8, 60, 300])
    def test_match_the_nodal_lift(self, ops_factory, N):
        ops = ops_factory(N)
        f = ops.transform.solve(ops.lift)
        np.testing.assert_allclose(ops.even + ops.odd, f[N:], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(ops.even - ops.odd, f[N - 1::-1], rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("N", [8, 60, 300])
    def test_structural_zero_columns(self, ops_factory, N):
        # the lift puts C only in g_1 and D, B only in g_0 and g_2
        ops = ops_factory(N)
        assert np.all(ops.even[:, 1] == 0.0)
        assert np.all(ops.odd[:, 0] == 0.0)
        assert np.all(ops.odd[:, 2] == 0.0)

    @pytest.mark.parametrize("N", [60, 300])
    @pytest.mark.parametrize("mu", [-0.5, 0.0, 0.5, 0.9])
    def test_deltas_match_the_nodal_lift(self, ops_factory, N, mu):
        ops = ops_factory(N)
        f = ops.transform.solve(ops.lift)
        expected = held_coefficients(ops, f[N:] - mu * f[N - 1::-1])
        got = held_coefficients(ops, modal_matrix(ops, mu))
        assert abs(got.delta1 - expected.delta1) <= 1e-14 * abs(expected.delta1)
        assert abs(got.delta2 - expected.delta2) <= 1e-14 * abs(expected.delta2)

    @pytest.mark.parametrize("n", [3, 4, INFINITE])
    def test_coefficients_bit_for_bit_those_of_the_held_matrix(self, ops_factory, n):
        ops, topology = ops_factory(99), NodeTopology.symmetric(n)
        mu = 0.0 if n == INFINITE else -1.0 / (n - 1.0)
        assert compute_coefficients(ops, topology) == held_coefficients(ops, modal_matrix(ops, mu))

    def test_products_ignore_the_table_floor(self, ops_factory):
        # the rule's table at N = 1000 is zero below _FLOOR, the recursion's is
        # not: E and O equal the products with the recursion's table bit for
        # bit in every entry above 2^20 _FLOOR, and elsewhere move by at most
        # the dropped terms, _FLOOR w_i sum_k |T_kj| (no moved entry reaches
        # 2^-895)
        N = 1000
        ops = ops_factory(N)
        exact = hermite_functions(ops.rule.nodes, 2 * N)[:, N:]
        weights = ops.rule.scaled_weights[N:, None]
        for parity, flushed in ((0, ops.even), (1, ops.odd)):
            lift = ops.lift[parity::2]
            product = exact[parity::2].T @ lift
            product *= weights
            large = np.abs(product) >= 2.0 ** 20 * _FLOOR
            assert flushed[large].tobytes() == product[large].tobytes()
            dropped = _FLOOR * weights * np.sum(np.abs(lift), axis=0)
            assert np.all(np.abs(flushed - product) <= dropped)


class TestConservationMode:
    @pytest.mark.parametrize("N", [4, 10, 100, 300])
    def test_null_space_of_m1_is_written_down(self, ops_factory, N):
        # M(1) = 2 O: its D and B columns are exactly zero and [O_gamma | O_C]
        # has full column rank, so [e_D, e_B] is a basis of its null space
        ops = ops_factory(N)
        M = np.empty((N, N + 1))
        _sum_modal(ops, 1.0, M)  # columns (gamma, D, C, B)
        assert np.all(M[:, N - 2] == 0.0) and np.all(M[:, N] == 0.0)
        s = np.linalg.svd(ops.odd[:, [1, *range(3, N + 1)]], compute_uv=False)
        assert s[-1] > SV_CUTOFF * s[0]
        for mu in (1.0, 1.0 - 1e-12, 1.0 + 5e-13j):
            null = _modal_null_space(ops, mu)
            assert null.shape == (N + 1, 2)
            np.testing.assert_array_equal(null[[0, 2]], np.eye(2))
            assert np.count_nonzero(null) == 2


class TestOperatorMemory:
    N = 300
    unit = N * (N + 1) * 8  # one N x (N+1) array of doubles

    def test_holds_only_what_the_solves_read(self):
        # the Hermite table at the positive nodes, the lift and its parity
        # halves E and O, plus O(N): no full table, no layer eigenvectors, no
        # copy of the stable-manifold basis and no 2N-row S^{-1} T
        N = self.N
        ops = NodeOperators.build(N)
        held = sum(held_buffers(ops).values())
        budget = (ops.rule.positive.nbytes + ops.lift.nbytes + ops.even.nbytes
                  + ops.odd.nbytes + 64 * N * 8)
        assert held <= budget

    def test_no_node_path_makes_the_full_table(self):
        # the build, both solves, the distribution and the residual read only
        # the rule's table at the positive nodes; the full table is mirrored
        # from it when first read, and kept
        ops = NodeOperators.build(200)
        topology = NodeTopology.symmetric(3)
        coeff = compute_coefficients(ops, topology)
        data = InitialData.preset(1, coeff.delta1, coeff.delta2)
        problem = NodeProblem.from_macro_data(topology, coeff, data.rho0, data.q0, data.S0)
        solution = solve_node(problem, ops)
        solve_node_general(NodeTopology(3, topology.beta_matrix()), problem.incoming,
                           problem.zero_balance, ops)
        node_distribution(solution, np.linspace(-6.0, 6.0, 101))
        coupling_residual(solution, topology, ops.transform)
        assert "basis" not in vars(ops.rule)
        basis = ops.rule.basis
        assert basis.tobytes() == _mirrored(ops.rule.positive).tobytes()
        assert ops.rule.basis is basis and not basis.flags.writeable

    def test_build_peak_is_what_it_holds(self):
        # the layer eigenvectors are freed before the Hermite table is made,
        # and E and O come from half the table each: the traced peak stays
        # within half an N x (N+1) array of the operators themselves
        tracemalloc.start()
        try:
            ops = NodeOperators.build(self.N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= sum(held_buffers(ops).values()) + 0.5 * self.unit

    def test_build_peak_is_pinned(self):
        # the layer stage (the 2m x m recursion table, 1.54 MiB) stays below
        # the Hermite-table stage, which sets the peak: 4.24 MiB
        tracemalloc.start()
        try:
            NodeOperators.build(self.N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.35 * 2**20

    def test_coefficients_hold_no_matrix_beside_the_qr(self, ops_factory):
        # M(mu) is summed block by block into the one buffer the QR works in,
        # and the row scales take one more N x (N+1) array: two units at the peak
        ops = ops_factory(self.N)
        topology = NodeTopology.symmetric(3)
        compute_coefficients(ops, topology)
        fresh = replace(ops)  # keeps no null vector, so the traced call makes its QR
        tracemalloc.start()
        try:
            compute_coefficients(fresh, topology)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * self.unit

    def test_complex_pair_solve_holds_one_complex_qr(self, ops_factory):
        # the two blocks of a complex pair share one complex buffer (two units)
        # and no earlier block's QR stays alive beside it; scipy.linalg, which
        # the solve imports, is loaded by this module already
        ops = ops_factory(self.N)
        beta = 0.9 * np.roll(np.eye(3), 1, axis=0) + 0.1 / 3.0
        args = (NodeTopology(3, beta), np.array([0.3, -0.2, 0.5]), 0.1, ops)
        tracemalloc.start()
        try:
            solve_node_general(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * self.unit

    def test_reflection_of_a_complex_block_stays_real(self, ops_factory):
        # E y - O y for a complex y goes by its real and imaginary parts: no
        # complex copy of E or O, which would take two N x (N+1) units each
        ops = ops_factory(self.N)
        rng = np.random.default_rng(0)
        y = rng.normal(size=(self.N + 1, 3)) + 1j * rng.normal(size=(self.N + 1, 3))
        tracemalloc.start()
        try:
            reflected = _reflected(ops, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * self.unit
        cast = ops.even @ y - ops.odd @ y
        np.testing.assert_allclose(reflected, cast, rtol=0.0,
                                   atol=1e-13 * np.max(np.abs(cast)))


class TestOperatorSweep:
    @pytest.mark.parametrize("n", [3, INFINITE])
    def test_deltas_equal_single_builds(self, n):
        # the sweep's operators carry the bits of NodeOperators.build(N)
        topology = NodeTopology.symmetric(n)
        halves = range(5, 41)
        for N, ops in zip(halves, _sweep(halves), strict=True):
            swept = compute_coefficients(ops, topology)
            single = compute_coefficients(NodeOperators.build(N), topology)
            assert swept.delta1.hex() == single.delta1.hex()
            assert swept.delta2.hex() == single.delta2.hex()

    def test_peak_is_no_higher_than_the_per_n_loop(self):
        # a batch's Hermite table is paid for by holding no N's operators
        # while the next are built, which the loop of single builds does. The
        # loop carries nothing else from one N to the next, so its largest N
        # set its peak and it runs from N = 150 only
        topology = NodeTopology.symmetric(3)
        halves = range(4, 161)

        def per_n_loop():
            for N in range(150, 161):
                ops = NodeOperators.build(N)
                compute_coefficients(ops, topology)

        def sweep():
            operators = _sweep(halves)
            for _ in halves:
                compute_coefficients(next(operators), topology)

        peaks = {}
        for run in (per_n_loop, sweep):
            tracemalloc.start()
            try:
                run()
                peaks[run.__name__] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["sweep"] <= peaks["per_n_loop"], peaks


class TestTopologyValidation:
    def test_bad_column_sums(self):
        with pytest.raises(ValueError):
            NodeTopology(2, np.array([[0.0, 0.5], [1.0, 0.4]]))

    def test_negative_entries(self):
        with pytest.raises(ValueError):
            NodeTopology(2, np.array([[-0.5, 1.5], [1.5, -0.5]]))

    def test_infinite_with_matrix(self):
        with pytest.raises(ValueError):
            NodeTopology(INFINITE, np.eye(2))

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            NodeTopology.symmetric(1)

    def test_fractional_degree_with_matrix_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            NodeTopology(3.5, NodeTopology.symmetric(3).beta_matrix())

    def test_degree_one_with_matrix_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            NodeTopology(1, np.array([[1.0]]))

    def test_non_finite_matrix_rejected(self):
        beta = NodeTopology.symmetric(3).beta_matrix().copy()
        beta[0, 1] = np.nan
        with pytest.raises(ValueError, match="beta"):
            NodeTopology(3, beta)

    def test_complex_matrix_rejected(self):
        # a cast to float would drop the imaginary part with only a warning
        beta = NodeTopology.symmetric(3).beta_matrix().astype(complex)
        beta[0, 1] += 0.3j
        with pytest.raises(ValueError, match="beta"):
            NodeTopology(3, beta)

    def test_symmetric_matrix(self):
        beta = NodeTopology.symmetric(3).beta_matrix()
        np.testing.assert_allclose(beta, (np.ones((3, 3)) - np.eye(3)) / 2)


# non-finite node data, each with the parameter its error must name
NON_FINITE_DATA = [
    pytest.param([np.nan, 0.0, 0.0], 0.0, "incoming", id="incoming-nan"),
    pytest.param([0.0, np.inf, 0.0], 0.0, "incoming", id="incoming-inf"),
    pytest.param([0.0, 0.0, 0.0], np.nan, "zero_balance", id="zero_balance-nan"),
    pytest.param([0.0, 0.0, 0.0], -np.inf, "zero_balance", id="zero_balance-minus-inf"),
]


# complex node data, each with the parameter its error must name
COMPLEX_DATA = [
    pytest.param([1.0 + 2.0j, 0.0, 0.0], 0.0, "incoming", id="incoming-complex-entry"),
    pytest.param(np.zeros(3, complex), 0.0, "incoming", id="incoming-complex-dtype"),
    pytest.param([0.0, 0.0, 0.0], 0.5 + 1.0j, "zero_balance", id="zero_balance-complex"),
    pytest.param([0.0, 0.0, 0.0], np.complex128(0.5), "zero_balance",
                 id="zero_balance-complex-real-valued"),
]


class TestNodeDataValidation:
    """A NaN or infinity in the node data raises instead of solving to NaN."""

    @pytest.mark.parametrize("incoming, zero_balance, name", NON_FINITE_DATA)
    def test_solve_node(self, ops_factory, incoming, zero_balance, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_node(NodeProblem(NodeTopology.symmetric(3), np.array(incoming), zero_balance),
                       ops_factory(20))

    @pytest.mark.parametrize("incoming, zero_balance, name", NON_FINITE_DATA)
    def test_solve_node_general(self, ops_factory, incoming, zero_balance, name):
        topology = NodeTopology(3, NodeTopology.symmetric(3).beta_matrix())
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_node_general(topology, np.array(incoming), zero_balance, ops_factory(20))

    @pytest.mark.parametrize("incoming, zero_balance, name", NON_FINITE_DATA)
    def test_macro_coupling_solve(self, coeff_factory, incoming, zero_balance, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            macro_coupling_solve(coeff_factory(20, 3), np.array(incoming), zero_balance, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["delta1", "delta2"])
    def test_macro_coupling_solve_coefficients(self, coeff_factory, name, bad):
        coeff = replace(coeff_factory(20, 3), **{name: bad})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            macro_coupling_solve(coeff, np.array([0.1, 0.2, 0.3]), 0.0, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["delta1", "delta2"])
    def test_macro_system_coefficients(self, name, bad):
        deltas = {"delta1": 0.5, "delta2": 0.3, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build_macro_system(deltas["delta1"], deltas["delta2"], 3, np.zeros(3), 0.0)
        if name == "delta1":
            with pytest.raises(ValueError, match="^delta1 must be finite"):
                macro_determinant(3, bad)

    def test_from_macro_data_rejects_a_wrong_edge_count(self):
        two_edges = np.array([1.0, 0.5])
        with pytest.raises(ValueError, match="^incoming must be a vector of length 3"):
            NodeProblem.from_macro_data(NodeTopology.symmetric(3), None,
                                        two_edges, two_edges, two_edges)

    def test_from_macro_data_rejects_the_infinite_node(self):
        ones = np.ones(3)
        with pytest.raises(ValueError, match="^topology"):
            NodeProblem.from_macro_data(NodeTopology.symmetric(INFINITE), None, ones, ones, ones)

    @pytest.mark.parametrize("incoming, zero_balance, name", COMPLEX_DATA)
    def test_complex_data_is_named(self, incoming, zero_balance, name):
        # a cast to float would drop the imaginary part with only a warning
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            NodeProblem(NodeTopology.symmetric(3), incoming, zero_balance)

    @pytest.mark.parametrize("incoming, zero_balance, name", COMPLEX_DATA)
    def test_complex_data_is_named_by_the_general_solve(self, ops_factory, incoming,
                                                         zero_balance, name):
        topology = NodeTopology(3, NodeTopology.symmetric(3).beta_matrix())
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            solve_node_general(topology, incoming, zero_balance, ops_factory(20))

    @pytest.mark.parametrize("name", ["rho0", "q0", "S0"])
    def test_complex_macro_data_is_named(self, name):
        fields = dict(rho0=np.ones(3), q0=np.zeros(3), S0=np.ones(3))
        fields[name] = fields[name] + 0.5j
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            NodeProblem.from_macro_data(NodeTopology.symmetric(3), None, **fields)

    def test_zero_balance_must_be_a_scalar(self):
        with pytest.raises(ValueError, match="^zero_balance must be a scalar"):
            NodeProblem(NodeTopology.symmetric(3), [0.1, 0.2, 0.3], [0.5])

    def test_problem_holds_floats(self):
        problem = NodeProblem(NodeTopology.symmetric(3), [1, 0, -1], np.float32(0.5))
        assert problem.incoming.dtype == float and type(problem.zero_balance) is float
