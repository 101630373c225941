import ctypes

import numpy as np
import pytest

from bgknet import (
    InitialData,
    NodeOperators,
    NodeProblem,
    NodeTopology,
    compute_coefficients,
    solve_node,
    solve_node_general,
)
from bgknet import _lapack, coupling
from bgknet.cli import main
from bgknet.errors import NumericalError


def random_matrix(rng, shape, dtype):
    a = rng.normal(size=shape)
    if dtype == np.complex128:
        a = a + 1j * rng.normal(size=shape)
    return a


def factored(rng, n, dtype):
    """An n x (n + 2) Fortran-ordered buffer after geqrf, its R well conditioned."""
    a = np.asfortranarray(random_matrix(rng, (n, n + 2), dtype))
    a[:, :n] += 4.0 * np.sqrt(n) * np.eye(n)
    return a, _lapack.geqrf(a)


def near_cyclic_beta():
    """Column-stochastic 3 x 3 beta with eigenvalues 1 and 0.9 exp(+-2 pi i/3)."""
    return 0.9 * np.roll(np.eye(3), 1, axis=0) + 0.1 / 3.0


class TestInPlaceQR:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("N", [5, 60, 300])
    @pytest.mark.parametrize("k", [0, 3])
    def test_r_bit_identical_to_numpy(self, dtype, N, k):
        # the layout of M(mu) with k right-hand-side columns: N x (N + 1 + k)
        M = random_matrix(np.random.default_rng(N + k), (N, N + 1 + k), dtype)
        a = np.asfortranarray(M)
        tau = _lapack.geqrf(a)
        assert tau.shape == (N,) and tau.dtype == dtype
        np.testing.assert_array_equal(np.triu(a), np.linalg.qr(M, mode="r"))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_trtrs_solves_the_triangle(self, dtype):
        rng = np.random.default_rng(1)
        n = 60
        a, _ = factored(rng, n, dtype)
        b = random_matrix(rng, (n, 2), dtype)
        x = _lapack.trtrs(a, np.asfortranarray(b))
        expected = np.linalg.solve(np.triu(a[:, :n]), b)
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_trcon_agrees_with_scipy(self, dtype):
        from scipy.linalg import get_lapack_funcs

        a, _ = factored(np.random.default_rng(2), 60, dtype)
        n = 58
        R = np.triu(a[:n, :n])
        expected, _ = get_lapack_funcs("trcon", (R,))(R, norm="1", uplo="U", diag="N")
        assert 0.5 * expected <= _lapack.trcon(a, n) <= 2.0 * expected

    def test_unmqr_applies_q_hermitian(self):
        rng = np.random.default_rng(3)
        M = random_matrix(rng, (40, 45), np.complex128)
        Q, _ = np.linalg.qr(M)  # numpy forms Q from the same geqrf reflectors
        a = np.asfortranarray(M)
        tau = _lapack.geqrf(a)
        c = random_matrix(rng, (40, 3), np.complex128)
        got = _lapack.unmqr(a, tau, np.asfortranarray(c))
        np.testing.assert_allclose(got, Q.conj().T @ c, rtol=0.0, atol=1e-13)


class TestArgumentChecks:
    def bad_calls(self):
        rng = np.random.default_rng(4)
        a, tau = factored(rng, 8, np.float64)
        z, ztau = factored(rng, 8, np.complex128)
        nan = np.asfortranarray(np.ones((8, 9)))
        nan[2, 3] = np.nan
        readonly = np.asfortranarray(np.ones((8, 9)))
        readonly.flags.writeable = False
        zc = np.asfortranarray(np.ones((8, 2), complex))
        return [
            ("a must be a 2-d", lambda: _lapack.geqrf(np.ones((8, 9), np.float32, order="F"))),
            ("a must be a 2-d", lambda: _lapack.geqrf(np.ones(8))),
            ("a must be Fortran-contiguous", lambda: _lapack.geqrf(np.ones((8, 9)))),
            ("a must be Fortran-contiguous", lambda: _lapack.geqrf(readonly)),
            ("a must have at least one row", lambda: _lapack.geqrf(np.ones((0, 3), order="F"))),
            ("a must be finite", lambda: _lapack.geqrf(nan)),
            ("a must be Fortran-contiguous", lambda: _lapack.trcon(np.ascontiguousarray(a), 4)),
            ("n must lie in", lambda: _lapack.trcon(a, 9)),
            ("n must lie in", lambda: _lapack.trcon(a, 0)),
            ("b must have a's dtype", lambda: _lapack.trtrs(a, np.ones((8, 1), complex))),
            ("b must be Fortran-contiguous", lambda: _lapack.trtrs(a, np.ones((8, 2)))),
            ("b must be finite", lambda: _lapack.trtrs(a, np.full((8, 1), np.inf))),
            ("n must lie in", lambda: _lapack.trtrs(a, np.ones((9, 1), order="F"))),
            ("a must be a 2-d complex128", lambda: _lapack.unmqr(a, tau, zc)),
            ("c must be a 2-d complex128",
             lambda: _lapack.unmqr(z, ztau, np.ones((8, 2), order="F"))),
            ("c must have a's 8 rows", lambda: _lapack.unmqr(z, ztau, zc[:7].copy(order="F"))),
            ("c must be finite", lambda: _lapack.unmqr(z, ztau, zc * np.nan)),
            ("tau must be", lambda: _lapack.unmqr(z, tau, zc)),
            ("tau must be", lambda: _lapack.unmqr(z, np.ones(9, complex), zc)),
        ]

    def test_each_argument_is_named(self):
        for message, call in self.bad_calls():
            with pytest.raises(ValueError, match=f"^{message}"):
                call()


FAILING_CALLS = [
    ("dgeqrf", lambda a, z: _lapack.geqrf(a[0])),
    ("zgeqrf", lambda a, z: _lapack.geqrf(z[0])),
    ("dtrcon", lambda a, z: _lapack.trcon(a[0], 4)),
    ("ztrcon", lambda a, z: _lapack.trcon(z[0], 4)),
    ("dtrtrs", lambda a, z: _lapack.trtrs(a[0], np.ones((4, 1)))),
    ("ztrtrs", lambda a, z: _lapack.trtrs(z[0], np.ones((4, 1), complex))),
    ("zunmqr", lambda a, z: _lapack.unmqr(z[0], z[1], np.ones((8, 1), complex))),
]


@pytest.mark.parametrize("name, call", FAILING_CALLS, ids=[name for name, _ in FAILING_CALLS])
def test_nonzero_info_raises(monkeypatch, name, call):
    rng = np.random.default_rng(5)
    real, complex_ = factored(rng, 8, np.float64), factored(rng, 8, np.complex128)

    def failing(*args):
        args[-1]._obj.value = -4  # info, passed by reference

    monkeypatch.setattr(_lapack, name, failing)
    with pytest.raises(NumericalError, match=f"LAPACK {name} .*info = -4"):
        call(real, complex_)


class TestConjugatePair:
    def test_pair_reuse_matches_separate_factorizations(self, ops_factory):
        ops = ops_factory(60)
        mu = -0.45 + 0.78j
        rng = np.random.default_rng(6)
        rhs = rng.normal(size=(60, 2)) + 1j * rng.normal(size=(60, 2))
        separate = coupling._reduce(ops, np.conj(mu), rhs).solve()
        reused = coupling._reduce(ops, mu).conjugate_solve(rhs)
        np.testing.assert_allclose(reused[0], separate[0], rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(separate[0])))
        np.testing.assert_allclose(reused[2], separate[2], rtol=0.0, atol=1e-12)
        # one null vector each, equal up to a unit factor
        a, b = (null[:, 0] / np.linalg.norm(null[:, 0]) for null in (reused[1], separate[1]))
        assert abs(abs(np.vdot(a, b)) - 1.0) <= 1e-12

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []
        geqrf = _lapack.geqrf

        def counted(a):
            calls.append(a.dtype)
            return geqrf(a)

        monkeypatch.setattr(_lapack, "geqrf", counted)
        return calls

    def test_general_solve_factors_a_pair_once(self, ops_factory, factorizations):
        beta = near_cyclic_beta()
        assert np.sum(np.abs(np.linalg.eigvals(beta).imag) > 0.5) == 2
        solve_node_general(NodeTopology(3, beta), np.array([0.3, -0.2, 0.5]), 0.1,
                           ops_factory(60))
        assert len(factorizations) == 2  # mu = 1 and one of the pair, not three

    def test_modal_solve_factors_a_pair_once(self, ops_factory, factorizations):
        topology = NodeTopology(3, near_cyclic_beta())
        solve_node(NodeProblem(topology, np.array([0.3, -0.2, 0.5]), 0.1), ops_factory(60))
        assert len(factorizations) == 2

    def test_node_command_factors_each_mu_once(self, tmp_path, factorizations, capsys):
        # the coefficients' QR of M(-1/2) also gives solve_node its null basis
        assert main(["node", "--case", "1", "--N", "60", "--out", str(tmp_path)]) == 0
        assert len(factorizations) == 2  # mu = -1/2 and mu = 1, not three

    def test_kept_null_basis_solves_like_a_new_factorization(self, capsys):
        # the coefficients keep the basis at mu = -1/2; the solve's own
        # eigenvalue of beta is -0.5000000000000001
        problem = NodeProblem(NodeTopology.symmetric(3), np.array([0.3, -0.2, 0.5]), 0.1)
        kept = NodeOperators.build(60)
        compute_coefficients(kept, NodeTopology.symmetric(3))
        assert list(kept._null_spaces) == [-0.5]
        reused, fresh = solve_node(problem, kept), solve_node(problem, NodeOperators.build(60))
        for name in ("D", "C", "B", "gamma", "rho_at_0", "g_at_0"):
            np.testing.assert_allclose(getattr(reused, name), getattr(fresh, name),
                                       rtol=0.0, atol=1e-13)


def test_bindings_come_from_numpys_lapack():
    # a numpy wheel links scipy-openblas; falling back to scipy's capsules there
    # would put the factorizations on a second BLAS thread pool
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {lapack.get('name')}, not scipy-openblas")
    assert _lapack._lib.source == "numpy"
    assert _lapack._lib.integer is ctypes.c_int64


def case1_node(N):
    ops = NodeOperators.build(N)
    coeff = compute_coefficients(ops, NodeTopology.symmetric(3))
    data = InitialData.preset(1, coeff.delta1, coeff.delta2)
    problem = NodeProblem.from_macro_data(NodeTopology.symmetric(3), None,
                                          data.rho0, data.q0, data.S0)
    return solve_node(problem, ops)


def test_fallback_to_scipys_capsules(monkeypatch):
    expected = {N: compute_coefficients(NodeOperators.build(N), NodeTopology.symmetric(3))
                for N in (20, 99)}
    node = case1_node(60)
    monkeypatch.setattr(_lapack, "_numpy_routine", lambda name: None)
    monkeypatch.setattr(_lapack, "_lib", _lapack._bind())
    assert _lapack._lib.source == "scipy" and _lapack._lib.integer is ctypes.c_int
    for N, coeff in expected.items():
        got = compute_coefficients(NodeOperators.build(N), NodeTopology.symmetric(3))
        assert abs(got.delta1 - coeff.delta1) <= 1e-14 * abs(coeff.delta1)
        assert abs(got.delta2 - coeff.delta2) <= 1e-14 * abs(coeff.delta2)
    fallback = case1_node(60)
    for name in ("D", "C", "B", "gamma", "rho_at_0"):
        np.testing.assert_allclose(getattr(fallback, name), getattr(node, name),
                                   rtol=0.0, atol=1e-14)
