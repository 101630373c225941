import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bgknet import (NumericalError, build_layer_matrix, build_lift, build_rule,
                    recursion_coefficients, stable_manifold, stable_modes)
from bgknet import _lapack, layer
from bgknet._lapack import bdsdc
from bgknet.layer import LayerMatrix, _fix_signs

SRC = str(Path(__file__).resolve().parent.parent / "src")


def quartic_eigenvalues(a, b, c):
    """Brute-force eigenvalues of the 4x4 zero-diagonal tridiagonal with offdiag (a, b, c).

    The characteristic polynomial is y^2 - (a^2+b^2+c^2) y + a^2 c^2 in y = lambda^2.
    """
    s = a * a + b * b + c * c
    disc = np.sqrt(s * s - 4 * a * a * c * c)
    y = np.array([(s - disc) / 2, (s + disc) / 2])
    lam = np.sqrt(y)
    return np.sort(np.concatenate([-lam, lam]))


def layer_moments(gamma, x, spectrum):
    """Layer moments at depth x on the stable manifold:
    g(x) = sum_i gamma_i r_i exp(-x / (sqrt2 lambda_i)) over the positive eigenpairs."""
    return spectrum.R2plus @ (gamma * np.exp(-x / (np.sqrt(2.0) * spectrum.positive_eigenvalues)))


def loop_fix_signs(vectors):
    """The per-column sign loop that one vectorized pass replaced, kept as an oracle."""
    for j in range(vectors.shape[1]):
        nz = np.flatnonzero(vectors[:, j])
        if nz.size and vectors[nz[0], j] < 0.0:
            vectors[:, j] = -vectors[:, j]
    return vectors


class TestLayerMatrix:
    def test_offdiag_values_n4(self):
        m = build_layer_matrix(4)
        assert m.dim == 4
        np.testing.assert_allclose(m.offdiag, np.sqrt([2.5, 3.0, 3.5]), rtol=1e-15)

    @pytest.mark.parametrize("N", [4, 99, 1000])
    def test_offdiag_is_the_hermite_recursion(self, N):
        # alpha_5 .. alpha_{2N-1}, bit for bit the closed form sqrt(k/2)
        offdiag = build_layer_matrix(N).offdiag
        np.testing.assert_array_equal(offdiag, recursion_coefficients(2 * N - 1)[4:])
        np.testing.assert_array_equal(offdiag, np.sqrt(np.arange(5, 2 * N) / 2.0))
        assert not offdiag.flags.writeable

    def test_trace_zero(self):
        assert np.trace(build_layer_matrix(4).dense()) == 0.0

    @pytest.mark.parametrize("N", [2, 3])
    def test_rejects_degenerate(self, N):
        with pytest.raises(ValueError):
            build_layer_matrix(N)

    @pytest.mark.parametrize("N", [4.5, 5000])
    def test_rejects_an_order_no_rule_has(self, N):
        # the N check of the rule and the operators, before any array is made
        with pytest.raises(ValueError, match="^N must"):
            build_layer_matrix(N)

    def test_dense_is_symmetric(self):
        a = build_layer_matrix(7).dense()
        np.testing.assert_array_equal(a, a.T)


class TestStableManifold:
    def test_n4_against_quartic_oracle(self):
        m = build_layer_matrix(4)
        spectrum = stable_manifold(m)
        expected = quartic_eigenvalues(*m.offdiag)
        np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=1e-13)

    def test_n5_against_dense_oracle(self):
        m = build_layer_matrix(5)
        spectrum = stable_manifold(m)
        dense = np.linalg.eigvalsh(m.dense())
        assert np.max(np.abs(spectrum.eigenvalues - dense)) < 1e-12

    @pytest.mark.parametrize("N", [4, 8, 16, 50, 100, 200])
    def test_spectrum_properties(self, N):
        m = build_layer_matrix(N)
        spectrum = stable_manifold(m)
        lam = spectrum.eigenvalues
        scale = np.max(np.abs(lam))
        assert np.min(np.diff(lam)) > 1e-12 * scale            # distinct
        assert np.max(np.abs(lam + lam[::-1])) < 1e-10         # symmetric about 0
        assert spectrum.positive_indices.size == N - 2             # half strictly positive
        assert np.all(spectrum.positive_eigenvalues > 0)
        assert abs(lam.sum()) < 1e-10 * scale                  # zero trace

    @pytest.mark.parametrize("N", [4, 16, 100])
    def test_eigen_residual(self, N):
        m = build_layer_matrix(N)
        spectrum = stable_manifold(m)
        dense = m.dense()
        res = dense @ spectrum.eigenvectors - spectrum.eigenvectors * spectrum.eigenvalues
        assert np.max(np.abs(res)) < 1e-10

    def test_sign_convention(self):
        spectrum = stable_manifold(build_layer_matrix(30))
        for j in range(spectrum.R2plus.shape[1]):
            col = spectrum.R2plus[:, j]
            nz = np.flatnonzero(col)
            assert col[nz[0]] > 0

    @pytest.mark.parametrize("N", [4, 300])
    def test_stable_basis_is_a_view(self, N):
        # R2plus is the suffix of positive-eigenvalue columns, held without a copy
        spectrum = stable_manifold(build_layer_matrix(N))
        assert spectrum.R2plus.shape == (2 * (N - 2), N - 2)
        assert np.shares_memory(spectrum.R2plus, spectrum.eigenvectors)
        np.testing.assert_array_equal(spectrum.R2plus,
                                      spectrum.eigenvectors[:, spectrum.positive_indices])

    @pytest.mark.parametrize("N", [5, 20, 99, 300])
    def test_fix_signs_matches_loop_oracle(self, N):
        m = build_layer_matrix(N)
        _, raw = eigh_tridiagonal(np.zeros(m.dim), m.offdiag)
        # leading exact zeros, a negative value after them and an all-zero column
        raw[:3, 0] = 0.0
        raw[3, 0] = -abs(raw[3, 0])
        raw[:, 1] = 0.0
        expected = loop_fix_signs(raw.copy())
        assert _fix_signs(raw).tobytes() == expected.tobytes()

    def test_orthonormal_eigenvectors(self):
        spectrum = stable_manifold(build_layer_matrix(12))
        gram = spectrum.eigenvectors.T @ spectrum.eigenvectors
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


def match_up_to_sign(got, expected):
    """Largest entry of got - expected after each column of got is given the
    sign of its largest inner product with the same column of expected."""
    signs = np.where(np.sum(got * expected, axis=0) < 0.0, -1.0, 1.0)
    return np.max(np.abs(got * signs - expected))


BAD_ARGUMENTS = [
    ("d", np.ones(3, np.float32), np.ones(2)),
    ("e", np.ones(3), np.ones(2, np.int64)),
    ("d", np.ones((3, 1)), np.ones(2)),
    ("d", [1.0, 1.0, 1.0], np.ones(2)),
    ("d", np.ones(6)[::2], np.ones(2)),
    ("e", np.ones(3), np.ones(4)[::2]),
    ("d", np.array([1.0, np.nan, 1.0]), np.ones(2)),
    ("e", np.ones(3), np.array([1.0, np.inf])),
    ("e", np.ones(3), np.ones(3)),
    ("e", np.ones(3), np.ones(0)),
    ("d", np.ones(0), np.ones(0)),
]


class TestBidiagonalSVD:
    """The dbdsdc binding: a wrong argument to it crashes the process rather than
    raising, so the smallest orders are covered beside sizeable ones."""

    @pytest.mark.parametrize("N", [4, 5, 30, 300])
    def test_spectrum_against_the_tridiagonal_eigensolver(self, N):
        m = build_layer_matrix(N)
        lam, vec = eigh_tridiagonal(np.zeros(m.dim), m.offdiag)
        spectrum = stable_manifold(m)
        assert np.max(np.abs(spectrum.eigenvalues - lam) / np.abs(lam)) <= 1e-13
        assert match_up_to_sign(spectrum.eigenvectors, vec) <= 1e-12
        x = spectrum.eigenvectors
        assert np.max(np.abs(m.dense() @ x - x * spectrum.eigenvalues)) <= 1e-13
        assert np.max(np.abs(x.T @ x - np.eye(m.dim))) <= 1e-13

    @pytest.mark.parametrize("m", [1, 2, 3, 28, 298])
    def test_factorization(self, m):
        # values only, the one mode bound: against numpy's dense SVD
        rng = np.random.default_rng(m)
        d, e = rng.uniform(0.5, 2.0, m), rng.uniform(-1.0, 1.0, m - 1)
        b = np.diag(d) + np.diag(e, -1)
        sigma = d.copy()
        assert bdsdc(sigma, e.copy()) is None
        assert np.all(np.diff(sigma) <= 0.0) and sigma[-1] > 0.0  # in place, descending
        np.testing.assert_allclose(sigma, np.linalg.svd(b, compute_uv=False),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name, d, e", BAD_ARGUMENTS)
    def test_bad_argument_is_named(self, name, d, e):
        with pytest.raises(ValueError, match=f"^{name} must"):
            bdsdc(d, e)

    def test_readonly_argument_is_named(self):
        d = np.ones(3)
        readonly_d = d.copy()
        readonly_d.flags.writeable = False
        with pytest.raises(ValueError, match="^d must be contiguous and writeable"):
            bdsdc(readonly_d, np.ones(2))

    def test_failure_raises(self, monkeypatch):
        def failing(*args):
            args[-1]._obj.value = 2  # info, passed by reference
        monkeypatch.setattr(_lapack, "dbdsdc", failing)
        with pytest.raises(NumericalError, match="info = 2"):
            stable_modes(build_layer_matrix(6))

    def test_values_only_failure_raises(self, monkeypatch):
        def failing(*args):
            args[-1]._obj.value = 1
        monkeypatch.setattr(_lapack, "dbdsdc", failing)
        with pytest.raises(NumericalError, match="info = 1"):
            build_rule(6)

    @pytest.mark.parametrize("m", [1, 2, 5, 300])
    def test_values_only_against_the_tridiagonal_eigensolver(self, m):
        # the Golub-Kahan tridiagonal of B interleaves its diagonal and
        # subdiagonal; its positive eigenvalues are B's singular values
        rng = np.random.default_rng(m)
        d, e = rng.uniform(0.5, 2.0, m), rng.uniform(-1.0, 1.0, m - 1)
        offdiag = np.empty(2 * m - 1)
        offdiag[0::2], offdiag[1::2] = d, e
        lam = eigh_tridiagonal(np.zeros(2 * m), offdiag, eigvals_only=True)
        sigma = d.copy()
        assert bdsdc(sigma, e.copy()) is None
        assert np.all(np.diff(sigma) <= 0.0) and sigma[-1] > 0.0  # in place, descending
        np.testing.assert_allclose(sigma[::-1], lam[m:], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name, d, e", BAD_ARGUMENTS)
    def test_values_only_bad_argument_is_named(self, name, d, e):
        with pytest.raises(ValueError, match=f"^{name} must"):
            bdsdc(d, e)

    @pytest.mark.parametrize("N", [4, 5, 100])
    def test_stable_modes_are_the_positive_half(self, N):
        m = build_layer_matrix(N)
        sigma, r2plus = stable_modes(m)
        spectrum = stable_manifold(m)
        assert sigma.tobytes() == spectrum.positive_eigenvalues.tobytes()
        assert r2plus.tobytes() == spectrum.R2plus.tobytes()
        assert not sigma.flags.writeable and not r2plus.flags.writeable

    @pytest.mark.parametrize("N", [4, 100, 300])
    def test_negative_half_is_the_parity_mirror(self, N):
        # the eigenvector of -sigma_j is that of sigma_j with its odd entries
        # negated, bit for bit, up to the column sign _fix_signs sets
        spectrum = stable_manifold(build_layer_matrix(N))
        m = N - 2
        sigma, r2plus = spectrum.positive_eigenvalues, spectrum.R2plus
        assert spectrum.eigenvalues[:m].tobytes() == (-sigma[::-1]).tobytes()
        mirror = (-1.0) ** np.arange(2 * m)[:, None] * r2plus[:, ::-1]
        negative = spectrum.eigenvectors[:, :m]
        for j in range(m):
            assert negative[:, j].tobytes() in (mirror[:, j].tobytes(), (-mirror[:, j]).tobytes())
            assert negative[np.flatnonzero(negative[:, j])[0], j] > 0.0


def mp_layer_mode(sigma, N, digits=60):
    """Eigenpair of the layer matrix at N near ``sigma`` to ``digits`` digits:
    the Hermite recursion from alpha_5 on, q_0 = 1, sigma q_k = alpha_{k+5}
    q_{k+1} + alpha_{k+4} q_{k-1}, at a value moved by Rayleigh steps until
    q_{2m} = 0."""
    mp = pytest.importorskip("mpmath")
    n = 2 * (N - 2)
    with mp.workdps(digits):
        alpha = [mp.sqrt(mp.mpf(k + 4) / 2) for k in range(n + 1)]  # alpha[k] = alpha_{k+4}
        x = mp.mpf(sigma)
        for _ in range(3):
            q = [mp.mpf(1), x / alpha[1]]
            for k in range(1, n):
                q.append((x * q[k] - alpha[k] * q[k - 1]) / alpha[k + 1])
            x -= alpha[n] * q[n] * q[n - 1] / mp.fsum(v * v for v in q[:n])
        norm = mp.sqrt(mp.fsum(v * v for v in q[:n]))
        return float(x), np.array([float(v / norm) for v in q[:n]])


class TestGolubWelschModes:
    """The stable modes from singular values, one Newton step and the Hermite
    recursion from alpha_5 on."""

    @pytest.mark.parametrize("N, columns", [(40, [0, 1, 9, 20, 37]),
                                            (300, [0, 1, 60, 150, 240, 297])])
    def test_against_mpmath(self, N, columns):
        sigma, modes = stable_modes(build_layer_matrix(N))
        for j in columns:
            value, vector = mp_layer_mode(sigma[j], N)
            assert abs(sigma[j] - value) <= 2e-15 * value
            assert np.max(np.abs(modes[:, j] - vector)) <= 4e-15  # same sign: q_0 > 0

    def test_independent_of_blas_threads(self):
        # dbdsdc's divide and conquer gave other vector bits at two threads
        script = ("import hashlib; from bgknet import build_layer_matrix, stable_modes; "
                  "s, r = stable_modes(build_layer_matrix(300)); "
                  "print(hashlib.sha256(s.tobytes() + r.tobytes()).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
            digests.add(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(digests) == 1

    def test_floor(self, ops_factory):
        # no nonzero lift entry below 2^-122, which the rule's 2^-900 floor
        # assumes, and so no subnormal product in E or O
        ops = ops_factory(1000)
        lift = np.abs(ops.lift)
        assert np.all((lift == 0.0) | (lift >= layer._FLOOR))
        for halves in (ops.even, ops.odd):
            assert not np.any((halves != 0.0) & (np.abs(halves) < np.finfo(float).tiny))

    @pytest.mark.parametrize("budget", [0, 2**19, 2**30])
    def test_batches_bit_identical_to_single_orders(self, monkeypatch, budget):
        # N = 4..12, the rescale onset at 80..100 and 150..160, in one sequence;
        # budget 0 makes every N a batch of its own and 2^30 one batch of all
        halves = [*range(4, 13), *range(80, 101), *range(150, 161)]
        monkeypatch.setattr(layer, "_BATCH_BYTES", budget)
        swept = list(layer._modes(halves))
        monkeypatch.undo()
        for N, (sigma, modes) in zip(halves, swept, strict=True):
            alone = stable_modes(build_layer_matrix(N))
            assert sigma.tobytes() == alone[0].tobytes()
            assert modes.shape == alone[1].shape and modes.tobytes() == alone[1].tobytes()
            assert not sigma.flags.writeable and not modes.flags.writeable

    def test_a_foreign_matrix_is_rejected(self):
        m = build_layer_matrix(6)
        with pytest.raises(ValueError, match="^matrix must be the layer matrix"):
            stable_modes(LayerMatrix(m.dim, 2.0 * m.offdiag))


class TestLift:
    def test_block_structure(self):
        N = 8
        spectrum = stable_manifold(build_layer_matrix(N))
        T = build_lift(spectrum.R2plus)
        assert T.shape == (2 * N, N + 1)
        # C column touches only the g1 row
        c_col = T[:, 1]
        assert c_col[1] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(c_col) == 1
        # g3 row is identically zero (bounded layers force g3 = 0)
        assert np.all(T[3, :] == 0.0)
        # D column: +1/2 in the g2 row only
        assert T[2, 0] == 0.5 and np.count_nonzero(T[:, 0]) == 1
        # lower-left block zero, lower-right is the stable basis
        assert np.all(T[4:, :3] == 0.0)
        np.testing.assert_array_equal(T[4:, 3:], spectrum.R2plus)

    def test_t11_rows(self):
        N = 6
        spectrum = stable_manifold(build_layer_matrix(N))
        T = build_lift(spectrum.R2plus)
        s2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(T[:4, :3],
                                   [[0, 0, s2], [0, s2, 0], [0.5, 0, -0.5], [0, 0, 0]])
        np.testing.assert_allclose(T[0, 3:], 2 * np.sqrt(2) / np.sqrt(3) * spectrum.R2plus[0])
        np.testing.assert_allclose(T[2, 3:], -2 / np.sqrt(3) * spectrum.R2plus[0])

    @pytest.mark.parametrize("N", [4, 8, 50])
    def test_full_column_rank(self, N):
        spectrum = stable_manifold(build_layer_matrix(N))
        sv = np.linalg.svd(build_lift(spectrum.R2plus), compute_uv=False)
        assert sv.size == N + 1
        assert sv[-1] > 1e-10 * sv[0]

    @pytest.mark.parametrize("shape", [(6,), (6, 2), (0, 0), (2, 3, 6)])
    def test_misshaped_basis_is_named(self, shape):
        with pytest.raises(ValueError, match="^r2 must be a 2-d"):
            build_lift(np.zeros(shape))

    @pytest.mark.parametrize("entry, rule", [(1e-3j, "real"), (np.nan, "finite"),
                                             (-np.inf, "finite")],
                             ids=["complex", "nan", "inf"])
    def test_complex_or_non_finite_basis_is_named(self, entry, rule):
        # a cast would drop the imaginary part, and a NaN would reach the lift
        r2 = stable_manifold(build_layer_matrix(6)).R2plus.astype(type(entry))
        r2[3, 1] += entry
        with pytest.raises(ValueError, match=f"^r2 must be {rule}"):
            build_lift(r2)


class TestLayerProfile:
    def test_zero_amplitudes(self):
        N = 6
        spectrum = stable_manifold(build_layer_matrix(N))
        assert np.all(layer_moments(np.zeros(N - 2), 1.3, spectrum) == 0.0)
        # at x = 0 the lift gives the layer rows no part of (D, C, B)
        data = np.concatenate([np.random.default_rng(4).standard_normal(3), np.zeros(N - 2)])
        assert np.all(build_lift(spectrum.R2plus)[4:] @ data == 0.0)

    def test_value_at_origin(self):
        # the lift's layer rows are the stable-manifold solution at x = 0
        rng = np.random.default_rng(5)
        N = 8
        spectrum = stable_manifold(build_layer_matrix(N))
        unknowns = rng.standard_normal(N + 1)
        np.testing.assert_allclose(build_lift(spectrum.R2plus)[4:] @ unknowns,
                                   layer_moments(unknowns[3:], 0.0, spectrum),
                                   rtol=0.0, atol=1e-14)

    def test_ode_residual_central_difference(self):
        # oracle: sqrt(2) A g'(x) = -g(x) checked with second-order differences
        rng = np.random.default_rng(9)
        m = build_layer_matrix(8)
        spectrum = stable_manifold(m)
        gamma = rng.standard_normal(6)
        dense = m.dense()
        x, h = 0.7, 1e-4
        deriv = (layer_moments(gamma, x + h, spectrum)
                 - layer_moments(gamma, x - h, spectrum)) / (2 * h)
        lhs = np.sqrt(2.0) * dense @ deriv
        rhs = -layer_moments(gamma, x, spectrum)
        assert np.max(np.abs(lhs - rhs)) < 1e-6 * np.max(np.abs(rhs))

    def test_single_mode_monotone_decay(self):
        spectrum = stable_manifold(build_layer_matrix(8))
        gamma = np.zeros(6)
        gamma[2] = 1.0
        xs = np.linspace(0.0, 5.0, 40)
        norms = [np.linalg.norm(layer_moments(gamma, x, spectrum)) for x in xs]
        assert np.all(np.diff(norms) < 0)
