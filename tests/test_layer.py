import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bgknet import build_layer_matrix, build_lift, recursion_coefficients, stable_manifold
from bgknet.layer import _fix_signs


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
