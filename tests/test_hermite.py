import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bgknet import (build_layer_matrix, build_rule, hermite, hermite_functions, layer,
                    recursion_coefficients, stable_modes)
from bgknet.hermite import _christoffel_step, _rules
from bgknet.kinetic import _maxwellian_rows

SQRT_PI = math.sqrt(math.pi)
DECIMAL_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def transform_of(rule):
    """The moment transform: the rule itself, as NodeOperators.transform returns it."""
    return rule


def polynomial_values(rule):
    """Raw P_k(v_i) table from the weighted one; overflows beyond N of a few hundred."""
    return rule.basis * np.exp(0.5 * rule.nodes * rule.nodes)


def loop_hermite_functions(points, count):
    """The block-rescaled recursion with fresh temporaries at every step, kept as
    the bit-level oracle of the kernel that writes into the table's rows."""
    x = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.empty((count, x.size))
    out[0] = np.pi ** -0.25
    if count > 1:
        out[1] = x * (math.sqrt(2.0) * np.pi ** -0.25)
    block = max(1, int(600.0 / math.log(math.sqrt(2.0) * (1.0 + np.max(np.abs(x))))))
    alpha = recursion_coefficients(count)
    starts, scales = [0], [-0.5 * x * x]
    for k in range(1, count - 1):
        if k % block == 0:
            mag = np.maximum(np.abs(out[k - 1]), np.abs(out[k]))
            out[k - 1] = out[k - 1] / mag
            out[k] = out[k] / mag
            starts.append(k - 1)
            scales.append(scales[-1] + np.log(mag))
        out[k + 1] = (x * out[k] - alpha[k - 1] * out[k - 1]) / alpha[k]
    starts.append(count)
    with np.errstate(under="ignore"):
        for start, stop, scale in zip(starts, starts[1:], scales):
            half = np.exp(0.5 * scale)
            out[start:stop] = out[start:stop] * half * half
    return out


def per_step_hermite_functions(points, count):
    """The recursion rescaled to max(|u_k|, |u_{k+1}|) = 1 at every step, with the
    log scale summed step by step, that the block form replaced; kept as the
    accuracy baseline."""
    x = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.empty((count, x.size))
    log_scale = -0.5 * x * x - 0.25 * np.log(np.pi)
    u_prev = np.zeros_like(x)
    u = np.ones_like(x)
    with np.errstate(under="ignore"):
        out[0] = u * np.exp(log_scale)
        alpha = recursion_coefficients(count)
        for k in range(count - 1):
            a_k = alpha[k - 1] if k >= 1 else 0.0
            u, u_prev = (x * u - a_k * u_prev) / alpha[k], u
            mag = np.maximum(np.abs(u), np.abs(u_prev))
            mag[mag == 0.0] = 1.0
            u /= mag
            u_prev /= mag
            log_scale += np.log(mag)
            out[k + 1] = u * np.exp(log_scale)
    return out


def decimal_hermite_functions(points, count):
    """H_k(x), k < count, at the exact binary value of each point, by the
    recursion in 50-digit decimal arithmetic, rounded to double at the end."""
    out = np.empty((count, len(points)))
    with localcontext() as ctx:
        ctx.prec = 50
        alpha = [(Decimal(k) / 2).sqrt() for k in range(1, count + 1)]
        p0 = 1 / DECIMAL_PI.sqrt().sqrt()
        for i, point in enumerate(points):
            x = Decimal(float(point))
            weight = (-x * x / 2).exp()
            p_prev, p = Decimal(0), p0
            out[0, i] = float(p * weight)
            for k in range(count - 1):
                a_k = alpha[k - 1] if k >= 1 else Decimal(0)
                p_prev, p = p, (x * p - a_k * p_prev) / alpha[k]
                out[k + 1, i] = float(p * weight)
    return out


def decimal_hermite_roots(starts, order):
    """Roots of H_order to 50 digits: three Newton steps in decimal arithmetic
    from each start, through the monic ratios s_k = x - (k/2)/s_{k-1}."""
    roots = []
    with localcontext() as ctx:
        ctx.prec = 60
        for start in starts:
            x = Decimal(float(start))
            for _ in range(3):
                s = x
                for k in range(1, order):
                    s = x - Decimal(k) / 2 / s
                x -= s / order
            roots.append(x)
    return roots


def eigh_rule(N):
    """(nodes, scaled weights, table) of the 2N-point rule from the tridiagonal
    eigensolver and the per-step recursion, the construction that the
    bidiagonal SVD, the Newton step and the block recursion replaced."""
    order = 2 * N
    nodes = eigh_tridiagonal(np.zeros(order), recursion_coefficients(order - 1),
                             eigvals_only=True)
    nodes = 0.5 * (nodes - nodes[::-1])
    table = per_step_hermite_functions(nodes, order)
    return nodes, 1.0 / np.einsum("ki,ki->i", table, table), table


def gaussian_moment(m: int) -> float:
    """Exact integral of v^m e^{-v^2} over the real line."""
    if m % 2:
        return 0.0
    return math.gamma((m + 1) / 2.0)


class TestBuildRule:
    def test_two_point_rule(self):
        rule = build_rule(1)
        np.testing.assert_allclose(rule.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-15)
        np.testing.assert_allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2], rtol=1e-14)

    @pytest.mark.parametrize("bad", [0, -3, 1501, 2.5, True])
    def test_rejects_out_of_range(self, bad):
        # True is an int equal to 1, but no order
        with pytest.raises(ValueError, match="^N must"):
            build_rule(bad)

    def test_weight_sum_is_sqrt_pi(self):
        rule = build_rule(8)
        assert abs(rule.weights.sum() - SQRT_PI) < 1e-13

    def test_second_moment(self):
        rule = build_rule(8)
        assert abs(np.sum(rule.weights * rule.nodes**2) - SQRT_PI / 2) < 1e-13

    @pytest.mark.parametrize("N", [3, 8, 32, 128])
    def test_node_and_weight_symmetry(self, N):
        rule = build_rule(N)
        assert np.all(np.diff(rule.nodes) > 0)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-13)
        assert np.all(rule.weights > 0)
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], rtol=1e-13)

    @pytest.mark.parametrize("N", [8, 16, 64])
    def test_polynomial_exactness(self, N):
        rule = build_rule(N)
        for m in range(0, 21, 2):
            approx = np.sum(rule.weights * rule.nodes**m)
            assert abs(approx - gaussian_moment(m)) < 1e-11 * gaussian_moment(m)
        for m in range(1, 21, 2):
            assert abs(np.sum(rule.weights * rule.nodes**m)) < 1e-11

    def test_scaled_weights_match_raw(self):
        rule = build_rule(16)
        np.testing.assert_allclose(rule.scaled_weights,
                                   rule.weights * np.exp(rule.nodes**2), rtol=1e-11)

    @pytest.mark.parametrize("N", [5, 20, 100])
    def test_nodes_match_a_50_digit_reference(self, N):
        rule = build_rule(N)
        oracle, _, _ = eigh_rule(N)
        exact = decimal_hermite_roots(oracle[N:], rule.order)
        for node, root in zip(rule.nodes[N:], exact):
            assert abs(Decimal(float(node)) - root) <= Decimal("1e-15") * root

    def test_largest_nodes_match_a_50_digit_reference(self):
        # seven nodes across the range and the three largest, where the
        # bidiagonal SVD alone is off by up to 7e-14
        N = 1000
        rule = build_rule(N)
        oracle, _, _ = eigh_rule(N)
        picks = [0, 150, 300, 450, 600, 750, 900, N - 3, N - 2, N - 1]
        exact = decimal_hermite_roots(oracle[N:][picks], rule.order)
        for node, root in zip(rule.nodes[N:][picks], exact):
            assert abs(Decimal(float(node)) - root) <= Decimal("1e-15") * max(1, root)

    @pytest.mark.parametrize("N", [1, 5, 20, 100, 1000])
    def test_matches_the_tridiagonal_eigensolver_rule(self, N):
        # the bounds are the oracle's own errors: at N = 1000 its nodes are off
        # by 1.5e-14 max(1, |x|), its weights by 6.2e-12 and its table by 3.4e-12
        rule = build_rule(N)
        nodes, scaled, table = eigh_rule(N)
        assert np.max(np.abs(rule.nodes - nodes) / np.maximum(1.0, np.abs(nodes))) <= 5e-14
        np.testing.assert_allclose(rule.scaled_weights, scaled, rtol=2e-11, atol=0.0)
        assert np.max(np.abs(rule.basis - table)) <= 1e-11

    def test_large_order_scaled_weights_finite(self):
        # raw weights underflow at the extreme nodes here; the scaled ones must not
        rule = build_rule(400)
        assert np.all(np.isfinite(rule.scaled_weights))
        assert np.all(rule.scaled_weights > 0)


class TestHermiteTable:
    def test_low_order_polynomials(self):
        rule = build_rule(8)
        v = rule.nodes
        p = polynomial_values(rule)
        p0 = np.full_like(v, np.pi**-0.25)
        p1 = math.sqrt(2) * np.pi**-0.25 * v
        np.testing.assert_allclose(p[0], p0, rtol=1e-14)
        np.testing.assert_allclose(p[1], p1, rtol=1e-14)
        np.testing.assert_allclose(p[2], math.sqrt(2) * v**2 * p0 - p0 / math.sqrt(2),
                                   rtol=1e-13)
        np.testing.assert_allclose(p[3], 2 / math.sqrt(3) * v**3 * p0
                                   - math.sqrt(3) / math.sqrt(2) * p1, rtol=1e-13)

    def test_discrete_orthonormality(self):
        rule = build_rule(16)
        gram = (rule.basis * rule.scaled_weights) @ rule.basis.T
        order = rule.order
        for k in range(order):
            for j in range(order):
                if k + j <= order - 1:
                    assert abs(gram[k, j] - (1.0 if k == j else 0.0)) < 1e-10

    def test_orthonormality_of_p2(self):
        rule = build_rule(8)
        val = np.sum(rule.scaled_weights * rule.basis[2] ** 2)
        assert abs(val - 1.0) < 1e-12

    @pytest.mark.parametrize("N", [8, 64])
    def test_recursion_residual_weighted(self, N):
        rule = build_rule(N)
        v = rule.nodes
        h = rule.basis
        alpha = recursion_coefficients(rule.order)
        for k in range(1, rule.order - 1):
            res = v * h[k] - alpha[k] * h[k + 1] - alpha[k - 1] * h[k - 1]
            assert np.max(np.abs(res)) < 1e-12

    def test_recursion_residual_polynomial(self):
        rule = build_rule(8)
        v = rule.nodes
        p = polynomial_values(rule)
        alpha = recursion_coefficients(rule.order)
        for k in range(1, rule.order - 1):
            res = v * p[k] - alpha[k] * p[k + 1] - alpha[k - 1] * p[k - 1]
            assert np.max(np.abs(res)) < 1e-12 * np.max(np.abs(p[k + 1]))

    def test_alpha_values(self):
        assert np.allclose(recursion_coefficients(4), np.sqrt([0.5, 1.0, 1.5, 2.0]))

    def test_large_order_table_finite(self):
        rule = build_rule(1000)
        assert np.all(np.isfinite(rule.basis))
        # the bottom rows remain O(1)-normalized near the turning points
        assert np.max(np.abs(rule.basis[-1])) > 1e-3


class TestMomentTransform:
    @pytest.mark.parametrize("N", [8, 100, 500])
    def test_roundtrip(self, N):
        rng = np.random.default_rng(7)
        rule = build_rule(N)
        transform = transform_of(rule)
        f = rng.standard_normal(rule.order)
        back = transform.solve(transform.basis @ f)
        assert np.max(np.abs(back - f)) < 1e-9 * np.max(np.abs(f))

    @pytest.mark.parametrize("N", [8, 100, 1000])
    def test_weighted_transpose_is_inverse(self, N):
        # the 2N-node rule is exact to degree 4N - 1: S diag(w~) S^T = I. The
        # Newton-polished nodes hold it to 1.2e-14 at N = 1000, where the
        # tridiagonal eigensolver's nodes left 1.4e-12
        rule = build_rule(N)
        transform = transform_of(rule)
        S = transform.basis
        defect = (S * rule.scaled_weights) @ S.T - np.eye(rule.order)
        assert np.max(np.abs(defect)) <= 2e-14

    def test_solve_is_weighted_transpose_for_batches(self):
        rng = np.random.default_rng(3)
        rule = build_rule(12)
        transform = transform_of(rule)
        g = rng.standard_normal((rule.order, 4))
        expected = rule.scaled_weights[:, None] * (transform.basis.T @ g)
        np.testing.assert_array_equal(transform.solve(g), expected)
        for k in range(4):  # gemv and gemm round differently
            np.testing.assert_allclose(transform.solve(g[:, k]), expected[:, k],
                                       rtol=0.0, atol=1e-14)

    def test_tables_reuse_the_rule_basis(self, ops_factory):
        # one Hermite table per N: the operators' transform is the rule's own table
        ops = ops_factory(10)
        rule = ops.rule
        assert ops.transform.basis is rule.basis
        assert ops.transform.scaled_weights is rule.scaled_weights
        assert not rule.basis.flags.writeable
        np.testing.assert_array_equal(rule.basis, hermite_functions(rule.nodes, rule.order))

    def test_conditioning_residual(self):
        rng = np.random.default_rng(11)
        rule = build_rule(500)
        transform = transform_of(rule)
        b = rng.standard_normal(rule.order)
        b /= np.linalg.norm(b)
        x = transform.solve(b)
        assert np.linalg.norm(transform.basis @ x - b) < 1e-8


class TestMoments:
    def test_maxwellian_moments(self):
        # oracle: evaluate sum_i M_i H_k(v_i) directly; g0 = rho / sqrt2 = 1 / sqrt2
        # and g2 = (S - rho) / 2 = 0 is the rest state rho = S = 1, q = 0
        rule = build_rule(8)
        m = np.array([1 / math.sqrt(2), 0.0, 0.0]) @ _maxwellian_rows(rule)
        direct = np.array([np.sum(m * rule.basis[k]) for k in range(rule.order)])
        assert abs(direct[0] - 1 / math.sqrt(2)) < 1e-13
        assert np.max(np.abs(direct[1:])) < 1e-13
        np.testing.assert_allclose(transform_of(rule).basis @ m, direct, rtol=0.0, atol=1e-13)

    def test_zero_distribution(self):
        rule = build_rule(4)
        transform = transform_of(rule)
        assert np.all(transform.basis @ np.zeros(rule.order) == 0.0)
        assert np.all(transform.solve(np.zeros(rule.order)) == 0.0)

    def test_single_mode(self):
        rule = build_rule(8)
        transform = transform_of(rule)
        c = 0.37
        f = rule.scaled_weights * rule.basis[1] * c
        g = transform.basis @ f
        assert abs(g[1] - c) < 1e-13
        others = np.delete(g, 1)
        assert np.max(np.abs(others)) < 1e-13


class TestDiscreteMaxwellian:
    # the kinetic solver's Maxwellian rows, the one edge-Maxwellian formula

    def test_zero_state(self):
        rule = build_rule(8)
        assert np.all(np.zeros(3) @ _maxwellian_rows(rule) == 0.0)

    def test_moment_closure_random(self):
        rng = np.random.default_rng(3)
        rule = build_rule(16)
        transform = transform_of(rule)
        rows = _maxwellian_rows(rule)
        for _ in range(5):
            g0, g1, g2 = rng.standard_normal(3)
            m = np.array([g0, g1, g2]) @ rows
            g = transform.basis @ m
            assert np.max(np.abs(g[:3] - (g0, g1, g2))) < 1e-10
            assert np.max(np.abs(g[3:])) < 1e-10

    def test_unit_density_shape(self):
        # M_i / (w_i e^{v_i^2/2}) = pi^{-1/4} for the (1, 0, 0) state
        rule = build_rule(8)
        m = _maxwellian_rows(rule)[0]
        ratio = m / (rule.weights * np.exp(rule.nodes**2 / 2))
        np.testing.assert_allclose(ratio, np.pi**-0.25, rtol=1e-12)


class TestHermiteFunctions:
    @pytest.mark.parametrize("N", [20, 160, 1000])
    def test_bit_identical_to_the_loop(self, N):
        nodes = build_rule(N).nodes
        for points in (nodes, nodes[N:], np.linspace(-4.0, 4.0, 1201)):
            np.testing.assert_array_equal(hermite_functions(points, 2 * N),
                                          loop_hermite_functions(points, 2 * N))

    @pytest.mark.parametrize("N", [20, 160, 1000])
    def test_no_less_accurate_than_per_step_rescaling(self, N):
        # against 50 digits at the smallest, middle and largest node and five
        # points in [-4, 4], relative to each column's largest entry
        nodes = build_rule(N).nodes
        points = np.concatenate((nodes[[0, N, 2 * N - 1]], np.linspace(-4.0, 4.0, 5)))
        exact = decimal_hermite_functions(points, 2 * N)
        scale = np.max(np.abs(exact), axis=0)
        blocks = np.max(np.abs(hermite_functions(points, 2 * N) - exact), axis=0) / scale
        per_step = np.max(np.abs(per_step_hermite_functions(points, 2 * N) - exact),
                          axis=0) / scale
        assert np.all(blocks <= 2.0 * per_step + 4e-16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_named(self, bad):
        with pytest.raises(ValueError, match="^points must be finite"):
            hermite_functions([0.5, bad], 4)

    @pytest.mark.parametrize("huge", [1e160, 1e300, -1e300, np.finfo(float).max])
    def test_huge_point_gives_a_zero_column(self, huge):
        # x^2 overflows beyond 1.3e154; every H_k there is far below the
        # smallest double, and the other columns keep their values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = hermite_functions([huge, 0.5, -3.0], 200)
        assert np.all(h[:, 0] == 0.0)
        np.testing.assert_allclose(h[:, 1:], hermite_functions([0.5, -3.0], 200),
                                   rtol=0.0, atol=1e-15)

    def test_rescaled_at_every_step_for_large_points(self):
        # max |x| = 1e100 makes every block one step long
        points = [1e100, 0.5, -3.0]
        np.testing.assert_array_equal(hermite_functions(points, 64),
                                      loop_hermite_functions(points, 64))

    def test_against_table(self):
        rule = build_rule(12)
        again = hermite_functions(rule.nodes, rule.order)
        np.testing.assert_allclose(again, rule.basis, atol=1e-15)

    def test_at_zero_velocity(self):
        h = hermite_functions([0.0], 6)
        assert abs(h[0, 0] - np.pi**-0.25) < 1e-15
        assert h[1, 0] == 0.0 and abs(h[3, 0]) < 1e-15 and abs(h[5, 0]) < 1e-15

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_bad_count_is_named(self, count):
        with pytest.raises(ValueError, match="^count must"):
            hermite_functions([0.0, 1.0], count)

    @pytest.mark.parametrize("points", [np.zeros((2, 2)), [[0.0, 1.0]]])
    def test_multidimensional_points_are_named(self, points):
        with pytest.raises(ValueError, match="^points must be a scalar or a 1-d array"):
            hermite_functions(points, 4)

    def test_scalar_point(self):
        np.testing.assert_array_equal(hermite_functions(0.5, 4), hermite_functions([0.5], 4))

    def test_one_function(self):
        h = hermite_functions([0.0, 1.0], 1)
        np.testing.assert_allclose(h[0], np.pi**-0.25 * np.exp(-0.5 * np.array([0.0, 1.0])),
                                   rtol=1e-15)


class TestTableFloor:
    # entries of the Hermite table below the floor at the rule's nodes, from
    # the unflushed recursion; none at N <= 300
    BELOW_FLOOR = {20: 0, 160: 0, 300: 0, 500: 4746, 1000: 49030}

    @pytest.mark.parametrize("N", sorted(BELOW_FLOOR))
    def test_basis_is_the_recursion_above_the_floor(self, ops_factory, N):
        # the recursion keeps its subnormal and near-subnormal entries; the
        # rule's table zeroes those below the floor and equals it elsewhere
        rule = ops_factory(N).rule
        exact = hermite_functions(rule.nodes, rule.order)
        below = np.abs(exact) < hermite._FLOOR
        assert np.count_nonzero(exact[below]) == self.BELOW_FLOOR[N]
        assert np.all(rule.basis[below] == 0.0)
        assert rule.basis[~below].tobytes() == exact[~below].tobytes()
        if self.BELOW_FLOOR[N] == 0:
            assert rule.basis.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("N", [500, 1000])
    def test_weights_come_from_the_unflushed_table(self, ops_factory, N):
        rule = ops_factory(N).rule
        half = hermite_functions(rule.nodes[N:], rule.order)
        scaled = 1.0 / np.einsum("ki,ki->i", half, half)
        assert rule.scaled_weights[N:].tobytes() == scaled.tobytes()
        assert rule.scaled_weights[:N].tobytes() == scaled[::-1].tobytes()

    def test_a_rule_asked_for_twice_in_a_batch_is_the_same(self, monkeypatch):
        # the second N = 500 of the batch reads the half its first flushed
        monkeypatch.setattr(hermite, "_BATCH_BYTES", 2**30)
        halves = [500, 20, 500]
        for N, rule in zip(halves, _rules(halves)):
            single = build_rule(N)
            for field in ("nodes", "weights", "scaled_weights", "positive", "basis"):
                assert getattr(rule, field).tobytes() == getattr(single, field).tobytes(), field

    def test_flush_makes_no_table_sized_temporary(self):
        # the rule keeps the recursion table, half the full table, and the
        # peak is 0.52 full tables; a flush through a temporary the size of
        # the half table, or the mirrored full table, would take it past 1.0
        tracemalloc.start()
        try:
            rule = build_rule(1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * rule.basis.nbytes


class TestBatchedRules:
    # N = 4..12, the rescale onset at 80..100 and 150..160, in one sequence
    HALVES = [*range(4, 13), *range(80, 101), *range(150, 161)]

    @pytest.mark.parametrize("budget", [0, 2**20, 2**30])
    def test_bit_identical_to_build_rule(self, monkeypatch, budget):
        # budget 0 makes every N a batch of its own and 2^30 one batch of all,
        # so the batch edges move between the three runs
        monkeypatch.setattr(hermite, "_BATCH_BYTES", budget)
        rules = list(_rules(self.HALVES))
        assert [rule.half for rule in rules] == self.HALVES
        for N, rule in zip(self.HALVES, rules):
            single = build_rule(N)
            assert rule.order == single.order
            for field in ("nodes", "weights", "scaled_weights", "positive", "basis"):
                swept, alone = getattr(rule, field), getattr(single, field)
                assert swept.shape == alone.shape and swept.tobytes() == alone.tobytes(), field

    def test_any_order_of_halves(self, monkeypatch):
        # repeated and descending N come back in the order asked for
        monkeypatch.setattr(hermite, "_BATCH_BYTES", 2**30)
        halves = [30, 7, 30, 12, 5]
        for N, rule in zip(halves, _rules(halves)):
            assert rule.basis.tobytes() == build_rule(N).basis.tobytes()

    @pytest.mark.parametrize("first", [1, 5])
    def test_christoffel_step_with_mixed_orders(self, first):
        # every point is stepped as in a call with its own order alone, on the
        # rule's recursion (from alpha_1) and the layer's (from alpha_5); x = 0
        # makes q_1 zero, and such a point keeps its value
        rng = np.random.default_rng(1)
        orders = [316, 201, 64, 8, 4]
        squared = hermite._squares(first, orders[0])
        points = [np.concatenate(([0.0], rng.uniform(0.1, 12.0, 6))) for _ in orders]
        mixed = _christoffel_step(np.concatenate(points), np.repeat(orders, 7), squared)
        alone = np.concatenate([_christoffel_step(p, np.full(p.size, order), squared)
                                for p, order in zip(points, orders)])
        assert mixed.tobytes() == alone.tobytes()
        assert np.all(mixed[::7] == 0.0)

    def test_batch_table_is_built_on_the_first_request(self, monkeypatch):
        # the rule generator does no recursion before a rule is asked for
        calls = []
        recurrence = hermite._recurrence
        monkeypatch.setattr(hermite, "_recurrence",
                            lambda x, groups, squared: calls.append(groups)
                            or recurrence(x, groups, squared))
        rules = _rules([5, 6])
        assert calls == []
        next(rules)
        assert calls == [[(12, 6), (10, 11)]]


def rule_bytes(rule):
    return b"".join(getattr(rule, field).tobytes()
                    for field in ("nodes", "weights", "scaled_weights", "basis"))


def modes_bytes(modes):
    return b"".join(array.tobytes() for array in modes)


class TestGolubWelschEngine:
    # the engine's two callers, each with the module of its budget, its
    # single-N build and the bytes of one result
    CALLERS = {"rules": (hermite, _rules, build_rule, rule_bytes),
               "modes": (layer, layer._modes, lambda N: stable_modes(build_layer_matrix(N)),
                         modes_bytes)}

    @pytest.mark.parametrize("budget", [0, 2**30])
    @pytest.mark.parametrize("caller", ["rules", "modes"])
    def test_any_order_of_orders(self, monkeypatch, caller, budget):
        # repeated and unordered orders come back bit-identical to single
        # builds, so a repeated order is finished once; budget 0 makes every
        # order a run of its own and 2^30 one run of all, and no recursion
        # runs before the first request
        module, sweep, single, as_bytes = self.CALLERS[caller]
        calls = []
        recurrence = hermite._recurrence
        monkeypatch.setattr(hermite, "_recurrence",
                            lambda x, groups, squared: calls.append(groups)
                            or recurrence(x, groups, squared))
        monkeypatch.setattr(module, "_BATCH_BYTES", budget)
        halves = [30, 7, 30, 12, 5]
        results = sweep(halves)
        assert calls == []
        swept = [as_bytes(next(results))]
        assert len(calls) == 1
        swept += [as_bytes(result) for result in results]
        monkeypatch.undo()
        assert len(calls) == (len(halves) if budget == 0 else 1)
        assert swept == [as_bytes(single(N)) for N in halves]
