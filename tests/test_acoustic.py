import numpy as np
import pytest
from scipy.special import erfc

from bgknet import (
    ACOUSTIC_SPEED,
    InitialData,
    NodeProblem,
    NodeTopology,
    composite_rho,
    exact_macro,
    rho_left,
    solve_node,
    solve_node_general,
    viscous_amplitudes,
)

A = ACOUSTIC_SPEED


def solved_case(case, N, ops_factory, coeff_factory):
    coeff = coeff_factory(N, 3)
    data = InitialData.preset(case, coeff.delta1, coeff.delta2)
    problem = NodeProblem.from_macro_data(NodeTopology.symmetric(3), coeff,
                                          data.rho0, data.q0, data.S0)
    return data, solve_node(problem, ops_factory(N))


def pass_through_solution(ops, rho_jump=False):
    beta = np.array([[0.0, 1.0], [1.0, 0.0]])
    S0 = np.array([1.1, 0.9])
    q0 = np.array([0.2, -0.5])
    if rho_jump:
        rho0 = np.array([1.0, 0.6])
    else:
        # rho chosen so the zero characteristic is continuous: S - 3 rho equal
        rho0 = np.array([1.0, 1.0 + (0.9 - 1.1) / 3.0])
    data = InitialData(rho0=rho0, q0=q0, S0=S0)
    sol = solve_node_general(NodeTopology(2, beta), S0 - A * q0,
                             float(np.sum(S0 - 3 * rho0)), ops)
    return data, sol


class TestExactMacro:
    def test_golden_bulk_values(self, ops_factory, coeff_factory):
        data, sol = solved_case(1, 100, ops_factory, coeff_factory)
        rho, q, S = exact_macro(data, sol, np.array([0.05]), 0.1)
        assert rho[1, 0] == pytest.approx(0.6542, abs=1e-3)
        data3, sol3 = solved_case(3, 100, ops_factory, coeff_factory)
        rho3, _, _ = exact_macro(data3, sol3, np.array([0.05]), 0.1)
        assert rho3[1, 0] == pytest.approx(0.5732, abs=1e-3)

    def test_zero_data(self, ops_factory, coeff_factory):
        coeff = coeff_factory(30, 3)
        data = InitialData(rho0=[0.0] * 3, q0=[0.0] * 3, S0=[0.0] * 3)
        problem = NodeProblem.from_macro_data(NodeTopology.symmetric(3), coeff,
                                              data.rho0, data.q0, data.S0)
        sol = solve_node(problem, ops_factory(30))
        rho, q, S = exact_macro(data, sol, np.linspace(0, 0.2, 7), 0.1)
        for arr in (rho, q, S):
            assert np.max(np.abs(arr)) < 1e-12

    def test_piecewise_structure(self, ops_factory, coeff_factory):
        data, sol = solved_case(3, 30, ops_factory, coeff_factory)
        t = 0.1
        x = np.array([0.01, A * t - 0.01, A * t + 0.01, 0.4])
        rho, q, S = exact_macro(data, sol, x, t)
        rho_l = rho_left(data, sol)
        for i in range(3):
            np.testing.assert_allclose(q[i, :2], sol.q_inf[i], atol=1e-14)
            np.testing.assert_allclose(q[i, 2:], data.q0[i], atol=1e-14)
            np.testing.assert_allclose(S[i, :2], sol.S_inf[i], atol=1e-14)
            np.testing.assert_allclose(rho[i, :2], rho_l[i], atol=1e-14)
            np.testing.assert_allclose(rho[i, 2:], data.rho0[i], atol=1e-14)

    def test_rho_left_state_relation(self, ops_factory, coeff_factory):
        data, sol = solved_case(4, 30, ops_factory, coeff_factory)
        np.testing.assert_allclose(rho_left(data, sol),
                                   data.rho0 + (sol.S_inf - data.S0) / 3, atol=1e-14)

    def test_rejects_nonpositive_time(self, ops_factory, coeff_factory):
        data, sol = solved_case(1, 30, ops_factory, coeff_factory)
        for t in (0.0, np.nan):
            with pytest.raises(ValueError, match="^time must"):
                exact_macro(data, sol, np.array([0.1]), t)


class TestCompositeRho:
    def test_value_at_node(self, ops_factory, coeff_factory):
        for case in (1, 2):
            data, sol = solved_case(case, 100, ops_factory, coeff_factory)
            rho = composite_rho(data, sol, 5e-4, np.array([0.0]), 0.1)
            np.testing.assert_allclose(rho[:, 0], sol.rho_at_0, atol=1e-6)

    def test_reduces_to_bulk_without_layers(self, ops_factory):
        data, sol = pass_through_solution(ops_factory(30), rho_jump=False)
        x = np.linspace(0.0, 0.05, 11)
        rho = composite_rho(data, sol, 5e-4, x, 0.1)
        bulk, _, _ = exact_macro(data, sol, x, 0.1)
        assert np.max(np.abs(rho - bulk)) < 1e-10

    def test_two_layer_bound(self, ops_factory, coeff_factory):
        # direct evaluation oracle for the two layer terms in the plateau window
        eps, t = 1e-4, 0.1
        data, sol = solved_case(2, 30, ops_factory, coeff_factory)
        rho_l = rho_left(data, sol)
        scale = np.sqrt(eps * t)
        decay = np.sqrt(2) * sol.layer_eigenvalues * eps
        x = np.linspace(3 * scale, A * t - 0.01, 25)
        rho = composite_rho(data, sol, eps, x, t)
        for i in range(3):
            visc = abs(sol.rho_inf[i] - rho_l[i]) * erfc(x / (2 * scale))
            tail = np.abs(sol.rho_layer_amplitudes[i]) @ np.exp(-x[None, :] / decay[:, None])
            bound = visc + tail + 1e-12
            assert np.all(np.abs(rho[i] - rho_l[i]) <= bound)
            assert np.all(np.abs(rho[i] - rho_l[i])
                          <= erfc(1.5) * abs(sol.rho_inf[i] - rho_l[i]) + tail + 1e-12)

    def test_far_field_reaches_bulk(self, ops_factory, coeff_factory):
        data, sol = solved_case(2, 30, ops_factory, coeff_factory)
        eps, t = 1e-5, 0.1
        rho = composite_rho(data, sol, eps, np.array([0.05]), t)
        np.testing.assert_allclose(rho[:, 0], rho_left(data, sol), atol=1e-12)

    def test_converges_to_exact_macro(self, ops_factory, coeff_factory):
        data, sol = solved_case(2, 30, ops_factory, coeff_factory)
        x = np.array([0.05])
        bulk, _, _ = exact_macro(data, sol, x, 0.1)
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            rho = composite_rho(data, sol, eps, x, 0.1)
            gaps.append(np.max(np.abs(rho - bulk)))
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[0] > 1e-6 and gaps[-1] < 1e-10

    def test_rejects_bad_arguments(self, ops_factory, coeff_factory):
        data, sol = solved_case(1, 30, ops_factory, coeff_factory)
        with pytest.raises(ValueError):
            composite_rho(data, sol, 5e-4, np.array([-0.1]), 0.1)
        with pytest.raises(ValueError):
            composite_rho(data, sol, 0.0, np.array([0.1]), 0.1)
        with pytest.raises(ValueError, match="^epsilon must"):
            composite_rho(data, sol, np.nan, np.array([0.1]), 0.1)
        with pytest.raises(ValueError, match="^time must"):
            composite_rho(data, sol, 5e-4, np.array([0.1]), np.nan)


class TestViscousLayer:
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_balance_residual_small(self, ops_factory, coeff_factory, case):
        data, sol = solved_case(case, 30, ops_factory, coeff_factory)
        # sum_i r_hat0^i = 0 is sum (S_inf - 3 rho_inf) = sum (S_0 - 3 rho_0)
        assert abs(np.sum(viscous_amplitudes(data, sol))) < 1e-9

    def test_case2_amplitudes(self, ops_factory, coeff_factory):
        data, sol = solved_case(2, 30, ops_factory, coeff_factory)
        r0 = viscous_amplitudes(data, sol)
        assert abs(np.sum(r0)) < 1e-9
        assert abs(r0[1]) > 0.1 and abs(r0[2]) > 0.1
        assert r0[1] == pytest.approx(-r0[2], abs=1e-9)

    @pytest.mark.parametrize("case", [1, 3])
    def test_no_viscous_layer_cases(self, ops_factory, coeff_factory, case):
        data, sol = solved_case(case, 30, ops_factory, coeff_factory)
        assert np.max(np.abs(viscous_amplitudes(data, sol))) < 1e-9

    def test_pass_through_splits_zero_characteristic(self, ops_factory):
        # a rho jump at a transparent node is absorbed symmetrically by the
        # two viscous layers
        data, sol = pass_through_solution(ops_factory(30), rho_jump=True)
        r0 = viscous_amplitudes(data, sol)
        assert r0[0] == pytest.approx(-r0[1], abs=1e-10)
        assert abs(r0[0]) > 0.1
