import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bgknet import kinetic
from bgknet import (
    ACOUSTIC_SPEED,
    InitialData,
    NetworkConfig,
    NodeProblem,
    NodeTopology,
    conservation_residual,
    graded_spacing,
    initialize,
    rho_left,
    run,
    solve_node,
    step,
    total_mass,
)
from bgknet.kinetic import _time_levels, _two_level_step

A = ACOUSTIC_SPEED


def small_config(**kw):
    base = dict(n_edges=3, edge_length=0.05, cells=50, N=8, epsilon=5e-4,
                cfl=0.9, t_end=0.01)
    base.update(kw)
    return NetworkConfig(**base)


class TestPresets:
    def test_case1_edge1(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        assert (data.rho0[0], data.q0[0], data.S0[0]) == (1.0, 0.0, 1.0)
        assert data.rho0[1] == pytest.approx(1 - c.delta2)
        assert data.S0[1] == pytest.approx(1 - c.delta1)

    def test_case2_edge2_density(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(2, c.delta1, c.delta2)
        assert data.rho0[1] == pytest.approx(1 - 2 * c.delta2)

    def test_case3_formula(self, coeff_factory):
        c = coeff_factory(30, 3)
        d1, d2 = c.delta1, c.delta2
        data = InitialData.preset(3, d1, d2)
        q_inf = (2 * d1 + A) / (d1 + A)
        rb = q_inf * (d2 - d1 / 3) + 2 * d1 / 3
        assert data.rho0[2] == pytest.approx(1 + rb, abs=1e-15)

    def test_case4_formula(self, coeff_factory):
        c = coeff_factory(30, 3)
        q_inf = (2 * c.delta1 + A) / (c.delta1 + A)
        data = InitialData.preset(4, c.delta1, c.delta2)
        assert data.rho0[1] == pytest.approx(1 - c.delta2 * q_inf, abs=1e-15)

    def test_bad_case(self):
        with pytest.raises(ValueError):
            InitialData.preset(5, 0.5, 0.3)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            InitialData(rho0=[1.0, 1.0], q0=[0.0], S0=[1.0, 1.0])

    @pytest.mark.parametrize("value", [[1.0, 1.0 + 2.0j, 1.0], np.ones(3, complex), 1.0 + 0.0j])
    @pytest.mark.parametrize("name", ["rho0", "q0", "S0"])
    def test_complex_data_is_named(self, name, value):
        # a cast to float would drop the imaginary part with only a warning
        fields = dict(rho0=[1.0, 1.0, 1.0], q0=[0.0, 0.0, 0.0], S0=[1.0, 1.0, 1.0])
        fields[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be real"):
            InitialData(**fields)

    @pytest.mark.parametrize("name", ["rho0", "q0", "S0"])
    def test_two_dimensional_data_is_named(self, name):
        # a (2, 2) array would otherwise run as four edges
        fields = dict(rho0=np.ones(4), q0=np.zeros(4), S0=np.ones(4))
        fields[name] = fields[name].reshape(2, 2)
        with pytest.raises(ValueError, match=f"^{name} must be 1-d"):
            InitialData(**fields)


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [dict(epsilon=0.0), dict(epsilon=-1e-4),
                                    dict(cells=5), dict(cfl=0.0), dict(cfl=1.5),
                                    dict(n_edges=1)])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            small_config(**kw)

    @pytest.mark.parametrize("name, value", [
        ("N", 1), ("N", 0), ("N", 8.0), ("N", 2000),
        ("t_end", 0.0), ("t_end", -0.1), ("t_end", np.nan), ("t_end", np.inf),
        ("edge_length", -1.0), ("edge_length", 0.0), ("edge_length", np.nan),
        ("edge_length", np.inf), ("epsilon", np.nan), ("epsilon", np.inf),
        ("epsilon", 0.0), ("cells", 10.5), ("n_edges", 2.5), ("n_edges", 1)])
    def test_rejection_names_parameter(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            small_config(**{name: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rho0", "q0", "S0"])
    def test_non_finite_initial_data_rejected(self, name, bad):
        fields = dict(rho0=[1.0, 1.0, 1.0], q0=[0.0, 0.0, 0.0], S0=[1.0, 1.0, 1.0])
        fields[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            InitialData(**fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1e-3])
    def test_bad_spacing_is_named(self, bad):
        spacing = np.full(20, 1e-3)
        spacing[5] = bad
        with pytest.raises(ValueError, match="^spacing must"):
            small_config(spacing=spacing)

    @pytest.mark.parametrize("beta", [
        np.eye(2),
        np.array([[-0.5, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.0, 0.0]]),
        np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.4, 0.0]]),
        np.array([[0.0, 0.5, 0.5], [0.5, np.nan, 0.5], [0.5, 0.5, 0.0]]),
        np.array([[0.0, 0.5, 0.5], [0.5, 0.3j, 0.5], [0.5, 0.5, 0.0]]),
    ], ids=["shape", "negative", "column-sum", "nan", "complex"])
    def test_bad_beta_rejected_when_built(self, beta):
        with pytest.raises(ValueError, match="^beta"):
            small_config(beta=beta)

    def test_beta_stored_as_checked_floats(self):
        beta = [[0, 1, 0], [1, 0, 1], [0, 0, 0]]
        config = small_config(beta=beta)
        assert isinstance(config.beta, np.ndarray) and config.beta.dtype == float
        np.testing.assert_array_equal(config.beta, beta)

    def test_spacing_overrides(self):
        sp = graded_spacing(1e-4, 1e-3, 5e-4, 0.05)
        cfg = small_config(spacing=sp)
        assert cfg.cells == sp.size
        assert cfg.edge_length == pytest.approx(sp.sum())
        np.testing.assert_array_equal(cfg.cell_widths(), sp)

    def test_graded_spacing_properties(self):
        sp = graded_spacing(1e-4, 1e-3, 5e-4, 0.05, ratio=1.1)
        assert sp.sum() >= 0.05
        assert sp[0] == 1e-4 and sp[-1] == 1e-3
        assert np.all(np.diff(sp) >= 0)
        ratios = sp[1:] / sp[:-1]
        assert np.all(ratios <= 1.1 + 1e-12)

    def test_graded_spacing_rejects(self):
        with pytest.raises(ValueError):
            graded_spacing(1e-3, 1e-4, 0.01, 0.05)

    @pytest.mark.parametrize("name, value", [
        ("dx_min", 0.0), ("dx_min", -1e-4), ("dx_min", np.nan), ("dx_min", np.inf),
        ("dx_max", 0.0), ("dx_max", np.nan), ("dx_max", np.inf),
        ("length", 0.0), ("length", -0.05), ("length", np.nan), ("length", np.inf),
        ("fine_width", -1e-3), ("fine_width", np.nan), ("fine_width", np.inf),
        ("ratio", 1.0), ("ratio", 0.5), ("ratio", np.nan), ("ratio", np.inf),
        ("dx_min", 2e-3)])
    def test_graded_spacing_rejection_names_parameter(self, name, value):
        # dx_min = 2e-3 exceeds dx_max = 1e-3
        args = dict(dx_min=1e-4, dx_max=1e-3, fine_width=5e-4, length=0.05, ratio=1.1)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must"):
            graded_spacing(**args)


class TestInitialize:
    def test_moment_roundtrip(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        state = initialize(small_config(), data)
        rho, q, S = state.macro_moments()
        for i in range(3):
            assert rho[i, 0] == pytest.approx(data.rho0[i], abs=1e-12)
            assert q[i, 0] == pytest.approx(data.q0[i], abs=1e-12)
            assert S[i, 0] == pytest.approx(data.S0[i], abs=1e-12)

    def test_dimension_mismatch(self):
        data = InitialData(rho0=[1.0, 1.0], q0=[0.0, 0.0], S0=[1.0, 1.0])
        with pytest.raises(ValueError):
            initialize(small_config(n_edges=3), data)


def stepped_node_ghost(state):
    """The node ghosts one `step` fed the kernel, and the distribution before it."""
    before = state.f.copy()
    step(state, state.cfl_dt)
    (plan,) = state.step_plans.values()
    return plan.node_ghost, before


class TestGhostValues:
    def test_identical_even_states_are_mirrored(self):
        data = InitialData(rho0=[1.0] * 3, q0=[0.0] * 3, S0=[1.2] * 3)
        state = initialize(small_config(), data)
        ghost, before = stepped_node_ghost(state)
        N = state.rule.half
        np.testing.assert_allclose(ghost, before[:, 0, :N][:, ::-1], atol=1e-15)

    def test_pass_through_node(self):
        beta = np.array([[0.0, 1.0], [1.0, 0.0]])
        data = InitialData(rho0=[1.0, 0.7], q0=[0.1, -0.2], S0=[1.0, 0.9])
        state = initialize(small_config(n_edges=2, beta=beta), data)
        ghost, before = stepped_node_ghost(state)
        N = state.rule.half
        np.testing.assert_array_equal(ghost[0], before[1, 0, :N][::-1])
        np.testing.assert_array_equal(ghost[1], before[0, 0, :N][::-1])

    def test_boundary_odd_moments_vanish(self, coeff_factory):
        # oracle: sum over edges of the node-boundary distribution is even in v,
        # so every odd moment of the summed trace must vanish
        c = coeff_factory(30, 3)
        data = InitialData.preset(3, c.delta1, c.delta2)
        state = initialize(small_config(), data)
        state.f += np.random.default_rng(1).normal(
            scale=1e-2, size=state.f.shape)  # arbitrary states at the node
        ghost, before = stepped_node_ghost(state)
        N = state.rule.half
        boundary = np.concatenate([before[:, 0, :N], ghost], axis=1)
        total = boundary.sum(axis=0)
        g = state.rule.basis @ total
        assert np.max(np.abs(g[1::2])) < 1e-12

    def test_outer_boundary_is_initial_maxwellian(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(2, c.delta1, c.delta2)
        state = initialize(small_config(), data)
        N = state.rule.half
        outer_ghost = state.buffer[:N, :, -1].T
        np.testing.assert_allclose(outer_ghost, state.f[:, -1, :N], atol=1e-15)
        # the ghost stays the initial Maxwellian while the cells evolve
        before = outer_ghost.copy()
        step(state, state.cfl_dt)
        np.testing.assert_array_equal(outer_ghost, before)


class TestStep:
    def test_uniform_maxwellian_steady(self):
        data = InitialData(rho0=[1.0] * 3, q0=[0.0] * 3, S0=[1.0] * 3)
        state = initialize(small_config(), data)
        before = state.f.copy()
        step(state, state.cfl_dt)
        assert np.max(np.abs(state.f - before)) < 1e-14

    @pytest.mark.parametrize("factor", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_dt_rejected_before_any_update(self, factor):
        data = InitialData(rho0=[1.0, 0.8, 1.1], q0=[0.0, 0.2, -0.2], S0=[1.0] * 3)
        state = initialize(small_config(), data)
        before = state.f.copy()
        with pytest.raises(ValueError, match="^dt must be finite and positive"):
            step(state, factor * state.cfl_dt)
        np.testing.assert_array_equal(state.f, before)
        assert state.time == 0.0 and state.mass_inflow == 0.0

    def test_assigned_distribution_is_written_into_the_buffer(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(3, c.delta1, c.delta2)
        kept, assigned = (initialize(small_config(), data) for _ in range(2))
        dt = kept.cfl_dt
        for state in (kept, assigned):
            step(state, dt)
        buffer, plans = assigned.buffer, dict(assigned.step_plans)
        assigned.f = assigned.f.copy()
        assert assigned.buffer is buffer
        assert assigned.step_plans.keys() == plans.keys()
        assert all(assigned.step_plans[key] is plan for key, plan in plans.items())
        for state in (kept, assigned):
            step(state, dt)
        np.testing.assert_array_equal(assigned.buffer, kept.buffer)
        assert all(assigned.step_plans[key] is plan for key, plan in plans.items())

    def test_buffer_cannot_be_replaced(self):
        # the cached plans hold views of the buffer: a replaced buffer would leave
        # later steps writing the old one while time and mass_inflow advance
        data = InitialData(rho0=[1.0, 0.8, 1.1], q0=[0.0, 0.2, -0.2], S0=[1.0] * 3)
        state = initialize(small_config(), data)
        step(state, state.cfl_dt)
        buffer, plans = state.buffer, dict(state.step_plans)
        with pytest.raises(AttributeError, match="buffer"):
            state.buffer = buffer.copy()
        assert state.buffer is buffer
        before = state.f.copy()
        step(state, state.cfl_dt)
        assert all(state.step_plans[key] is plan for key, plan in plans.items())
        assert np.max(np.abs(state.f - before)) > 0.0

    def test_misshaped_assignment_is_named_and_writes_nothing(self):
        data = InitialData(rho0=[1.0, 0.8, 1.1], q0=[0.0, 0.2, -0.2], S0=[1.0] * 3)
        state = initialize(small_config(cells=20), data)
        before = state.buffer.copy()
        with pytest.raises(ValueError, match=r"^f must have shape \(3, 20, 16\)"):
            state.f = np.zeros((3, 19, 16))
        np.testing.assert_array_equal(state.buffer, before)

    def test_in_place_add_updates_the_cells(self):
        data = InitialData(rho0=[1.0, 0.8, 1.1], q0=[0.0, 0.2, -0.2], S0=[1.0] * 3)
        state = initialize(small_config(cells=20), data)
        before = state.f.copy()
        bump = np.random.default_rng(3).normal(size=before.shape)
        state.f += bump
        np.testing.assert_array_equal(state.f, before + bump)
        np.testing.assert_array_equal(state.buffer[:, :, 1:-1],
                                      (before + bump).transpose(2, 0, 1))

    def test_cfl_violation_rejected(self):
        data = InitialData(rho0=[1.0] * 3, q0=[0.0] * 3, S0=[1.0] * 3)
        state = initialize(small_config(), data)
        with pytest.raises(ValueError):
            step(state, 2 * state.cfl_dt)

    def test_strong_relaxation_projects_to_maxwellian(self):
        # uniform even perturbation: transport-free interior, dt/eps ~ 1e7
        data = InitialData(rho0=[1.0] * 3, q0=[0.0] * 3, S0=[1.0] * 3)
        state = initialize(small_config(epsilon=1e-13), data)
        bump = 0.05 * state.rule.scaled_weights * state.rule.basis[4]
        state.f += bump[None, None, :]
        g_before = state.f[0, 25] @ state.moment_rows.T
        step(state, state.cfl_dt)
        f_mid = state.f[0, 25]
        g_after = f_mid @ state.moment_rows.T
        np.testing.assert_allclose(g_after, g_before, atol=1e-12)
        maxw = g_after @ state.maxwell_rows
        assert np.max(np.abs(f_mid - maxw)) < 1e-10

    def test_tiny_epsilon_takes_the_maxwellian_limit(self):
        # dt/epsilon overflows to inf; K is then its limit, the projection onto
        # the Maxwellian, instead of inf/inf
        data = InitialData(rho0=[1.0, 0.8, 1.1], q0=[0.0, 0.2, -0.2], S0=[1.0, 0.9, 1.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(small_config(cells=20, epsilon=1e-320, t_end=0.004), data)
        assert np.all(np.isfinite(result.rho))
        assert result.mass_residual < 1e-13

    def test_mass_update_matches_flux_oracle(self, coeff_factory):
        # telescoping oracle: explicit boundary-flux sums reproduce the mass change
        c = coeff_factory(30, 3)
        data = InitialData.preset(3, c.delta1, c.delta2)
        state = initialize(small_config(), data)
        N = state.rule.half
        dt = state.cfl_dt
        mass_before = total_mass(state)
        beta = state.beta
        ghost_outer = state.buffer[:N, :, -1].T
        h0 = state.moment_rows[0]
        c_vec = state.speeds
        flux_in = 0.0
        for i in range(3):
            for k in range(2 * N):
                val = sum(beta[i, m] * state.f[m, 0, 2 * N - 1 - k]
                          for m in range(3)) if k >= N else state.f[i, 0, k]
                flux_in += np.sqrt(2) * h0[k] * c_vec[k] * val
                val_b = state.f[i, -1, k] if k >= N else ghost_outer[i, k]
                flux_in -= np.sqrt(2) * h0[k] * c_vec[k] * val_b
        step(state, dt)
        assert total_mass(state) - mass_before == pytest.approx(dt * flux_in, abs=1e-14)
        assert conservation_residual(state) < 1e-14


class TestStepOracle:
    def test_matches_loop_form_scheme(self):
        # oracle: the upwind update and the implicit relaxation written cell by
        # cell, on a graded mesh with a non-symmetric column-stochastic node
        rng = np.random.default_rng(11)
        beta = rng.uniform(0.1, 1.0, (3, 3))
        beta /= beta.sum(axis=0)
        spacing = graded_spacing(2e-4, 1e-3, 1e-3, 0.01)
        data = InitialData(rho0=rng.uniform(0.5, 1.5, 3), q0=rng.uniform(-1, 1, 3),
                           S0=rng.uniform(0.5, 1.5, 3))
        state = initialize(small_config(N=4, beta=beta, spacing=spacing), data)
        state.f += rng.normal(scale=1e-2, size=state.f.shape)
        state.mass_initial = total_mass(state)
        N, cells, eps = state.rule.half, spacing.size, state.config.epsilon
        c, dx = state.speeds, spacing
        g_data = np.stack([data.rho0 / np.sqrt(2), data.q0 / np.sqrt(2),
                           (data.S0 - data.rho0) / 2], axis=1)
        outer = g_data @ state.maxwell_rows
        f = state.f.copy()
        for fraction in (0.9, 0.9, 0.5, 0.9, 1.0, 0.7):
            dt = fraction * state.cfl_dt
            new = np.empty_like(f)
            for i in range(3):
                for k in range(2 * N):
                    for j in range(cells):
                        if k >= N:
                            up = f[i, j - 1, k] if j > 0 else sum(
                                beta[i, m] * f[m, 0, 2 * N - 1 - k] for m in range(3))
                            new[i, j, k] = f[i, j, k] - dt / dx[j] * c[k] * (f[i, j, k] - up)
                        else:
                            up = f[i, j + 1, k] if j < cells - 1 else outer[i, k]
                            new[i, j, k] = f[i, j, k] - dt / dx[j] * c[k] * (up - f[i, j, k])
            r = dt / eps
            maxwellian = (new @ state.moment_rows.T) @ state.maxwell_rows
            f = (new + r * maxwellian) / (1 + r)
            step(state, dt)
            assert np.max(np.abs(state.f - f)) <= 1e-13
        assert conservation_residual(state) < 1e-14


# 55 of 61 cells fine at k = 4, like criterion 8(b)'s 1,630 of 1,820: a narrow
# coarse range over whole rows and a wide compact fine level
WIDE_FINE_SPACING = graded_spacing(1e-4, 1e-3, 4e-3, 0.01)


def poison_unread_ghosts(state):
    """NaN in the two ghost columns no cell reads: column 0 of the negative
    velocities and the last column of the positive ones."""
    N = state.rule.half
    state.buffer[:N, :, 0] = np.nan
    state.buffer[N:, :, -1] = np.nan
    return state


class TestWholeEdgeKernel:
    def test_warm_step_allocates_no_iterator_buffers(self):
        # a whole-edge step runs its transport on 1-d contiguous spans; a
        # fall back to buffered 2-d iteration takes numpy's iterator scratch
        # (about 126 kB per step at these settings, `bgknet compare`'s defaults)
        config = NetworkConfig(n_edges=3, edge_length=0.3, cells=600, N=16, epsilon=5e-4,
                               cfl=0.9, t_end=0.1)
        state = initialize(config, InitialData.preset(1, 0.5, 0.35))
        dt = state.cfl_dt
        step(state, dt)
        tracemalloc.start()
        try:
            step(state, dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8000

    @pytest.mark.parametrize("config", [
        small_config(t_end=0.004),
        small_config(spacing=graded_spacing(2e-4, 1e-3, 1e-3, 0.02), t_end=0.002),
        small_config(spacing=WIDE_FINE_SPACING, t_end=0.002),
    ], ids=["uniform", "graded", "wide-fine"])
    def test_unread_ghost_lanes_never_reach_the_cells(self, config, monkeypatch):
        # the whole-edge spans read the junk lanes between rows, but only into
        # scratch lanes that the relaxation never reads
        data = InitialData(rho0=[1.0, 0.8, 1.1], q0=[0.0, 0.2, -0.2], S0=[1.0, 0.9, 1.2])
        clean = run(config, data)
        monkeypatch.setattr(kinetic, "initialize",
                            lambda *args: poison_unread_ghosts(initialize(*args)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            poisoned = run(config, data)
        assert np.isnan(poisoned.state.buffer[0, 0, 0])
        np.testing.assert_array_equal(poisoned.state.f, clean.state.f)
        assert poisoned.state.mass_inflow == clean.state.mass_inflow
        assert poisoned.mass_residual == clean.mass_residual


def criterion_8a_config(eps):
    """Acceptance criterion 8(a)'s graded mesh and run settings at one epsilon."""
    return NetworkConfig(n_edges=3, N=8, epsilon=eps, t_end=0.02,
                         spacing=graded_spacing(eps / 10, 2e-4, 2 * eps, 0.08))


def global_steps(config, data):
    """The state after t_end in fixed global CFL steps, one `step` call each."""
    state = initialize(config, data)
    steps = int(np.ceil(config.t_end / state.cfl_dt - 1e-12))
    for _ in range(steps):
        step(state, config.t_end / steps)
    return state


def check_coarse_step_against_loop_form(spacing):
    """Oracle: k fine substeps and one coarse step written cell by cell, on a
    graded mesh with a non-symmetric column-stochastic node."""
    rng = np.random.default_rng(12)
    beta = rng.uniform(0.1, 1.0, (3, 3))
    beta /= beta.sum(axis=0)
    data = InitialData(rho0=rng.uniform(0.5, 1.5, 3), q0=rng.uniform(-1, 1, 3),
                       S0=rng.uniform(0.5, 1.5, 3))
    state = initialize(small_config(N=4, beta=beta, spacing=spacing), data)
    state.f += rng.normal(scale=1e-2, size=state.f.shape)
    state.mass_initial = total_mass(state)
    k, fine = _time_levels(spacing)
    assert k >= 4 and 0 < fine < spacing.size
    N, cells, eps = state.rule.half, spacing.size, state.config.epsilon
    c, dx = state.speeds, spacing
    g_data = np.stack([data.rho0 / np.sqrt(2), data.q0 / np.sqrt(2),
                       (data.S0 - data.rho0) / 2], axis=1)
    outer = g_data @ state.maxwell_rows
    dt = 0.95 * state.cfl_dt

    def relax(f, cells_range, r):
        for i in range(3):
            for j in cells_range:
                maxwellian = (f[i, j] @ state.moment_rows.T) @ state.maxwell_rows
                f[i, j] = (f[i, j] + r * maxwellian) / (1 + r)

    f = state.f.copy()
    neighbour = f[:, fine, :N].copy()          # first coarse cell, v < 0
    interface = np.zeros((3, N))
    for _ in range(k):
        interface += f[:, fine - 1, N:]
        new = f.copy()
        for i in range(3):
            for kk in range(2 * N):
                for j in range(fine):
                    if kk >= N:
                        up = f[i, j - 1, kk] if j > 0 else sum(
                            beta[i, m] * f[m, 0, 2 * N - 1 - kk] for m in range(3))
                        new[i, j, kk] = f[i, j, kk] - dt / dx[j] * c[kk] * (f[i, j, kk] - up)
                    else:
                        up = f[i, j + 1, kk] if j < fine - 1 else neighbour[i, kk]
                        new[i, j, kk] = f[i, j, kk] - dt / dx[j] * c[kk] * (up - f[i, j, kk])
        relax(new, range(fine), dt / eps)
        f = new
    interface /= k
    coarse_dt = k * dt
    new = f.copy()
    for i in range(3):
        for kk in range(2 * N):
            for j in range(fine, cells):
                if kk >= N:
                    up = f[i, j - 1, kk] if j > fine else interface[i, kk - N]
                    new[i, j, kk] = f[i, j, kk] - coarse_dt / dx[j] * c[kk] * (f[i, j, kk] - up)
                else:
                    up = f[i, j + 1, kk] if j < cells - 1 else outer[i, kk]
                    new[i, j, kk] = f[i, j, kk] - coarse_dt / dx[j] * c[kk] * (up - f[i, j, kk])
    relax(new, range(fine, cells), coarse_dt / eps)

    _two_level_step(state, k, fine, dt)
    assert np.max(np.abs(state.f - new)) <= 1e-13
    assert state.time == coarse_dt
    assert conservation_residual(state) < 1e-14


class TestTimeLevels:
    def test_uniform_mesh_has_one_level(self):
        assert _time_levels(small_config().cell_widths()) == (1, 0)

    def test_criterion_8a_mesh(self):
        dx = criterion_8a_config(1e-4).cell_widths()
        k, fine = _time_levels(dx)
        assert (k, fine) == (16, 49)
        assert np.all(dx[fine:] >= k * dx.min())
        assert dx[fine - 1] < k * dx.min()

    def test_fine_cells_covering_the_edge_give_one_level(self):
        # the one wide cell sits at the node, so a narrow cell ends the edge
        dx = np.full(20, 1e-3)
        dx[0] = 4e-3
        assert _time_levels(dx) == (1, 0)

    def test_matches_loop_form_coarse_step(self):
        check_coarse_step_against_loop_form(graded_spacing(1e-4, 1e-3, 5e-4, 0.03))

    def test_matches_loop_form_coarse_step_on_a_wide_fine_range(self):
        _, fine = _time_levels(WIDE_FINE_SPACING)
        assert 2 * fine > WIDE_FINE_SPACING.size
        check_coarse_step_against_loop_form(WIDE_FINE_SPACING)

    def test_fine_loop_allocates_nothing_per_substep(self):
        # the plans of both levels are built by the first coarse step; the
        # second must not allocate even a quarter of one block of the fine
        # cells at numpy's default bufsize. A kernel call on 2-d views of a
        # cell range takes numpy's iterator scratch of up to bufsize values per
        # operand (127 kB per coarse step on this mesh); every plan's 1-d spans
        # and the fine level's copy in and out take none
        config = criterion_8a_config(1e-4)
        state = initialize(config, InitialData.preset(1, 0.5, 0.35))
        k, fine = _time_levels(state.dx)
        dt = 0.95 * state.cfl_dt
        _two_level_step(state, k, fine, dt)
        tracemalloc.start()
        try:
            _two_level_step(state, k, fine, dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = state.f.shape[0] * state.f.shape[2] * fine * state.f.itemsize
        assert peak < block / 4

    def test_compact_fine_copy_is_never_stale(self):
        # the fine level steps a copy of its cells taken at the start of every
        # coarse step: an assignment to state.f between two coarse steps must
        # reach it, and a public step must see the cells the copy wrote back
        data = InitialData(rho0=[1.0, 0.8, 1.1], q0=[0.0, 0.2, -0.2], S0=[1.0, 0.9, 1.2])
        config = small_config(spacing=WIDE_FINE_SPACING)
        state = initialize(config, data)
        k, fine = _time_levels(state.dx)
        dt = 0.95 * state.cfl_dt
        bump = np.random.default_rng(4).normal(scale=1e-2, size=state.f.shape)

        def matches_a_fresh_state(advance):
            fresh = initialize(config, data)
            fresh.f = state.f
            for s in (state, fresh):
                advance(s)
                assert len(s.step_plans) <= 2
            np.testing.assert_array_equal(state.f, fresh.f)

        def two_level(s):
            _two_level_step(s, k, fine, dt)

        two_level(state)
        state.f = state.f + bump
        matches_a_fresh_state(two_level)
        state.f += bump
        matches_a_fresh_state(two_level)
        matches_a_fresh_state(lambda s: step(s, dt))
        matches_a_fresh_state(two_level)

    def test_uniform_run_is_the_global_step_loop(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(3, c.delta1, c.delta2)
        config = small_config(t_end=0.004)
        result = run(config, data)
        state = global_steps(config, data)
        np.testing.assert_array_equal(result.state.f, state.f)
        assert result.state.mass_inflow == state.mass_inflow
        assert result.state.time == state.time

    def test_criterion_8a_run_matches_global_steps(self, coeff_factory):
        # the two levels keep every cell at its own CFL number; the layer at
        # eps = 1e-4 must come out as with the global step of the finest cell
        c = coeff_factory(100, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        config = criterion_8a_config(1e-4)
        result = run(config, data)
        state = global_steps(config, data)
        rho_global = state.macro_moments()[0]
        assert np.max(np.abs(result.rho[-1] - rho_global)) < 1e-5
        assert result.mass_residual < 1e-10


class TestRun:
    def test_records_requested_times(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        result = run(small_config(t_end=0.004), data, output_times=(0.002,))
        assert result.times.size == 2
        assert result.times[-1] == pytest.approx(0.004, abs=1e-12)
        assert result.rho.shape == (2, 3, 50)

    def test_rejects_bad_output_times(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        with pytest.raises(ValueError):
            run(small_config(), data, output_times=(0.5,))

    @pytest.mark.parametrize("bad", [5e-4, ((1e-3,),), (np.nan,), (np.inf,), ("a",)])
    def test_malformed_output_times_are_named(self, coeff_factory, bad):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        with pytest.raises(ValueError, match="^output_times must"):
            run(small_config(t_end=0.004), data, output_times=bad)

    def test_accepts_an_array_of_times(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        result = run(small_config(t_end=0.004), data, output_times=np.array([0.001, 0.002]))
        assert result.times.size == 3

    def test_mass_conserved(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(2, c.delta1, c.delta2)
        result = run(small_config(t_end=0.01), data)
        assert result.mass_residual < 1e-10

    def test_outer_boundary_quiet_before_wave(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(3, c.delta1, c.delta2)
        cfg = small_config(edge_length=0.1, cells=100, t_end=0.01)
        result = run(cfg, data)
        # wave reaches a*t = 0.017; the last cells must still be at initial data
        tail = result.rho[-1][:, -20:]
        assert np.max(np.abs(tail - data.rho0[:, None])) < 1e-12

    def test_no_spurious_reflection_from_outer_boundary(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        short = run(small_config(edge_length=0.05, cells=100, t_end=0.008), data)
        double = run(small_config(edge_length=0.10, cells=200, t_end=0.008), data)
        np.testing.assert_allclose(short.rho[-1], double.rho[-1][:, :100], atol=1e-12)

    def test_bulk_state_matches_macro_prediction(self, ops_factory, coeff_factory):
        # coarse version of the asymptotic-consistency check
        coeff = coeff_factory(30, 3)
        data = InitialData.preset(1, coeff.delta1, coeff.delta2)
        cfg = NetworkConfig(n_edges=3, edge_length=0.15, cells=150, N=8,
                            epsilon=5e-4, t_end=0.05)
        result = run(cfg, data)
        i = np.argmin(np.abs(result.x - 0.03))
        problem = NodeProblem.from_macro_data(NodeTopology.symmetric(3), coeff,
                                              data.rho0, data.q0, data.S0)
        sol = solve_node(problem, ops_factory(30))
        rho_left = data.rho0 + (sol.S_inf - data.S0) / 3
        assert np.max(np.abs(result.q[-1][:, i] - sol.q_inf)) < 1e-2
        assert np.max(np.abs(result.S[-1][:, i] - sol.S_inf)) < 1e-2
        assert np.max(np.abs(result.rho[-1][:, i] - rho_left)) < 1e-2


class TestNonSymmetricNode:
    def test_run_matches_node_solve(self, ops_factory, coeff_factory):
        # criterion 7's check at the compare defaults with a non-symmetric
        # column-stochastic beta, drawn as perfbench's seeded_beta draws it
        rng = np.random.default_rng(5)
        beta = rng.uniform(0.1, 1.0, (3, 3))
        beta /= beta.sum(axis=0)
        eigenvalues = np.sort_complex(np.linalg.eigvals(beta))
        np.testing.assert_allclose(eigenvalues, [-0.121 - 0.159j, -0.121 + 0.159j, 1.0],
                                   atol=1e-3)
        coeff = coeff_factory(100, 3)
        data = InitialData.preset(1, coeff.delta1, coeff.delta2)
        config = NetworkConfig(n_edges=3, edge_length=0.3, cells=600, N=16,
                               epsilon=5e-4, t_end=0.1, beta=beta)
        result = run(config, data)
        i = int(np.argmin(np.abs(result.x - 0.05)))

        def error(topology):
            problem = NodeProblem.from_macro_data(topology, None,
                                                  data.rho0, data.q0, data.S0)
            sol = solve_node(problem, ops_factory(100))
            return max(np.max(np.abs(result.q[-1][:, i] - sol.q_inf)),
                       np.max(np.abs(result.S[-1][:, i] - sol.S_inf)),
                       np.max(np.abs(result.rho[-1][:, i] - rho_left(data, sol))))

        assert error(NodeTopology(3, beta)) < 1e-2
        assert error(NodeTopology.symmetric(3)) > 0.1  # the check tells the nodes apart
        assert result.mass_residual < 1e-10


#: k = 8 with 24 of 37 cells fine
PROPERTY_GRADED = graded_spacing(1e-4, 1e-3, 3e-4, 0.02)


@st.composite
def kinetic_cases(draw):
    """A small network: column-stochastic beta (random, or near a cyclic shift
    with complex eigenvalue pairs), a uniform or a two-level graded mesh, N = 4."""
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n))
    beta = np.reshape(weights, (n, n))
    beta = beta / beta.sum(axis=0)
    mix = draw(st.sampled_from([None, 1e-2, 0.2]))
    if mix is not None:
        beta = (1.0 - mix) * np.roll(np.eye(n), 1, axis=0) + mix * beta
    mesh = {} if draw(st.booleans()) else {"spacing": PROPERTY_GRADED}
    config = NetworkConfig(n_edges=n, edge_length=0.01, cells=20, N=4, epsilon=5e-4,
                           t_end=1e-3, beta=beta, **mesh)
    return config, draw(edge_data(n))


def edge_data(n):
    values = st.lists(st.floats(-1.0, 1.0), min_size=3 * n, max_size=3 * n)
    return values.map(lambda v: InitialData(rho0=v[:n], q0=v[n:2 * n], S0=v[2 * n:]))


def combine(a, d1, b, d2):
    return InitialData(*(a * getattr(d1, name) + b * getattr(d2, name)
                         for name in ("rho0", "q0", "S0")))


class TestKineticProperties:
    # a transposed beta in the node ghost is a row-stochastic beta and a dropped
    # interface sum a zero ghost: both keep the scheme linear and equivariant but
    # leak mass, so every run here must also conserve mass

    @given(case=kinetic_cases(), data=st.data(),
           weights=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    def test_linear_in_the_data(self, case, data, weights):
        config, d1 = case
        d2 = data.draw(edge_data(config.n_edges))
        a, b = weights
        r1, r2 = run(config, d1), run(config, d2)
        combined = run(config, combine(a, d1, b, d2))
        np.testing.assert_allclose(combined.state.f, a * r1.state.f + b * r2.state.f,
                                   rtol=0, atol=1e-13)
        assert max(r.mass_residual for r in (r1, r2, combined)) < 1e-14

    @given(case=kinetic_cases(), data=st.data())
    def test_edge_permutation_equivariance(self, case, data):
        config, d = case
        perm = np.array(data.draw(st.permutations(range(config.n_edges))))
        beta = config.beta[np.ix_(perm, perm)]
        base = run(config, d)
        permuted = run(dataclasses.replace(config, beta=beta),
                       InitialData(d.rho0[perm], d.q0[perm], d.S0[perm]))
        np.testing.assert_allclose(permuted.state.f, base.state.f[perm], rtol=0, atol=1e-13)
        assert max(base.mass_residual, permuted.mass_residual) < 1e-14

    @given(case=kinetic_cases())
    def test_conserves_mass(self, case):
        assert run(*case).mass_residual < 1e-14


def leak_at_node(state):
    """Scale the node coupling so that a tenth of what reaches the node is lost."""
    state.beta = 0.9 * state.beta
    return state


class TestLeakingNode:
    # only the outer ends are booked, so mass lost at the node is a violation;
    # the lost mass is read off a conserving run with the same outer boundary

    def test_uniform_mesh_step_loop(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        config = small_config(t_end=0.004)
        conserving = global_steps(config, data)
        state = leak_at_node(initialize(config, data))
        steps = int(np.ceil(config.t_end / state.cfl_dt - 1e-12))
        for _ in range(steps):
            step(state, config.t_end / steps)
        lost = total_mass(conserving) - total_mass(state)
        assert lost > 1e-6
        assert conservation_residual(conserving) < 1e-14
        assert conservation_residual(state) >= 0.5 * lost

    def test_graded_mesh_run(self, coeff_factory, monkeypatch):
        c = coeff_factory(30, 3)
        data = InitialData.preset(1, c.delta1, c.delta2)
        config = criterion_8a_config(4e-4)
        conserving = run(config, data)
        monkeypatch.setattr(kinetic, "initialize",
                            lambda config, data: leak_at_node(initialize(config, data)))
        leaking = run(config, data)
        assert _time_levels(config.cell_widths())[0] > 1
        lost = total_mass(conserving.state) - total_mass(leaking.state)
        assert lost > 1e-6
        assert conserving.mass_residual < 1e-12
        assert leaking.mass_residual >= 0.5 * lost


class TestWaveFront:
    def test_front_position_case3(self, coeff_factory):
        # midpoint crossing of the density wave sits at x = a t within 2 dx
        coeff = coeff_factory(100, 3)
        data = InitialData.preset(3, coeff.delta1, coeff.delta2)
        cfg = NetworkConfig(n_edges=3, edge_length=0.25, cells=500, N=16,
                            epsilon=5e-4, t_end=0.1)
        result = run(cfg, data)
        x, rho = result.x, result.rho[-1][1]
        left = rho[np.argmin(np.abs(x - 0.12))]
        right = rho[-10]
        mid = 0.5 * (left + right)
        sign = np.sign(rho - mid)
        idx = int(np.argmax(sign[:-1] != sign[1:]))
        x_front = x[idx] + (x[idx + 1] - x[idx]) * (mid - rho[idx]) / (rho[idx + 1] - rho[idx])
        dx = 0.25 / 500
        assert abs(x_front - A * 0.1) <= 2 * dx


class TestConvergence:
    def test_l1_self_convergence_order(self, coeff_factory):
        # smooth (wave-free) case 2: first-order upwind must show order >= 0.8
        coeff = coeff_factory(30, 3)
        data = InitialData.preset(2, coeff.delta1, coeff.delta2)
        profiles = {}
        for cells in (200, 400, 800):
            cfg = NetworkConfig(n_edges=3, edge_length=0.08, cells=cells, N=8,
                                epsilon=5e-4, t_end=0.02)
            res = run(cfg, data)
            profiles[cells] = (res.x, res.rho[-1][1])
        x_f, rho_f = profiles[800]
        diffs = []
        for cells in (200, 400):
            x, rho = profiles[cells]
            interp = np.interp(x, x_f, rho_f)
            diffs.append(np.sum(np.abs(rho - interp)) * (0.08 / cells))
        order = np.log2(diffs[0] / diffs[1])
        assert order >= 0.8

    def test_node_distribution_matches_spectral(self, ops_factory, coeff_factory):
        # discrete L2 agreement at the node, two nodes nearest v = 0 excluded
        N = 16
        coeff_ref = coeff_factory(100, 3)
        data = InitialData.preset(2, coeff_ref.delta1, coeff_ref.delta2)
        eps = 5e-4
        spacing = graded_spacing(eps / 10, 5e-4, 3 * eps, 0.12)
        cfg = NetworkConfig(n_edges=3, N=N, epsilon=eps, t_end=0.02, spacing=spacing)
        result = run(cfg, data)
        ops = ops_factory(N)
        coeff = coeff_factory(N, 3)
        problem = NodeProblem.from_macro_data(NodeTopology.symmetric(3), coeff,
                                              data.rho0, data.q0, data.S0)
        sol = solve_node(problem, ops)
        f_spectral = ops.transform.solve(sol.g_at_0.T).T
        keep = np.abs(ops.rule.nodes) > np.sort(np.abs(ops.rule.nodes))[1]
        for i in range(3):
            diff = result.state.f[i, 0, keep] - f_spectral[i, keep]
            rel = np.linalg.norm(diff) / np.linalg.norm(f_spectral[i, keep])
            assert rel < 0.05
