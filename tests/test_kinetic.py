import numpy as np
import pytest

from bgknet import (
    ACOUSTIC_SPEED,
    InitialData,
    NetworkConfig,
    NodeProblem,
    NodeTopology,
    apply_node_coupling,
    conservation_residual,
    graded_spacing,
    initialize,
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


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [dict(epsilon=0.0), dict(epsilon=-1e-4),
                                    dict(cells=5), dict(cfl=0.0), dict(cfl=1.5),
                                    dict(n_edges=1)])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            small_config(**kw)

    @pytest.mark.parametrize("name, value", [
        ("N", 1), ("N", 0), ("N", 8.0),
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


class TestGhostValues:
    def test_identical_even_states_are_mirrored(self):
        data = InitialData(rho0=[1.0] * 3, q0=[0.0] * 3, S0=[1.2] * 3)
        state = initialize(small_config(), data)
        ghost = apply_node_coupling(state)
        N = state.rule.half
        np.testing.assert_allclose(ghost, state.f[:, 0, :N][:, ::-1], atol=1e-15)

    def test_pass_through_node(self):
        beta = np.array([[0.0, 1.0], [1.0, 0.0]])
        data = InitialData(rho0=[1.0, 0.7], q0=[0.1, -0.2], S0=[1.0, 0.9])
        state = initialize(small_config(n_edges=2, beta=beta), data)
        ghost = apply_node_coupling(state)
        N = state.rule.half
        np.testing.assert_array_equal(ghost[0], state.f[1, 0, :N][::-1])
        np.testing.assert_array_equal(ghost[1], state.f[0, 0, :N][::-1])

    def test_boundary_odd_moments_vanish(self, coeff_factory):
        # oracle: sum over edges of the node-boundary distribution is even in v,
        # so every odd moment of the summed trace must vanish
        c = coeff_factory(30, 3)
        data = InitialData.preset(3, c.delta1, c.delta2)
        state = initialize(small_config(), data)
        state.f += np.random.default_rng(1).normal(
            scale=1e-2, size=state.f.shape)  # arbitrary states at the node
        ghost = apply_node_coupling(state)
        N = state.rule.half
        boundary = np.concatenate([state.f[:, 0, :N], ghost], axis=1)
        total = boundary.sum(axis=0)
        g = state.rule.basis @ total
        assert np.max(np.abs(g[1::2])) < 1e-12

    def test_outer_boundary_is_initial_maxwellian(self, coeff_factory):
        c = coeff_factory(30, 3)
        data = InitialData.preset(2, c.delta1, c.delta2)
        state = initialize(small_config(), data)
        N = state.rule.half
        np.testing.assert_allclose(state.outer_ghost, state.f[:, -1, :N], atol=1e-15)
        # the ghost stays the initial Maxwellian while the cells evolve
        before = state.outer_ghost.copy()
        step(state, state.stable_dt())
        np.testing.assert_array_equal(state.outer_ghost, before)


class TestStep:
    def test_uniform_maxwellian_steady(self):
        data = InitialData(rho0=[1.0] * 3, q0=[0.0] * 3, S0=[1.0] * 3)
        state = initialize(small_config(), data)
        before = state.f.copy()
        step(state, state.stable_dt())
        assert np.max(np.abs(state.f - before)) < 1e-14

    def test_cfl_violation_rejected(self):
        data = InitialData(rho0=[1.0] * 3, q0=[0.0] * 3, S0=[1.0] * 3)
        state = initialize(small_config(), data)
        with pytest.raises(ValueError):
            step(state, 2 * state.stable_dt())

    def test_strong_relaxation_projects_to_maxwellian(self):
        # uniform even perturbation: transport-free interior, dt/eps ~ 1e7
        data = InitialData(rho0=[1.0] * 3, q0=[0.0] * 3, S0=[1.0] * 3)
        state = initialize(small_config(epsilon=1e-13), data)
        bump = 0.05 * state.rule.scaled_weights * state.rule.basis[4]
        state.f += bump[None, None, :]
        g_before = state.f[0, 25] @ state.moment_rows.T
        step(state, state.stable_dt())
        f_mid = state.f[0, 25]
        g_after = f_mid @ state.moment_rows.T
        np.testing.assert_allclose(g_after, g_before, atol=1e-12)
        maxw = g_after @ state.maxwell_rows
        assert np.max(np.abs(f_mid - maxw)) < 1e-10

    def test_mass_update_matches_flux_oracle(self, coeff_factory):
        # telescoping oracle: explicit boundary-flux sums reproduce the mass change
        c = coeff_factory(30, 3)
        data = InitialData.preset(3, c.delta1, c.delta2)
        state = initialize(small_config(), data)
        N = state.rule.half
        dt = state.stable_dt()
        mass_before = total_mass(state)
        ghost_node = apply_node_coupling(state)
        ghost_outer = state.outer_ghost
        h0 = state.moment_rows[0]
        c_vec = state.speeds
        flux_in = 0.0
        for i in range(3):
            for k in range(2 * N):
                val = ghost_node[i, k - N] if k >= N else state.f[i, 0, k]
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
            dt = fraction * state.stable_dt()
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


def criterion_8a_config(eps):
    """Acceptance criterion 8(a)'s graded mesh and run settings at one epsilon."""
    return NetworkConfig(n_edges=3, N=8, epsilon=eps, t_end=0.02,
                         spacing=graded_spacing(eps / 10, 2e-4, 2 * eps, 0.08))


def global_steps(config, data):
    """The state after t_end in fixed global CFL steps, one `step` call each."""
    state = initialize(config, data)
    steps = int(np.ceil(config.t_end / state.stable_dt() - 1e-12))
    for _ in range(steps):
        step(state, config.t_end / steps)
    return state


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
        # oracle: k fine substeps and one coarse step written cell by cell, on a
        # graded mesh with a non-symmetric column-stochastic node
        rng = np.random.default_rng(12)
        beta = rng.uniform(0.1, 1.0, (3, 3))
        beta /= beta.sum(axis=0)
        spacing = graded_spacing(1e-4, 1e-3, 5e-4, 0.03)
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
        dt = 0.95 * state.stable_dt()

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
            diff = result.f_node[i, keep] - f_spectral[i, keep]
            rel = np.linalg.norm(diff) / np.linalg.norm(f_spectral[i, keep])
            assert rel < 0.05
