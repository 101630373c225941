"""Discrete-velocity BGK reference solver on a star network.

Each edge carries the DVM distribution f_i(x, t), i = 1..2N, advected with the
physical speeds sqrt(2) v_i (Gauss-Hermite node times sqrt(2), the scaling that
makes the moment hierarchy close on the acoustic system with a^2 = 3) and
relaxed toward the discrete linearized Maxwellian. The scheme is first-order
upwind in space with an exact implicit relaxation update, which keeps the time
step independent of the stiffness parameter epsilon (asymptotic preserving).
Edges exchange ghost values at the node through the reflection coupling before
every transport step.

The distribution is stored velocity-major, one C-contiguous (edges, 2N, cells)
buffer, so the upwind differences run along contiguous cells; ``state.f`` is
the (edges, cells, 2N) transposed view of that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import ACOUSTIC_SPEED, NodeTopology
from .hermite import QuadratureRule, build_rule

__all__ = [
    "NetworkConfig",
    "InitialData",
    "NetworkState",
    "KineticResult",
    "graded_spacing",
    "initialize",
    "apply_node_coupling",
    "step",
    "run",
    "total_mass",
    "conservation_residual",
]


def graded_spacing(dx_min: float, dx_max: float, fine_width: float, length: float,
                   ratio: float = 1.1) -> np.ndarray:
    """Cell widths: dx_min out to fine_width, geometric growth to dx_max, then uniform."""
    if not (0 < dx_min <= dx_max and 0 < length and ratio > 1.0):
        raise ValueError("invalid mesh grading parameters")
    widths = []
    x = 0.0
    while x < fine_width and x < length:
        widths.append(dx_min)
        x += dx_min
    d = dx_min
    while d < dx_max and x < length:
        d = min(d * ratio, dx_max)
        widths.append(d)
        x += d
    while x < length - 1e-12 * length:
        widths.append(dx_max)
        x += dx_max
    return np.asarray(widths)


@dataclass(frozen=True)
class NetworkConfig:
    """Discretization of a star network with identical edges.

    ``spacing`` optionally replaces the uniform mesh by explicit cell widths
    (shared by all edges); ``edge_length`` and ``cells`` are derived from it.
    """

    n_edges: int = 3
    edge_length: float = 0.5
    cells: int = 1000
    N: int = 16
    epsilon: float = 5e-4
    beta: np.ndarray | None = None
    cfl: float = 0.9
    t_end: float = 0.1
    spacing: np.ndarray | None = None

    def __post_init__(self):
        if self.spacing is not None:
            spacing = np.asarray(self.spacing, dtype=float)
            if spacing.ndim != 1 or np.any(spacing <= 0):
                raise ValueError("spacing must be a 1-d array of positive widths")
            object.__setattr__(self, "spacing", spacing)
            object.__setattr__(self, "cells", spacing.size)
            object.__setattr__(self, "edge_length", float(spacing.sum()))
        if not isinstance(self.N, (int, np.integer)) or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N!r}")
        for name in ("t_end", "edge_length", "epsilon"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not isinstance(self.cells, (int, np.integer)) or self.cells < 10:
            raise ValueError(f"cells must be an integer >= 10, got {self.cells!r}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.n_edges < 2:
            raise ValueError(f"need at least 2 edges, got {self.n_edges}")

    def topology(self) -> NodeTopology:
        if self.beta is None:
            return NodeTopology.symmetric(self.n_edges)
        return NodeTopology(self.n_edges, self.beta)

    def cell_widths(self) -> np.ndarray:
        if self.spacing is not None:
            return self.spacing
        return np.full(self.cells, self.edge_length / self.cells)


@dataclass(frozen=True)
class InitialData:
    """Piecewise-constant initial moments (rho0, q0, S0) per edge."""

    rho0: np.ndarray
    q0: np.ndarray
    S0: np.ndarray

    def __post_init__(self):
        arrays = tuple(np.atleast_1d(np.asarray(v, dtype=float))
                       for v in (self.rho0, self.q0, self.S0))
        if len({a.shape for a in arrays}) != 1:
            raise ValueError("rho0, q0, S0 must have matching lengths")
        for name, arr in zip(("rho0", "q0", "S0"), arrays):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr}")
            object.__setattr__(self, name, arr)

    @classmethod
    def preset(cls, case: int, delta1: float, delta2: float) -> "InitialData":
        """Three-edge test cases 1-4 parameterized by the coupling coefficients.

        All cases use rho0 = (1, 1-rb, 1+rb), q0 = (0, qb, -qb) and
        S0 = (1, 1-Sb, 1+Sb):

        1. qb=1, Sb=delta1, rb=delta2           kinetic layer only
        2. qb=1, Sb=delta1, rb=2 delta2         merged kinetic and viscous layer, no wave
        3. qb=1, Sb=2 delta1, rb chosen so the viscous layer vanishes
        4. qb=1, Sb=2 delta1, rb=delta2 q_inf    waves plus merged layers
        """
        a = ACOUSTIC_SPEED
        qb = 1.0
        if case == 1:
            sb, rb = delta1, delta2
        elif case == 2:
            sb, rb = delta1, 2.0 * delta2
        elif case == 3:
            q_inf = (2.0 * delta1 + a) / (delta1 + a)
            sb = 2.0 * delta1
            rb = q_inf * (delta2 - delta1 / 3.0) + 2.0 * delta1 / 3.0
        elif case == 4:
            q_inf = (2.0 * delta1 + a) / (delta1 + a)
            sb = 2.0 * delta1
            rb = delta2 * q_inf
        else:
            raise ValueError(f"test case must be 1..4, got {case}")
        return cls(rho0=np.array([1.0, 1.0 - rb, 1.0 + rb]),
                   q0=np.array([0.0, qb, -qb]),
                   S0=np.array([1.0, 1.0 - sb, 1.0 + sb]))

    @property
    def n_edges(self) -> int:
        return self.rho0.size


@dataclass
class NetworkState:
    """Mutable solver state plus the velocity-space operators :func:`initialize` sets."""

    config: NetworkConfig
    data: InitialData
    rule: QuadratureRule
    f: np.ndarray               # (n_edges, cells, 2N) view of a velocity-major buffer
    x: np.ndarray               # cell centers
    dx: np.ndarray              # cell widths
    speeds: np.ndarray          # physical velocities sqrt(2) v_i
    moment_rows: np.ndarray     # H_0..H_2 at the nodes: f @ moment_rows.T = (g0, g1, g2)
    maxwell_rows: np.ndarray    # (g0, g1, g2) @ maxwell_rows is the discrete Maxwellian
    relax: np.ndarray           # moment_rows.T @ maxwell_rows: f @ relax is f's Maxwellian
    beta: np.ndarray            # node coupling matrix
    outer_ghost: np.ndarray     # initial Maxwellians at x = b, negative velocities
    work: np.ndarray            # (n_edges, N, cells) upwind scratch
    time: float = 0.0
    mass_inflow: float = 0.0    # time-integrated net boundary mass flux
    mass_initial: float = 0.0
    step_operators: tuple | None = None     # per-dt cache (dt, upwind scale, K^T)

    def max_speed(self) -> float:
        return float(np.abs(self.speeds).max())

    def stable_dt(self) -> float:
        return self.config.cfl * float(self.dx.min()) / self.max_speed()

    def macro_moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-edge, per-cell (rho, q, S) profiles."""
        g = self.f @ self.moment_rows.T
        rho = np.sqrt(2.0) * g[..., 0]
        q = np.sqrt(2.0) * g[..., 1]
        S = 2.0 * g[..., 2] + rho
        return rho, q, S


def _maxwellian_rows(rule: QuadratureRule) -> np.ndarray:
    """(g0, g1, g2) @ rows is the discrete Maxwellian M_i = w_i e^{v_i^2} sum_{k<3} H_k(v_i) g_k;
    by discrete orthogonality its moments are (g0, g1, g2, 0, ..., 0)."""
    return rule.basis[:3] * rule.scaled_weights


def _edge_maxwellians(data: InitialData, rows: np.ndarray) -> np.ndarray:
    g0 = data.rho0 / np.sqrt(2.0)
    g1 = data.q0 / np.sqrt(2.0)
    g2 = (data.S0 - data.rho0) / 2.0
    return np.outer(g0, rows[0]) + np.outer(g1, rows[1]) + np.outer(g2, rows[2])


def initialize(config: NetworkConfig, data: InitialData) -> NetworkState:
    """Fill every cell with the Maxwellian of its edge's initial moments."""
    if data.n_edges != config.n_edges:
        raise ValueError(f"initial data has {data.n_edges} edges, config {config.n_edges}")
    rule = build_rule(config.N)
    dx = config.cell_widths()
    x = np.cumsum(dx) - dx / 2.0
    moment_rows = rule.basis[:3].copy()
    maxwell_rows = _maxwellian_rows(rule)
    maxw = _edge_maxwellians(data, maxwell_rows)
    buffer = np.repeat(maxw[:, :, None], config.cells, axis=2)
    state = NetworkState(
        config=config, data=data, rule=rule,
        f=buffer.transpose(0, 2, 1), x=x, dx=dx,
        speeds=np.sqrt(2.0) * rule.nodes,
        moment_rows=moment_rows,
        maxwell_rows=maxwell_rows,
        relax=moment_rows.T @ maxwell_rows,
        beta=config.topology().beta_matrix(),
        outer_ghost=maxw[:, :rule.half],
        work=np.empty((config.n_edges, rule.half, config.cells)),
    )
    state.mass_initial = total_mass(state)
    return state


def apply_node_coupling(state: NetworkState) -> np.ndarray:
    """Ghost values at x = 0 for the positive velocities, (n_edges, N).

    Entry [i, k] feeds velocity v_{N+1+k} of edge i with
    sum_j beta_ij f^j(0, -v_{N+1+k}).
    """
    N = state.rule.half
    mirrored = state.f[:, 0, :N][:, ::-1]
    return state.beta @ mirrored


def _step_operators(state: NetworkState, dt: float) -> tuple:
    """Upwind scale speed*dt/dx, (2N, cells), and the transposed relaxation
    operator K = (I + r relax) / (1 + r) with r = dt/epsilon.

    Collisions conserve g0, g1, g2 and ``relax`` reproduces them, so the
    post-transport Maxwellian is also the post-relaxation one and the exact
    implicit update f <- (f + r f relax) / (1 + r) is the single product f K.
    """
    if state.step_operators is None or state.step_operators[0] != dt:
        scale = state.speeds[:, None] * (dt / state.dx)
        r = dt / state.config.epsilon
        relax_t = (np.eye(state.relax.shape[0]) + r * state.relax.T) / (1.0 + r)
        state.step_operators = (dt, scale, relax_t)
    return state.step_operators[1:]


def step(state: NetworkState, dt: float) -> NetworkState:
    """One upwind transport step plus the exact implicit relaxation update."""
    if dt > state.stable_dt() * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3e} violates the CFL bound {state.stable_dt():.3e}")
    N = state.rule.half
    f = state.f
    cp = state.speeds[N:]
    cm = state.speeds[:N]
    ghost_node = apply_node_coupling(state)
    ghost_outer = state.outer_ghost

    # accumulated mass flux through both boundaries (positive in +x direction)
    h0 = state.moment_rows[0]
    sqrt2 = np.sqrt(2.0)
    flux_node = sqrt2 * (ghost_node @ (h0[N:] * cp) + f[:, 0, :N] @ (h0[:N] * cm))
    flux_outer = sqrt2 * (f[:, -1, N:] @ (h0[N:] * cp) + ghost_outer @ (h0[:N] * cm))
    state.mass_inflow += dt * float(np.sum(flux_node - flux_outer))

    # upwind transport along the contiguous cell axis of the velocity-major buffer
    scale, relax_t = _step_operators(state, dt)
    fv = f.transpose(0, 2, 1)
    work = state.work
    pos = fv[:, N:]
    np.subtract(pos[:, :, 1:], pos[:, :, :-1], out=work[:, :, 1:])
    np.subtract(pos[:, :, 0], ghost_node, out=work[:, :, 0])
    np.multiply(work, scale[N:], out=work)
    np.subtract(pos, work, out=pos)
    neg = fv[:, :N]
    np.subtract(neg[:, :, 1:], neg[:, :, :-1], out=work[:, :, :-1])
    np.subtract(ghost_outer, neg[:, :, -1], out=work[:, :, -1])
    np.multiply(work, scale[:N], out=work)
    np.subtract(neg, work, out=neg)

    # exact implicit relaxation in one pass: f <- f K
    np.matmul(relax_t, fv, out=fv)
    state.time += dt
    return state


def total_mass(state: NetworkState) -> float:
    """Discrete mass integral sum_edges sum_cells dx rho."""
    rho = np.sqrt(2.0) * (state.f @ state.moment_rows[0])
    return float(np.sum(state.dx[None, :] * rho))


def conservation_residual(state: NetworkState) -> float:
    """Mass balance violation including the boundary-flux bookkeeping."""
    return abs(total_mass(state) - state.mass_initial - state.mass_inflow)


@dataclass
class KineticResult:
    """Recorded profiles at the requested output times plus node distributions."""

    x: np.ndarray
    times: np.ndarray
    rho: np.ndarray             # (n_times, n_edges, cells)
    q: np.ndarray
    S: np.ndarray
    f_node: np.ndarray          # (n_edges, 2N) first-cell distributions at t_end
    velocities: np.ndarray      # physical velocities sqrt(2) v_i
    mass_residual: float
    state: NetworkState


def run(config: NetworkConfig, data: InitialData,
        output_times: tuple[float, ...] | None = None) -> KineticResult:
    """Advance to t_end with a fixed CFL time step, recording profile snapshots."""
    state = initialize(config, data)
    t_end = config.t_end
    steps = max(1, int(np.ceil(t_end / state.stable_dt() - 1e-12)))
    dt = t_end / steps
    targets = sorted(set(output_times or ()) | {t_end})
    for t in targets:
        if not 0.0 < t <= t_end:
            raise ValueError(f"output times must lie in (0, t_end], got {t}")
    snaps = {"t": [], "rho": [], "q": [], "S": []}
    next_target = 0
    for k in range(1, steps + 1):
        step(state, dt)
        while next_target < len(targets) and state.time >= targets[next_target] - dt / 2:
            rho, q, S = state.macro_moments()
            snaps["t"].append(state.time)
            snaps["rho"].append(rho)
            snaps["q"].append(q)
            snaps["S"].append(S)
            next_target += 1
    return KineticResult(
        x=state.x,
        times=np.asarray(snaps["t"]),
        rho=np.asarray(snaps["rho"]),
        q=np.asarray(snaps["q"]),
        S=np.asarray(snaps["S"]),
        f_node=state.f[:, 0, :].copy(),
        velocities=state.speeds.copy(),
        mass_residual=conservation_residual(state),
        state=state,
    )
