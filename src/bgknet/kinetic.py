"""Discrete-velocity BGK reference solver on a star network.

Each edge carries the DVM distribution f_i(x, t), i = 1..2N, advected with the
physical speeds sqrt(2) v_i (Gauss-Hermite node times sqrt(2), the scaling that
makes the moment hierarchy close on the acoustic system with a^2 = 3) and
relaxed toward the discrete linearized Maxwellian. The scheme is first-order
upwind in space with an exact implicit relaxation update, which keeps the time
step independent of the stiffness parameter epsilon (asymptotic preserving).
Edges exchange ghost values at the node through the reflection coupling before
every transport step.

:func:`run` steps a graded mesh on two time levels (conservative local time
stepping, Osher and Sanders, Math. Comp. 41, 1983): the cells next to the node
take k substeps of the fine step while the wide cells take one step k times as
long, so every cell moves at no more than its own CFL number.

The distribution is stored velocity-major, one C-contiguous (edges, 2N, cells)
buffer, so the upwind differences run along contiguous cells; ``state.f`` is
the (edges, cells, 2N) transposed view of that buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
            if spacing.ndim != 1 or not np.all(np.isfinite(spacing) & (spacing > 0)):
                raise ValueError("spacing must be a 1-d array of finite positive widths")
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
        if not isinstance(self.n_edges, (int, np.integer)) or self.n_edges < 2:
            raise ValueError(f"n_edges must be an integer >= 2, got {self.n_edges!r}")

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
    work: np.ndarray            # flat scratch: the transported cells of one range
    time: float = 0.0
    mass_inflow: float = 0.0    # time-integrated net boundary mass flux
    mass_initial: float = 0.0
    step_operators: dict = field(default_factory=dict)  # (dt, start, stop) -> (scale, K^T)

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
        work=np.empty(buffer.size),
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


def _step_operators(state: NetworkState, dt: float, start: int, stop: int) -> tuple:
    """Upwind scale speed*dt/dx over cells start:stop, (2N, stop - start), and
    the transposed relaxation operator K = (I + r relax) / (1 + r) with
    r = dt/epsilon, cached for at most two cell ranges: one per time level.

    Collisions conserve g0, g1, g2 and ``relax`` reproduces them, so the
    post-transport Maxwellian is also the post-relaxation one and the exact
    implicit update f <- (f + r f relax) / (1 + r) is the single product f K.
    """
    cache = state.step_operators
    key = (dt, start, stop)
    if key not in cache:
        if len(cache) > 1:
            cache.clear()
        scale = state.speeds[:, None] * (dt / state.dx[start:stop])
        r = dt / state.config.epsilon
        relax_t = (np.eye(state.relax.shape[0]) + r * state.relax.T) / (1.0 + r)
        cache[key] = (scale, relax_t)
    return cache[key]


def _face_flux(state: NetworkState, positive: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Per-edge mass flux in the +x direction through one cell face, from the
    (n_edges, N) values of the positive and of the negative velocities there."""
    N = state.rule.half
    h0 = state.moment_rows[0]
    return np.sqrt(2.0) * (positive @ (h0[N:] * state.speeds[N:])
                           + negative @ (h0[:N] * state.speeds[:N]))


def _advance(state: NetworkState, start: int, stop: int, dt: float,
             ghost_left: np.ndarray, ghost_right: np.ndarray) -> None:
    """Upwind transport over dt plus the exact implicit relaxation, in place, on
    cells start:stop: ghost_left feeds their positive velocities at the left
    end, ghost_right their negative ones at the right end."""
    N = state.rule.half
    fv = state.f.transpose(0, 2, 1)[:, :, start:stop]
    scale, relax_t = _step_operators(state, dt, start, stop)
    moved = state.work[:fv.size].reshape(fv.shape)

    # upwind transport along the contiguous cell axis into the contiguous
    # scratch: numpy's in-place loops over a cell-range view run slower
    pos, new = fv[:, N:], moved[:, N:]
    np.subtract(pos[:, :, 1:], pos[:, :, :-1], out=new[:, :, 1:])
    np.subtract(pos[:, :, 0], ghost_left, out=new[:, :, 0])
    np.multiply(new, scale[N:], out=new)
    np.subtract(pos, new, out=new)
    neg, new = fv[:, :N], moved[:, :N]
    np.subtract(neg[:, :, 1:], neg[:, :, :-1], out=new[:, :, :-1])
    np.subtract(ghost_right, neg[:, :, -1], out=new[:, :, -1])
    np.multiply(new, scale[:N], out=new)
    np.subtract(neg, new, out=new)

    # exact implicit relaxation back into the buffer in one pass: f <- f K
    np.matmul(relax_t, moved, out=fv)


def step(state: NetworkState, dt: float) -> NetworkState:
    """One upwind transport step plus the exact implicit relaxation update."""
    if dt > state.stable_dt() * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3e} violates the CFL bound {state.stable_dt():.3e}")
    N = state.rule.half
    f = state.f
    ghost_node = apply_node_coupling(state)
    # accumulated mass flux through both boundaries (positive in +x direction)
    flux = (_face_flux(state, ghost_node, f[:, 0, :N])
            - _face_flux(state, f[:, -1, N:], state.outer_ghost))
    state.mass_inflow += dt * float(flux.sum())
    _advance(state, 0, state.dx.size, dt, ghost_node, state.outer_ghost)
    state.time += dt
    return state


def _time_levels(dx: np.ndarray) -> tuple[int, int]:
    """Ratio k of the coarse to the fine time step and the number of fine cells.

    k is the largest power of two with k dx_min <= dx_max, and the fine cells
    run up to the last one narrower than k dx_min, so every coarse cell keeps
    its CFL number at k times the fine step. A uniform mesh, or one whose fine
    cells would cover the edge, gets k = 1 and no fine cells.
    """
    dx_min = dx.min()
    k = 1
    while 2 * k * dx_min <= dx.max():
        k *= 2
    narrow = np.flatnonzero(dx < k * dx_min)
    if narrow.size == 0 or narrow[-1] == dx.size - 1:
        return 1, 0
    return k, int(narrow[-1]) + 1


def _two_level_step(state: NetworkState, k: int, fine: int, dt: float) -> None:
    """k steps of dt on the fine cells, then one step of k dt on the coarse cells.

    The fine cells see the first coarse cell's negative velocities as they were
    at the start; the coarse cells see the mean of the last fine cell's positive
    velocities over the k substeps. Both sides of the interface therefore move
    the same mass across it, and only the node and the outer flux are booked.
    """
    N = state.rule.half
    f = state.f
    ghost_right = f[:, fine, :N].copy()
    interface = np.zeros_like(ghost_right)
    for _ in range(k):
        interface += f[:, fine - 1, N:]
        ghost_node = apply_node_coupling(state)
        state.mass_inflow += dt * float(_face_flux(state, ghost_node, f[:, 0, :N]).sum())
        _advance(state, 0, fine, dt, ghost_node, ghost_right)
    interface /= k
    outflow = _face_flux(state, f[:, -1, N:], state.outer_ghost)
    state.mass_inflow -= k * dt * float(outflow.sum())
    _advance(state, fine, state.dx.size, k * dt, interface, state.outer_ghost)
    state.time += k * dt


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
    """Advance to t_end, recording profile snapshots at coarse-step boundaries.

    A uniform mesh takes fixed global CFL steps. On a graded mesh the narrow
    cells next to the node take k substeps for each step of the wide cells,
    k the largest power of two with k dx_min <= dx_max, so every cell keeps
    its own CFL number.
    """
    state = initialize(config, data)
    t_end = config.t_end
    k, fine = _time_levels(state.dx)
    steps = max(1, int(np.ceil(t_end / (k * state.stable_dt()) - 1e-12)))
    dt = t_end / (k * steps)
    targets = sorted(set(output_times or ()) | {t_end})
    for t in targets:
        if not 0.0 < t <= t_end:
            raise ValueError(f"output times must lie in (0, t_end], got {t}")
    snaps = {"t": [], "rho": [], "q": [], "S": []}
    next_target = 0
    for _ in range(steps):
        if k == 1:
            step(state, dt)
        else:
            _two_level_step(state, k, fine, dt)
        while next_target < len(targets) and state.time >= targets[next_target] - k * dt / 2:
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
