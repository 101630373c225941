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

The distribution is stored velocity-outer in one C-contiguous, ghost-padded
(2N, edges, cells + 2) buffer. Column 0 of the positive-velocity rows holds the
node ghosts and column cells + 1 of the negative-velocity rows the outer ghosts,
so each velocity sign's upwind difference is one subtract of two shifted views.
A step over the whole edge takes those views as 1-d slices of the flattened
buffer, one element apart, which numpy runs without iterator buffers; the
lanes between rows then hold junk that lands only in the scratch's ghost lanes.
A step over part of the edge takes them as 2-d (velocity x edge, cell) views.
``state.f`` is the (edges, cells, 2N) view of the buffer's cells.
"""

from __future__ import annotations

import math
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
    "step",
    "run",
    "total_mass",
    "conservation_residual",
]


def graded_spacing(dx_min: float, dx_max: float, fine_width: float, length: float,
                   ratio: float = 1.1) -> np.ndarray:
    """Cell widths: dx_min out to fine_width, geometric growth to dx_max, then uniform.

    A non-finite or out-of-range argument raises a ValueError that names it.
    """
    rules = {"dx_min": (dx_min, dx_min > 0, "positive"),
             "dx_max": (dx_max, dx_max > 0, "positive"),
             "length": (length, length > 0, "positive"),
             "fine_width": (fine_width, fine_width >= 0, ">= 0"),
             "ratio": (ratio, ratio > 1, "> 1")}
    for name, (value, ok, rule) in rules.items():
        if not (math.isfinite(value) and ok):
            raise ValueError(f"{name} must be finite and {rule}, got {value}")
    if dx_min > dx_max:
        raise ValueError(f"dx_min must be <= dx_max, got {dx_min} > {dx_max}")
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

    def cell_centres(self) -> np.ndarray:
        """Midpoints of the cells, the x of every kinetic and composite profile."""
        dx = self.cell_widths()
        return np.cumsum(dx) - dx / 2.0


@dataclass(frozen=True)
class InitialData:
    """Piecewise-constant initial moments (rho0, q0, S0) per edge."""

    rho0: np.ndarray
    q0: np.ndarray
    S0: np.ndarray

    def __post_init__(self):
        names = ("rho0", "q0", "S0")
        arrays = tuple(np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
                       for name in names)
        for name, arr in zip(names, arrays):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-d, one value per edge, got shape {arr.shape}")
        if len({a.shape for a in arrays}) != 1:
            raise ValueError("rho0, q0, S0 must have matching lengths")
        for name, arr in zip(names, arrays):
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
    f: np.ndarray               # (n_edges, cells, 2N) view of the buffer's cells
    buffer: np.ndarray          # (2N, n_edges, cells + 2) ghost-padded distribution
    x: np.ndarray               # cell centers
    dx: np.ndarray              # cell widths
    speeds: np.ndarray          # physical velocities sqrt(2) v_i
    moment_rows: np.ndarray     # H_0..H_2 at the nodes: f @ moment_rows.T = (g0, g1, g2)
    maxwell_rows: np.ndarray    # (g0, g1, g2) @ maxwell_rows is the discrete Maxwellian
    beta: np.ndarray            # node coupling matrix
    outer_ghost: np.ndarray     # initial Maxwellians at x = b, negative velocities
    outer_ghost_flux: np.ndarray  # outer_ghost @ (H_0 c) over v < 0, per edge
    outflow_weights: np.ndarray   # H_0 c over v > 0: f at x = b @ weights is the outflux
    cfl_dt: float               # cfl * min(dx) / max|speed|: the largest stable step
    time: float = 0.0
    mass_inflow: float = 0.0    # time-integrated net mass flux through the outer ends
    mass_initial: float = 0.0
    step_plans: dict = field(default_factory=dict)  # (dt, start, stop) -> _StepPlan

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


def _cells_view(buffer: np.ndarray) -> np.ndarray:
    """The (edges, cells, 2N) view of a padded buffer's cells: ``state.f``."""
    return buffer[:, :, 1:-1].transpose(1, 2, 0)


def _padded(f: np.ndarray, outer_ghost: np.ndarray) -> np.ndarray:
    """A fresh C-contiguous (2N, edges, cells + 2) buffer holding the cells of
    f, shape (edges, cells, 2N), and the outer ghosts of the negative
    velocities in its last column."""
    edges, cells, velocities = f.shape
    buffer = np.zeros((velocities, edges, cells + 2))
    buffer[:, :, 1:-1] = f.transpose(2, 0, 1)
    buffer[:velocities // 2, :, -1] = outer_ghost.T
    return buffer


def initialize(config: NetworkConfig, data: InitialData) -> NetworkState:
    """Fill every cell with the Maxwellian of its edge's initial moments."""
    if data.n_edges != config.n_edges:
        raise ValueError(f"initial data has {data.n_edges} edges, config {config.n_edges}")
    rule = build_rule(config.N)
    dx = config.cell_widths()
    N = rule.half
    moment_rows = rule.basis[:3].copy()
    maxwell_rows = _maxwellian_rows(rule)
    maxw = _edge_maxwellians(data, maxwell_rows)
    speeds = np.sqrt(2.0) * rule.nodes
    outer_ghost = maxw[:, :N]
    buffer = _padded(np.broadcast_to(maxw[:, None, :], (config.n_edges, config.cells, 2 * N)),
                     outer_ghost)
    state = NetworkState(
        config=config, data=data, rule=rule,
        f=_cells_view(buffer), buffer=buffer, x=config.cell_centres(), dx=dx,
        speeds=speeds,
        moment_rows=moment_rows,
        maxwell_rows=maxwell_rows,
        beta=config.topology().beta_matrix(),
        outer_ghost=outer_ghost,
        outer_ghost_flux=outer_ghost @ (moment_rows[0, :N] * speeds[:N]),
        outflow_weights=moment_rows[0, N:] * speeds[N:],
        cfl_dt=config.cfl * float(dx.min()) / float(np.abs(speeds).max()),
    )
    state.mass_initial = total_mass(state)
    return state


@dataclass(frozen=True)
class _StepPlan:
    """Everything one kernel call with step dt on cells start:stop reads and
    writes, built once per time level.

    ``positive`` and ``negative`` hold, for each velocity sign, the views
    (old, upwind, new): the sign's cells of the padded buffer, the same cells
    shifted one column upwind and the plan's scratch of that sign. ``both``
    holds (old, new, scale) over both signs, with the upwind scale
    speed*dt/dx. The positive velocities' upwind column of the first cell is
    the node ghost; the negative velocities' one of the last cell is the outer
    ghost, or the first coarse cell, which the fine substeps do not change.

    A plan over the whole edge takes every view as a 1-d slice of the
    flattened buffer and of a scratch and a scale of the buffer's padded
    shape: each sign's upwind neighbour is the next element in memory, so the
    ghost lanes between rows are read too, and their results land only in the
    scratch's ghost lanes, where the scale is zero and ``moved`` never looks.
    A plan over part of the edge takes 2-d views of its cell range and a
    contiguous scratch and scale of the range's shape.

    ``relax_t`` is the transposed relaxation operator
    K = (I + r relax) / (1 + r) with r = dt/epsilon and
    relax = moment_rows.T @ maxwell_rows, so f @ relax is f's Maxwellian.
    Collisions conserve g0, g1, g2 and ``relax`` reproduces them, so the
    post-transport Maxwellian is also the post-relaxation one and the exact
    implicit update f <- (f + r f relax) / (1 + r) is the single product f K.
    Where r or that formula overflows, K is its limit relax.T, the projection
    onto the Maxwellian.
    """

    f: np.ndarray               # the state.f the views were taken from
    cells: np.ndarray           # (edges, 2N, stop - start) view of the buffer
    moved: np.ndarray           # the same view of the plan's scratch
    positive: tuple
    negative: tuple
    both: tuple
    relax_t: np.ndarray
    mirrored: np.ndarray        # f[:, 0, :N][:, ::-1], what the node reflects
    node_ghost: np.ndarray      # (edges, N) view of the buffer's node ghosts


def _padded_buffer(state: NetworkState) -> np.ndarray:
    """The padded buffer whose cells ``state.f`` views. A rebound ``state.f``
    is first copied into a fresh buffer, and ``state.f`` is rebound to its view."""
    view = _cells_view(state.buffer)
    if (isinstance(state.f, np.ndarray)
            and state.f.__array_interface__ == view.__array_interface__):
        return state.buffer
    if np.shape(state.f) != view.shape:
        raise ValueError(f"f must have shape {view.shape} (edges, cells, 2N), "
                         f"got {np.shape(state.f)}")
    state.buffer = _padded(np.asarray(state.f), state.outer_ghost)
    state.f = _cells_view(state.buffer)
    state.step_plans.clear()
    return state.buffer


def _relaxation(state: NetworkState, dt: float) -> np.ndarray:
    """The transposed exact relaxation operator K of a step dt (see _StepPlan)."""
    relax = state.moment_rows.T @ state.maxwell_rows
    r = float(dt) / float(state.config.epsilon)
    with np.errstate(over="ignore", invalid="ignore"):
        relax_t = (np.eye(relax.shape[0]) + r * relax.T) / (1.0 + r)
    if np.all(np.isfinite(relax_t)):
        return relax_t
    return relax.T.copy()


def _step_plan(state: NetworkState, dt: float, start: int, stop: int) -> _StepPlan:
    """The cached plan of a step dt on cells start:stop; the cache holds at most
    two, one per time level."""
    cache = state.step_plans
    key = (dt, start, stop)
    plan = cache.get(key)
    if plan is not None and plan.f is state.f:
        return plan
    if len(cache) > 1:
        cache.clear()
    buffer = _padded_buffer(state)
    N = state.rule.half
    width = stop - start
    cells = buffer[:, :, start + 1:stop + 1]
    whole = width == state.dx.size
    # the scratch and the scale span the padded rows of a whole-edge plan and
    # the range's cells otherwise; the scale is zero in the ghost lanes
    lanes = slice(1, width + 1) if whole else slice(0, width)
    scratch = np.zeros(buffer.shape if whole else cells.shape)
    scale = np.zeros(scratch.shape)
    scale[:, :, lanes] = (state.speeds[:, None] * (dt / state.dx[start:stop]))[:, None]
    moved = scratch[:, :, lanes]
    if whole:
        flat, out = buffer.reshape(-1), scratch.reshape(-1)
        h = flat.size // 2
        positive = (flat[h + 1:-1], flat[h:-2], out[h + 1:-1])
        negative = (flat[1:h - 1], flat[2:h], out[1:h - 1])
        both = (flat[1:-1], out[1:-1], scale.reshape(-1)[1:-1])
    else:
        positive = (cells[N:], buffer[N:, :, start:stop], moved[N:])
        negative = (cells[:N], buffer[:N, :, start + 2:stop + 2], moved[:N])
        both = (cells, moved, scale)
    plan = cache[key] = _StepPlan(
        f=state.f, cells=cells.transpose(1, 0, 2), moved=moved.transpose(1, 0, 2),
        positive=positive, negative=negative, both=both, relax_t=_relaxation(state, dt),
        mirrored=buffer[:N, :, 1][::-1].T, node_ghost=buffer[N:, :, 0].T)
    return plan


def _node_ghost(beta: np.ndarray, plan: _StepPlan) -> np.ndarray:
    """Ghost values at x = 0 for the positive velocities, (n_edges, N), written
    into the buffer's column 0: entry [i, k] feeds velocity v_{N+1+k} of edge i
    with sum_j beta_ij f^j(0, -v_{N+1+k})."""
    return np.matmul(beta, plan.mirrored, out=plan.node_ghost)


def _advance(plan: _StepPlan, ghost_left: np.ndarray | None = None) -> None:
    """Upwind transport over the plan's dt plus the exact implicit relaxation, in
    place, on the plan's cells. Each sign's upwind values are the buffer's
    neighbouring columns; ghost_left, (edges, N), replaces the positive
    velocities' one of the first cell."""
    # upwind transport into the scratch: new = old - scale (old - up)
    old, upwind, new = plan.positive
    np.subtract(old, upwind, out=new)
    if ghost_left is not None:
        N = ghost_left.shape[1]
        np.subtract(plan.cells[:, N:, 0], ghost_left, out=plan.moved[:, N:, 0])
    old, upwind, new = plan.negative
    np.subtract(upwind, old, out=new)
    old, new, scale = plan.both
    np.multiply(new, scale, out=new)
    np.subtract(old, new, out=new)

    # exact implicit relaxation back into the buffer in one pass: f <- f K
    np.matmul(plan.relax_t, plan.moved, out=plan.cells)


def _book_outflow(state: NetworkState, dt: float) -> None:
    """Book the net mass flux out through the outer ends over dt.

    The node books nothing: for a column-stochastic beta the reflected ghosts
    carry back exactly the mass the node cells send in, so a node that leaks
    shows up in :func:`conservation_residual`.
    """
    N = state.rule.half
    outflow = np.sqrt(2.0) * (state.f[:, -1, N:] @ state.outflow_weights
                              + state.outer_ghost_flux)
    state.mass_inflow -= dt * float(outflow.sum())


def step(state: NetworkState, dt: float) -> NetworkState:
    """One upwind transport step plus the exact implicit relaxation update."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if dt > state.cfl_dt * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:.3e} violates the CFL bound {state.cfl_dt:.3e}")
    plan = _step_plan(state, dt, 0, state.dx.size)
    _book_outflow(state, dt)
    _node_ghost(state.beta, plan)
    _advance(plan)
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

    The fine cells see the first coarse cell's negative velocities, which do
    not change before the coarse step; the coarse cells see the mean of the
    last fine cell's positive velocities over the k substeps. Both sides of the
    interface therefore move the same mass across it, and only the outer flux
    is booked.
    """
    fine_plan = _step_plan(state, dt, 0, fine)
    coarse_plan = _step_plan(state, k * dt, fine, state.dx.size)
    last_fine = fine_plan.cells[:, state.rule.half:, -1]
    interface = np.zeros(last_fine.shape)
    for _ in range(k):
        interface += last_fine
        _node_ghost(state.beta, fine_plan)
        _advance(fine_plan)
    interface /= k
    _book_outflow(state, k * dt)
    _advance(coarse_plan, interface)
    state.time += k * dt


def total_mass(state: NetworkState) -> float:
    """Discrete mass integral sum_edges sum_cells dx rho."""
    rho = np.sqrt(2.0) * (state.f @ state.moment_rows[0])
    return float(np.sum(state.dx[None, :] * rho))


def conservation_residual(state: NetworkState) -> float:
    """Mass balance violation: the change of total mass less the mass booked
    through the outer ends. Only the outer boundary is booked, so mass the
    node gains or loses counts as a violation."""
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


def _snapshot_times(output_times, t_end: float) -> list[float]:
    """The requested output times, each in (0, t_end], and t_end, sorted."""
    try:
        times = np.asarray(() if output_times is None else output_times, dtype=float)
    except (TypeError, ValueError):
        times = None
    if times is None or times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError(f"output_times must be a 1-d sequence of finite times, "
                         f"got {output_times!r}")
    for t in times:
        if not 0.0 < t <= t_end:
            raise ValueError(f"output_times must lie in (0, t_end], got {t}")
    return sorted(set(times.tolist()) | {t_end})


def run(config: NetworkConfig, data: InitialData,
        output_times: tuple[float, ...] | None = None) -> KineticResult:
    """Advance to t_end, recording profile snapshots at coarse-step boundaries.

    A uniform mesh takes fixed global CFL steps. On a graded mesh the narrow
    cells next to the node take k substeps for each step of the wide cells,
    k the largest power of two with k dx_min <= dx_max, so every cell keeps
    its own CFL number.
    """
    t_end = config.t_end
    targets = _snapshot_times(output_times, t_end)
    state = initialize(config, data)
    k, fine = _time_levels(state.dx)
    steps = max(1, int(np.ceil(t_end / (k * state.cfl_dt) - 1e-12)))
    dt = t_end / (k * steps)
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
