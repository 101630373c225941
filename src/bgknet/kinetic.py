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
Every step takes those views as 1-d slices of a flattened padded buffer, one
element apart, which numpy runs without iterator buffers: the whole rows are
stepped with the upwind scale zero outside the step's cells, and what the
spans compute there and in the lanes between rows is never written back. The
coarse level steps the buffer itself and reads its inflow from the last fine
cell's column; the fine level steps a compact copy of its cells and their
ghosts, filled and emptied once per coarse step.
:func:`initialize` makes the buffer and ``state.buffer`` is read-only, so nothing
replaces it; ``state.f`` is a property that returns the (edges, cells, 2N) view
of its cells, and assigning to ``state.f`` writes into those cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupling import ACOUSTIC_SPEED, NodeTopology, _finite, _real_array
from .hermite import QuadratureRule, build_rule, check_half_order

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

    A non-number, non-finite or out-of-range argument raises a ValueError
    that names it.
    """
    rules = {"dx_min": (dx_min, lambda v: v > 0, "positive"),
             "dx_max": (dx_max, lambda v: v > 0, "positive"),
             "length": (length, lambda v: v > 0, "positive"),
             "fine_width": (fine_width, lambda v: v >= 0, ">= 0"),
             "ratio": (ratio, lambda v: v > 1, "> 1")}
    for name, (value, ok, rule) in rules.items():
        if not (_finite(name, value) and ok(value)):
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
        check_half_order(self.N)
        if self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N!r}")
        for name in ("t_end", "edge_length", "epsilon"):
            value = getattr(self, name)
            if not (_finite(name, value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not isinstance(self.cells, (int, np.integer)) or self.cells < 10:
            raise ValueError(f"cells must be an integer >= 10, got {self.cells!r}")
        if not (_finite("cfl", self.cfl) and 0 < self.cfl <= 1):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not isinstance(self.n_edges, (int, np.integer)) or self.n_edges < 2:
            raise ValueError(f"n_edges must be an integer >= 2, got {self.n_edges!r}")
        if self.beta is not None:
            object.__setattr__(self, "beta", NodeTopology(self.n_edges, self.beta).beta)

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
        arrays = tuple(np.atleast_1d(_real_array(name, getattr(self, name))) for name in names)
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
        if isinstance(case, bool) or not (isinstance(case, (int, np.integer)) and 1 <= case <= 4):
            raise ValueError(f"case must be an integer in 1..4, got {case!r}")
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
        else:
            q_inf = (2.0 * delta1 + a) / (delta1 + a)
            sb = 2.0 * delta1
            rb = delta2 * q_inf
        return cls(rho0=np.array([1.0, 1.0 - rb, 1.0 + rb]),
                   q0=np.array([0.0, qb, -qb]),
                   S0=np.array([1.0, 1.0 - sb, 1.0 + sb]))

    @property
    def n_edges(self) -> int:
        return self.rho0.size


@dataclass
class NetworkState:
    """Mutable solver state plus the velocity-space operators :func:`initialize` sets;
    ``buffer`` is the one home of the distribution, read-only because the cached step
    plans hold views of it, and ``f`` a property over its cells."""

    config: NetworkConfig
    rule: QuadratureRule
    _buffer: np.ndarray         # (2N, n_edges, cells + 2) ghost-padded distribution
    dx: np.ndarray              # cell widths
    speeds: np.ndarray          # physical velocities sqrt(2) v_i
    moment_rows: np.ndarray     # H_0..H_2 at the nodes: f @ moment_rows.T = (g0, g1, g2)
    maxwell_rows: np.ndarray    # (g0, g1, g2) @ maxwell_rows is the discrete Maxwellian
    beta: np.ndarray            # node coupling matrix
    outer_ghost_flux: np.ndarray  # outer ghosts @ (H_0 c) over v < 0, per edge
    outflow_weights: np.ndarray   # H_0 c over v > 0: f at x = b @ weights is the outflux
    cfl_dt: float               # cfl * min(dx) / max|speed|: the largest stable step
    time: float = 0.0
    mass_inflow: float = 0.0    # time-integrated net mass flux through the outer ends
    mass_initial: float = 0.0
    step_plans: dict = field(default_factory=dict)  # (dt, start, stop) -> _StepPlan

    @property
    def buffer(self) -> np.ndarray:
        """The (2N, n_edges, cells + 2) ghost-padded distribution."""
        return self._buffer

    @property
    def f(self) -> np.ndarray:
        """The (n_edges, cells, 2N) view of the buffer's cells."""
        return _cells_view(self.buffer)

    @f.setter
    def f(self, value: np.ndarray) -> None:
        cells = _cells_view(self.buffer)
        if np.shape(value) != cells.shape:
            raise ValueError(f"f must have shape {cells.shape} (edges, cells, 2N), "
                             f"got {np.shape(value)}")
        cells[...] = value

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
    buffer = np.zeros((2 * N, config.n_edges, config.cells + 2))
    buffer[:, :, 1:-1] = maxw.T[:, :, None]
    buffer[:N, :, -1] = outer_ghost.T
    state = NetworkState(
        config=config, rule=rule, _buffer=buffer, dx=dx,
        speeds=speeds,
        moment_rows=moment_rows,
        maxwell_rows=maxwell_rows,
        beta=config.topology().beta_matrix(),
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

    ``buffer`` is the padded buffer the plan steps: ``state.buffer`` for a
    range that ends at the outer end (a whole edge or the coarse level), and
    for the fine level, which ends short of it, a compact (2N, edges,
    stop + 2) buffer that :func:`_two_level_step` fills from the first stop + 2
    columns of ``state.buffer`` and copies back once per coarse step.

    ``positive`` and ``negative`` hold, for each velocity sign, the views
    (old, upwind, new): the sign's whole rows of the flattened buffer, the
    same rows shifted one element upwind and the plan's scratch of that sign.
    ``both`` holds (old, new, scale) over both signs, with the upwind scale
    speed*dt/dx on the plan's cells and zero elsewhere. The positive
    velocities' upwind column of the first cell is the node ghost, or for the
    coarse level the last fine cell's, which holds the interface inflow; the
    negative velocities' one of the last cell is the outer ghost, or for the
    fine level the first coarse cell, copied with the fine cells.

    Every view is a 1-d slice of the flattened buffer and of a scratch and a
    scale of its padded shape, which numpy runs without iterator buffers. The
    spans also read the ghost lanes between rows and the cells outside the
    plan's range; those results land only in scratch lanes that ``moved``
    never reads, so only the plan's cells are written back.

    ``relax_t`` is the transposed relaxation operator
    K = (I + r relax) / (1 + r) with r = dt/epsilon and
    relax = moment_rows.T @ maxwell_rows, so f @ relax is f's Maxwellian.
    Collisions conserve g0, g1, g2 and ``relax`` reproduces them, so the
    post-transport Maxwellian is also the post-relaxation one and the exact
    implicit update f <- (f + r f relax) / (1 + r) is the single product f K.
    Where r or that formula overflows, K is its limit relax.T, the projection
    onto the Maxwellian.
    """

    buffer: np.ndarray          # the padded buffer the plan steps
    cells: np.ndarray           # (edges, 2N, stop - start) view of its cells
    moved: np.ndarray           # the same view of the plan's scratch
    positive: tuple
    negative: tuple
    both: tuple
    relax_t: np.ndarray
    mirrored: np.ndarray        # f[:, 0, :N][:, ::-1], what the node reflects
    node_ghost: np.ndarray      # (edges, N) view of the buffer's node ghosts


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
    if plan is not None:
        return plan
    if len(cache) > 1:
        cache.clear()
    N = state.rule.half
    buffer = state.buffer
    if stop < state.dx.size:
        # the fine level steps a compact copy of the first stop + 2 columns
        buffer = np.zeros(buffer.shape[:2] + (stop + 2,))
    lanes = slice(start + 1, stop + 1)
    scratch = np.zeros(buffer.shape)
    scale = np.zeros(buffer.shape)
    scale[:, :, lanes] = (state.speeds[:, None] * (dt / state.dx[start:stop]))[:, None]
    flat, out = buffer.reshape(-1), scratch.reshape(-1)
    h = flat.size // 2
    plan = cache[key] = _StepPlan(
        buffer=buffer, cells=buffer[:, :, lanes].transpose(1, 0, 2),
        moved=scratch[:, :, lanes].transpose(1, 0, 2),
        positive=(flat[h + 1:-1], flat[h:-2], out[h + 1:-1]),
        negative=(flat[1:h - 1], flat[2:h], out[1:h - 1]),
        both=(flat[1:-1], out[1:-1], scale.reshape(-1)[1:-1]),
        relax_t=_relaxation(state, dt),
        mirrored=buffer[:N, :, 1][::-1].T, node_ghost=buffer[N:, :, 0].T)
    return plan


def _node_ghost(beta: np.ndarray, plan: _StepPlan) -> np.ndarray:
    """Ghost values at x = 0 for the positive velocities, (n_edges, N), written
    into the buffer's column 0: entry [i, k] feeds velocity v_{N+1+k} of edge i
    with sum_j beta_ij f^j(0, -v_{N+1+k})."""
    return np.matmul(beta, plan.mirrored, out=plan.node_ghost)


def _advance(plan: _StepPlan) -> None:
    """Upwind transport over the plan's dt plus the exact implicit relaxation, in
    place, on the plan's cells. Each sign's upwind values are the buffer's
    neighbouring columns, the inflows of the first and last cells included."""
    # upwind transport into the scratch: new = old - scale (old - up)
    old, upwind, new = plan.positive
    np.subtract(old, upwind, out=new)
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
    last_cell = state.buffer[N:, :, -2].T   # state.f[:, -1, N:], no full view per step
    outflow = np.sqrt(2.0) * (last_cell @ state.outflow_weights + state.outer_ghost_flux)
    state.mass_inflow -= dt * float(outflow.sum())


def step(state: NetworkState, dt: float) -> NetworkState:
    """One upwind transport step plus the exact implicit relaxation update."""
    if not (_finite("dt", dt) and dt > 0):
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

    The substeps run on the fine plan's compact buffer, filled from the first
    fine + 2 columns of ``state.buffer``: the node ghosts, the fine cells and
    the first coarse cell. The mean builds up in the last fine cell's column
    of ``state.buffer``, the coarse step's upwind column, and the node ghosts
    and fine cells are copied back over it after the coarse step.
    """
    fine_plan = _step_plan(state, dt, 0, fine)
    coarse_plan = _step_plan(state, k * dt, fine, state.dx.size)
    compact = fine_plan.buffer
    compact[...] = state.buffer[:, :, :fine + 2]
    last_fine = fine_plan.cells[:, state.rule.half:, -1]
    inflow = state.buffer[state.rule.half:, :, fine].T
    inflow[...] = 0.0
    for _ in range(k):
        inflow += last_fine
        _node_ghost(state.beta, fine_plan)
        _advance(fine_plan)
    inflow /= k
    _book_outflow(state, k * dt)
    _advance(coarse_plan)
    state.buffer[:, :, :fine + 1] = compact[:, :, :fine + 1]
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
    """Recorded profiles at the requested output times and the final state."""

    x: np.ndarray               # cell centres
    times: np.ndarray
    rho: np.ndarray             # (n_times, n_edges, cells)
    q: np.ndarray
    S: np.ndarray
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
        x=config.cell_centres(),
        times=np.asarray(snaps["t"]),
        rho=np.asarray(snaps["rho"]),
        q=np.asarray(snaps["q"]),
        S=np.asarray(snaps["S"]),
        mass_residual=conservation_residual(state),
        state=state,
    )
