"""The four benchmark workloads: their inputs, operations and output checks.

A workload builds its inputs from the seed (part of set-up). One round of it
is a list of sessions, each run in a fresh interpreter the way a user runs it:
one CLI command, through ``bgknet.cli.main`` with the console script's
arguments, or one script of library solves. One operation is one CLI command
or one library solve, and carries the check of its own output. Every check compares against a value
from the paper, a second solver, or a property the method must have
(conservation, residuals, O(eps) layer width); none compares against output
recorded from the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bgknet import cli, coupling, kinetic

A = coupling.ACOUSTIC_SPEED

#: delta_1, delta_2 at N = 99 as the paper tabulates them (n = 3 and n = infinity).
PAPER_DELTAS = {"3": (0.5298, 0.3458), "inf": (1.5826, 1.0079)}
DELTA_TOL = 5e-4
#: Case 1, edge 2: rho_inf and rho(0) as the paper reports them.
PAPER_CASE1_EDGE2 = (0.6542, 0.7245)
NODE_TOL = 1e-3

SWEEP_N = (5, 160)
#: Bound on |delta(160) - delta(159)|: the sweep must end converged.
SWEEP_LAST_INCREMENT = 1e-5
NODE_N = 1000
NODE_VPOINTS = 1201        # CLI default for the distribution CSVs
COMPARE_CASES = (1, 2, 3, 4)
#: ``bgknet compare`` defaults: the kinetic run and the coefficients' N.
COMPARE_KINETIC = {"edge_length": 0.3, "cells": 600, "N": 16, "epsilon": 5e-4,
                   "cfl": 0.9, "t_end": 0.1}
COMPARE_COEFF_N = 100
COMPARE_X = 0.05           # probe point of acceptance criterion 7
COMPARE_TOL = 1e-2
GRADED_EPS = (4e-4, 2e-4, 1e-4)
GRADED_T_END = 0.02
GRADED_SLOPE = (0.7, 1.3)  # log-log slope of layer width against eps: O(eps)
MASS_TOL = 1e-10
RESIDUAL_TOL = 1e-9
FLUX_TOL = 1e-10


@dataclass
class Operation:
    """One timed call and the untimed check of its output (a list of problems)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]


@dataclass
class Workload:
    """Seeded inputs and the sessions of one round, each a list of operations.

    ``sessions[k]()`` returns fresh operations for session k; ``taps`` names
    the wrapped functions whose last call the checks read.
    """

    taps: tuple
    sessions: list


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _cli_run(argv: list) -> int:
    """One CLI command; a non-zero exit status makes the operation fail."""
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bgknet {argv[0]} exited with status {code}")
    return code


def _within(label: str, value: float, target: float, tol: float) -> list:
    if abs(value - target) < tol:
        return []
    return [f"{label} = {value:.6g}, expected {target} within {tol:g}"]


def _below(label: str, value: float, tol: float) -> list:
    if value < tol:
        return []
    return [f"{label} = {value:.3e} not below {tol:g}"]


# --- sweep: many small operator builds and coefficient extractions ----------

def _check_deltas(out: Path, degree: str) -> list:
    problems = []
    rows = _read_csv(out / "deltas.csv")
    lo, hi = SWEEP_N
    if rows.shape != (hi - lo + 1, 5) or not np.array_equal(rows[:, 0], np.arange(lo, hi + 1)):
        return [f"deltas.csv has shape {rows.shape}, expected N = {lo}..{hi}"]
    if not np.all(np.isfinite(rows)):
        bad = rows[~np.all(np.isfinite(rows), axis=1), 0].astype(int)
        problems.append(f"non-finite entries in rows N = {bad.tolist()}")
    d1, d2 = rows[99 - lo, 1:3]
    t1, t2 = PAPER_DELTAS[degree]
    problems += _within(f"n={degree} delta1(99)", d1, t1, DELTA_TOL)
    problems += _within(f"n={degree} delta2(99)", d2, t2, DELTA_TOL)
    increment = np.max(np.abs(rows[-1, 1:3] - rows[-2, 1:3]))
    problems += _below(f"n={degree} last increment", increment, SWEEP_LAST_INCREMENT)
    return problems


def sweep(seed: int, workdir: Path) -> Workload:
    """``bgknet deltas`` for n = 3 and n = inf over N = 5..160 (seed: order)."""
    rng = np.random.default_rng(seed)
    degrees = [("3", "inf")[i] for i in rng.permutation(2)]
    span = f"{SWEEP_N[0]}:{SWEEP_N[1]}"
    argv = {n: ["deltas", "--n", n, "--N", span, "--out", str(workdir / f"deltas-{n}")]
            for n in degrees}

    def session(n):
        return [Operation(f"deltas n={n}", lambda: _cli_run(argv[n]),
                          lambda code, last: _check_deltas(workdir / f"deltas-{n}", n))]

    return Workload((), [lambda n=n: session(n) for n in degrees])


# --- node-1000: a few large factorizations and SVDs ---------------------------

def _check_node_cli(out: Path, last: dict) -> list:
    problems = []
    summary = _read_csv(out / "node_case1_summary.csv")
    if summary.shape != (3, 6) or not np.all(np.isfinite(summary)):
        return [f"node summary has shape {summary.shape} or non-finite entries"]
    problems += _within("edge 2 rho_inf", summary[1, 3], PAPER_CASE1_EDGE2[0], NODE_TOL)
    problems += _within("edge 2 rho(0)", summary[1, 4], PAPER_CASE1_EDGE2[1], NODE_TOL)
    for edge in (1, 2, 3):
        dist = _read_csv(out / f"node_case1_edge{edge}_distribution.csv")
        if dist.shape != (NODE_VPOINTS, 2) or not np.all(np.isfinite(dist)):
            problems.append(f"edge {edge} distribution has shape {dist.shape} "
                            "or non-finite entries")
    if "coupling.solve_node" in last:  # the command's own node solution
        (problem, ops), sol = last["coupling.solve_node"]
        topology = problem.topology
    else:  # the command solved it another way: a library solve of the same problem
        _, topology, ops, sol = _node_reference(1, NODE_N)
    problems += _below("coupling residual",
                       coupling.coupling_residual(sol, topology, ops.transform),
                       RESIDUAL_TOL)
    problems += _below("odd-moment residual", coupling.odd_moment_residual(sol), RESIDUAL_TOL)
    problems += _below("flux residual", coupling.flux_residual(sol), FLUX_TOL)
    return problems


def _solve_general(beta: np.ndarray, incoming: np.ndarray, zero_balance: float):
    topology = coupling.NodeTopology(3, beta)
    ops = coupling.NodeOperators.build(NODE_N)
    return topology, ops, coupling.solve_node_general(topology, incoming, zero_balance, ops)


def _check_general(incoming: np.ndarray, value, last: dict) -> list:
    topology, ops, sol = value
    problems = _below("general coupling residual",
                      coupling.coupling_residual(sol, topology, ops.transform), RESIDUAL_TOL)
    problems += _below("general |D - aC - incoming|",
                       float(np.max(np.abs(sol.D - A * sol.C - incoming))), RESIDUAL_TOL)
    return problems


def seeded_beta(rng: np.random.Generator) -> np.ndarray:
    """Non-symmetric column-stochastic 3x3 coupling matrix, entries >= 0.1/2.1."""
    beta = rng.uniform(0.1, 1.0, (3, 3))
    return beta / beta.sum(axis=0)


def node(seed: int, workdir: Path) -> Workload:
    """``bgknet node --case 1 --N 1000`` plus solve_node_general for a seeded beta."""
    rng = np.random.default_rng(seed)
    beta = seeded_beta(rng)
    incoming = rng.uniform(-1.0, 1.0, 3)
    zero_balance = float(rng.uniform(-1.0, 1.0))
    out = workdir / "node"
    argv = ["node", "--case", "1", "--N", str(NODE_N), "--out", str(out)]

    sessions = [
        lambda: [Operation("node --case 1 --N 1000", lambda: _cli_run(argv),
                           lambda code, last: _check_node_cli(out, last))],
        lambda: [Operation("solve_node_general N=1000",
                           lambda: _solve_general(beta, incoming, zero_balance),
                           lambda value, last: _check_general(incoming, value, last))],
    ]
    return Workload(("coupling.solve_node",), sessions)


# --- compare: the kinetic step on wide arrays plus the composite profile ------

def _node_reference(case: int, N: int):
    """Library node solution at resolution N for the preset data of a case,
    with its coefficients at the same N: data, topology, operators, solution."""
    ops = coupling.NodeOperators.build(N)
    topology = coupling.NodeTopology.symmetric(3)
    coeff = coupling.compute_coefficients(ops, topology)
    data = kinetic.InitialData.preset(case, coeff.delta1, coeff.delta2)
    problem = coupling.NodeProblem.from_macro_data(topology, coeff,
                                                   data.rho0, data.q0, data.S0)
    return data, topology, ops, coupling.solve_node(problem, ops)


def _check_compare(out: Path, case: int, last: dict) -> list:
    data, _, _, sol = _node_reference(case, COMPARE_COEFF_N)
    if "kinetic.run" in last:  # the command's own kinetic run
        _, result = last["kinetic.run"]
    else:  # the command ran it another way: a library run at the same settings
        config = kinetic.NetworkConfig(n_edges=3, **COMPARE_KINETIC)
        result = kinetic.run(config, data)
    problems = _below("mass residual", result.mass_residual, MASS_TOL)
    rho_left = data.rho0 + (sol.S_inf - data.S0) / 3.0
    reference = {"q": sol.q_inf, "S": sol.S_inf, "rho": rho_left}
    for field in ("rho", "q", "S"):
        for edge in (1, 2, 3):
            for tag in ("kinetic", "composite"):
                profile = _read_csv(out / f"{field}_{tag}_{edge}.csv")
                if not np.all(np.isfinite(profile)):
                    problems.append(f"{field}_{tag}_{edge}.csv has non-finite entries")
                if tag == "kinetic":
                    i = int(np.argmin(np.abs(profile[:, 0] - COMPARE_X)))
                    problems += _within(f"case {case} kinetic {field} edge {edge} "
                                        f"at x={COMPARE_X}", profile[i, 1],
                                        reference[field][edge - 1], COMPARE_TOL)
    summary = _read_csv(out / "compare_summary.csv")
    if summary.shape != (9, 3) or not np.all(np.isfinite(summary)):
        problems.append(f"compare summary has shape {summary.shape} or non-finite entries")
    return problems


def compare(seed: int, workdir: Path) -> Workload:
    """``bgknet compare --case 1..4`` at the README defaults (seed: case order)."""
    rng = np.random.default_rng(seed)
    cases = [COMPARE_CASES[i] for i in rng.permutation(len(COMPARE_CASES))]
    argv = {c: ["compare", "--case", str(c), "--out", str(workdir / f"compare-{c}")]
            for c in cases}

    def session(c):
        return [Operation(f"compare --case {c}", lambda: _cli_run(argv[c]),
                          lambda code, last: _check_compare(workdir / f"compare-{c}",
                                                            c, last))]

    return Workload(("kinetic.run",), [lambda c=c: session(c) for c in cases])


# --- graded: many narrow kinetic steps on criterion 8(a)'s meshes -------------

def layer_width(x: np.ndarray, deviation: np.ndarray) -> float:
    """Distance at which the deviation first falls to a tenth of its node value."""
    target = 0.1 * deviation[0]
    idx = int(np.argmax(deviation < target))
    if idx == 0:
        return math.nan
    d_lo, d_hi = deviation[idx - 1], deviation[idx]
    return float(x[idx - 1] + (x[idx] - x[idx - 1])
                 * (np.log(d_lo) - np.log(target)) / (np.log(d_lo) - np.log(d_hi)))


def _coefficients():
    ops = coupling.NodeOperators.build(100)
    return coupling.compute_coefficients(ops, coupling.NodeTopology.symmetric(3))


def _check_coefficients(coeff, last: dict) -> list:
    t1, t2 = PAPER_DELTAS["3"]
    return (_within("delta1(100)", coeff.delta1, t1, DELTA_TOL)
            + _within("delta2(100)", coeff.delta2, t2, DELTA_TOL))


def _check_graded(eps: float, shared: dict, result, last: dict) -> list:
    problems = _below(f"eps={eps:g} mass residual", result.mass_residual, MASS_TOL)
    rho = result.rho[-1]
    if not np.all(np.isfinite(rho)):
        return problems + [f"eps={eps:g} density is not finite"]
    deviation = np.abs(rho[1] - (1.0 - shared["coeff"].delta2))
    shared["widths"][eps] = layer_width(result.x, deviation)
    if len(shared["widths"]) == len(GRADED_EPS):
        widths = [shared["widths"][e] for e in GRADED_EPS]
        slope = np.polyfit(np.log(GRADED_EPS), np.log(widths), 1)[0]
        if not GRADED_SLOPE[0] <= slope <= GRADED_SLOPE[1]:
            problems.append(f"layer width slope {slope:.3f} outside {GRADED_SLOPE}")
    return problems


def graded(seed: int, workdir: Path) -> Workload:
    """One script: coefficients at N = 100, then kinetic.run on graded meshes
    for eps in {4e-4, 2e-4, 1e-4} (seed: eps order)."""
    rng = np.random.default_rng(seed)
    order = [GRADED_EPS[i] for i in rng.permutation(len(GRADED_EPS))]
    meshes = {eps: kinetic.graded_spacing(eps / 10, 2e-4, 2 * eps, 0.08) for eps in order}

    def session():
        shared = {"widths": {}}

        def coefficients():
            shared["coeff"] = _coefficients()
            return shared["coeff"]

        def run(eps):
            config = kinetic.NetworkConfig(n_edges=3, N=8, epsilon=eps,
                                           t_end=GRADED_T_END, spacing=meshes[eps])
            coeff = shared["coeff"]
            data = kinetic.InitialData.preset(1, coeff.delta1, coeff.delta2)
            return kinetic.run(config, data)

        ops = [Operation("coefficients N=100", coefficients, _check_coefficients)]
        ops += [Operation(f"kinetic.run eps={eps:g}", lambda eps=eps: run(eps),
                          lambda result, last, eps=eps: _check_graded(eps, shared,
                                                                      result, last))
                for eps in order]
        return ops

    return Workload((), [session])


WORKLOADS = {"sweep": sweep, "node-1000": node, "compare": compare, "graded": graded}
