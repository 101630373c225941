"""Command-line driver: coefficient sweeps, node solves, kinetic and composite runs.

Every command writes deterministic CSV files (17 significant digits, comma
separated, one header row, no timestamps) so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import acoustic, coupling, kinetic
from .hermite import MAX_HALF_ORDER

__all__ = ["main", "cmd_deltas", "cmd_node", "cmd_kinetic", "cmd_composite", "cmd_compare"]

_DEFAULTS = {
    "deltas": {"n": "3", "N": "5:99"},
    "node": {"n": "3", "N": "100", "case": "1", "vmax": "6.0", "vpoints": "1201"},
    "kinetic": {"case": "1", "eps": "5e-4", "N": "16", "cells": "600",
                "length": "0.3", "t_end": "0.1", "cfl": "0.9", "coeff_N": "100"},
    "composite": {"case": "1", "eps": "5e-4", "N": "16", "cells": "600",
                  "length": "0.3", "t_end": "0.1", "coeff_N": "100"},
    "compare": {"case": "1", "eps": "5e-4", "N": "16", "cells": "600",
                "length": "0.3", "t_end": "0.1", "cfl": "0.9", "coeff_N": "100",
                "window": "0.02"},
}


def _fmt(value: float) -> str:
    return f"{float(value):.16e}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the rows, or raise ValueError naming the column of a NaN or infinity."""
    table = np.array([tuple(row) for row in rows], dtype=float).reshape(-1, len(header))
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: column {header[j]!r} holds the non-finite value "
                         f"{table[i, j]} (row {i + 1}); nothing was written")
    lines = [",".join(header)]
    for row in table:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _parse_degree(text: str) -> int | float:
    if text.strip().lower() in {"inf", "infinite", "infinity"}:
        return coupling.INFINITE
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if not (5 <= lo <= hi <= MAX_HALF_ORDER):
        raise ValueError(f"N range must lie within [5, {MAX_HALF_ORDER}], got {text!r}")
    return lo, hi


def _settings(command: str, args: argparse.Namespace) -> dict[str, str]:
    values = dict(_DEFAULTS[command])
    if args.config is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive ("N" vs "n")
        read = parser.read(args.config)
        if not read:
            raise FileNotFoundError(f"config file not found: {args.config}")
        if parser.has_section(command):
            for key, val in parser.items(command):
                if key not in values:
                    raise ValueError(f"unknown config key [{command}] {key}")
                values[key] = val
    for key in values:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = str(override)
    return values


def _preset(case: int, coeff_N: int):
    """Preset data from the n = 3 coefficients at coeff_N, with their (ops, coeff)."""
    ops = coupling.NodeOperators.build(coeff_N)
    coeff = coupling.compute_coefficients(ops, coupling.NodeTopology.symmetric(3))
    return kinetic.InitialData.preset(case, coeff.delta1, coeff.delta2), (ops, coeff)


def _node_solution(data, N: int, reference):
    """Node solution at resolution N, reusing the reference (ops, coeff) at its N."""
    topo = coupling.NodeTopology.symmetric(3)
    ops, coeff = reference
    if N != ops.N:
        ops = coupling.NodeOperators.build(N)
        coeff = coupling.compute_coefficients(ops, topo)
    problem = coupling.NodeProblem.from_macro_data(topo, coeff, data.rho0, data.q0, data.S0)
    return coupling.solve_node(problem, ops)


def cmd_deltas(args: argparse.Namespace) -> int:
    cfg = _settings("deltas", args)
    lo, hi = _parse_range(cfg["N"])
    degree = _parse_degree(cfg["n"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    topo = coupling.NodeTopology.symmetric(degree)
    sweep = {}
    for N in range(lo - 1, hi + 1):
        try:
            ops = coupling.NodeOperators.build(N)
            coeff = coupling.compute_coefficients(ops, topo)
        except Exception as exc:
            raise RuntimeError(f"coefficient computation failed at N={N}: {exc}") from exc
        sweep[N] = (coeff.delta1, coeff.delta2)
    rows = []
    for N in range(lo, hi + 1):
        d1, d2 = sweep[N]
        p1, p2 = sweep[N - 1]
        rows.append((N, d1, d2,
                     np.log10(abs(d1 - p1)), np.log10(abs(d2 - p2))))
    _write_csv(out / "deltas.csv",
               ["N", "delta1", "delta2", "log10_err1", "log10_err2"], rows)
    print(f"wrote {out / 'deltas.csv'} ({hi - lo + 1} rows, n={cfg['n']})")
    return 0


def cmd_node(args: argparse.Namespace) -> int:
    cfg = _settings("node", args)
    case = int(cfg["case"])
    N = int(cfg["N"])
    degree = _parse_degree(cfg["n"])
    if degree != 3:
        raise ValueError("the test-case presets are defined for n = 3 edges")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, reference = _preset(case, N)
    sol = _node_solution(data, N, reference)
    rho_left = acoustic.macro_state(data, sol).rho_left
    rows = [(i + 1, sol.D[i], sol.C[i], sol.B[i], sol.rho_at_0[i], rho_left[i])
            for i in range(3)]
    _write_csv(out / f"node_case{case}_summary.csv",
               ["edge", "S_inf", "q_inf", "rho_inf", "rho_node", "rho_left"], rows)
    v = np.linspace(-float(cfg["vmax"]), float(cfg["vmax"]), int(cfg["vpoints"]))
    for i in range(3):
        f = coupling.node_distribution(sol, i, v)
        _write_csv(out / f"node_case{case}_edge{i + 1}_distribution.csv",
                   ["v", "f"], zip(v, f))
    for i in range(3):
        print(f"edge {i + 1}: S_inf={sol.D[i]:+.6f} q_inf={sol.C[i]:+.6f} "
              f"rho_inf={sol.B[i]:+.6f} rho(0)={sol.rho_at_0[i]:+.6f}")
    print(f"wrote node summary and distributions to {out}")
    return 0


def _kinetic_config(cfg: dict[str, str]) -> kinetic.NetworkConfig:
    return kinetic.NetworkConfig(
        n_edges=3,
        edge_length=float(cfg["length"]),
        cells=int(cfg["cells"]),
        N=int(cfg["N"]),
        epsilon=float(cfg["eps"]),
        cfl=float(cfg["cfl"]),
        t_end=float(cfg["t_end"]),
    )


def _cell_centres(cfg: dict[str, str]) -> np.ndarray:
    cells = int(cfg["cells"])
    return (np.arange(cells) + 0.5) * (float(cfg["length"]) / cells)


def _write_profiles(out: Path, tag: str, x: np.ndarray, fields: dict[str, np.ndarray]) -> None:
    for name, values in fields.items():
        for i in range(values.shape[0]):
            _write_csv(out / f"{name}_{tag}_{i + 1}.csv", ["x", name],
                       zip(x, values[i]))


def cmd_kinetic(args: argparse.Namespace) -> int:
    cfg = _settings("kinetic", args)
    config = _kinetic_config(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, _ = _preset(int(cfg["case"]), int(cfg["coeff_N"]))
    result = kinetic.run(config, data)
    _write_profiles(out, "kinetic", result.x,
                    {"rho": result.rho[-1], "q": result.q[-1], "S": result.S[-1]})
    # continuous-equivalent node distribution: f_i / (w_i e^{v_i^2} ) * H_0(v_i)
    h0 = result.state.moment_rows[0]
    scaled = result.state.rule.scaled_weights
    for i in range(3):
        f_cont = h0 * result.f_node[i] / scaled
        _write_csv(out / f"f_kinetic_{i + 1}.csv", ["v", "f"],
                   zip(result.velocities, f_cont))
    print(f"kinetic case {cfg['case']}: eps={cfg['eps']} t={cfg['t_end']} "
          f"mass residual {result.mass_residual:.3e}")
    print(f"wrote kinetic profiles to {out}")
    return 0


def cmd_composite(args: argparse.Namespace) -> int:
    cfg = _settings("composite", args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    case, N = int(cfg["case"]), int(cfg["N"])
    eps, t = float(cfg["eps"]), float(cfg["t_end"])
    data, reference = _preset(case, int(cfg["coeff_N"]))
    sol = _node_solution(data, N, reference)
    x = _cell_centres(cfg)
    rho = acoustic.composite_rho(data, sol, eps, x, t)
    _, q, S = acoustic.exact_macro(data, sol, x, t)
    _write_profiles(out, "composite", x, {"rho": rho, "q": q, "S": S})
    print(f"wrote composite profiles to {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _settings("compare", args)
    config = _kinetic_config(cfg)
    case, N = int(cfg["case"]), int(cfg["N"])
    eps, t = float(cfg["eps"]), float(cfg["t_end"])
    window = float(cfg["window"])
    wave = coupling.ACOUSTIC_SPEED * t
    if not (np.isfinite(window) and window >= 0
            and np.any(np.abs(_cell_centres(cfg) - wave) > window)):
        raise ValueError(f"window must be finite, >= 0 and leave a cell centre outside "
                         f"|x - a t_end| <= window, got {window}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, reference = _preset(case, int(cfg["coeff_N"]))
    result = kinetic.run(config, data)
    sol = _node_solution(data, N, reference)
    x = result.x
    rho_c = acoustic.composite_rho(data, sol, eps, x, t)
    _, q_c, S_c = acoustic.exact_macro(data, sol, x, t)
    _write_profiles(out, "kinetic", x,
                    {"rho": result.rho[-1], "q": result.q[-1], "S": result.S[-1]})
    _write_profiles(out, "composite", x, {"rho": rho_c, "q": q_c, "S": S_c})
    keep = np.abs(x - wave) > window
    rows = []
    for name, kin, comp in (("rho", result.rho[-1], rho_c),
                            ("q", result.q[-1], q_c),
                            ("S", result.S[-1], S_c)):
        for i in range(3):
            diff = np.abs(kin[i] - comp[i])[keep]
            dx = result.state.dx[keep]
            rows.append((i + 1, float(np.max(diff)), float(np.sum(diff * dx))))
            print(f"{name} edge {i + 1}: sup={rows[-1][1]:.3e} L1={rows[-1][2]:.3e}")
    _write_csv(out / "compare_summary.csv",
               ["edge", "sup_error", "l1_error"], rows)
    print(f"wrote comparison to {out}")
    return 0


_COMMANDS = {
    "deltas": cmd_deltas,
    "node": cmd_node,
    "kinetic": cmd_kinetic,
    "composite": cmd_composite,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgknet",
        description="Kinetic-derived coupling conditions for the linearized BGK "
                    "equation on networks: coefficient sweeps, node solves, and "
                    "kinetic/composite validation runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI file with a section per command")
        p.add_argument("--out", default="out", help="output directory (default: out)")

    p = sub.add_parser("deltas", help="coupling-coefficient sweep over N")
    common(p)
    p.add_argument("--N", help=f"N range MIN:MAX within [5, {MAX_HALF_ORDER}]")
    p.add_argument("--n", help="node degree (integer or 'inf')")

    p = sub.add_parser("node", help="solve the coupled half-space node problem")
    common(p)
    p.add_argument("--case", type=int, help="test case 1-4")
    p.add_argument("--N", type=int)
    p.add_argument("--n", help="node degree (must be 3 for the presets)")
    p.add_argument("--vmax", type=float, help="velocity range of the distribution CSV")
    p.add_argument("--vpoints", type=int)

    for name in ("kinetic", "composite", "compare"):
        p = sub.add_parser(name, help=f"{name} run for a test case")
        common(p)
        p.add_argument("--case", type=int, help="test case 1-4")
        p.add_argument("--eps", type=float, help="Knudsen parameter")
        p.add_argument("--N", type=int, help="half velocity count")
        p.add_argument("--cells", type=int)
        p.add_argument("--length", type=float, help="edge length")
        p.add_argument("--t-end", dest="t_end", type=float)
        p.add_argument("--coeff-N", dest="coeff_N", type=int,
                       help="N used for the preset coefficients (default 100)")
        if name != "composite":
            p.add_argument("--cfl", type=float)
        if name == "compare":
            p.add_argument("--window", type=float,
                           help="half-width of the excluded wave window")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
