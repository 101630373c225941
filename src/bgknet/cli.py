"""Command-line driver: coefficient sweeps, node solves, kinetic and composite runs.

Every command writes deterministic CSV files (17 significant digits, comma
separated, one header row, no timestamps) so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import acoustic, coupling, kinetic
from .hermite import MAX_HALF_ORDER

__all__ = ["main", "cmd_deltas", "cmd_node", "cmd_kinetic", "cmd_composite", "cmd_compare"]


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the rows, or raise ValueError naming the column of a NaN or infinity."""
    table = np.array([tuple(row) for row in rows], dtype=float).reshape(-1, len(header))
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: column {header[j]!r} holds the non-finite value "
                         f"{table[i, j]} (row {i + 1}); nothing was written")
    row_format = ",".join(["%.16e"] * len(header)) + "\n"
    path.write_text(",".join(header) + "\n"
                    + "".join([row_format % tuple(row) for row in table.tolist()]))


def _parse_degree(text: str) -> int | float:
    """A symmetric node degree with a coupling: an integer >= 3 or 'inf' (at n = 2,
    pure transmission, delta_1 = delta_2 = 0)."""
    if text.strip().lower() in {"inf", "infinite", "infinity"}:
        return coupling.INFINITE
    value = int(text)
    if value < 3:
        raise ValueError(f"must be an integer >= 3 or 'inf', got {value}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if not (5 <= lo <= hi <= MAX_HALF_ORDER):
        raise ValueError(f"range must lie within [5, {MAX_HALF_ORDER}], got {text!r}")
    return lo, hi


def _positive(kind):
    """Parser of a finite positive ``kind`` (int or float) from its text."""
    def parse(text: str):
        value = kind(text)
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"must be finite and positive, got {value}")
        return value
    return parse


def _integer_in(lo: int, hi: int):
    """Parser of an integer in [lo, hi] from its text."""
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise ValueError(f"must be an integer in [{lo}, {hi}], got {value}")
        return value
    return parse


_HALF_ORDER = _integer_in(4, MAX_HALF_ORDER)

# Every command's parameters, key -> (default, parse, help). The key is the INI
# key and, with "_" as "-", the flag; nothing else declares a parameter.
_RUN = {
    "case": ("1", _integer_in(1, 4), "test case 1-4"),
    "eps": ("5e-4", float, "Knudsen parameter"),
    "N": ("16", _HALF_ORDER, f"half velocity count in [4, {MAX_HALF_ORDER}]"),
    "cells": ("600", int, "cells per edge"),
    "length": ("0.3", float, "edge length"),
    "t_end": ("0.1", float, "final time"),
    "cfl": ("0.9", float, "CFL number of the kinetic step"),
    "coeff_N": ("100", _HALF_ORDER, "N used for the preset coefficients"),
}
_PARAMETERS = {
    "deltas": {
        "n": ("3", _parse_degree, "node degree (integer >= 3 or 'inf')"),
        "N": ("5:99", _parse_range, f"N range MIN:MAX within [5, {MAX_HALF_ORDER}]"),
    },
    "node": {
        "n": ("3", _integer_in(3, 3), "node degree; the presets need 3"),
        "N": ("100", _HALF_ORDER, f"half velocity count in [4, {MAX_HALF_ORDER}]"),
        "case": _RUN["case"],
        "vmax": ("6.0", _positive(float), "largest |v| of the distribution CSV"),
        "vpoints": ("1201", _positive(int), "velocity count of the distribution CSV"),
    },
    "kinetic": _RUN,
    "composite": {key: spec for key, spec in _RUN.items() if key != "cfl"},
    "compare": {**_RUN, "window": ("0.02", float, "half-width of the excluded wave window")},
}


def _settings(command: str, args: argparse.Namespace) -> dict:
    """Parsed parameters: defaults, then the INI section, then the flags."""
    table = _PARAMETERS[command]
    text = {key: default for key, (default, _, _) in table.items()}
    if args.config is not None:
        import configparser  # only a --config run reads INI files

        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive ("N" vs "n")
        if not parser.read(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        if parser.has_section(command):
            for key, val in parser.items(command):
                if key not in table:
                    raise ValueError(f"unknown config key [{command}] {key}")
                text[key] = val
    values = {}
    for key, (_, parse, _) in table.items():
        override = getattr(args, key)
        try:
            values[key] = parse(text[key] if override is None else override)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return values


def _preset(case: int, coeff_N: int):
    """Preset data from the n = 3 coefficients at coeff_N, with the operators at coeff_N."""
    ops = coupling.NodeOperators.build(coeff_N)
    coeff = coupling.compute_coefficients(ops, coupling.NodeTopology.symmetric(3))
    return kinetic.InitialData.preset(case, coeff.delta1, coeff.delta2), ops


def _node_solution(data, N: int, ops: coupling.NodeOperators):
    """Node solution at resolution N, reusing the operators if they have that N."""
    if N != ops.N:
        ops = coupling.NodeOperators.build(N)
    problem = coupling.NodeProblem.from_macro_data(coupling.NodeTopology.symmetric(3), None,
                                                   data.rho0, data.q0, data.S0)
    return coupling.solve_node(problem, ops)


def cmd_deltas(args: argparse.Namespace) -> int:
    """Coupling-coefficient sweep over N."""
    cfg = _settings("deltas", args)
    lo, hi = cfg["N"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    topo = coupling.NodeTopology.symmetric(cfg["n"])
    halves = range(lo - 1, hi + 1)
    coefficients = coupling._swept_coefficients(halves, topo)
    sweep = {}
    for N in halves:
        try:
            coeff = next(coefficients)
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
    """Solve the coupled half-space node problem."""
    cfg = _settings("node", args)
    case, N = cfg["case"], cfg["N"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, ops = _preset(case, N)
    sol = _node_solution(data, N, ops)
    rho_left = acoustic.rho_left(data, sol)
    rows = [(i + 1, sol.D[i], sol.C[i], sol.B[i], sol.rho_at_0[i], rho_left[i])
            for i in range(3)]
    _write_csv(out / f"node_case{case}_summary.csv",
               ["edge", "S_inf", "q_inf", "rho_inf", "rho_node", "rho_left"], rows)
    v = np.linspace(-cfg["vmax"], cfg["vmax"], cfg["vpoints"])
    for i, f in enumerate(coupling.node_distribution(sol, v)):
        _write_csv(out / f"node_case{case}_edge{i + 1}_distribution.csv",
                   ["v", "f"], zip(v, f))
    for i in range(3):
        print(f"edge {i + 1}: S_inf={sol.D[i]:+.6f} q_inf={sol.C[i]:+.6f} "
              f"rho_inf={sol.B[i]:+.6f} rho(0)={sol.rho_at_0[i]:+.6f}")
    print(f"wrote node summary and distributions to {out}")
    return 0


# NetworkConfig field of each CLI key; its errors begin with the field name
_FIELDS = {"length": "edge_length", "cells": "cells", "N": "N", "eps": "epsilon",
           "t_end": "t_end", "cfl": "cfl"}


def _network(cfg: dict) -> kinetic.NetworkConfig:
    """The validated run settings; composite has no cfl and keeps the default.
    An invalid setting is reported under its CLI key, like a parse error."""
    fields = {field: cfg[key] for key, field in _FIELDS.items() if key in cfg}
    try:
        return kinetic.NetworkConfig(n_edges=3, **fields)
    except ValueError as exc:
        key = {field: key for key, field in _FIELDS.items()}.get(str(exc).split(" ", 1)[0])
        if key is None:
            raise
        raise ValueError(f"{key}: {exc}") from None


def _write_profiles(out: Path, tag: str, x: np.ndarray, fields: dict[str, np.ndarray]) -> None:
    for name, values in fields.items():
        for i in range(values.shape[0]):
            _write_csv(out / f"{name}_{tag}_{i + 1}.csv", ["x", name],
                       zip(x, values[i]))


def _kinetic_profiles(out: Path, config: kinetic.NetworkConfig, data) -> kinetic.KineticResult:
    """Run the kinetic reference and write its final (rho, q, S) per edge."""
    result = kinetic.run(config, data)
    _write_profiles(out, "kinetic", result.x,
                    {"rho": result.rho[-1], "q": result.q[-1], "S": result.S[-1]})
    return result


def _composite_profiles(out: Path, config: kinetic.NetworkConfig, data,
                        ops: coupling.NodeOperators, x: np.ndarray) -> dict[str, np.ndarray]:
    """Write the composite rho and the bulk (q, S) at t_end per edge."""
    sol = _node_solution(data, config.N, ops)
    fields = {"rho": acoustic.composite_rho(data, sol, config.epsilon, x, config.t_end)}
    _, fields["q"], fields["S"] = acoustic.exact_macro(data, sol, x, config.t_end)
    _write_profiles(out, "composite", x, fields)
    return fields


def cmd_kinetic(args: argparse.Namespace) -> int:
    """Kinetic reference run for a test case."""
    cfg = _settings("kinetic", args)
    config = _network(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, _ = _preset(cfg["case"], cfg["coeff_N"])
    result = _kinetic_profiles(out, config, data)
    # continuous-equivalent node distribution: f_i / (w_i e^{v_i^2} ) * H_0(v_i)
    state = result.state
    h0 = state.moment_rows[0]
    scaled = state.rule.scaled_weights
    for i in range(3):
        f_cont = h0 * state.f[i, 0] / scaled
        _write_csv(out / f"f_kinetic_{i + 1}.csv", ["v", "f"], zip(state.speeds, f_cont))
    print(f"kinetic case {cfg['case']}: eps={cfg['eps']} t={cfg['t_end']} "
          f"mass residual {result.mass_residual:.3e}")
    print(f"wrote kinetic profiles to {out}")
    return 0


def cmd_composite(args: argparse.Namespace) -> int:
    """Composite asymptotic profiles for a test case."""
    cfg = _settings("composite", args)
    config = _network(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, ops = _preset(cfg["case"], cfg["coeff_N"])
    _composite_profiles(out, config, data, ops, config.cell_centres())
    print(f"wrote composite profiles to {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Kinetic run against the composite profiles, with an error summary."""
    cfg = _settings("compare", args)
    config = _network(cfg)
    window = cfg["window"]
    wave = coupling.ACOUSTIC_SPEED * config.t_end
    if not (np.isfinite(window) and window >= 0
            and np.any(np.abs(config.cell_centres() - wave) > window)):
        raise ValueError(f"window must be finite, >= 0 and leave a cell centre outside "
                         f"|x - a t_end| <= window, got {window}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data, ops = _preset(cfg["case"], cfg["coeff_N"])
    result = _kinetic_profiles(out, config, data)
    composite = _composite_profiles(out, config, data, ops, result.x)
    keep = np.abs(result.x - wave) > window
    dx = result.state.dx[keep]
    rows = []
    for name, comp in composite.items():
        kin = getattr(result, name)[-1]
        for i in range(3):
            diff = np.abs(kin[i] - comp[i])[keep]
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
    for command, fn in _COMMANDS.items():
        p = sub.add_parser(command, help=fn.__doc__)
        p.add_argument("--config", help="INI file with a section per command")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        for key, (default, _, text) in _PARAMETERS[command].items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=f"{text} (default: {default})")
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
