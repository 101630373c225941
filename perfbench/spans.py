"""Spans and call counts recorded around the program's public functions.

The wrappers are installed where the program looks the functions up (module
attributes, class attributes and the CLI's command table), so calls made by
the program itself are recorded exactly like calls made by the benchmark.
A site the program no longer has is skipped and reports 0 s and 0 calls.
Spans stay in memory; the worker reports only their totals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

#: Span name -> every "module[:Class]", attribute through which the program
#: reaches it.
SITES = {
    "hermite.build_rule": [("bgknet.hermite", "build_rule"), ("bgknet.coupling", "build_rule"),
                           ("bgknet.kinetic", "build_rule")],
    "hermite.build_tables": [("bgknet.hermite", "build_tables"),
                             ("bgknet.coupling", "build_tables"),
                             ("bgknet.kinetic", "build_tables")],
    "hermite.hermite_functions": [("bgknet.hermite", "hermite_functions"),
                                  ("bgknet.coupling", "hermite_functions")],
    "layer.stable_manifold": [("bgknet.layer", "stable_manifold"),
                              ("bgknet.coupling", "stable_manifold")],
    "layer.build_lift": [("bgknet.layer", "build_lift"), ("bgknet.coupling", "build_lift")],
    "coupling.operators_build": [("bgknet.coupling:NodeOperators", "build")],
    "coupling.compute_coefficients": [("bgknet.coupling", "compute_coefficients")],
    "coupling.invariant_matrix": [("bgknet.coupling", "invariant_matrix")],
    "coupling.extract_deltas": [("bgknet.coupling", "extract_deltas")],
    "coupling.solve_node": [("bgknet.coupling", "solve_node")],
    "coupling.solve_node_general": [("bgknet.coupling", "solve_node_general")],
    "coupling.node_distribution": [("bgknet.coupling", "node_distribution")],
    "kinetic.run": [("bgknet.kinetic", "run")],
    "kinetic.initialize": [("bgknet.kinetic", "initialize")],
    "kinetic.step": [("bgknet.kinetic", "step")],
    "kinetic.macro_moments": [("bgknet.kinetic:NetworkState", "macro_moments")],
    "acoustic.composite_rho": [("bgknet.acoustic", "composite_rho")],
    "acoustic.exact_macro": [("bgknet.acoustic", "exact_macro")],
}

#: Spans whose self time is the CLI's own work (parsing, orchestration, CSV).
CLI_PREFIX = "cli.cmd_"


class Tracer:
    """Records spans when ``timed``; keeps the last call of each ``tapped`` name.

    An untraced run installs only the taps, which the output checks read; a
    traced run wraps every site in :data:`SITES` and the CLI commands.
    """

    def __init__(self, timed: bool, tapped=()):
        self.timed = timed
        self.tapped = set(tapped)
        self.spans = []          # [name, start, end, parent index or -1]
        self.step_dofs = 0       # cells * velocities * edges, summed over steps
        self.last = {}           # tapped name -> (args, result) of its last call
        self._stack = []
        self._paused = False

    def _wrap(self, name, fn):
        timed = self.timed
        keep = name in self.tapped
        count_dofs = name == "kinetic.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if not timed:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                span = [name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1]
                self.spans.append(span)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
                if count_dofs and hasattr(result, "f"):
                    self.step_dofs += result.f.size
            if keep:
                self.last[name] = (args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every site by its wrapper (traced) or only the tapped ones.

        Sites missing from the program are skipped.
        """
        for name, sites in SITES.items():
            if not (self.timed or name in self.tapped):
                continue
            for path, attr in sites:
                module, _, cls = path.partition(":")
                try:
                    owner = importlib.import_module(module)
                    if cls:
                        owner = getattr(owner, cls)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    continue  # a site the program no longer has records nothing
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, original))
        if self.timed:
            commands = getattr(importlib.import_module("bgknet.cli"), "_COMMANDS", {})
            for command, fn in list(commands.items()):
                commands[command] = self._wrap(CLI_PREFIX + command, fn)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def totals(self) -> dict:
        """Inclusive seconds and calls per span name, step dofs, CLI self time."""
        seconds, calls = {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += end - start
        cli_self = sum(end - start - child_time[i]
                       for i, (name, start, end, _) in enumerate(self.spans)
                       if name.startswith(CLI_PREFIX))
        return {"seconds": seconds, "calls": calls, "step_dofs": self.step_dofs,
                "cli_self": cli_self}


#: Span names whose call count per round is reported as ``<name>.calls``.
COUNTED = ("coupling.operators_build", "coupling.invariant_matrix", "kinetic.step")

#: Every per-layer metric and its unit, in report order. ``.s`` and ``.calls``
#: are per round; ``setup.import_s`` is added from the set-up processes.
PER_LAYER = {}
for _name in SITES:
    if _name in COUNTED:
        PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.s"] = "s"
PER_LAYER["kinetic.step.us_per_dof"] = "us"
PER_LAYER["cli.self_s"] = "s"
PER_LAYER["setup.import_s"] = "s"


def layer_metrics(totals: list, rounds: int) -> dict:
    """Per-round seconds and calls, step cost per dof and CLI self time, with units.

    ``totals`` holds :meth:`Tracer.totals` of every process of the run; the
    result is everything in :data:`PER_LAYER` but ``setup.import_s``.
    """
    seconds, calls = {}, {}
    step_dofs = cli_self = 0
    for part in totals:
        for name, value in part["seconds"].items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in part["calls"].items():
            calls[name] = calls.get(name, 0) + value
        step_dofs += part["step_dofs"]
        cli_self += part["cli_self"]
    metrics = {}
    for name in SITES:
        if name in COUNTED:
            metrics[f"{name}.calls"] = calls.get(name, 0) / rounds
        metrics[f"{name}.s"] = seconds.get(name, 0.0) / rounds
    step_s = seconds.get("kinetic.step", 0.0)
    metrics["kinetic.step.us_per_dof"] = 1e6 * step_s / step_dofs if step_dofs else 0.0
    metrics["cli.self_s"] = cli_self / rounds
    return {name: {"value": value, "unit": PER_LAYER[name]} for name, value in metrics.items()}
