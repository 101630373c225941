import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bgknet
from bgknet import (InitialData, NetworkConfig, NodeProblem, NodeTopology, build_macro_system,
                    composite_rho, exact_macro, graded_spacing, initialize, macro_determinant,
                    maxwell_delta, solve_node, step)


def package_imports(module: str) -> set:
    """Names bgknet/__init__.py imports from one of its modules."""
    tree = ast.parse(Path(bgknet.__file__).read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names}


@pytest.mark.parametrize("module", ["acoustic", "coupling", "errors", "hermite",
                                    "kinetic", "layer"])
def test_public_names_are_consistent(module):
    exec(f"from bgknet.{module} import *", {})  # a stale __all__ entry raises here
    unlisted = package_imports(module) - set(getattr(bgknet, module).__all__)
    assert not unlisted, f"bgknet imports {sorted(unlisted)} from {module} outside its __all__"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_matches_the_package(capsys):
    # the Library quickstart runs, and every `name(` the README calls is in bgknet
    text = README.read_text()
    quickstart = re.search(r"^## Library quickstart\n+```python\n(.*?)^```", text,
                           re.MULTILINE | re.DOTALL)
    assert quickstart, "README has no Library quickstart block"
    exec(compile(quickstart.group(1), "README quickstart", "exec"), {})
    assert capsys.readouterr().out
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", text))
    assert called, "README calls no function in backticks"
    missing = sorted(name for name in called if not hasattr(bgknet, name))
    assert not missing, f"README calls {missing}, which bgknet does not have"
    # and every backticked module-qualified name, `coupling._sweep` or
    # `bgknet.hermite._FLOOR`, is in its module
    modules = "|".join(module.name for module in pkgutil.iter_modules(bgknet.__path__)
                       if not module.name.startswith("__"))
    qualified = set(re.findall(rf"`(?:bgknet\.)?({modules})\.([A-Za-z_]\w*)", text))
    assert qualified, "README names no module-qualified name in backticks"
    stale = sorted(f"{module}.{name}" for module, name in qualified
                   if not hasattr(importlib.import_module(f"bgknet.{module}"), name))
    assert not stale, f"README names {stale}, which the package does not have"


def test_cli_import_is_lean(tmp_path):
    # process start: neither scipy (its special functions alone take about 60
    # ms and 3.7 MB) nor configparser is loaded by importing the CLI; each is
    # paid only where it is used. LAPACK comes from numpy's own library, so a
    # coefficient sweep and a node solve load no scipy module either.
    package_root = str(Path(bgknet.__file__).resolve().parent.parent)
    report = ("print('loaded:' + ','.join(m for m in sys.modules "
              "if m == 'configparser' or m.split('.')[0] == 'scipy'))")
    runs = {"import": ""}
    for argv in (["deltas", "--N", "5:8"], ["node", "--N", "20"]):
        out = str(tmp_path / argv[0])
        runs[argv[0]] = f"bgknet.cli.main({argv + ['--out', out]!r}); "
    # the three run commands at tiny sizes share one process
    tiny = ["--cells", "10", "--t-end", "0.001", "--coeff-N", "10"]
    runs["kinetic, composite, compare"] = "".join(
        f"assert bgknet.cli.main({[command, *tiny, '--out', str(tmp_path / command)]!r}) == 0; "
        for command in ("kinetic", "composite", "compare"))
    for label, run in runs.items():
        out = subprocess.run([sys.executable, "-c", f"import bgknet.cli, sys; {run}{report}"],
                             capture_output=True, text=True, check=True, cwd=package_root)
        loaded = out.stdout.splitlines()[-1]
        assert loaded == "loaded:", f"{label} {loaded}"


GRADED = {"dx_min": 1e-4, "dx_max": 1e-3, "fine_width": 5e-4, "length": 0.05, "ratio": 1.1}

# (function, parameter, the first word of its message, a call passing the value
# as that parameter with the data, node solution and kinetic state of ``network``)
NON_NUMBERS = [
    *[("NetworkConfig", name, name, lambda v, net, name=name: NetworkConfig(**{name: v}))
      for name in ("epsilon", "t_end", "edge_length", "cfl")],
    *[("graded_spacing", name, name,
       lambda v, net, name=name: graded_spacing(**{**GRADED, name: v})) for name in GRADED],
    ("step", "dt", "dt", lambda v, net: step(net[2], v)),
    ("exact_macro", "t", "time", lambda v, net: exact_macro(net[0], net[1], [0.1], v)),
    ("composite_rho", "t", "time", lambda v, net: composite_rho(net[0], net[1], 5e-4, [0.1], v)),
    ("composite_rho", "epsilon", "epsilon",
     lambda v, net: composite_rho(net[0], net[1], v, [0.1], 0.1)),
    ("maxwell_delta", "n", "n", lambda v, net: maxwell_delta(v)),
    ("NodeTopology", "n", "n", lambda v, net: NodeTopology(v)),
    ("build_macro_system", "delta1", "delta1",
     lambda v, net: build_macro_system(v, 0.3, 3, [0.1, 0.2, 0.3], 0.0)),
    ("build_macro_system", "delta2", "delta2",
     lambda v, net: build_macro_system(0.5, v, 3, [0.1, 0.2, 0.3], 0.0)),
    ("macro_determinant", "delta1", "delta1", lambda v, net: macro_determinant(3, v)),
]


@pytest.fixture(scope="module")
def network(ops_factory, coeff_factory):
    """Case 1's data, its node solution at N = 30 and a 10-cell kinetic state."""
    coeff = coeff_factory(30, 3)
    data = InitialData.preset(1, coeff.delta1, coeff.delta2)
    problem = NodeProblem.from_macro_data(NodeTopology.symmetric(3), coeff,
                                          data.rho0, data.q0, data.S0)
    state = initialize(NetworkConfig(cells=10, N=4), data)
    return data, solve_node(problem, ops_factory(30)), state


@pytest.mark.parametrize("value", ["1", None, True])
@pytest.mark.parametrize("function, parameter, word, call", NON_NUMBERS,
                         ids=[f"{function}-{parameter}" for function, parameter, *_ in NON_NUMBERS])
def test_a_non_number_is_named(network, function, parameter, word, call, value):
    # before, a string or None ended in a TypeError from a comparison that
    # named nothing; a bool is no number, though math.isfinite(True) holds.
    # The CLI maps a NetworkConfig message to its key by the first word
    with pytest.raises(ValueError, match=f"^{word} must be a real number, got {value!r}"):
        call(value, network)
