import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bgknet


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
    for label, run in runs.items():
        out = subprocess.run([sys.executable, "-c", f"import bgknet.cli, sys; {run}{report}"],
                             capture_output=True, text=True, check=True, cwd=package_root)
        loaded = out.stdout.splitlines()[-1]
        assert loaded == "loaded:", f"{label} {loaded}"
