import ast
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
