"""Import hygiene of the demos and the package namespace, checked without
running any demo: every name a demo imports from ``distopt`` resolves, and
every name in ``distopt.__all__`` exists."""

import ast
import importlib
from pathlib import Path

import pytest

import distopt

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def distopt_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``from distopt... import name`` in a file,
    and ``(module, None)`` for each ``import distopt...``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "distopt":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "distopt"]
    return found


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = distopt_imports(path)
    assert imports, f"{path.name} imports nothing from distopt"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: from {module} import {name} does not resolve"


def test_all_names_exist():
    missing = [name for name in distopt.__all__ if not hasattr(distopt, name)]
    assert not missing
    assert len(set(distopt.__all__)) == len(distopt.__all__)
