"""The demos and the exception hierarchy: every demo runs to exit 0, every
name a demo imports from ``distopt`` resolves, and every exception class past
the two general ones is one some caller catches."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from distopt import errors

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    # run from an empty directory with this checkout's src/ first on the path
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, f"{path.name} exited {done.returncode}:\n{done.stderr[-2000:]}"


def caught_names(path: Path) -> set[str]:
    """The names in the ``except`` clauses of a file, bare or as ``module.Name``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for t in node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]:
                names.add(t.id if isinstance(t, ast.Name) else getattr(t, "attr", None))
    return names


def test_every_specific_error_is_caught_by_name():
    # a class no caller tells apart from ValidationError is one the hierarchy need not have
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.DistoptError)]
    caught = set().union(*(caught_names(path) for path in
                           [*(ROOT / "src" / "distopt").glob("*.py"), *DEMOS]))
    uncaught = [name for name in classes if name not in caught | {"DistoptError", "ValidationError"}]
    assert len(classes) > 2 and not uncaught, f"no src/ or demos/ except clause names {uncaught}"
