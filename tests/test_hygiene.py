"""Source hygiene: every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exdev"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> set:
    """Names listed in a module-level __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= {elt.value for elt in ast.walk(node.value)
                      if isinstance(elt, ast.Constant)
                      and isinstance(elt.value, str)}
    return names


def _imported(tree: ast.Module) -> dict:
    """{bound name: line} for every import except __future__ ones."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set:
    """Names read anywhere in the module."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(path: Path) -> list:
    """['module.py:line name', ...] for imports the module never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _used(tree) | _exported(tree)
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(_imported(tree).items())
            if name not in skip]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import math\nimport numpy as np\n"
                   "from typing import Optional\n"
                   "from os import sep\n__all__ = ['sep']\n"
                   "def f(x: Optional[int]):\n    return np.abs(x)\n")
    assert unused_imports(src) == ["mod.py:2 math"]
