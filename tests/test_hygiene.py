"""Source hygiene: every module of the package uses each name it imports,
binds each name it exports, and every UPPER_CASE constant it defines is read
somewhere in the repo."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "exdev"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a constant of the package may be read
READERS = ("src", "tests", "bench", "scripts")


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


def _constants(tree: ast.Module) -> dict:
    """{name: line} for UPPER_CASE names bound at module level."""
    out = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for t in targets:
            if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*",
                                                        t.id):
                out[t.id] = node.lineno
    return out


def _reads(tree: ast.Module) -> set:
    """Names read in a module, bare (X) or as an attribute (mod.X)."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def names_read(paths) -> set:
    """Every name the given files read, bare or as an attribute."""
    return set().union(*(_reads(ast.parse(p.read_text(), filename=str(p)))
                         for p in paths))


def unread_constants(path: Path, read: set) -> list:
    """['module.py:line NAME', ...] for constants whose name is not in read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(_constants(tree).items())
            if name not in read]


@pytest.fixture(scope="module")
def read_in_repo():
    return names_read(f for d in READERS for f in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_constants(path, read_in_repo):
    assert unread_constants(path, read_in_repo) == []


def test_scan_finds_an_unread_constant(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("ROWS = 4\nBLOCK: int = 8\nSTEP = ROWS\n"
                   "LEFT_OVER = 65536\nlower = 1\n")
    user = tmp_path / "user.py"
    user.write_text("import mod\nmod.BLOCK = mod.STEP\n")
    assert unread_constants(src, names_read([src, user])) == [
        "mod.py:4 LEFT_OVER"]


def _bound(tree: ast.Module) -> set:
    """Names bound at module level: imports, defs, classes, assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def stale_exports(path: Path) -> list:
    """Names in the module's __all__ that the module does not bind; each one
    breaks `from module import *`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(_exported(tree) - _bound(tree))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert stale_exports(path) == []


def test_scan_finds_a_stale_export(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from os import sep\nimport math as m\nROWS = 4\n"
                   "LIMIT: int = 8\ndef f():\n    import json\n    gone = 1\n"
                   "class C:\n    pass\n"
                   "__all__ = ['sep', 'm', 'ROWS', 'LIMIT', 'f', 'C', 'gone',"
                   " 'math', 'json']\n")
    # names bound only inside a function are not the module's
    assert stale_exports(src) == ["gone", "json", "math"]


def scipy_imports(paths) -> list:
    """Sorted 'scipy.module.name' for every scipy import in the files,
    function-local ones included ('scipy.module' for a plain import)."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "scipy"):
                found |= {f"{node.module}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                found |= {a.name for a in node.names
                          if a.name.split(".")[0] == "scipy"}
    return sorted(found)


def test_scipy_uses_only_shrink():
    # a ratchet: removing a scipy use deletes its line here, and a new one
    # must be argued for by adding it
    assert scipy_imports(sorted(PACKAGE.glob("*.py"))) == [
        "scipy.sparse.csr_array",
    ]


def test_scan_finds_a_local_scipy_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import scipy.linalg\nfrom scipy.special import ndtr\n"
                   "def f():\n    from scipy.optimize import brentq\n")
    assert scipy_imports([src]) == [
        "scipy.linalg", "scipy.optimize.brentq", "scipy.special.ndtr"]
