"""Every module-level import of the package and of its tests is used,
and every module-level private name of the package is read.

Two stdlib-only lints.  A name bound by a top-level ``import`` or
``from ... import`` in ``src/ringlab/*.py`` or ``tests/*.py`` must be
read somewhere in that module.  The package's ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so is
``from __future__ import ...``.  A function, class or assignment target
at the top of ``src/ringlab/*.py`` whose name starts with one
underscore must be read, as a name or an attribute, by some other
top-level statement of ``src/ringlab/``: a helper that only its own
definition reads is dead code.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(p for p in (_ROOT / "src" / "ringlab").glob("*.py") if p.name != "__init__.py")
_TESTS = sorted((_ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_lint_sees_an_unused_import():
    source = "import json\nfrom os import path, sep\nprint(sep)\n"
    assert _unused_imports(source) == ["json (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", _MODULES + _TESTS, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions, classes and assignment targets named ``_x``, not ``__x``."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        out.update((name, node) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def _reads(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree).items():
            if not any(name in names for stmt, names in reads if stmt is not node):
                dead.append(f"{module}:{name} (line {node.lineno})")
    return dead


def test_the_lint_sees_a_dead_private_name():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): return _dead()\n_LIMIT, _GONE = 1, 2\n",
        "b.py": "from a import _used\nclass _C: pass\nx = _used() or a._LIMIT\n",
    }
    assert _dead_private_names(sources) == [
        "a.py:_dead (line 2)", "a.py:_GONE (line 3)", "b.py:_C (line 2)"]


def test_every_private_name_of_the_package_is_read():
    package = _ROOT / "src" / "ringlab"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert _dead_private_names(sources) == []
