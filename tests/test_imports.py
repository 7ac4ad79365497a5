"""Every module-level import of the package and of its tests is used.

A stdlib-only lint: a name bound by a top-level ``import`` or
``from ... import`` in ``src/ringlab/*.py`` or ``tests/*.py`` must be
read somewhere in that module.  The package's ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so is
``from __future__ import ...``.
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
