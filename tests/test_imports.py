"""Every module of the package uses what it imports.

No linter ships with the toolchain, so this walks the syntax tree of
each module (the package ``__init__``, which re-exports, excepted) and
fails on a name that is imported but never read.
"""

import ast
from pathlib import Path

import pytest

import bellcalc

MODULES = sorted(p for p in Path(bellcalc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Sequence\nos.sep\n") == ["line 2: Sequence"]
