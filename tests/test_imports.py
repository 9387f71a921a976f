"""Every module of the package, the tests and the demos references each
name it imports.  A stdlib ast scan; __future__ imports and the
re-exports of __init__.py are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/heckeforge", "tests", "demos")
               for path in (ROOT / folder).rglob("*.py")
               if path.name != "__init__.py")


def unused_imports(source):
    """The names that source imports and never references, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names
                         if alias.name != "*"}
    # an attribute chain a.b.c starts with the Name a
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom math import gcd, pi as tau\n"
              "print(os.path.sep, tau)\n")
    assert unused_imports(source) == ["gcd", "sys"]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
