"""The runtime imports nothing beyond the standard library and itself.

Every module of the package is parsed, not imported, so an import that
only runs on some path (inside a function, say) is caught as well.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import towerval

MODULES = sorted(Path(towerval.__file__).resolve().parent.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"towerval"}


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_package_module_is_checked():
    assert {"__init__.py", "cli.py", "jets.py", "polyring.py", "tower.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_stdlib_and_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(imported_roots(tree)) - ALLOWED) == []
