"""The runtime imports nothing beyond the standard library and itself.

Every module of the package is parsed, not imported, so an import that
only runs on some path (inside a function, say) is caught as well.  The
parse uses the grammar of Python 3.10, the oldest version pyproject.toml
accepts, so syntax newer than that fails here too.  A cold start of the
CLI also stays off the heavier stdlib modules, every name an annotation
uses is bound in its module, and no module calls ``substitute``: the
package pulls back only through ``Chart.pull``.
"""

from __future__ import annotations

import ast
import builtins
import os
import subprocess
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
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path), feature_version=(3, 10))
    assert sorted(set(imported_roots(tree)) - ALLOWED) == []


def test_cold_cli_import_loads_no_dataclasses_inspect_or_typing():
    """The records are namedtuples, so a start without site loads none of these."""
    src = Path(towerval.__file__).resolve().parent.parent
    probe = (
        "import sys, towerval.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def module_bindings(tree):
    """Names bound at the top level of a module: imports, defs, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def annotation_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            yield from (p.annotation for p in params if p is not None and p.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_annotation_name_is_bound_in_its_module(path):
    """Annotations are not evaluated at run time, so only a parse finds a
    name that a module uses in one but never imports or defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = set(module_bindings(tree)) | set(dir(builtins))
    used = {n.id for ann in annotation_nodes(tree) for n in ast.walk(ann) if isinstance(n, ast.Name)}
    assert sorted(used - bound) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_substitute(path):
    """``Polynomial.substitute`` is the tests' reference ring map; the
    package itself has one pullback path, ``Chart.pull``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "substitute"
    ]
    assert calls == []
