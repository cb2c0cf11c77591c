"""Every top-level import of a package module is used in that module,
and none of them is sympy.

Each src/jetideals/*.py but __init__.py (whose imports are the package's
public names) is parsed with ast.  A name bound by a module-level import
must be read somewhere in the module: as a bare name or as the base of
an attribute chain.  `from __future__` imports bind nothing.  sympy
serves only the exact allowed-set solvers, which import it when they
run: no statement that runs at import time, in any module, imports it
(tests/test_startup.py checks the same in fresh interpreters)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jetideals"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(name, line) for each name bound by a top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"verifier.py", "cli.py",
                                         "directions.py", "symfun.py"}


def _import_time_modules(node):
    """The modules imported by statements of node that run when it is
    executed: everything but the bodies of functions and lambdas."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module
        yield from _import_time_modules(child)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_package_module_imports_sympy_at_top_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [m for m in _import_time_modules(tree)
             if m.split(".")[0] == "sympy"]
    assert not found, f"{path.name} imports {found} at import time"
