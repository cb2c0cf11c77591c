"""Every top-level import of a package module is used in that module.

Each src/jetideals/*.py but __init__.py (whose imports are the package's
public names) is parsed with ast.  A name bound by a module-level import
must be read somewhere in the module: as a bare name or as the base of
an attribute chain.  `from __future__` imports bind nothing."""

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
