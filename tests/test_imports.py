"""Every top-level import of a package module is used in that module,
and none of them is sympy; every top-level function and class is used.

Each src/jetideals/*.py but __init__.py (whose imports are the package's
public names) is parsed with ast.  A name bound by a module-level import
must be read somewhere in the module: as a bare name or as the base of
an attribute chain.  `from __future__` imports bind nothing.  No
package module imports sympy anywhere, at import time or in a function
body (tests/test_startup.py computes allowed sets in a fresh
interpreter where importing sympy raises).

A top-level function or class, and a method of a top-level class other
than a dunder, must be read somewhere in src/ outside its own
definition, or in bench/ or demos/, or be a public name of the package:
a helper that only the tests read is dead code.  A function or class
may be read by its bare name; a method only as an attribute (x.name)
whose receiver is not an imported module, or in an identifier string
(getattr, bench/tracing.py's targets), so a local variable or builtin
of the same name does not keep it, nor a module's function of the same
name (np.max, math.sqrt)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jetideals"
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


def _imported_modules(tree):
    """The modules named by every import statement of tree, those in
    function bodies included; a relative import by its name within the
    package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_package_module_imports_sympy_at_top_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [m for m in _imported_modules(tree)
             if m.split(".")[0] == "sympy"]
    assert not found, f"{path.name} imports {found}"


PACKAGE_MODULES = {p.stem for p in SRC.glob("*.py")}


def _module_names(tree):
    """The names tree binds to modules: every `import a.b` (a) or
    `import a as b` (b), and `from p import q` for q a package module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.asname or alias.name.split(".")[0]
                       for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.asname or alias.name for alias in node.names
                       if alias.name in PACKAGE_MODULES)
    return out


def _reads(tree, skip=None):
    """The identifiers tree reads outside the subtree `skip`, as three
    sets: bare names (loads, and names imported from a module);
    attribute names on receivers other than imported modules, with
    identifier strings (bench/tracing.py names what it wraps by string);
    and attribute names read off imported modules."""
    modules = _module_names(tree)
    names, attrs, module_attrs, stack = set(), set(), set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                module_attrs.add(node.attr)
            else:
                attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            attrs.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs, module_attrs


def test_every_top_level_function_and_class_is_used():
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    reads = {p: _reads(tree) for p, tree in trees.items()}
    for p in [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        reads[p] = _reads(ast.parse(p.read_text(), filename=str(p)))
    unused = []
    for p, tree in trees.items():
        others = [r for q, r in reads.items() if q != p]
        for node, is_method in _definitions(tree):
            if not any(node.name in attrs
                       or (not is_method and node.name in names | module_attrs)
                       for names, attrs, module_attrs
                       in [_reads(tree, skip=node), *others]):
                unused.append(f"{p.name}: {node.name} (line {node.lineno})")
    assert not unused, f"defined but never used: {unused}"


def _definitions(tree):
    """(node, is_method) for the top-level functions and classes of a
    module, and the methods of its classes but the dunders."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((d, True) for d in node.body
                        if isinstance(d, functions)
                        and not (d.name.startswith("__")
                                 and d.name.endswith("__")))
