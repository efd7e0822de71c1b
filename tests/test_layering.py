"""The package's module layering, read from the source: every import
sits at module level, no module reaches for another's underscore name,
and the intra-package import graph has no cycle, so each module can be
read and loaded after the ones it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nclab"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _function_bodies(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


def _package_imports(tree):
    """(module, names) of each `from .module import names` at module
    level; `from . import name` reads a module, or else a name of the
    package's __init__."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                yield node.module, [alias.name for alias in node.names]
                continue
            for alias in node.names:
                yield (alias.name, []) if alias.name in MODULES else ("__init__", [alias.name])


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    inner = [
        f"{name}.py:{node.lineno}"
        for body in _function_bodies(MODULES[name])
        for node in ast.walk(body)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert inner == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_private_name_crosses_modules(name):
    private = [
        f"{module}.{n}"
        for module, names in _package_imports(MODULES[name])
        for n in names
        if n.startswith("_") and not n.endswith("__")
    ]
    assert private == []


def test_module_import_graph_has_no_cycle():
    graph = {name: {module for module, _ in _package_imports(tree)} for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            pytest.fail("import cycle: " + " -> ".join(path[path.index(name) :] + [name]))
        if name in done:
            return
        path.append(name)
        for module in sorted(graph.get(name, ())):
            visit(module)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
