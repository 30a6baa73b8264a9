"""Static checks on the package source, with the standard library alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "quorumopt"


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads and does not list in
    ``__all__``, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def unreferenced_private(sources: list[str]) -> list[str]:
    """The private functions, methods and classes, those whose name starts
    with one underscore, that no module of ``sources`` refers to as a name,
    an attribute or an import, sorted."""
    defined, referenced = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update(node.name.split("."))
    private = {x for x in defined if x.startswith("_") and not x.startswith("__")}
    return sorted(private - referenced)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import DomainError, Infeasible as Bad, Unused\n"
        "__all__ = ['Unused']\n"
        "def f(x: DomainError) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["Bad", "os"]


def test_package_refers_to_every_private_definition():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private(sources) == []


def test_unreferenced_private_definitions_are_found():
    module = (
        "class _Table:\n"
        "    def __init__(self):\n"
        "        self._rows = self._build()\n"
        "    def _build(self):\n"
        "        return []\n"
        "    def _node_load_at(self, name):\n"
        "        return 0\n"
        "def _helper():\n"
        "    return _Table()\n"
        "def _unused():\n"
        "    pass\n"
    )
    importer = "from .table import _helper as helper\n"
    assert unreferenced_private([module, importer]) == ["_node_load_at", "_unused"]
    assert unreferenced_private([module]) == ["_helper", "_node_load_at", "_unused"]
