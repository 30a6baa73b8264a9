"""Static checks on the package source, with the standard library alone.

Run as a script, ``python tests/test_source.py`` prints the code lines of
each module and their total without ``oracle.py``, as :func:`code_lines`
counts them."""

import ast
import io
import tokenize
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
    return sorted(imported - read - exported(tree))


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


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


def unreferenced_public(checked: list[str], others: list[str]) -> list[str]:
    """The public module-level functions and classes of the ``checked``
    sources that none of their ``__all__`` lists and that no module of
    ``checked`` or ``others`` refers to, as a name, an attribute or an
    import, outside the definition itself, sorted."""
    defined, referenced, listed = set(), set(), set()
    for i, source in enumerate(checked + others):
        tree = ast.parse(source)
        listed |= exported(tree)
        for statement in tree.body:
            own = getattr(statement, "name", None)
            if i < len(checked) and isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(own)
            for node in ast.walk(statement):
                if isinstance(node, ast.alias):
                    referenced.update(node.name.split("."))
                elif isinstance(node, ast.Name) and node.id != own:
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    referenced.add(node.attr)
    public = {x for x in defined if not x.startswith("_")}
    return sorted(public - referenced - listed)


def unread_public_names(owner: str, readers: list[str]) -> list[str]:
    """The public names that the ``owner`` source defines at module level,
    by a function, a class or an assignment, that no source of ``readers``
    lists in its ``__all__`` or refers to, as a name, an attribute or an
    import, sorted."""
    defined, read = set(), set()
    for statement in ast.parse(owner).body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(statement.name)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    for source in readers:
        tree = ast.parse(source)
        read |= exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                read.update(node.name.split("."))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(x for x in defined - read if not x.startswith("_"))


def unread_private_attributes(checked: list[str], others: list[str]) -> list[str]:
    """The private attributes, those whose name starts with one underscore,
    that a module of ``checked`` writes on an instance, as ``self._x = ...``
    or ``object.__setattr__(..., "_x", ...)``, and that no module of
    ``checked`` or ``others`` reads as ``._x``, sorted. Storing into an
    attribute's item, ``self._x[k] = ...``, does not read it."""
    written, read = set(), set()
    for i, source in enumerate(checked + others):
        tree = ast.parse(source)
        stored = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) not in stored:
                    read.add(node.attr)
            elif i < len(checked) and isinstance(node, ast.Attribute) and (
                    isinstance(node.value, ast.Name) and node.value.id == "self"):
                written.add(node.attr)
            elif i < len(checked) and isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                written.add(node.args[1].value)
    private = {x for x in written if x.startswith("_") and not x.startswith("__")}
    return sorted(private - read)


def stdout_writers(sources: dict[str, str]) -> list[str]:
    """The functions of the named ``sources``, as ``module.function``, that
    refer to ``sys.stdout`` or call ``print`` without ``file=``, sorted. A
    function holds what the functions defined in it hold."""
    found = set()
    for module, source in sources.items():
        for function in ast.walk(ast.parse(source)):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                stdout = (isinstance(node, ast.Attribute) and node.attr == "stdout"
                          and isinstance(node.value, ast.Name) and node.value.id == "sys")
                printed = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                           and node.func.id == "print"
                           and all(k.arg != "file" for k in node.keywords))
                if stdout or printed:
                    found.add(f"{module}.{function.name}")
    return sorted(found)


def highs_importers(sources: dict[str, str]) -> list[str]:
    """The named ``sources`` that import ``scipy.optimize`` or a module under
    it, such as the HiGHS binding ``scipy.optimize._highspy._core``: by an
    import statement, ``from scipy import optimize``, or a call of
    ``import_module`` or ``__import__`` on a string, sorted."""

    def optimize(name) -> bool:
        return isinstance(name, str) and (name == "scipy.optimize"
                                          or name.startswith("scipy.optimize."))

    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                named = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                named = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
                called = node.func.attr if isinstance(node.func, ast.Attribute) else (
                    node.func.id if isinstance(node.func, ast.Name) else None)
                named = [node.args[0].value] if called in ("import_module", "__import__") else []
            else:
                continue
            if any(map(optimize, named)):
                found.add(module)
    return sorted(found)


def highs_constructors(sources: dict[str, str]) -> list[str]:
    """Where the named ``sources`` call ``_Highs``, as a name or an
    attribute, as ``module.function`` or ``module`` at module level, once
    per call, sorted. A call belongs to the innermost function that holds
    it."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {tree: module}
        for node in ast.walk(tree):  # a node before its children
            for child in ast.iter_child_nodes(node):
                owner[child] = (f"{module}.{node.name}" if isinstance(node, functions)
                                else owner[node])
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "_Highs"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "_Highs"):
                found.append(owner[node])
    return sorted(found)


def k_of_m_readers(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """The functions of the named ``sources``, as ``module.function``, that
    refer to ``threshold``, as a name or an attribute, and the sources that
    read an attribute ``children``, each sorted. A function holds what the
    functions defined in it hold."""

    def threshold(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "threshold"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == "threshold")

    callers, readers = set(), set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(threshold, ast.walk(node))):
                    callers.add(f"{module}.{node.name}")
            elif (isinstance(node, ast.Attribute) and node.attr == "children"
                  and isinstance(node.ctx, ast.Load)):
                readers.add(module)
    return sorted(callers), sorted(readers)


def self_referring_closures(sources: dict[str, str]) -> list[str]:
    """The functions of the named ``sources``, as ``module.function``, that
    are defined inside another function and refer to their own name, sorted.
    Such a function holds itself in a closure cell, a reference cycle that
    only the cyclic collector frees."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        nested = [inner for outer in ast.walk(tree) if isinstance(outer, functions)
                  for inner in ast.walk(outer) if inner is not outer
                  and isinstance(inner, functions)]
        for function in nested:
            if any(isinstance(n, ast.Name) and n.id == function.name
                   for n in ast.walk(function)):
                found.add(f"{module}.{function.name}")
    return sorted(found)


LIMIT_FIELDS = ("capacity_limit", "latency_limit", "network_limit")
# What a quorum's bitmask is read or made with. The masks stay in model.py,
# over the layout that expr.py defines; every other module reads a quorum
# family as QuorumSystem.members, its membership table.
MASK_NAMES = ("quorum_masks", "_family", "_masks", "unmask", "_bits", "mask_bits")
MASK_OWNERS = ("model", "expr")


def places(sources: dict[str, str], hit) -> list[str]:
    """Where the named ``sources`` hold a node for which ``hit(node)`` is
    true, as ``module.Class.function`` qualified by every enclosing class
    and function, or ``module`` at module level, once per place, sorted."""
    found = set()

    def visit(node, place: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{place}.{child.name}")
                continue
            if hit(child):
                found.add(place)
            visit(child, place)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def readers(sources: dict[str, str], names: tuple[str, ...]) -> list[str]:
    """Where the named ``sources`` read one of ``names``, as a name, an
    attribute or an import (see :func:`places`). Defining or writing a
    name, or naming it in a string, is not reading it."""

    def read(node) -> bool:
        if isinstance(node, ast.alias):
            return bool(set(node.name.split(".")) & set(names))
        if isinstance(node, ast.Attribute):
            return node.attr in names and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load)

    return places(sources, read)


def limit_readers(sources: dict[str, str]) -> list[str]:
    """Where the named ``sources`` read a field of ``LIMIT_FIELDS``."""
    return readers(sources, LIMIT_FIELDS)


def mask_readers(sources: dict[str, str]) -> list[str]:
    """Where the named ``sources`` read or make a quorum's bitmask, by a
    name of ``MASK_NAMES``."""
    return readers(sources, MASK_NAMES)


def quorum_readers(sources: dict[str, str]) -> list[str]:
    """The functions of the named ``sources`` (see :func:`places`) that call
    ``frozenset``, as a name or an attribute, other than ``_optimal``, which
    names the LP's selected columns, and the functions defined in it. A
    caller's quorum is read by ``QuorumSystem.node_set`` alone. A call at
    module level, or an annotation such as ``frozenset[str]``, reads none."""

    def made(node) -> bool:
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "frozenset"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "frozenset")

    return [place for place in places(sources, made)
            if "." in place and place.split(".")[1] != "_optimal"]


# The given expressions, the only public names of QuorumSystem that say
# which side they read: every other fact of a side is one method that takes
# the side as an argument.
GIVEN_SIDES = ("reads", "writes")


def sided_names(source: str, owner: str = "QuorumSystem") -> list[str]:
    """The public methods, properties and class attributes of the class
    ``owner`` in ``source`` whose name holds "read" or "write", sorted,
    other than ``GIVEN_SIDES`` when ``owner`` is the quorum system, whose
    given expressions they are."""
    names = set()
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and cls.name == owner:
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
    given = GIVEN_SIDES if owner == "QuorumSystem" else ()
    return sorted(name for name in names if not name.startswith("_")
                  and name not in given and ("read" in name or "write" in name))


# The decorators that make a cache which lives as long as the object they
# decorate: at module level, as long as the process.
CACHES = ("cache", "lru_cache")


def cache_clearers(sources: dict[str, str]) -> list[str]:
    """Where the named ``sources`` call ``cache_clear`` on anything (see
    :func:`places`)."""

    def clears(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cache_clear")

    return places(sources, clears)


def module_caches(source: str) -> list[int]:
    """The lines of ``source`` that read a name of ``CACHES``, as a name or
    an attribute, outside every function body: a decorator of a function
    or a method defined at module level, or a call there. Such a cache is
    shared by every caller in the process. A cache made inside a function
    body lives with that call."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    inside = {id(node) for function in ast.walk(tree) if isinstance(function, functions)
              for statement in function.body for node in ast.walk(statement)}
    return sorted({node.lineno for node in ast.walk(tree) if id(node) not in inside and (
        isinstance(node, ast.Name) and node.id in CACHES
        or isinstance(node, ast.Attribute) and node.attr in CACHES)})


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token other than a comment, a
    newline or an indent, outside the docstring of the module, a class or a
    function. A token that spans lines counts on each of them."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    blank = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in blank:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


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


def test_package_calls_or_exports_every_public_definition():
    # oracle.py, the naive reference, may define what only tests call
    checked = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "oracle.py"]
    assert unreferenced_public(checked, [(PACKAGE / "oracle.py").read_text()]) == []


def test_unreferenced_public_definitions_are_found():
    module = (
        "__all__ = ['Exported']\n"
        "class Exported:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def imported():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def orphan():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    importer = "from .table import imported as alias\n"
    assert unreferenced_public([module], [importer]) == ["orphan", "recursive"]
    assert unreferenced_public([module], []) == ["imported", "orphan", "recursive"]


def test_optimize_defines_nothing_public_that_only_the_search_reads():
    # optimize.py holds strategies, exact metrics and the LP; a public name
    # that only search.py reads belongs to the search's screen.
    readers = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name not in ("optimize.py", "search.py")]
    assert unread_public_names((PACKAGE / "optimize.py").read_text(), readers) == []


def test_public_names_read_by_no_other_layer_are_found():
    owner = (
        "import math\n"
        "LIMIT = 3\n"
        "STEPS: int = 40\n"
        "_MARGIN = 1e-6\n"
        "class Exported:\n"
        "    def method(self):\n"
        "        return screen()\n"
        "class Bound:\n"
        "    pass\n"
        "def screen(bounds: list[Bound]):\n"
        "    return LIMIT\n"
        "def imported():\n"
        "    return STEPS\n"
        "def attribute():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    package = "from .owner import Exported, imported as alias\n__all__ = ['Exported', 'alias']\n"
    cli = "from . import owner\ndef run():\n    return owner.attribute()\n"
    # what the owner reads of itself does not count: screen reads Bound
    assert unread_public_names(owner, [package, cli]) == ["Bound", "LIMIT", "STEPS", "screen"]
    assert unread_public_names(owner, [package]) == [
        "Bound", "LIMIT", "STEPS", "attribute", "screen"]
    assert unread_public_names(owner, ["__all__ = ['LIMIT']\n"]) == [
        "Bound", "Exported", "STEPS", "attribute", "imported", "screen"]


def test_package_reads_every_private_attribute_it_writes():
    # oracle.py, the naive reference, is read but not checked
    checked = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "oracle.py"]
    assert unread_private_attributes(checked, [(PACKAGE / "oracle.py").read_text()]) == []


def test_unread_private_attributes_are_found():
    module = (
        "class Table:\n"
        "    def __init__(self, rows):\n"
        "        self._rows = rows\n"
        "        self._cache = {}\n"
        "        self._spare = {}\n"
        "        self._spare[0] = 1\n"
        "        self._count = 0\n"
        "        self._count += 1\n"
        "        self.__hidden = 1\n"
        "        object.__setattr__(self, '_frozen', 1)\n"
        "        object.__setattr__(self, '_kept', 2)\n"
        "    def first(self):\n"
        "        self._cache[0] = self._rows[0]\n"
        "        return self._cache[0]\n"
    )
    reader = "def kept(table):\n    return table._kept\n"
    assert unread_private_attributes([module], [reader]) == ["_count", "_frozen", "_spare"]
    assert unread_private_attributes([module], []) == ["_count", "_frozen", "_kept", "_spare"]
    # a write outside the checked modules is not checked
    assert unread_private_attributes([reader], [module]) == []


def test_only_the_cli_writer_writes_stdout():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert stdout_writers(sources) == ["cli._emit"]


def test_stdout_writers_are_found():
    source = (
        "import sys\n"
        "def emit(doc):\n"
        "    sys.stdout.write(doc)\n"
        "def shout(doc):\n"
        "    print(doc)\n"
        "def redirect(doc):\n"
        "    print(doc, file=sys.stdout)\n"
        "def warn(doc):\n"
        "    print(doc, file=sys.stderr)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return sys.stdout\n"
        "    return inner\n"
        "sys.stdout.flush()\n"
    )
    assert stdout_writers({"m": source}) == [
        "m.emit", "m.inner", "m.outer", "m.redirect", "m.shout"]


def test_only_lp_touches_highs():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert highs_importers(sources) == ["lp"]


def test_highs_importers_are_found():
    sources = {
        "plain": "import scipy.optimize\n",
        "binding": "from scipy.optimize._highspy._core import _Highs\n",
        "package": "from scipy import optimize as opt\n",
        "dynamic": "import importlib\nhighs = importlib.import_module('scipy.optimize._highspy')\n",
        "builtin": "linprog = __import__('scipy.optimize').optimize.linprog\n",
        "nested": "def solve():\n    from scipy.optimize import linprog\n    return linprog\n",
        "other_scipy": "import scipy.sparse\nfrom scipy import linalg\n",
        "relative": "from . import lp\nfrom .lp import solve\n",
        "lookalike": "import scipy.optimizers\nimport_module = print\nimport_module(1)\n",
    }
    assert highs_importers(sources) == ["binding", "builtin", "dynamic", "nested", "package",
                                        "plain"]


def test_one_site_makes_a_highs_instance():
    # Every solve runs on the one instance that lp._instance keeps, so a
    # second call of _Highs would bring back an instance per solve.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert highs_constructors(sources) == ["lp._instance"]


def test_highs_constructors_are_found():
    sources = {
        "lp": (
            "from scipy.optimize._highspy._core import _Highs\n"
            "from scipy.optimize._highspy import _core\n"
            "DEFAULT = _Highs()\n"
            "def instance():\n"
            "    return _Highs()\n"
            "def run(lp):\n"
            "    def fresh():\n"
            "        return _core._Highs()\n"
            "    highs = fresh()\n"
            "    return highs.run(), _Highs(), _Highs\n"
        ),
        "other": "from .lp import _Highs\nmake = _Highs\n",
    }
    # naming _Highs without calling it, as ``make = _Highs`` does, makes none
    assert highs_constructors(sources) == ["lp", "lp.fresh", "lp.instance", "lp.run"]


def test_only_the_fold_reads_the_k_of_m_rule():
    # Every pass over an expression tree is one expr.fold, so the k-of-m
    # rule, threshold over a node's children, is written once.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert k_of_m_readers(sources) == (["expr.fold"], ["expr"])


def test_k_of_m_readers_are_found():
    sources = {
        "expr": (
            "def threshold(e):\n"
            "    return e.k\n"
            "def fold(e, leaf, take):\n"
            "    return take([fold(c, leaf, take) for c in e.children], threshold(e))\n"
        ),
        "search": (
            "from . import expr\n"
            "def key(e):\n"
            "    return expr.threshold(e)\n"
            "def size(e):\n"
            "    return len(e.children)\n"
        ),
        "model": (
            "from .expr import threshold\n"
            "def outer(e):\n"
            "    def inner():\n"
            "        return threshold(e)\n"
            "    return inner\n"
            "def build(node, children):\n"
            "    node.children = children\n"
            "    return node\n"
        ),
    }
    # writing children, as build does, is not reading them
    assert k_of_m_readers(sources) == (
        ["expr.fold", "model.inner", "model.outer", "search.key"], ["expr", "search"])


def nonlocal_statements(sources: dict[str, str]) -> list[str]:
    """Where the named ``sources`` hold a ``nonlocal`` statement (see
    :func:`places`). A closure that rebinds a name of its enclosing
    function shares state that a return value or an object would carry."""
    return places(sources, lambda node: isinstance(node, ast.Nonlocal))


def test_no_function_rebinds_a_name_of_another():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert nonlocal_statements(sources) == []


def test_nonlocal_statements_are_found():
    source = (
        "def search(names):\n"
        "    examined = 0\n"
        "    def reached():\n"
        "        nonlocal examined\n"
        "        examined += 1\n"
        "        yield examined\n"
        "    return list(reached()), examined\n"
        "class Screen:\n"
        "    def decide(self, systems):\n"
        "        best = None\n"
        "        def keep(qs):\n"
        "            nonlocal best\n"
        "            best = qs\n"
        "        return best, keep\n"
        "def counted(names):\n"
        "    total = 0\n"
        "    for _ in names:\n"
        "        total += 1\n"
        "    return total\n"
    )
    assert nonlocal_statements({"search": source}) == [
        "search.Screen.decide.keep", "search.search.reached"]


def test_no_nested_function_refers_to_itself():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert self_referring_closures(sources) == []


def test_self_referring_closures_are_found():
    source = (
        "import functools\n"
        "def walk(e):\n"
        "    def go(x):\n"
        "        return [go(c) for c in x]\n"
        "    return go(e)\n"
        "def cached():\n"
        "    @functools.cache\n"
        "    def depth(n):\n"
        "        return depth(n - 1) if n else 0\n"
        "    return depth\n"
        "def flat(e):\n"
        "    def leaf(x):\n"
        "        return flat(x)\n"
        "    return leaf\n"
        "def top(n):\n"
        "    return top(n - 1) if n else 0\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        def count(t):\n"
        "            return 1 + sum(count(c) for c in t.kids)\n"
        "        return count(self), self.size\n"
    )
    assert self_referring_closures({"m": source}) == ["m.count", "m.depth", "m.go"]


def test_only_constraints_turns_a_limit_into_a_bound():
    # Constraints.limits() lays out the LP's limit rows, the search screen's
    # thresholds and the search's node types; a second reader of a limit
    # field would be a second rule for what a limit bounds.
    sources = {name: (PACKAGE / f"{name}.py").read_text() for name in ("optimize", "search")}
    assert [place for place in limit_readers(sources)
            if not place.startswith("optimize.Constraints.")] == []


def test_limit_readers_are_found():
    sources = {
        "optimize": (
            "class Constraints:\n"
            "    def limits(self):\n"
            "        return {'load': 1 / self.capacity_limit, 'latency': self.latency_limit}\n"
            "def optimal(constraints):\n"
            "    capacity = constraints.capacity_limit\n"
            "    def rows():\n"
            "        return [constraints.network_limit]\n"
            "    return capacity, rows\n"
            "def built(constraints):\n"
            "    constraints.latency_limit = 2\n"
            "    return getattr(constraints, 'network_limit'), constraints.limits()\n"
        ),
        "search": (
            "class Screen:\n"
            "    def __init__(self, constraints):\n"
            "        self.max_load = 1 / float(constraints.capacity_limit)\n"
            "def group_key(options):\n"
            "    return options.constraints.latency_limit is not None\n"
            "LIMIT = DEFAULT.network_limit\n"
        ),
    }
    # writing a field, or naming it as a string, is not reading it
    assert limit_readers(sources) == [
        "optimize.Constraints.limits", "optimize.optimal", "optimize.optimal.rows", "search",
        "search.Screen.__init__", "search.group_key"]


def test_only_the_model_reads_a_quorum_mask():
    # A quorum family leaves model.py as its membership table,
    # QuorumSystem.members; a module that reads a mask would know the bit
    # layout, a second owner of it.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.stem not in MASK_OWNERS}
    assert mask_readers(sources) == []


def test_mask_readers_are_found():
    sources = {
        "optimize": (
            "from . import expr as _expr\n"
            "def optimal(qs, f):\n"
            "    pools = {side: qs.quorum_masks(side, f) for side in ('read', 'write')}\n"
            "    def quorum(mask, names):\n"
            "        return _expr.unmask([mask], names)\n"
            "    return pools, quorum\n"
            "def table(qs):\n"
            "    return qs.members('read')\n"
        ),
        "search": (
            "from .expr import mask_bits\n"
            "class Screen:\n"
            "    def least(self, qs, side):\n"
            "        return qs._family(side, self.f)\n"
            "    def named(self):\n"
            "        return 'quorum_masks'\n"
            "def bits(names):\n"
            "    _bits = {}\n"
            "    return names\n"
        ),
    }
    # naming a mask reader in a string, or binding a name of it, as named
    # and bits do, reads no mask
    assert mask_readers(sources) == [
        "optimize.optimal", "optimize.optimal.quorum", "search", "search.Screen.least"]


def test_only_node_set_reads_a_callers_quorum():
    # QuorumSystem.node_set turns a caller's quorum into a frozenset of
    # node names; a second reader in optimize.py would be a second rule
    # for what a quorum is.
    assert quorum_readers({"optimize": (PACKAGE / "optimize.py").read_text()}) == []


def test_quorum_readers_are_found():
    sources = {
        "optimize": (
            "import builtins\n"
            "EMPTY = frozenset()\n"
            "def quorum_latency(qs, side, quorum: frozenset[str]) -> frozenset[str]:\n"
            "    quorum = frozenset(quorum)\n"
            "    return quorum\n"
            "class Strategy:\n"
            "    def _normalize(self, dist) -> tuple[frozenset[str], ...]:\n"
            "        return tuple(builtins.frozenset(q) for q, _ in dist)\n"
            "    def named(self, dist) -> list[frozenset[str]]:\n"
            "        return [self._qs.node_set(q) for q, _ in dist]\n"
            "def _optimal(qs, member):\n"
            "    def read_off(column):\n"
            "        return frozenset(column)\n"
            "    return frozenset(member), read_off\n"
            "def outer(quorums):\n"
            "    def inner(q):\n"
            "        return frozenset(q)\n"
            "    return inner\n"
        ),
    }
    # an annotation, a call at module level, and _optimal's own read-off
    # read no caller's quorum
    assert quorum_readers(sources) == [
        "optimize.Strategy._normalize", "optimize.outer.inner", "optimize.quorum_latency"]


def test_quorum_system_names_no_side_but_the_given_ones():
    # The read and write sides are each other's duals, so each fact of a
    # side is one method that takes the side; a read_*/write_* pair would
    # write the fact twice.
    assert sided_names((PACKAGE / "model.py").read_text()) == []


def test_strategy_names_no_side():
    # A strategy is one distribution per side, read through dist(side).
    assert sided_names((PACKAGE / "optimize.py").read_text(), "Strategy") == []


def test_sided_names_are_found():
    source = (
        "class QuorumSystem:\n"
        "    read_quorums = property(lambda self: self.side('read'))\n"
        "    write_ft: int = 0\n"
        "    @property\n"
        "    def reads(self):\n"
        "        return self._exprs['read']\n"
        "    @property\n"
        "    def write_minimal(self):\n"
        "        return self.resilient_quorums('write')\n"
        "    def is_read_quorum(self, names):\n"
        "        return self.is_quorum('read', names)\n"
        "    def _read_once(self):\n"
        "        return True\n"
        "    def fault_tolerance(self, side=None):\n"
        "        return 0\n"
        "class Strategy:\n"
        "    def read_load(self):\n"
        "        return 0\n"
        "def read_fraction(value):\n"
        "    return value\n"
    )
    # a given side, a private helper, another class's method and a module
    # function are not the quorum system's public surface
    assert sided_names(source) == ["is_read_quorum", "read_quorums", "write_ft", "write_minimal"]
    strategy = (
        "class Strategy:\n"
        "    reads = None\n"
        "    @property\n"
        "    def write_dist(self):\n"
        "        return self.dist('write')\n"
        "    def read_load(self, workload):\n"
        "        return 0\n"
        "    def dist(self, side):\n"
        "        return []\n"
        "class QuorumSystem:\n"
        "    def is_read_quorum(self, names):\n"
        "        return True\n"
    )
    # a property is a public name too, the given sides are the quorum
    # system's alone, and the quorum system's method is not the strategy's
    assert sided_names(strategy, "Strategy") == ["read_load", "reads", "write_dist"]


def test_the_search_keeps_no_module_cache_and_no_module_clears_one():
    # The enumeration's memo belongs to one stream: a cache of search.py's
    # module would be shared by every stream in the process, and a stream
    # that cleared it when it ended would clear it under every other one.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert cache_clearers(sources) == []
    assert module_caches(sources["search"]) == []


def test_module_caches_and_cache_clearers_are_found():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\n"
        "def depth(block, d):\n"
        "    return d\n"
        "class Screen:\n"
        "    @lru_cache(maxsize=8)\n"
        "    def key(self, reads):\n"
        "        return reads\n"
        "memo = cache(depth)\n"
        "def stream(names, kept=None):\n"
        "    @cache\n"
        "    def inner(block):\n"
        "        return functools.lru_cache(block)\n"
        "    depth.cache_clear()\n"
        "    return inner\n"
        "class Search:\n"
        "    def done(self):\n"
        "        self.memo.cache_clear()\n"
        "depth.cache_clear()\n"
        "cached = functools.cached_property\n"
    )
    # the import names no cache, a cache made in a function body lives with
    # its call, and a cached_property lives with its instance
    assert module_caches(source) == [3, 7, 10]
    assert cache_clearers({"search": source}) == [
        "search", "search.Search.done", "search.stream"]


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = (
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "    def f(self):\n"
        '        """Function docstring."""\n'
        "        return 1  # counted: code before the comment\n"
        "\n"
        "TEXT = \"\"\"a string\n"
        'that is not a docstring"""\n'
        "x = [1,\n"
        "     2]\n"
    )
    # class A, def f, return, both lines of TEXT and both lines of x
    assert code_lines(source) == 7


if __name__ == "__main__":
    # The code lines of each module, and their total without oracle.py, the
    # deliberately naive reference that stays out of the package's count.
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path.read_text())
        total += lines if path.name != "oracle.py" else 0
        print(f"{path.name:<12} {lines:>5}")
    print(f"{'total':<12} {total:>5}  (without oracle.py)")
