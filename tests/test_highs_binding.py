"""lp.py drives the HiGHS binding that scipy ships, which is private to
scipy, and loads it from its extension file in scipy's optimize/_highspy
folder. This module imports neither quorumopt nor the binding at
collection, so a scipy release that moves or changes the binding fails
here with one assertion that names what is missing."""

import ast
import importlib
import importlib.util
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import scipy

BINDING = "scipy.optimize._highspy._core"


def names_lp_imports() -> list[str]:
    """The names lp.py imports from the binding, read from its source."""
    package = importlib.util.find_spec("quorumopt").submodule_search_locations[0]
    tree = ast.parse((Path(package) / "lp.py").read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == BINDING
        for alias in node.names
    ]


def test_scipy_ships_every_binding_name_lp_uses():
    names = names_lp_imports()
    assert names, f"lp.py imports nothing from {BINDING} by name"
    try:
        core = importlib.import_module(BINDING)
    except ImportError as exc:
        raise AssertionError(f"scipy {scipy.__version__} has no {BINDING}: {exc}") from None
    missing = [name for name in names if not hasattr(core, name)]
    assert not missing, f"scipy {scipy.__version__} lacks {missing} in {BINDING}"


def test_the_binding_extension_file_is_where_lp_loads_it():
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    *folders, name = BINDING.split(".")[1:]
    paths = [Path(scipy_dir, *folders, name + suffix) for suffix in EXTENSION_SUFFIXES]
    assert any(path.is_file() for path in paths), (
        f"scipy {scipy.__version__} has no {BINDING} extension file: "
        f"none of {[str(path) for path in paths]} exists"
    )
