"""lp.py drives the HiGHS binding that scipy ships, which is private to
scipy. This module imports neither quorumopt nor the binding at collection,
so a scipy release that moves the binding fails here with one assertion
that names what is missing."""

import ast
import importlib
import importlib.util
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
