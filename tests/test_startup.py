"""How lp.py loads the HiGHS binding, each case in a fresh interpreter.

lp.py loads the binding's extension file by itself, so a command never
imports scipy.optimize, whose ``__init__`` used to be most of the start-up
time. These tests count modules and compare results; they time nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
DATA = Path(__file__).parent / "data"
BINDING = "scipy.optimize._highspy._core"


def run_python(code: str, *args, path=()) -> dict:
    """Run ``code`` in a fresh interpreter with src (after ``path``) on the
    import path, and return the JSON object its last line of stdout holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [*map(str, path), str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


COMMAND = """
import contextlib, io, json, sys
import quorumopt.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = quorumopt.cli.main(["strategy", sys.argv[1]])
print(json.dumps({"code": code, "optimize": "scipy.optimize" in sys.modules}))
"""


def test_a_command_does_not_import_scipy_optimize():
    got = run_python(COMMAND, DATA / "case_study.json")
    assert got == {"code": 0, "optimize": False}


# The small LP of test_lp.py, solved through lp.linprog and through
# scipy.optimize.linprog with the tolerances lp.linprog passes HiGHS. The
# binding is bound with "import ... as", which reads sys.modules: a binding
# that quorumopt loaded is not an attribute of its parent package.
IMPORT_ORDER = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
import numpy as np
import scipy.optimize
import scipy.optimize._highspy._core as core
from quorumopt import lp

lp_args = dict(
    A_ub=np.array([[1.0, -1.0]]), b_ub=np.array([0.0]),
    A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
    bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
)
c = np.array([1.0, 1.0])
ours = lp.linprog(c, **lp_args)
tolerances = {
    "primal_feasibility_tolerance": lp.FEASIBILITY_TOL,
    "dual_feasibility_tolerance": lp.FEASIBILITY_TOL,
}
theirs = scipy.optimize.linprog(c, **lp_args, method="highs", options=tolerances)
print(json.dumps({
    "same_binding": lp._Highs is core._Highs,
    "statuses": [ours.status, theirs.status],
    "x": [[v.hex() for v in ours.x], [v.hex() for v in theirs.x]],
}))
"""


@pytest.mark.parametrize(
    "first",
    [["quorumopt.lp", "scipy.optimize"], ["scipy.optimize", "quorumopt.lp"]],
    ids=["quorumopt-first", "scipy-first"],
)
def test_either_import_order_shares_one_binding(first):
    got = run_python(IMPORT_ORDER, *first)
    assert got["same_binding"]
    assert got["statuses"] == [0, 0]
    ours, theirs = got["x"]
    assert ours == theirs


def test_a_scipy_without_the_binding_is_named_in_the_error(tmp_path):
    # a stand-in scipy package whose optimize/_highspy folder is empty
    (tmp_path / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0.0.test"\n')
    code = """
import json
try:
    import quorumopt.lp
    print(json.dumps(None))
except ImportError as exc:
    print(json.dumps(str(exc)))
"""
    message = run_python(code, path=[tmp_path])
    assert message is not None
    assert f"scipy 0.0.test has no {BINDING} extension" in message
