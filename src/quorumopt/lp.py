"""The one HiGHS call and its status mapping.

:func:`quorumopt.optimize.find_strategy` builds its LP as dense arrays and
solves it here. This is the only module that imports ``linprog``. Required
accuracy: feasibility violation <= 1e-9, objective gap <= 1e-6.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .errors import Infeasible, SolverFailure

# Each row and bound of a returned x holds within this, absolutely.
FEASIBILITY_TOL = 1e-9
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": FEASIBILITY_TOL,
    "dual_feasibility_tolerance": 1e-9,
}


def solve(c, a_ub, b_ub, a_eq, b_eq, bounds) -> np.ndarray:
    """Optimal x of: minimize c.x subject to a_ub.x <= b_ub, a_eq.x = b_eq,
    and ``bounds``, an (n, 2) float array of each variable's lower and upper
    bound, ``np.inf`` for none. One array costs linprog less to check than
    a list of n pairs.

    Raises Infeasible when the constraints are unsatisfiable and
    SolverFailure for any other solver failure.
    """
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options=dict(_HIGHS_OPTIONS),
    )
    if result.status == 2:
        raise Infeasible("constraints are unsatisfiable")
    if result.status != 0:
        raise SolverFailure(f"LP solve failed: {result.message}")
    return result.x
