"""The search's screen for one quorum system, the reference the search tests
check its block-at-a-time screening against."""

from __future__ import annotations

import importlib
from typing import Union

from quorumopt.errors import NoResilientQuorum
from quorumopt.model import QuorumSystem, Workload, WorkloadLike
from quorumopt.optimize import Constraints, Objective

# the module, which the package's `search` function shadows as an attribute
search_module = importlib.import_module("quorumopt.search")


def screen(qs: QuorumSystem, workload: WorkloadLike, objective: Union[Objective, str] = "load",
           f: int = 0, constraints: Constraints | None = None):
    """The screen that a search of ``qs``'s universe under this query
    builds."""
    return search_module._Screen(qs.universe, Workload.coerce(workload), Objective(objective),
                                 constraints or Constraints(), f)


def can_beat(
    qs: QuorumSystem,
    workload: WorkloadLike,
    objective: Union[Objective, str],
    value: float | None,
    f: int = 0,
    constraints: Constraints | None = None,
) -> bool:
    """Whether the screen leaves one quorum system in play against ``value``,
    which it reads as the float the search holds: out of reach on its tree
    costs alone, or else on the load bound of an ascent over it alone where
    the load objective or a capacity limit reads one. Raises
    NoResilientQuorum as find_strategy does."""
    if qs.fault_tolerance() < f:
        raise NoResilientQuorum(f"a side has no quorum that survives every removal of {f} nodes")
    bar = None if value is None else float(value)
    one = screen(qs, workload, objective, f, constraints)
    cost = one.costs([qs])
    if one.out_of_reach(bar, cost)[0]:
        return False
    return not one.out_of_reach(bar, cost, one.ascend([qs], cost, bar))[0]
