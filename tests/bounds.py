"""The search's gate for one quorum system, the reference the search tests
check its block-at-a-time screening against."""

from __future__ import annotations

from typing import Union

from quorumopt.errors import NoResilientQuorum
from quorumopt.model import QuorumSystem, WorkloadLike
from quorumopt.optimize import Bound, Constraints, Objective, ascend


def can_beat(
    qs: QuorumSystem,
    workload: WorkloadLike,
    objective: Union[Objective, str],
    value: float | None,
    f: int = 0,
    constraints: Constraints | None = None,
) -> bool:
    """:meth:`Bound.may_beat` for one quorum system, on its own
    :class:`Bound` with its load bound set by :func:`ascend` where the load
    objective or a capacity limit needs it. Raises NoResilientQuorum as
    find_strategy does."""
    if qs.fault_tolerance() < f:
        raise NoResilientQuorum(f"a side has no quorum that survives every removal of {f} nodes")
    objective = Objective(objective)
    constraints = constraints or Constraints()
    bound = Bound(qs, workload, f)
    if bound.may_beat(objective, value, constraints):
        ascend([bound], workload, objective, value, constraints)
    return bound.may_beat(objective, value, constraints)
