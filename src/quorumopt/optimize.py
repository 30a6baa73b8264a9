"""Strategies and strategy optimization.

A strategy is a pair of probability distributions over read and write
quorums. Its metrics are defined per read fraction f and averaged over the
workload distribution:

* per-fraction load: the busiest node's capacity-normalized selection
  probability, ``max_x f*rm(x)/read_cap(x) + (1-f)*wm(x)/write_cap(x)``
  where rm/wm are the node's read/write selection probabilities;
* load: expected per-fraction load (the LP objective);
* capacity: expected per-fraction capacity, ``E[1 / load_f]``. For a
  single-point workload this is exactly 1/load; under a distribution it is
  the throughput the strategy averages across fractions drawn from it,
  while 1/load remains the largest rate sustainable at every fraction
  simultaneously (used by :func:`throughput_breakdown`);
* latency: expected time for the fastest sub-quorum of the chosen quorum to
  respond;
* network load: expected number of nodes contacted per operation.

:func:`find_strategy` builds a linear program whose variables are the
selection probabilities over minimal (f-resilient) quorums plus one load
variable per workload point. Restricting support to minimal quorums loses
nothing: every metric is monotone in quorum size. Metrics of the returned
strategy are recomputed in exact rational arithmetic; floats live only
inside the solver.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Union

import numpy as np

from . import expr as _expr
from . import lp
from .errors import DomainError, NoResilientQuorum
from .model import QuorumSystem, Rational, Workload, WorkloadLike, as_fraction

_DIST_SUM_TOL = Fraction(1, 10**6)
# can_beat's margin, the distribution-sum tolerance doubled to cover float
# rounding in its bounds, and its ascent steps on the node weights.
_BOUND_MARGIN = 2 * _DIST_SUM_TOL
_ASCENT_STEPS = 40


class Objective(str, enum.Enum):
    LOAD = "load"
    LATENCY = "latency"
    NETWORK = "network"


@dataclass(frozen=True)
class Constraints:
    """Optional side constraints for :func:`find_strategy`.

    capacity_limit: commands/sec the strategy must sustain (expected load
    at most 1/limit); latency_limit: seconds; network_limit: expected
    messages per operation.
    """

    capacity_limit: Fraction | None = None
    latency_limit: Fraction | None = None
    network_limit: Fraction | None = None

    def __post_init__(self):
        for field in ("capacity_limit", "latency_limit", "network_limit"):
            value = getattr(self, field)
            if value is None:
                continue
            value = as_fraction(value)
            if value <= 0:
                raise DomainError(f"{field} must be positive")
            object.__setattr__(self, field, value)


def quorum_latency(qs: QuorumSystem, side: str, quorum: Iterable[str]) -> Fraction:
    """Time to assemble a quorum of responses after contacting ``quorum``.

    Nodes respond in latency order, so the answer is the latency of the
    shortest prefix (sorted ascending) that is itself a quorum; that prefix
    realizes the minimum over all sub-quorums.
    """
    e = qs.side(side)
    members = sorted(quorum, key=lambda x: (qs.node(x).latency, x))
    alive: set[str] = set()
    for name in members:
        alive.add(name)
        if e.evaluate(alive):
            return qs.node(name).latency
    raise DomainError(f"{set(quorum)} is not a {side} quorum")


class Strategy:
    """Probability distributions over read and write quorums of a quorum
    system, with exact metric recomputation."""

    def __init__(
        self,
        qs: QuorumSystem,
        read_dist: Iterable[tuple[Iterable[str], Rational]],
        write_dist: Iterable[tuple[Iterable[str], Rational]],
        f: int = 0,
    ):
        self._qs = qs
        self._f = f
        self._read_dist = self._normalize(read_dist, "read")
        self._write_dist = self._normalize(write_dist, "write")

    def _normalize(self, dist, side: str) -> tuple[tuple[frozenset[str], Fraction], ...]:
        e = self._qs.side(side)
        entries = []
        for quorum, prob in dist:
            quorum = frozenset(quorum)
            prob = as_fraction(prob)
            if not 0 <= prob <= 1:
                raise DomainError(f"probability {prob} is outside [0, 1]")
            if not e.evaluate(quorum):
                raise DomainError(f"{set(quorum)} is not a {side} quorum")
            if self._f > 0 and not self._qs.is_resilient(side, quorum, self._f):
                raise DomainError(
                    f"{set(quorum)} is not {self._f}-resilient on the {side} side"
                )
            entries.append((quorum, prob))
        total = sum(p for _, p in entries)
        if abs(total - 1) > _DIST_SUM_TOL:
            raise DomainError(f"{side} distribution sums to {total}, not 1")
        entries.sort(key=lambda qp: (len(qp[0]), tuple(sorted(qp[0]))))
        return tuple(entries)

    @property
    def qs(self) -> QuorumSystem:
        return self._qs

    @property
    def f(self) -> int:
        return self._f

    @property
    def read_dist(self) -> list[tuple[frozenset[str], Fraction]]:
        return list(self._read_dist)

    @property
    def write_dist(self) -> list[tuple[frozenset[str], Fraction]]:
        return list(self._write_dist)

    def __repr__(self) -> str:
        def fmt(dist):
            return "{" + ", ".join(
                f"{{{', '.join(sorted(q))}}}: {p}" for q, p in dist
            ) + "}"

        return f"Strategy(reads={fmt(self._read_dist)}, writes={fmt(self._write_dist)})"

    # -- node selection masses ----------------------------------------------

    @cached_property
    def _read_mass(self) -> dict[str, Fraction]:
        mass: dict[str, Fraction] = {}
        for quorum, p in self._read_dist:
            for x in quorum:
                mass[x] = mass.get(x, Fraction(0)) + p
        return mass

    @cached_property
    def _write_mass(self) -> dict[str, Fraction]:
        mass: dict[str, Fraction] = {}
        for quorum, p in self._write_dist:
            for x in quorum:
                mass[x] = mass.get(x, Fraction(0)) + p
        return mass

    def _node_load_at(self, name: str, fr: Fraction) -> Fraction:
        node = self._qs.node(name)
        rm = self._read_mass.get(name, Fraction(0))
        wm = self._write_mass.get(name, Fraction(0))
        return fr * rm / node.read_cap + (1 - fr) * wm / node.write_cap

    def load_at(self, fr: Rational) -> Fraction:
        """Per-fraction load: utilization of the busiest node."""
        fr = as_fraction(fr)
        return max(
            self._node_load_at(n.name, fr)
            for n in self._qs.universe
            if n.name in self._read_mass or n.name in self._write_mass
        )

    # -- workload-level metrics ----------------------------------------------

    def load(self, workload: WorkloadLike) -> Fraction:
        w = Workload.coerce(workload)
        return sum(p * self.load_at(fr) for fr, p in w.items())

    def capacity(self, workload: WorkloadLike) -> Fraction:
        w = Workload.coerce(workload)
        return sum(p / self.load_at(fr) for fr, p in w.items())

    def node_load(self, name: str, workload: WorkloadLike) -> Fraction:
        w = Workload.coerce(workload)
        return sum(p * self._node_load_at(name, fr) for fr, p in w.items())

    def latency(self, workload: WorkloadLike) -> Fraction:
        w = Workload.coerce(workload)
        ef = w.mean_read_fraction
        read = sum(p * quorum_latency(self._qs, "read", q) for q, p in self._read_dist)
        write = sum(p * quorum_latency(self._qs, "write", q) for q, p in self._write_dist)
        return ef * read + (1 - ef) * write

    def network_load(self, workload: WorkloadLike) -> Fraction:
        w = Workload.coerce(workload)
        ef = w.mean_read_fraction
        read = sum(p * len(q) for q, p in self._read_dist)
        write = sum(p * len(q) for q, p in self._write_dist)
        return ef * read + (1 - ef) * write


def _quorum_cost(qs: QuorumSystem, kind: Objective, side: str, quorum) -> Fraction | int:
    """What one use of ``quorum`` costs under the latency or network metric."""
    return quorum_latency(qs, side, quorum) if kind is Objective.LATENCY else len(quorum)


def _membership(qs: QuorumSystem, quorums: list[frozenset[str]]) -> np.ndarray:
    """Node-by-quorum 0/1 matrix, nodes in universe order."""
    index = {node.name: i for i, node in enumerate(qs.universe)}
    member = np.zeros((len(index), len(quorums)))
    for j, quorum in enumerate(quorums):
        member[[index[name] for name in quorum], j] = 1.0
    return member


def uniform_strategy(qs: QuorumSystem, f: int = 0) -> Strategy:
    """Every minimal (f-resilient) quorum of each side equally likely."""
    reads = qs.resilient_quorums("read", f)
    writes = qs.resilient_quorums("write", f)
    return Strategy(
        qs,
        [(q, Fraction(1, len(reads))) for q in reads],
        [(q, Fraction(1, len(writes))) for q in writes],
        f=f,
    )


def find_strategy(
    qs: QuorumSystem,
    workload: WorkloadLike,
    objective: Union[Objective, str] = Objective.LOAD,
    constraints: Constraints | None = None,
    f: int = 0,
) -> Strategy:
    """Optimal strategy for the given objective, subject to the constraints.

    The LP's columns are the selection probabilities of the minimal
    f-resilient read quorums, then of the write quorums, each in [0, 1],
    then one load L_f >= 0 per read fraction f, in workload order. Its rows:

    * two equalities: each side's probabilities sum to 1;
    * per node that is in some quorum (universe order), then per read
      fraction (workload order): ``f*rm(x)/read_cap(x) +
      (1-f)*wm(x)/write_cap(x) - L_f <= 0``;
    * one row per requested limit, in the order capacity, latency, network.

    Each metric is one cost vector, used as the objective or as a limit row:
    load is the expected L_f (a capacity limit c bounds it by 1/c), latency
    and network are the expected quorum latency and quorum size.

    Raises Infeasible when no strategy satisfies the constraints and
    NoResilientQuorum when a side has no f-resilient quorum at all.
    """
    w = Workload.coerce(workload)
    objective = Objective(objective)
    constraints = constraints or Constraints()

    read_pool = qs.resilient_quorums("read", f)
    write_pool = qs.resilient_quorums("write", f)
    columns = [("read", q) for q in read_pool] + [("write", q) for q in write_pool]
    is_write = np.repeat([0, 1], [len(read_pool), len(write_pool)])
    points = w.items()
    nq, nl = len(columns), len(points)
    share = {"read": w.mean_read_fraction, "write": 1 - w.mean_read_fraction}

    @cache
    def cost(kind: Objective) -> np.ndarray:
        if kind is Objective.LOAD:
            return np.array([0.0] * nq + [float(p) for _, p in points])
        sizes = [float(share[s] * _quorum_cost(qs, kind, s, q)) for s, q in columns]
        return np.array(sizes + [0.0] * nl)

    capacity = constraints.capacity_limit
    limit_of = {
        Objective.LOAD: None if capacity is None else 1 / capacity,
        Objective.LATENCY: constraints.latency_limit,
        Objective.NETWORK: constraints.network_limit,
    }
    limits = [(kind, limit) for kind, limit in limit_of.items() if limit is not None]

    member = _membership(qs, [quorum for _, quorum in columns])
    used = np.flatnonzero(member.any(axis=1))
    # coef[node, point, side]: the node's load per unit of selection probability
    coef = np.array(
        [[(float(fr / n.read_cap), float((1 - fr) / n.write_cap)) for fr, _ in points]
         for n in (qs.universe[i] for i in used)]
    )
    nload = len(used) * nl
    a_ub = np.zeros((nload + len(limits), nq + nl))
    a_ub[:nload, :nq] = (coef[:, :, is_write] * member[used, None, :]).reshape(nload, nq)
    a_ub[np.arange(nload), nq + np.arange(nload) % nl] = -1.0
    b_ub = np.zeros(nload + len(limits))
    for row, (kind, limit) in enumerate(limits, start=nload):
        a_ub[row] = cost(kind)
        b_ub[row] = float(limit)
    a_eq = np.zeros((2, nq + nl))
    a_eq[is_write, np.arange(nq)] = 1.0
    bounds = np.zeros((nq + nl, 2))
    bounds[:, 1] = np.repeat([1.0, np.inf], [nq, nl])

    x = lp.solve(cost(objective), a_ub, b_ub, a_eq, np.ones(2), bounds)
    dist = {"read": [], "write": []}
    for (s, quorum), p in zip(columns, x):
        p = min(float(p), 1.0)  # solver round-off can spill past 1
        if p > 1e-9:
            dist[s].append((quorum, Fraction(p)))
    return Strategy(qs, dist["read"], dist["write"], f=f)


def _least_cost(qs: QuorumSystem, kind: Objective, side: str, f: int) -> float:
    """The least latency or node count of a minimal f-resilient quorum of
    ``side``; for f = 0, computed on the expression tree."""
    if f > 0:
        pool = qs.resilient_quorums(side, f)
        return float(min(_quorum_cost(qs, kind, side, q) for q in pool))
    if kind is Objective.LATENCY:
        latency = {n.name: float(n.latency) for n in qs.universe}
        return _expr.min_quorum_latency(qs.side(side), latency)
    return float(_expr.min_quorum_size(qs.side(side)))


def can_beat(
    qs: QuorumSystem,
    workload: WorkloadLike,
    objective: Union[Objective, str],
    value: Rational | None,
    f: int = 0,
    constraints: Constraints | None = None,
) -> bool:
    """False only when no strategy over the minimal f-resilient quorums of
    ``qs`` both meets ``constraints`` and strictly beats ``value``: a
    capacity above it for the load objective, a latency or network load
    below it otherwise. A ``value`` of None is beaten by any strategy that
    meets the constraints.

    Latency and network load are at least ``E[f]*min_R size(R) +
    (1-E[f])*min_W size(W)``, size being the quorum latency or node count;
    for f = 0 each minimum is one pass over the side's expression tree, so
    no quorum is enumerated. For load, at read fraction fr and for any node
    weights mu >= 0 summing to 1, the busiest node carries at least the
    mu-average node load, which is at least ``lb_fr(mu) = fr*min_R sum_{x in
    R} mu_x/read_cap(x) + (1-fr)*min_W sum_{x in W} mu_x/write_cap(x)`` (LP
    duality; Naor & Wool 1998). So capacity is at most ``sum_fr p_fr /
    lb_fr`` and expected load at least ``sum_fr p_fr * lb_fr``, which a
    capacity limit c bounds by 1/c. mu starts proportional to each node's
    capacity at fr and takes up to ``_ASCENT_STEPS`` multiplicative-weights
    steps toward the nodes of the cheapest quorums (Arora, Hazan & Kale
    2012), stopping once the candidate is ruled out.

    The checks run cheapest first: whether each side has an f-resilient
    quorum (its fault tolerance), the latency or network objective, the
    latency and network limits, and last the load ascent, which enumerates
    the quorums and runs only for the load objective or a capacity limit,
    on the candidates that survived the checks before it.

    An LP strategy's distributions may each sum to 1 within
    ``_DIST_SUM_TOL``, which moves its metric past a bound by at most that
    factor, so ``value`` is out of reach only when the bound misses it by
    the factor ``_BOUND_MARGIN``. A limit is a row of the LP, which HiGHS
    meets only within ``lp.FEASIBILITY_TOL`` (tol): a returned strategy's
    latency or network load may pass its limit by tol, and its expected
    load may pass 1/c by 2*tol, tol on the limit row and tol on the
    node-load rows that define each L_f. So a limit is out of reach only
    when a latency or network bound is above ``(limit + tol)*(1 +
    _BOUND_MARGIN)``, or the expected-load bound above ``(1/c + 2*tol)*(1
    + _BOUND_MARGIN)``. Raises NoResilientQuorum as find_strategy does.
    """
    if qs.fault_tolerance() < f:
        raise NoResilientQuorum(f"a side has no quorum that survives every removal of {f} nodes")
    w = Workload.coerce(workload)
    objective = Objective(objective)
    constraints = constraints or Constraints()
    value = None if value is None else float(as_fraction(value))
    below, above = float(1 - _BOUND_MARGIN), float(1 + _BOUND_MARGIN)

    @cache
    def bound(kind: Objective) -> float:
        ef = float(w.mean_read_fraction)
        return (ef * _least_cost(qs, kind, "read", f)
                + (1 - ef) * _least_cost(qs, kind, "write", f))

    if value is not None and objective is not Objective.LOAD:
        if bound(objective) * below >= value:
            return False
    tol = lp.FEASIBILITY_TOL
    for kind, limit in ((Objective.LATENCY, constraints.latency_limit),
                        (Objective.NETWORK, constraints.network_limit)):
        if limit is not None and bound(kind) > (float(limit) + tol) * above:
            return False

    # Out of reach: capacity at most min_capacity, or expected load above max_load.
    min_capacity = max_load = None
    if value is not None and objective is Objective.LOAD:
        min_capacity = value * below
    if constraints.capacity_limit is not None:
        max_load = (1 / float(constraints.capacity_limit) + 2 * tol) * above
    if min_capacity is None and max_load is None:
        return True

    reads = qs.resilient_quorums("read", f)
    writes = qs.resilient_quorums("write", f)
    points = w.items()
    fr = np.array([float(x) for x, _ in points])[:, None]
    prob = np.array([float(p) for _, p in points])
    # unit[fraction, node]: the node's load per unit of read or write selection
    read_unit = fr * np.array([float(1 / n.read_cap) for n in qs.universe])
    write_unit = (1 - fr) * np.array([float(1 / n.write_cap) for n in qs.universe])
    read_in, write_in = _membership(qs, reads), _membership(qs, writes)
    read_of, write_of = read_in.T.copy(), write_in.T.copy()  # quorum -> node row
    mu = 1 / (read_unit + write_unit)
    best = np.zeros(len(points))
    for step in range(_ASCENT_STEPS + 1):
        mu /= mu.sum(axis=1, keepdims=True)
        read_cost = (mu * read_unit) @ read_in
        write_cost = (mu * write_unit) @ write_in
        np.maximum(best, read_cost.min(axis=1) + write_cost.min(axis=1), out=best)
        if min_capacity is not None and prob @ (1 / best) <= min_capacity:
            return False
        if max_load is not None and prob @ best > max_load:
            return False
        gain = read_unit * read_of[read_cost.argmin(axis=1)]
        gain += write_unit * write_of[write_cost.argmin(axis=1)]
        mu *= np.exp(gain / gain.max(axis=1, keepdims=True) / math.sqrt(step + 1))
    return True


def capacity_curve(
    target: Union[Strategy, QuorumSystem],
    fractions: Iterable[Rational],
    f: int = 0,
) -> list[tuple[Fraction, Fraction]]:
    """Capacity at each read fraction.

    For a fixed strategy this evaluates 1/load at each point; for a quorum
    system it re-optimizes a load-optimal strategy per point.
    """
    rows = []
    for fr in fractions:
        fr = as_fraction(fr)
        if isinstance(target, Strategy):
            cap = 1 / target.load_at(fr)
        else:
            sigma = find_strategy(target, fr, Objective.LOAD, f=f)
            cap = sigma.capacity(fr)
        rows.append((fr, cap))
    return rows


def throughput_breakdown(
    strategy: Strategy, workload: WorkloadLike
) -> list[tuple[str, str, frozenset[str], Fraction]]:
    """Per-node, per-quorum throughput at the peak sustainable rate.

    The aggregate rate is 1/load: the largest rate at which no node exceeds
    its capacity at any workload point. A read quorum r with selection
    probability p contributes rate*E[f]*p ops/sec to each of its nodes;
    writes contribute rate*E[1-f]*p. Rows are sorted by node, side, quorum.
    """
    w = Workload.coerce(workload)
    rate = 1 / strategy.load(w)
    ef = w.mean_read_fraction
    rows = []
    for quorum, p in strategy.read_dist:
        thr = rate * ef * p
        for name in quorum:
            rows.append((name, "read", quorum, thr))
    for quorum, p in strategy.write_dist:
        thr = rate * (1 - ef) * p
        for name in quorum:
            rows.append((name, "write", quorum, thr))
    rows.sort(key=lambda r: (r[0], r[1], len(r[2]), tuple(sorted(r[2]))))
    return rows
