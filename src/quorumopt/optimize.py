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

A query's limits are read once, in :meth:`Constraints.limits`, which
turns each into the bound on its metric: the LP's limit rows take them,
and so do the search's thresholds and node types.

A quorum family reaches this module in one form: the membership table
:meth:`QuorumSystem.members`, cached per side and f, with no bitmask. The
LP's columns, load rows and costs read it, and so does the search's
screen, which stacks the tables of a block of candidates itself and prices
their quorums through :func:`_quorum_metric`.

This module holds strategies, their exact metrics and the LP, and no bound
on what an LP could reach: the search's screen (:mod:`quorumopt.search`)
owns those, and reads from here the tables that the LP is built from,
:func:`_unit_loads` and :func:`_quorum_metric`, and the margin
``_BOUND_MARGIN``.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Iterable, Union

import numpy as np

from . import expr as _expr
from . import lp
from .errors import DomainError, Infeasible, SolverFailure
from .model import Node, QuorumSystem, Rational, Workload, WorkloadLike, as_fraction, read_fraction

_DIST_SUM_TOL = Fraction(1, 10**6)
# How far an LP strategy's metric may pass a bound on it: the
# distribution-sum tolerance doubled to cover float rounding. The search's
# bounds and _limit_excess allow for it.
_BOUND_MARGIN = 2 * _DIST_SUM_TOL


class Objective(str, enum.Enum):
    LOAD = "load"
    LATENCY = "latency"
    NETWORK = "network"


def _objective(value: Union[Objective, str]) -> Objective:
    try:
        return Objective(value)
    except ValueError:
        raise DomainError(f"objective must be load, latency or network, got {value!r}") from None


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

    def limits(self) -> dict[Objective, Fraction]:
        """Each requested limit as the bound on its metric, in the order of
        the LP's limit rows: a capacity limit c as 1/c on the expected load,
        then the latency and network limits as they are. This is the one
        place that turns a limit into a bound."""
        capacity = self.capacity_limit
        bounds = {Objective.LOAD: None if capacity is None else 1 / capacity,
                  Objective.LATENCY: self.latency_limit,
                  Objective.NETWORK: self.network_limit}
        return {kind: bound for kind, bound in bounds.items() if bound is not None}


def _constraints(value: Constraints | None) -> Constraints:
    """``value``, or no limits if it is None; DomainError if it is no
    Constraints."""
    if value is not None and not isinstance(value, Constraints):
        raise DomainError(f"constraints must be a Constraints or None, got {value!r}")
    return value or Constraints()


def quorum_latency(qs: QuorumSystem, side: str, quorum: Iterable[str]) -> Fraction:
    """Time to assemble a quorum of responses after contacting ``quorum``.

    Nodes respond in latency order, so the answer is the latency of the
    fastest sub-quorum: :func:`expr.min_quorum_latency` with every node
    outside ``quorum`` at infinity, exact for every expression. ``quorum``
    is read by :meth:`QuorumSystem.node_set`.
    """
    quorum = qs.node_set(quorum)
    latency = {n.name: n.latency if n.name in quorum else math.inf for n in qs.universe}
    fastest = _expr.min_quorum_latency(qs.side(side), latency)
    if fastest == math.inf:
        raise DomainError(f"{set(quorum)} is not a {side} quorum")
    return fastest


def _shares(fr: Fraction) -> dict[str, Fraction]:
    """Each side's share of the operations at read fraction ``fr``."""
    return {"read": fr, "write": 1 - fr}


class Strategy:
    """Probability distributions over read and write quorums of a quorum
    system, with exact metric recomputation.

    Each distribution is an iterable of (quorum, probability) pairs, else
    DomainError; a ``str``, as a distribution or as an entry, is no such
    collection or pair, and its message names it. A quorum is an iterable
    of node names, read by :meth:`QuorumSystem.node_set`: a ``str``, an
    ``int`` or a list among its names raises DomainError, and a name
    outside the universe UnknownNode. It must be a quorum of its side, f-resilient when f > 0,
    and each side's probabilities must sum to 1 within 1e-6, else
    DomainError."""

    def __init__(
        self,
        qs: QuorumSystem,
        read_dist: Iterable[tuple[Iterable[str], Rational]],
        write_dist: Iterable[tuple[Iterable[str], Rational]],
        f: int = 0,
    ):
        self._qs = qs
        self._f = f
        self._dist = {"read": self._normalize(read_dist, "read"),
                      "write": self._normalize(write_dist, "write")}
        self._loads: dict[Fraction, Fraction] = {}

    def _normalize(self, dist, side: str) -> tuple[tuple[frozenset[str], Fraction], ...]:
        e = self._qs.side(side)
        entries = []
        pairs = f"a {side} distribution is a collection of (quorum, probability) pairs"
        for entry in _expr.as_tuple(dist, pairs):
            try:
                quorum, prob = () if isinstance(entry, str) else entry
            except (TypeError, ValueError):  # no iterable, a str, or not two items
                raise DomainError(f"{pairs}, got the entry {entry!r}") from None
            quorum = self._qs.node_set(quorum)
            prob = as_fraction(prob)
            if not 0 <= prob <= 1:
                raise DomainError(f"probability {prob} is outside [0, 1]")
            if not e.evaluate(quorum):
                raise DomainError(f"{set(quorum)} is not a {side} quorum")
            # is_resilient raises DomainError for a negative f, or one that is no int
            if self._f != 0 and not self._qs.is_resilient(side, quorum, self._f):
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
        return list(self._dist["read"])

    @property
    def write_dist(self) -> list[tuple[frozenset[str], Fraction]]:
        return list(self._dist["write"])

    def __repr__(self) -> str:
        def fmt(dist):
            return "{" + ", ".join(
                f"{{{', '.join(sorted(q))}}}: {p}" for q, p in dist
            ) + "}"

        return f"Strategy(reads={fmt(self._dist['read'])}, writes={fmt(self._dist['write'])})"

    # -- node loads -----------------------------------------------------------

    @cached_property
    def _unit_load(self) -> dict[str, tuple[Fraction, Fraction]]:
        """For each node of some quorum of either distribution, in universe
        order, its exact load per unit of reads and per unit of writes: its
        read selection probability over its read capacity, and likewise for
        writes."""
        mass: dict[str, list] = {}
        for i, dist in enumerate(self._dist.values()):
            for quorum, p in dist:
                for x in quorum:
                    mass.setdefault(x, [0, 0])[i] += p
        return {n.name: (mass[n.name][0] / n.read_cap, mass[n.name][1] / n.write_cap)
                for n in self._qs.universe if n.name in mass}

    def load_at(self, fr: Rational) -> Fraction:
        """Per-fraction load: utilization of the busiest node, worked out once
        per read fraction, as :meth:`load` and :meth:`capacity` both ask."""
        fr = read_fraction(fr)
        if fr not in self._loads:
            self._loads[fr] = max(fr * r + (1 - fr) * w for r, w in self._unit_load.values())
        return self._loads[fr]

    # -- workload-level metrics ----------------------------------------------

    def load(self, workload: WorkloadLike) -> Fraction:
        w = Workload.coerce(workload)
        return sum(p * self.load_at(fr) for fr, p in w.items())

    def capacity(self, workload: WorkloadLike) -> Fraction:
        w = Workload.coerce(workload)
        return sum(p / self.load_at(fr) for fr, p in w.items())

    def node_load(self, name: str, workload: WorkloadLike) -> Fraction:
        self._qs.node(name)  # rejects an unknown name
        w = Workload.coerce(workload)
        read, write = self._unit_load.get(name, (0, 0))
        return sum(p * (fr * read + (1 - fr) * write) for fr, p in w.items())

    def latency(self, workload: WorkloadLike) -> Fraction:
        return self._expected(workload, lambda side, q: quorum_latency(self._qs, side, q))

    def network_load(self, workload: WorkloadLike) -> Fraction:
        return self._expected(workload, lambda side, q: len(q))

    def _expected(self, workload: WorkloadLike, cost) -> Fraction:
        """E[f] times the expected ``cost(side, quorum)`` of the read
        distribution, plus 1 - E[f] times that of the write distribution."""
        share = _shares(Workload.coerce(workload).mean_read_fraction)
        read, write = (share[side] * sum(p * cost(side, q) for q, p in dist)
                       for side, dist in self._dist.items())
        return read + write


def _quorum_metric(
    qs: QuorumSystem, kind: Objective, side: str, f: int
) -> tuple[np.ndarray, list[Fraction] | range]:
    """The latency or node count of each minimal f-resilient quorum of
    ``side``, in :meth:`QuorumSystem.members` order, as indices into a list
    of exact values, read off the side's membership table.

    Latency is :func:`quorum_latency` on every quorum in one tree pass: a
    variable gives its latency's rank among the universe's distinct
    latencies where the quorum holds it, else a rank past them all, and a
    node that takes k children the k-th smallest child rank."""
    held = qs.members(side, f)
    if kind is Objective.NETWORK:
        return held.sum(axis=0), range(len(held) + 1)
    values = sorted({n.latency for n in qs.universe})
    rank = np.array([[values.index(n.latency)] for n in qs.universe])
    ranks = dict(zip((n.name for n in qs.universe), np.where(held, rank, len(values))))
    return _expr.fold(qs.side(side), ranks.__getitem__,
                      lambda rows, k: np.partition(rows, k - 1, axis=0)[k - 1]), values


@lru_cache(maxsize=64)
def _unit_loads(universe: tuple[Node, ...], w: Workload) -> np.ndarray:
    """``unit[node, point, side]``: a node's load per unit of read (side 0)
    or write (side 1) selection probability at each read fraction, nodes in
    universe order, points in workload order. Read-only: every caller
    shares it."""
    unit = np.array([[(float(fr / n.read_cap), float((1 - fr) / n.write_cap))
                      for fr, _ in w.items()] for n in universe])
    unit.flags.writeable = False
    return unit


def uniform_strategy(qs: QuorumSystem, f: int = 0) -> Strategy:
    """Every minimal (f-resilient) quorum of each side equally likely."""
    pools = [qs.resilient_quorums(side, f) for side in ("read", "write")]
    return Strategy(qs, *[[(q, Fraction(1, len(pool))) for q in pool] for pool in pools], f=f)


def find_strategy(
    qs: QuorumSystem,
    workload: WorkloadLike,
    objective: Union[Objective, str] = Objective.LOAD,
    constraints: Constraints | None = None,
    f: int = 0,
) -> Strategy:
    """Optimal strategy for the given objective, subject to the constraints.

    The LP's columns are the selection probabilities of the minimal
    f-resilient read quorums, then of the write quorums, each in [0, 1] and
    in :meth:`QuorumSystem.members` order, then one load L_f >= 0 per
    read fraction f, in workload order. Its rows:

    * two equalities: each side's probabilities sum to 1;
    * per node that is in some quorum (universe order), then per read
      fraction (workload order): ``f*rm(x)/read_cap(x) +
      (1-f)*wm(x)/write_cap(x) - L_f <= 0``;
    * one row per requested limit, in the order of
      :meth:`Constraints.limits`: capacity, latency, network.

    Each metric is one cost vector, used as the objective or as a limit row:
    load is the expected L_f (a capacity limit c bounds it by 1/c), latency
    and network are the expected quorum latency and quorum size. The
    columns, the load rows and the latency and network costs all read each
    side's :meth:`QuorumSystem.members` table; only the quorums that the
    solution selects with probability above 1e-9 are read off it into name
    sets, for the returned Strategy.

    Raises Infeasible when no strategy satisfies the constraints and
    NoResilientQuorum when a side has no f-resilient quorum at all. When
    HiGHS ends neither optimal nor infeasible under some limit,
    :func:`_limit_excess` decides: Infeasible if the limits are out of reach
    by more than ``_BOUND_MARGIN``, else SolverFailure.
    """
    return _optimal(qs, Workload.coerce(workload), _objective(objective),
                    _constraints(constraints), f, None)[0]


def _optimal(qs: QuorumSystem, w: Workload, objective: Objective, constraints: Constraints,
             f: int, basis):
    """:func:`find_strategy`'s strategy, with HiGHS's optimal basis, solved
    from ``basis``, that of an earlier LP of the same shape, or cold if it
    is None."""
    sides = ("read", "write")
    tables = [qs.members(side, f) for side in sides]
    member = np.hstack(tables)  # [node, column]: whether the column's quorum holds the node
    is_write = np.repeat([0, 1], [t.shape[1] for t in tables])
    points = w.items()
    nq, nl = member.shape[1], len(points)
    share = _shares(w.mean_read_fraction)

    @cache
    def cost(kind: Objective) -> np.ndarray:
        if kind is Objective.LOAD:
            return np.array([0.0] * nq + [float(p) for _, p in points])
        parts = []
        for s in sides:
            index, values = _quorum_metric(qs, kind, s, f)
            parts.append(np.array([float(share[s] * v) for v in values])[index])
        return np.concatenate(parts + [np.zeros(nl)])

    limits = constraints.limits()
    used = np.flatnonzero(member.any(axis=1))
    coef = _unit_loads(qs.universe, w)[used]
    nload = len(used) * nl
    a_ub = np.zeros((nload + len(limits), nq + nl))
    a_ub[:nload, :nq] = (coef[:, :, is_write] * member[used, None, :]).reshape(nload, nq)
    a_ub[np.arange(nload), nq + np.arange(nload) % nl] = -1.0
    b_ub = np.zeros(nload + len(limits))
    for row, (kind, limit) in enumerate(limits.items(), start=nload):
        a_ub[row] = cost(kind)
        b_ub[row] = float(limit)
    a_eq = np.zeros((2, nq + nl))
    a_eq[is_write, np.arange(nq)] = 1.0
    bounds = np.zeros((nq + nl, 2))
    bounds[:, 1] = np.repeat([1.0, np.inf], [nq, nl])

    result = lp.linprog(cost(objective), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(2),
                        bounds=bounds, basis=basis)
    if result.status != 0:
        # status 2 is HiGHS's proof of infeasibility; any other failure under
        # limits is decided by how far the limits are out of reach
        if result.status == 2 or limits and _limit_excess(
                a_ub, b_ub, nload, a_eq, bounds) > _BOUND_MARGIN:
            raise Infeasible("constraints are unsatisfiable")
        raise SolverFailure(f"LP solve failed: {result.message}")
    dist = {side: [] for side in sides}
    for j in np.flatnonzero(result.x[:nq] > 1e-9):
        p = min(float(result.x[j]), 1.0)  # solver round-off can spill past 1
        quorum = frozenset(n.name for n in itertools.compress(qs.universe, member[:, j]))
        dist[sides[is_write[j]]].append((quorum, Fraction(p)))
    return Strategy(qs, *dist.values(), f=f), result.basis


def _limit_excess(a_ub: np.ndarray, b_ub: np.ndarray, nload: int, a_eq: np.ndarray,
                  bounds: np.ndarray) -> float:
    """The least s >= 0 such that some strategy passes no limit by more than
    the factor 1 + s, from the phase-1 LP of :func:`find_strategy`'s LP,
    whose rows past ``nload`` are its limits: each limit row is divided by
    its limit and takes -s, the load rows and the equalities stay, and s is
    minimized. That LP always has an optimum; if HiGHS does not find it,
    0, which decides nothing."""
    scale = np.ones(len(b_ub))
    scale[nload:] = b_ub[nload:]
    slack = np.zeros((len(b_ub), 1))
    slack[nload:] = -1.0
    c = np.zeros(a_ub.shape[1] + 1)
    c[-1] = 1.0
    result = lp.linprog(c, A_ub=np.hstack((a_ub / scale[:, None], slack)), b_ub=b_ub / scale,
                        A_eq=np.hstack((a_eq, np.zeros((len(a_eq), 1)))), b_eq=np.ones(len(a_eq)),
                        bounds=np.vstack((bounds, [0.0, np.inf])))
    return result.x[-1] if result.status == 0 else 0.0


def capacity_curve(
    target: Union[Strategy, QuorumSystem],
    fractions: Iterable[Rational],
    f: int = 0,
) -> list[tuple[Fraction, Fraction]]:
    """Capacity at each read fraction.

    For a fixed strategy this evaluates 1/load at each point; for a quorum
    system it re-optimizes a load-optimal strategy per point. Each point's LP
    differs from the previous one only in its load coefficients, so it is
    warm-started from the previous point's optimal basis; a warm solve that
    fails is solved again cold (:func:`lp.linprog`). Either way each point
    gets its optimal capacity, so what the curve prints does not depend on
    the warm start or on the fallback. ``fractions`` that are a ``str``, or
    no collection, raise DomainError.
    """
    if isinstance(fractions, str):
        raise DomainError(f"fractions are read fractions, got the text {fractions!r}")
    rows = []
    basis = None
    for fr in _expr.as_tuple(fractions, "fractions are a collection of read fractions"):
        fr = as_fraction(fr)
        if isinstance(target, Strategy):
            cap = 1 / target.load_at(fr)
        else:
            sigma, basis = _optimal(target, Workload.coerce(fr), Objective.LOAD, Constraints(),
                                    f, basis)
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
    share = _shares(w.mean_read_fraction)
    rows = []
    for side, dist in strategy._dist.items():
        for quorum, p in dist:
            thr = rate * share[side] * p
            rows.extend((name, side, quorum, thr) for name in quorum)
    rows.sort(key=lambda r: (r[0], r[1], len(r[2]), tuple(sorted(r[2]))))
    return rows
