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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

from .errors import DomainError
from .lp import LinearProgram
from .model import QuorumSystem, Rational, Workload, WorkloadLike, as_fraction

_DIST_SUM_TOL = Fraction(1, 10**6)


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

    Decision variables are selection probabilities over the minimal
    f-resilient quorums of each side plus one load variable per workload
    point. The load objective minimizes expected load; latency and network
    objectives minimize the expected value of the corresponding metric.
    A capacity limit c constrains expected load to at most 1/c.

    Raises Infeasible when no strategy satisfies the constraints and
    NoResilientQuorum when a side has no f-resilient quorum at all.
    """
    w = Workload.coerce(workload)
    objective = Objective(objective)
    constraints = constraints or Constraints()

    read_pool = qs.resilient_quorums("read", f)
    write_pool = qs.resilient_quorums("write", f)

    lp = LinearProgram()
    p_read = [lp.variable(f"r{i}", 0.0, 1.0) for i in range(len(read_pool))]
    p_write = [lp.variable(f"w{i}", 0.0, 1.0) for i in range(len(write_pool))]
    load_vars = {fr: lp.variable(f"L{j}") for j, (fr, _) in enumerate(w.items())}

    lp.add_eq([(v, 1.0) for v in p_read], 1.0)
    lp.add_eq([(v, 1.0) for v in p_write], 1.0)

    # Per node and per read fraction: normalized selection load <= L_f.
    for node in qs.universe:
        read_terms = [v for q, v in zip(read_pool, p_read) if node.name in q]
        write_terms = [v for q, v in zip(write_pool, p_write) if node.name in q]
        if not read_terms and not write_terms:
            continue
        for fr, _ in w.items():
            terms = [(v, float(fr / node.read_cap)) for v in read_terms]
            terms += [(v, float((1 - fr) / node.write_cap)) for v in write_terms]
            terms.append((load_vars[fr], -1.0))
            lp.add_le(terms, 0.0)

    def expected_load_terms():
        return [(load_vars[fr], float(p)) for fr, p in w.items()]

    ef = w.mean_read_fraction

    def latency_terms():
        terms = [
            (v, float(ef * quorum_latency(qs, "read", q)))
            for q, v in zip(read_pool, p_read)
        ]
        terms += [
            (v, float((1 - ef) * quorum_latency(qs, "write", q)))
            for q, v in zip(write_pool, p_write)
        ]
        return terms

    def network_terms():
        terms = [(v, float(ef * len(q))) for q, v in zip(read_pool, p_read)]
        terms += [(v, float((1 - ef) * len(q))) for q, v in zip(write_pool, p_write)]
        return terms

    if constraints.capacity_limit is not None:
        lp.add_le(expected_load_terms(), float(1 / constraints.capacity_limit))
    if constraints.latency_limit is not None:
        lp.add_le(latency_terms(), float(constraints.latency_limit))
    if constraints.network_limit is not None:
        lp.add_le(network_terms(), float(constraints.network_limit))

    if objective is Objective.LOAD:
        lp.minimize(expected_load_terms())
    elif objective is Objective.LATENCY:
        lp.minimize(latency_terms())
    else:
        lp.minimize(network_terms())

    values = lp.solve()

    def extract(pool, variables):
        dist = []
        for quorum, v in zip(pool, variables):
            p = min(values[v.index], 1.0)  # solver round-off can spill past 1
            if p > 1e-9:
                dist.append((quorum, Fraction(p)))
        return dist

    return Strategy(qs, extract(read_pool, p_read), extract(write_pool, p_write), f=f)


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
