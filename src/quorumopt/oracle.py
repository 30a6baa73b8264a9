"""Brute-force reference implementations used by tests.

Everything here trades speed for directness: truth tables and minimal sets
sweep all 2^n subsets, fault tolerance kills node sets in increasing size,
resilience checks every subset with no pruning, and metrics are recomputed
from first principles in exact rational arithmetic (latency by minimizing
over all sub-quorums rather than a sorted prefix scan). None of this is used
on any hot path; agreement with the fast implementations is the point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .errors import UniverseTooLarge
from .expr import ENUMERATION_BOUND, Expression
from .model import QuorumSystem, Workload, WorkloadLike
from .optimize import Strategy


def truth_table(e: Expression, universe: Sequence[str] | None = None) -> int:
    """Bitset over all 2^n subsets of the universe: bit i is set iff the
    i-th subset (name j present iff bit j of i is set) satisfies e."""
    names = sorted(e.names()) if universe is None else list(universe)
    n = len(names)
    if n > ENUMERATION_BOUND:
        raise UniverseTooLarge(
            f"{n} nodes exceeds the enumeration bound of {ENUMERATION_BOUND}"
        )
    table = 0
    for mask in range(1 << n):
        subset = frozenset(names[j] for j in range(n) if mask >> j & 1)
        if e.evaluate(subset):
            table |= 1 << mask
    return table


def exhaustive_minimal_sets(
    e: Expression, universe: Sequence[str] | None = None
) -> list[frozenset[str]]:
    """All inclusion-minimal quorums of e, by checking every subset of the
    universe directly and filtering non-minimal ones afterwards, in canonical
    order (by size, then lexicographically by position in the universe)."""
    names = sorted(e.names()) if universe is None else list(universe)
    quorums = []
    for size in range(1, len(names) + 1):
        for combo in itertools.combinations(names, size):
            if e.evaluate(frozenset(combo)):
                quorums.append(frozenset(combo))
    minimal = [s for s in quorums if not any(t < s for t in quorums)]
    minimal.sort(key=lambda s: (len(s), sorted(names.index(x) for x in s)))
    return minimal


def exhaustive_fault_tolerance(qs: QuorumSystem, side: str) -> int:
    """Largest f such that some quorum of the side survives any f failures:
    the smallest kill set eliminating every quorum, minus one."""
    e = qs.reads if side == "read" else qs.writes
    names = sorted(e.names())
    for size in range(0, len(names) + 1):
        for kill in itertools.combinations(names, size):
            survivors = frozenset(names) - frozenset(kill)
            if not e.evaluate(survivors):
                return size - 1
    raise AssertionError("killing every node eliminates every quorum")


def _is_f_resilient(e: Expression, s: frozenset[str], f: int) -> bool:
    removals = itertools.combinations(sorted(s), min(f, len(s)))
    return all(e.evaluate(s.difference(r)) for r in removals)


def exhaustive_resilient(qs: QuorumSystem, side: str, f: int) -> list[frozenset[str]]:
    """All inclusion-minimal f-resilient quorums, by checking every subset of
    the universe directly and filtering non-minimal ones afterwards."""
    e = qs.reads if side == "read" else qs.writes
    names = [n.name for n in qs.universe]
    resilient = []
    for size in range(1, len(names) + 1):
        for combo in itertools.combinations(sorted(names), size):
            s = frozenset(combo)
            if s and _is_f_resilient(e, s, f):
                resilient.append(s)
    minimal = [
        s for s in resilient if not any(t < s for t in resilient)
    ]
    minimal.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return minimal


def _subquorum_latency(qs: QuorumSystem, side: str, quorum: frozenset[str]) -> Fraction:
    e = qs.reads if side == "read" else qs.writes
    best = None
    members = sorted(quorum)
    for size in range(1, len(members) + 1):
        for sub in itertools.combinations(members, size):
            if e.evaluate(frozenset(sub)):
                worst = max(qs.node(x).latency for x in sub)
                if best is None or worst < best:
                    best = worst
    assert best is not None, f"{set(quorum)} is not a {side} quorum"
    return best


def strategy_metric_recompute(
    strategy: Strategy, workload: WorkloadLike
) -> tuple[Fraction, Fraction, Fraction]:
    """(load, latency, network load) recomputed from the raw distributions in
    exact rational arithmetic, independent of the optimizer's code paths."""
    qs = strategy.qs
    w = Workload.coerce(workload)

    load = Fraction(0)
    for fr, p in w.items():
        worst = Fraction(0)
        for node in qs.universe:
            busy = Fraction(0)
            for quorum, q in strategy.read_dist:
                if node.name in quorum:
                    busy += fr * q / node.read_cap
            for quorum, q in strategy.write_dist:
                if node.name in quorum:
                    busy += (1 - fr) * q / node.write_cap
            worst = max(worst, busy)
        load += p * worst

    latency = Fraction(0)
    network = Fraction(0)
    for fr, p in w.items():
        lat = fr * sum(
            q * _subquorum_latency(qs, "read", quorum)
            for quorum, q in strategy.read_dist
        ) + (1 - fr) * sum(
            q * _subquorum_latency(qs, "write", quorum)
            for quorum, q in strategy.write_dist
        )
        net = fr * sum(q * len(quorum) for quorum, q in strategy.read_dist) + (
            1 - fr
        ) * sum(q * len(quorum) for quorum, q in strategy.write_dist)
        latency += p * lat
        network += p * net

    return load, latency, network
