"""Exhaustive search over duplicate-free read expressions.

Candidate read expressions are built from or/and/choose with every node
variable appearing exactly once, enumerated in nondecreasing syntax-tree
depth. They are flat (no Or child under an Or, no And child under an And)
with sorted children, which makes each the unique modular decomposition of
its boolean function, so each function appears once. A stream builds the
formulas of each proper sub-block of the names once, into a memo of its
own that it frees when it ends, so streams that run at once share
nothing. Write quorums are
always the dual of the candidate reads (searching both sides independently
would be redundant: the dual is the optimal complement). The fault
tolerance floor is the larger of ``min_fault_tolerance`` (the CLI's
``--fault-tolerance``) and ``f`` (``--f``): below f a side has no
f-resilient quorum, so no strategy exists. Each candidate that meets the
floor is scored by solving the strategy LP and reading the metric of its
strategy as a float: a latency or network load is the exact metric rounded
once, and a capacity is summed in floats from the strategy's exact table
of node loads per unit of reads and of writes; a candidate whose LP is
infeasible is skipped. A candidate replaces the best so far only if it
beats it, by a higher capacity under the load objective or a lower latency
or network load under theirs, by more than the relative tie band ``_TIE``
(4 ppm); otherwise the earlier candidate stays, so exact ties, and metrics
that float rounding alone sets apart, keep the first in emission order and
runs are reproducible, under a candidate budget too. The winner's metric is
reported exact.

Candidates come in groups that the query cannot tell apart. A node's type
is what the query reads of it: its read and write capacities under the
load objective or a capacity limit, its latency under the latency
objective or a latency limit, and nothing else, so under the network
objective with no capacity limit all nodes are of one type. A candidate's
group key is its tree printed with each name replaced by its type and the
children of each node sorted; two candidates share it iff a renaming of
the nodes that keeps every type maps one onto the other. Their LPs are
then one LP up to the order of rows and columns, with equal optima, so
their scores differ by the solver's rounding alone, far inside the tie
band: a later member of a group could only tie its first member. A
renaming keeps fault tolerance too, so a group lies wholly above or below
the floor. So each candidate taken is tested against the floor as it is
taken, and of those that meet it only the first member of each group in
emission order goes on to the bounds and the LP; a later one is decided as
a tie of the first, which keeps the first. No key is computed below the
floor, nor when no two nodes share a type, where every group has one
member. The screen below works out the types and the key, and keeps the
keys of the candidates taken.

A candidate's quorum system enumerates no quorum when it is built: the
floor is decided on the expression tree (fault tolerance is the dual's
cheapest quorum, less one). Every bound of the search then lives in one
:class:`_Screen`, which :func:`search` builds once from the universe, the
workload, the objective, the limits and f, and which holds what every
candidate would otherwise re-derive: the workload's probabilities and
E[f], the table of node loads per unit of reads and of writes, each node's
latency as a float, and the thresholds of the limits. It reads the limits
once, from :meth:`Constraints.limits`, the bounds that the LP's limit rows
take: the objective and the limited metrics are what the query reads, and
give the tree costs, the thresholds and the node types. It bounds what any
strategy of a candidate can reach: tree costs, the least latency and
network load, from passes over each side's expression, and per-point load
bounds, from an ascent over the minimal quorums. One predicate,
:meth:`_Screen.out_of_reach`, decides on them whether a candidate can
beat the best so far moved by the tie band, which is what it must beat to
replace it, and meet every requested limit. Its LP is skipped when it
cannot; so exact ties are skipped without an LP. Each bound holds for every
strategy the LP could return, allowing by ``_BOUND_MARGIN`` for the
tolerance on distribution sums and for float rounding, and for a limit
also for the solver's tolerance on its row. So the winner, its strategy
and its metric are the ones the search without the screen finds.

Each candidate taken has its quorum system built once, a later member of
a group and one below the floor too. The first members that meet the floor
are taken ``_BLOCK`` at a time and screened
as arrays. A [candidate, kind] array of tree costs drops those that the
predicate rules out against the incumbent the block started with; one
load-bound ascent (:meth:`_Screen.ascend`) over the rest gives a
[candidate, point] array of load bounds, a candidate leaving the ascent
once the predicate rules it out against that incumbent; and the
candidates left are then decided in emission order, by the predicate
against the incumbent of the moment. This decides as a search that takes
one candidate at a time does: the incumbent only improves and an ascent's
running maximum only grows, so a candidate ruled out against the block's
first incumbent is ruled out against any later one, and a candidate that
took every ascent step is decided on the bound that the one-at-a-time
ascent ends with.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Iterator, Sequence, Union

import numpy as np

from . import expr as _expr
from . import lp
from .errors import DomainError, Infeasible, NoFeasibleCandidate
from .model import Node, QuorumSystem, Workload, WorkloadLike, as_universe
from .optimize import (
    _BOUND_MARGIN,
    Constraints,
    Objective,
    Strategy,
    _constraints,
    _objective,
    _quorum_metric,
    _unit_loads,
    find_strategy,
)

# Set partitions grow super-exponentially (Bell numbers); past 8 nodes full
# enumeration stops being a desk-scale computation.
SEARCH_NODE_BOUND = 8
# Candidates taken from the stream at a time; see the module docstring.
_BLOCK = 256
# A challenger must beat the incumbent by more than this, relative. Twice the
# bounds' margin, so a bound prunes a candidate that can at best tie; far
# above the float rounding of a score (about 1e-15), which cannot flip it.
_TIE = 2 * _BOUND_MARGIN
# The screen's margin as factors, and its ascent steps on the node weights.
_BELOW, _ABOVE = float(1 - _BOUND_MARGIN), float(1 + _BOUND_MARGIN)
_ASCENT_STEPS = 40


@dataclass(frozen=True)
class SearchOptions:
    objective: Union[Objective, str] = Objective.LOAD
    constraints: Constraints = field(default_factory=Constraints)
    min_fault_tolerance: int = 0
    f: int = 0
    timeout: float | None = None
    budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "objective", _objective(self.objective))
        object.__setattr__(self, "constraints", _constraints(self.constraints))
        for name, least in (("min_fault_tolerance", 0), ("f", 0), ("budget", 1)):
            value = getattr(self, name)
            if value is None and name == "budget":
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")
        timeout = self.timeout
        if timeout is not None and (isinstance(timeout, bool) or not isinstance(timeout, Real)
                                    or not 0 < timeout < math.inf):
            raise DomainError(f"timeout must be positive and finite, got {timeout!r}")


@dataclass(frozen=True)
class SearchResult:
    qs: QuorumSystem
    strategy: Strategy
    metric_value: Fraction
    candidates_examined: int


def _set_partitions(items: tuple[str, ...]) -> Iterator[list[tuple[str, ...]]]:
    """All partitions into nonempty blocks; the first item stays in the first
    block, so each partition appears exactly once."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [(first,) + smaller[i]] + smaller[i + 1 :]
        yield [(first,)] + smaller


def enumerate_candidates(nodes: Sequence[str]) -> Iterator[_expr.Expression]:
    """Stream of duplicate-free expressions over the given node names, one
    per boolean function, in nondecreasing depth, sorted by printed form
    within a depth.

    Each is flat (no Or child under an Or, no And child under an And) with
    children sorted by printed form, so it is already canonical. A flat
    read-once formula is the modular decomposition tree of its function,
    which is unique (Moehring 1985; And and Or are its degenerate nodes,
    choose(k) with 1 < k < m its prime ones), so no function appears twice;
    this was checked exhaustively for up to 7 nodes.

    Depth never needs to exceed n-1: every nesting level must split its
    block into at least two sub-blocks.

    ``nodes`` is any collection of names, a ``str`` of one-letter names
    too; one that is no collection, or a name that is no ``str``, raises
    DomainError, as do more than ``SEARCH_NODE_BOUND`` names, none, or a
    repeated one.
    """
    names = (tuple(nodes) if isinstance(nodes, str)
             else _expr.as_tuple(nodes, "search enumerates a collection of node names"))
    for name in names:
        if not isinstance(name, str):
            raise DomainError(f"node names must be strings, got {name!r}")
    names = tuple(sorted(names))
    if not 1 <= len(names) <= SEARCH_NODE_BOUND:
        raise DomainError(
            f"search enumerates 1..{SEARCH_NODE_BOUND} nodes, got {len(names)}"
        )
    if len(set(names)) != len(names):
        raise DomainError("node names must be unique")
    # This stream's memo of the formulas of each proper sub-block, freed
    # with the stream. The top level is read once, so it is not kept:
    # unnamed, a depth's list is freed before the next depth's is built.
    kept: dict[tuple[tuple[str, ...], int], list] = {}
    for d in range(len(names)):
        for _, e in sorted(_exact_depth(names, d, kept), key=lambda pair: pair[0]):
            yield e


def _exact_depth(block: tuple[str, ...], d: int, kept: dict) -> list[tuple[str, _expr.Expression]]:
    """The formulas of depth exactly d over ``block``, each with its printed
    form; :func:`enumerate_candidates` builds each candidate from them.
    ``kept`` maps each (proper sub-block, depth) already built in the same
    stream to its formulas, and takes those that this call builds."""
    if d == 0:
        return [(block[0], _expr.Var(block[0]))] if len(block) == 1 else []
    results = []
    for blocks in _set_partitions(block):
        if len(blocks) < 2:
            continue
        for key in itertools.product(blocks, range(d)):
            if key not in kept:
                kept[key] = _exact_depth(*key, kept)
        options = [[(i, *pair) for i in range(d) for pair in kept[b, i]] for b in blocks]
        for entries in itertools.product(*options):
            if max(i for i, _, _ in entries) != d - 1:
                continue
            children = tuple(e for _, _, e in sorted(entries, key=lambda t: t[1]))
            # flat: k = 1 (Or) takes no Or child, k = m (And) no And child,
            # so each node is built as it stands, with nothing to splice
            m = len(children)
            lo = 1 + any(isinstance(c, _expr.Or) for c in children)
            hi = m - any(isinstance(c, _expr.And) for c in children)
            for k in range(lo, hi + 1):
                e = (_expr.Or(children) if k == 1 else _expr.And(children) if k == m
                     else _expr.Choose(k, children))
                results.append((str(e), e))
    return results


def _sorted_key(keys: list[str], k: int) -> str:
    """The group key of a node that takes k of the children with ``keys``."""
    return f"{k}({','.join(sorted(keys))})"


def _metric(strategy: Strategy, workload: Workload, objective: Objective) -> Fraction:
    if objective is Objective.LOAD:
        return strategy.capacity(workload)
    if objective is Objective.LATENCY:
        return strategy.latency(workload)
    return strategy.network_load(workload)


def _score(strategy: Strategy, workload: Workload, objective: Objective) -> float:
    """:func:`_metric` as a float. A latency or network score is the exact
    metric rounded once. A capacity score is summed in floats over the
    points from each node's exact load per unit of reads and of writes,
    :attr:`Strategy._unit_load`, each rounded once, so it is within about
    1e-15 relative of the exact metric."""
    if objective is not Objective.LOAD:
        return float(_metric(strategy, workload, objective))
    unit = [(float(r), float(w)) for r, w in strategy._unit_load.values()]
    points = [(float(fr), float(p)) for fr, p in workload.items()]
    return sum(p / max(fr * r + (1 - fr) * w for r, w in unit) for fr, p in points)


def _stacked(systems: list[QuorumSystem], side: str, f: int) -> np.ndarray:
    """``member[row, node, j]`` is 1 iff the j-th minimal f-resilient quorum
    of ``side`` of the row's system holds the node: each system's
    :meth:`QuorumSystem.members` table, nodes in universe order, which every
    system shares. Rows with fewer quorums are padded with all-ones quorums:
    one holds every node, so it costs at least as much as any quorum and,
    coming last, changes neither the least cost nor the first quorum that
    has it."""
    tables = [qs.members(side, f) for qs in systems]
    member = np.ones((len(systems), len(systems[0].universe), max(t.shape[1] for t in tables)))
    for row, table in zip(member, tables):
        row[:, : table.shape[1]] = table
    return member


class _Screen:
    """Every bound of one search, on what can be known of a candidate's
    strategies without solving its LP, and the one predicate that decides
    on them, :meth:`out_of_reach`. Built once per search; a block of
    candidates is screened as arrays, with no object per candidate.

    Latency and network load are at least the tree costs of :meth:`costs`;
    for f = 0 each side's least latency is one pass over its expression
    tree, and its least node count the other side's fault tolerance plus
    one, so no quorum of a read-once side is enumerated. For load, at read
    fraction fr and for any node weights mu >= 0 summing to 1, the busiest
    node carries at least the mu-average node load, which is at least
    ``lb_fr(mu) = fr*min_R sum_{x in R} mu_x/read_cap(x) + (1-fr)*min_W
    sum_{x in W} mu_x/write_cap(x)`` (LP duality; Naor & Wool 1998). So
    capacity is at most ``sum_fr p_fr / lb_fr`` and expected load at least
    ``sum_fr p_fr * lb_fr``, which a capacity limit c bounds by 1/c.
    :meth:`ascend` searches mu.

    An LP strategy's distributions may each sum to 1 within
    ``_DIST_SUM_TOL``, which moves its metric past a bound by at most that
    factor, so a value is out of reach only when the bound misses it by the
    factor ``_BOUND_MARGIN``. A limit is a row of the LP, which HiGHS meets
    only within ``lp.FEASIBILITY_TOL`` (tol): a returned strategy's latency
    or network load may pass its limit by tol, and its expected load may
    pass 1/c by 2*tol, tol on the limit row and tol on the node-load rows
    that define each L_f. So a limit is out of reach only when a latency or
    network bound is above its ``ceiling``, ``(limit + tol)*(1 +
    _BOUND_MARGIN)``, or the expected-load bound above ``max_load``,
    ``(1/c + 2*tol)*(1 + _BOUND_MARGIN)``.
    """

    def __init__(self, universe: tuple[Node, ...], w: Workload, objective: Objective,
                 constraints: Constraints, f: int):
        self.objective, self.f = objective, f
        self.prob = np.array([float(p) for _, p in w.items()])
        self.ef = float(w.mean_read_fraction)
        # read and write node loads per unit of selection, each [point, node]
        self.unit = tuple(_unit_loads(universe, w).T)
        self.latency = {n.name: float(n.latency) for n in universe}
        limits = constraints.limits()
        reads = {objective, *limits}  # the metrics that the query reads
        # the tree costs that it reads, and each one's limit
        self.kinds = [kind for kind in (Objective.LATENCY, Objective.NETWORK) if kind in reads]
        tol = lp.FEASIBILITY_TOL
        self.ceiling = np.array([(float(limits[kind]) + tol) * _ABOVE if kind in limits
                                 else math.inf for kind in self.kinds])
        load = limits.get(Objective.LOAD)
        self.max_load = None if load is None else (float(load) + 2 * tol) * _ABOVE
        # the node types, and the group key when two nodes share one
        types = [((n.read_cap, n.write_cap) if Objective.LOAD in reads else ())
                 + ((n.latency,) if Objective.LATENCY in reads else ()) for n in universe]
        type_of = {n.name: str(types.index(t)) for n, t in zip(universe, types)}
        self.group_key = None if len(set(types)) == len(types) else functools.partial(
            _expr.fold, leaf=type_of.__getitem__, take=_sorted_key)
        self.groups: set[str] = set()  # the keys of the candidates taken

    def first_of_group(self, reads: _expr.Expression) -> bool:
        """Whether no candidate taken before ``reads`` shares its group
        key; ``reads`` is then taken, so a later member of its group is
        not. Always true when no two nodes share a type."""
        if self.group_key is None:
            return True
        seen = len(self.groups)
        self.groups.add(self.group_key(reads))
        return len(self.groups) > seen

    def _least_cost(self, qs: QuorumSystem, kind: Objective, side: str) -> float:
        """The least latency or node count of a minimal f-resilient quorum of
        ``side``. The node count is :meth:`QuorumSystem._least_size`. The
        latency, for f = 0, is computed on the expression tree; else priced by
        :func:`_quorum_metric` from the side's cached membership table, which
        the ascent and the candidate's LP read too."""
        if kind is Objective.NETWORK:
            return float(qs._least_size(side, self.f))
        if self.f > 0:
            index, values = _quorum_metric(qs, kind, side, self.f)
            return float(values[index.min()])
        return _expr.min_quorum_latency(qs.side(side), self.latency)

    def costs(self, systems: list[QuorumSystem]) -> np.ndarray:
        """``cost[candidate, kind]``: the least expected latency or network
        load, ``E[f]*min_R size(R) + (1-E[f])*min_W size(W)``, size being
        the quorum latency or node count, for each of ``kinds``."""
        cost = [[self.ef * self._least_cost(qs, kind, "read")
                 + (1 - self.ef) * self._least_cost(qs, kind, "write") for kind in self.kinds]
                for qs in systems]
        return np.array(cost).reshape(len(systems), len(self.kinds))

    def out_of_reach(self, bar: float | None, cost: np.ndarray,
                     load: np.ndarray | None = None) -> np.ndarray:
        """Per candidate, whether no strategy both meets the limits and
        strictly beats ``bar``: a capacity above it for the load objective, a
        latency or network load below it otherwise; None is beaten by any
        strategy that meets them. Decided on the tree costs ``cost[...,
        kind]`` and, if given, the load bounds ``load[..., point]``, with
        the margins of the class docstring."""
        out = (cost > self.ceiling).any(axis=-1)
        if bar is not None and self.objective is not Objective.LOAD:
            out |= cost[..., self.kinds.index(self.objective)] * _BELOW >= bar
        if load is not None:
            if bar is not None and self.objective is Objective.LOAD:
                out |= (self.prob * (1 / load)).sum(axis=-1) <= bar * _BELOW
            if self.max_load is not None:
                out |= (self.prob * load).sum(axis=-1) > self.max_load
        return out

    def ascend(self, systems: list[QuorumSystem], cost: np.ndarray,
               bar: float | None) -> np.ndarray:
        """``load[candidate, point]``: each point's largest ``lb_fr(mu)``
        seen in one multiplicative-weights ascent over all the systems at
        once, whose tree costs are ``cost``; zero, the trivial bound, unless
        the load objective or a capacity limit reads it. The systems must
        share the search's universe and meet its f.

        mu starts proportional to each node's capacity at fr and takes up to
        ``_ASCENT_STEPS`` steps toward the nodes of the cheapest quorums
        (Arora, Hazan & Kale 2012). The rows' node weights, quorum costs and
        membership are stacked along a first axis, and every operation acts
        on each row alone, so a row gets the bound of a batch of one, up to
        the rounding of the matrix product. Membership is padded with
        all-ones quorums (:func:`_stacked`), which changes no row's least
        cost or cheapest quorum. A row leaves the batch as soon as
        :meth:`out_of_reach` rules it out against ``bar``, keeping the
        running maximum that showed it; the others take every step. As the
        running maximum only grows, a row that left is also out of reach
        against any bar that is harder to beat."""
        load = np.zeros((len(systems), len(self.prob)))
        if not systems or self.objective is not Objective.LOAD and self.max_load is None:
            return load
        member = [_stacked(systems, side, self.f) for side in ("read", "write")]
        rows = np.arange(len(systems))
        mu = np.tile(1 / (self.unit[0] + self.unit[1]), (len(systems), 1, 1))
        best = load.copy()
        for step in range(_ASCENT_STEPS + 1):
            mu /= mu.sum(axis=2, keepdims=True)
            # price[row, point, quorum]: the mu-weighted load of the quorum's nodes
            price = [(mu * u) @ m for u, m in zip(self.unit, member)]
            np.maximum(best, price[0].min(axis=2) + price[1].min(axis=2), out=best)
            done = self.out_of_reach(bar, cost[rows], best) | (step == _ASCENT_STEPS)
            load[rows[done]] = best[done]
            if done.all():
                return load
            if done.any():
                keep = ~done
                rows, mu, best = rows[keep], mu[keep], best[keep]
                member, price = [m[keep] for m in member], [p[keep] for p in price]
            pick = np.arange(len(rows))[:, None]
            # [row, point, node]: membership of each point's cheapest quorum
            gain = np.add(*[u * m[pick, :, p.argmin(axis=2)]
                            for u, m, p in zip(self.unit, member, price)])
            mu *= np.exp(gain / gain.max(axis=2, keepdims=True) / math.sqrt(step + 1))


def search(
    universe: Sequence[Node],
    workload: WorkloadLike,
    options: SearchOptions | None = None,
) -> SearchResult:
    """The best quorum system on ``universe`` for ``workload`` among the
    duplicate-free read expressions over its node names, each with the dual
    as writes, under ``options`` (the defaults if None), by the rules of
    the module docstring: the highest capacity for the load objective, the
    lowest latency or network load for theirs.

    The result holds the winner's quorum system, its strategy, its metric
    in exact ``Fraction`` arithmetic (``metric_value``), and
    ``candidates_examined``, which counts every candidate taken: those
    below the floor, those that the bounds rule out, and the later members
    of a group, which are decided as ties of its first member without a
    bound or an LP, are all examined, and each has its quorum system
    built. The budget counts candidates the same way. The budget
    and the timeout are checked before each candidate is taken, so a budget
    stops the stream exactly; a block once taken is decided in full, so a
    search can run past its timeout by the bounds and LPs of one block. On
    timeout or budget exhaustion the best result so far is returned.

    Raises NoFeasibleCandidate if no candidate taken was feasible,
    SolverFailure if the LP backend fails on one, and DomainError for a
    universe that is empty, holds more than ``SEARCH_NODE_BOUND`` nodes,
    holds something other than a Node or repeats a name, for a workload
    that is no distribution, or for options that are no SearchOptions.
    """
    if options is None:
        options = SearchOptions()
    elif not isinstance(options, SearchOptions):
        raise DomainError(f"options must be a SearchOptions or None, got {options!r}")
    universe = as_universe(universe)
    w = Workload.coerce(workload)
    names = sorted(node.name for node in universe)
    objective, constraints, f = options.objective, options.constraints, options.f
    floor = max(options.min_fault_tolerance, f)
    maximize = objective is Objective.LOAD  # capacity: higher is better
    band = float(1 + _TIE if maximize else 1 - _TIE)

    screen = _Screen(universe, w, objective, constraints, f)

    start = time.monotonic()
    best: Strategy | None = None
    bar: float | None = None  # what a challenger must beat: the best score moved by the band
    examined = 0

    def reached() -> Iterator[QuorumSystem]:
        """The quorum system of each candidate taken that meets the floor
        and is the first of its group."""
        nonlocal examined
        for reads in itertools.islice(enumerate_candidates(names), options.budget):
            if options.timeout is not None and time.monotonic() - start >= options.timeout:
                return
            examined += 1
            # Built for every candidate: perfbench's traced mode checks one
            # quorum system per candidate examined.
            qs = QuorumSystem(universe, reads=reads)
            if qs.fault_tolerance() >= floor and screen.first_of_group(reads):
                yield qs

    systems = reached()
    while block := list(itertools.islice(systems, _BLOCK)):
        cost = screen.costs(block)
        kept = ~screen.out_of_reach(bar, cost)
        block, cost = list(itertools.compress(block, kept)), cost[kept]
        load = screen.ascend(block, cost, bar)
        for qs, qs_cost, qs_load in zip(block, cost, load):
            if screen.out_of_reach(bar, qs_cost, qs_load):
                continue
            try:
                sigma = find_strategy(qs, w, objective, constraints, f=f)
            except Infeasible:
                continue
            score = _score(sigma, w, objective)
            if bar is None or (score > bar if maximize else score < bar):
                best, bar = sigma, score * band
    if best is None:
        raise NoFeasibleCandidate(
            f"no feasible quorum system among {examined} candidates"
        )
    return SearchResult(best.qs, best, _metric(best, w, objective), examined)
