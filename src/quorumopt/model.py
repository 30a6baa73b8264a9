"""Nodes, workloads, and read-write quorum systems.

All values are immutable after construction. Capacities, latencies, and
probabilities are held as exact ``Fraction``s so that metric recomputation
downstream stays exact; floats and decimal strings are converted by their
decimal meaning (0.1 becomes 1/10).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Mapping, Sequence, Union

from . import expr as _expr
from .errors import DomainError, IntersectionViolation, NoResilientQuorum, UnknownNode

Rational = Union[int, float, str, Fraction, Decimal]

_PROB_SUM_TOL = Fraction(1, 10**9)


def as_fraction(value: Rational) -> Fraction:
    """Exact rational from a finite number or string, reading floats
    decimally; booleans, NaN and infinities raise DomainError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    try:
        if isinstance(value, float):
            # repr of a builtin float is its shortest round-tripping decimal;
            # float subclasses (numpy) may repr differently, so normalize first
            return Fraction(Decimal(repr(float(value))))
        if isinstance(value, Decimal):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value) if "/" in value else Fraction(Decimal(value))
    except (ValueError, ArithmeticError) as e:  # NaN, infinity, x/0, junk text
        raise DomainError(f"cannot interpret {value!r} as a rational") from e
    raise DomainError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class Node:
    """A replica with read/write capacities (ops per second) and a latency
    (seconds). Defaults of 1 give the classical probability-based load."""

    name: str
    read_cap: Fraction = Fraction(1)
    write_cap: Fraction = Fraction(1)
    latency: Fraction = Fraction(1)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise DomainError("node name must be a nonempty string")
        for field in ("read_cap", "write_cap", "latency"):
            value = as_fraction(getattr(self, field))
            if value <= 0:
                raise DomainError(f"{field} of node {self.name!r} must be positive")
            object.__setattr__(self, field, value)


class Workload:
    """Discrete probability distribution over read fractions in [0, 1].

    A scalar read fraction is the single-point distribution. Probabilities
    must sum to 1 within 1e-9; keys are kept exactly as given.
    """

    def __init__(self, points: Mapping[Rational, Rational]):
        if not points:
            raise DomainError("workload needs at least one read fraction")
        converted: dict[Fraction, Fraction] = {}
        for fr, p in points.items():
            fr = as_fraction(fr)
            p = as_fraction(p)
            if not 0 <= fr <= 1:
                raise DomainError(f"read fraction {fr} is outside [0, 1]")
            if not 0 <= p <= 1:
                raise DomainError(f"probability {p} is outside [0, 1]")
            if fr in converted:
                raise DomainError(f"duplicate read fraction {fr}")
            converted[fr] = p
        total = sum(converted.values())
        if abs(total - 1) > _PROB_SUM_TOL:
            raise DomainError(f"workload probabilities sum to {total}, not 1")
        self._points = dict(sorted(converted.items()))

    @classmethod
    def coerce(cls, value: "Workload" | Rational | Mapping[Rational, Rational]) -> "Workload":
        if isinstance(value, Workload):
            return value
        if isinstance(value, Mapping):
            return cls(value)
        return cls({value: 1})

    @classmethod
    def from_weights(cls, weights: Mapping[Rational, Rational]) -> "Workload":
        """Normalize arbitrary nonnegative weights into a distribution."""
        ws = {as_fraction(fr): as_fraction(w) for fr, w in weights.items()}
        total = sum(ws.values())
        if total <= 0:
            raise DomainError("workload weights must have positive total")
        return cls({fr: w / total for fr, w in ws.items() if w > 0})

    @property
    def points(self) -> dict[Fraction, Fraction]:
        return dict(self._points)

    def items(self) -> list[tuple[Fraction, Fraction]]:
        return list(self._points.items())

    @cached_property
    def mean_read_fraction(self) -> Fraction:
        return sum(fr * p for fr, p in self._points.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Workload) and self._points == other._points

    def __hash__(self) -> int:
        return hash(tuple(self._points.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{fr}: {p}" for fr, p in self._points.items())
        return f"Workload({{{inner}}})"


WorkloadLike = Union[Workload, Rational, Mapping[Rational, Rational]]
ExprLike = Union[_expr.Expression, str, None]


def _coerce_expr(e: ExprLike) -> _expr.Expression | None:
    if e is None or isinstance(e, _expr.Expression):
        return e
    if isinstance(e, str):
        return _expr.parse(e)
    raise DomainError(f"expected an Expression or text, got {e!r}")


class QuorumSystem:
    """A pair of read/write expressions over a node universe in which every
    read quorum intersects every write quorum.

    If only one side is given, the other is its dual: the optimal complement,
    which always intersects it. If both are given, construction checks that
    the nodes outside each minimal write quorum hold no read quorum, one
    tree evaluation per write quorum.

    A side's minimal quorums are enumerated on first use and cached in
    canonical order, and kept as int bitmasks over :meth:`side_names` for
    latency, membership and resilience. Fault tolerance needs no
    enumeration when a side's dual repeats no name. A side over more than
    ``expr.ENUMERATION_BOUND`` names raises UniverseTooLarge at construction.
    """

    def __init__(self, universe: Sequence[Node], reads: ExprLike = None, writes: ExprLike = None):
        universe = list(universe)
        names = [n.name for n in universe]
        if len(set(names)) != len(names):
            raise DomainError("node names must be unique within a universe")
        reads, writes = _coerce_expr(reads), _coerce_expr(writes)
        if reads is None and writes is None:
            raise DomainError("supply read quorums, write quorums, or both")
        derived = reads is None or writes is None
        self._tolerance: dict[str, int] = {}
        # One walk of a given side finds its names, which its dual shares, and, if no
        # name repeats, its smallest quorum size: its dual's fault tolerance + 1.
        read_names, smallest = _expr.survey(writes if reads is None else reads)
        write_names = read_names if derived else _expr.survey(writes)[0]
        if derived and smallest is not None:
            self._tolerance["read" if reads is None else "write"] = smallest - 1
        reads = writes.dual() if reads is None else reads
        writes = reads.dual() if writes is None else writes
        unknown = sorted(set(read_names + write_names).difference(names))
        if unknown:
            raise UnknownNode(f"expression names {unknown} are not in the universe")
        # Refuse now what minimal_sets would refuse on first use.
        _expr.check_enumeration_bound(max(len(read_names), len(write_names)))
        self._universe = tuple(universe)
        self._nodes = {n.name: n for n in universe}
        self._exprs = {"read": reads, "write": writes}
        self._names = {"read": read_names, "write": write_names}
        # Derived, each side is the other's dual, as dual(dual(e)) is e.
        self._dual_side = {"read": "write", "write": "read"} if derived else {}
        self._sets: dict[tuple[str, int], list[frozenset[str]]] = {}
        self._masks: dict[tuple[str, int], tuple[int, ...]] = {}
        self._dual_masks: dict[str, tuple[int, ...]] = {}
        missed = [] if derived else [
            w for w in self.write_minimal if reads.evaluate(self._nodes.keys() - w)]
        if missed:  # report the first disjoint pair in read-major order
            raise IntersectionViolation(*next(
                (r, w) for r in self.read_minimal for w in missed if not r & w))

    @property
    def universe(self) -> tuple[Node, ...]:
        return self._universe

    @property
    def reads(self) -> _expr.Expression:
        return self._exprs["read"]

    @property
    def writes(self) -> _expr.Expression:
        return self._exprs["write"]

    @property
    def read_minimal(self) -> list[frozenset[str]]:
        return self.minimal_quorums("read")

    @property
    def write_minimal(self) -> list[frozenset[str]]:
        return self.minimal_quorums("write")

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNode(f"no node named {name!r}") from None

    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def __repr__(self) -> str:
        return f"QuorumSystem(reads={self.reads}, writes={self.writes})"

    # -- membership ---------------------------------------------------------

    def is_read_quorum(self, names: AbstractSet[str]) -> bool:
        return self.reads.evaluate(names)

    def is_write_quorum(self, names: AbstractSet[str]) -> bool:
        return self.writes.evaluate(names)

    def side(self, side: str) -> _expr.Expression:
        """The expression of ``side``, which must be "read" or "write"."""
        if side not in ("read", "write"):
            raise DomainError(f"side must be 'read' or 'write', got {side!r}")
        return self._exprs[side]

    def side_names(self, side: str) -> tuple[str, ...]:
        """The sorted names of ``side``, the first in the top bit of its masks."""
        self.side(side)  # rejects an unknown side
        return self._names[side]

    def minimal_quorums(self, side: str) -> list[frozenset[str]]:
        if (side, 0) not in self._sets:
            self._sets[side, 0] = _expr.minimal_sets(self.side(side), self._names[side])
        return list(self._sets[side, 0])

    def quorum_masks(self, side: str, f: int = 0) -> tuple[int, ...]:
        """``resilient_quorums(side, f)`` as masks over :meth:`side_names`;
        there are some iff f is at most the side's fault tolerance."""
        if (side, f) not in self._masks:
            if f < 0:
                raise DomainError(f"f must be nonnegative, got {f}")
            if f > 0 and self._fault_tolerance(side) < f:
                raise NoResilientQuorum(f"no {side} quorum survives every removal of {f} nodes")
            self._masks[side, f] = (
                _expr.to_masks(self.minimal_quorums(side), self._names[side]) if f == 0
                else _expr.minimal_transversals(self._dual(side), len(self._names[side]), f))
        return self._masks[side, f]

    def _dual(self, side: str) -> tuple[int, ...]:
        """The minimal quorums of the side's dual, as masks over its names."""
        if side in self._dual_side:
            return self.quorum_masks(self._dual_side[side])
        if side not in self._dual_masks:
            dual = _expr.minimal_sets(self.side(side).dual(), self._names[side])
            self._dual_masks[side] = _expr.to_masks(dual, self._names[side])
        return self._dual_masks[side]

    # -- fault tolerance -----------------------------------------------------

    def read_fault_tolerance(self) -> int:
        """Largest f such that some read quorum survives any f failures, via the dual."""
        return self._fault_tolerance("read")

    def write_fault_tolerance(self) -> int:
        """Largest f such that some write quorum survives any f failures, via the dual."""
        return self._fault_tolerance("write")

    def fault_tolerance(self) -> int:
        """The smaller side's fault tolerance, computed from the duals."""
        return min(self.read_fault_tolerance(), self.write_fault_tolerance())

    def _fault_tolerance(self, side: str) -> int:
        # Killing a node set removes every quorum iff the set meets every
        # quorum. The minimal such sets are the minimal quorums of the dual,
        # so the dual's smallest quorum, less one, is the fault tolerance.
        if side not in self._tolerance:
            other = self._dual_side.get(side)
            dual = self._exprs[other] if other else self.side(side).dual()
            self._tolerance[side] = _expr.min_quorum_size(dual) - 1
        return self._tolerance[side]

    # -- resilient quorums ---------------------------------------------------

    def is_resilient(self, side: str, quorum: AbstractSet[str], f: int) -> bool:
        """True iff ``quorum`` stays a quorum of ``side`` after the removal of
        any f of its nodes, so never for f or fewer nodes: iff it shares more
        than f nodes with each minimal quorum of the side's dual, the minimal
        sets that meet every quorum (Ibaraki & Kameda 1993). Exact for every
        expression."""
        (s,) = _expr.to_masks([frozenset(quorum)], self.side_names(side))
        return all((s & d).bit_count() > f for d in self._dual(side))

    def resilient_quorums(self, side: str, f: int) -> list[frozenset[str]]:
        """Inclusion-minimal quorums of ``side`` that survive the removal of
        any f of their nodes, in canonical order; for f = 0, the minimal
        quorums. For f > 0, :func:`expr.minimal_transversals` tests every set
        of the side's names as :meth:`is_resilient` does, in one vectorised
        sweep, once per (side, f); each call gets a copy."""
        if f == 0:
            return self.minimal_quorums(side)
        if (side, f) not in self._sets:
            self._sets[side, f] = _expr.unmask(self.quorum_masks(side, f), self._names[side])
        return list(self._sets[side, f])
