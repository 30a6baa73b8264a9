"""Nodes, workloads, and read-write quorum systems.

All values are immutable after construction. Capacities, latencies, and
probabilities are held as exact ``Fraction``s so that metric recomputation
downstream stays exact; floats and decimal strings are converted by their
decimal meaning (0.1 becomes 1/10).

A :class:`QuorumSystem` is asked about one side at a time: each method
that reads a fact of a side, its quorums, its membership table or its
fault tolerance, takes the side, "read" or "write", as an argument, so
each fact has one method rather than one per side.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from . import expr as _expr
from .errors import DomainError, IntersectionViolation, NoResilientQuorum, UnknownNode

Rational = Union[int, float, str, Fraction, Decimal]

_PROB_SUM_TOL = Fraction(1, 10**9)


# A nonzero number's decimal exponent must lie in this range, so that its
# magnitude is at least 1e-300 and below 1e300: the floats that the LP and
# the metrics take from such numbers, their reciprocals and short sums of
# them stay finite and nonzero.
_EXPONENTS = range(-300, 300)
_SCALE = 10**300


def _out_of_range(value: Rational) -> DomainError:
    return DomainError(f"{value!r} is out of range: a nonzero number must be at least "
                       "1e-300 and below 1e300 in magnitude")


def as_fraction(value: Rational) -> Fraction:
    """Exact rational from a finite number or string, reading floats
    decimally. Booleans, NaN, infinities and nonzero magnitudes below 1e-300
    or from 1e300 up raise DomainError. A decimal's range is decided on its
    exponent, before the exact conversion, whose time grows with it."""
    number = value
    if not isinstance(value, Fraction):
        if isinstance(value, bool) or not isinstance(value, (int, float, str, Decimal)):
            raise DomainError(f"cannot interpret {value!r} as a rational")
        try:
            if isinstance(value, float):
                # repr of a builtin float is its shortest round-tripping decimal;
                # float subclasses (numpy) may repr differently, so normalize first
                number = Decimal(repr(float(value)))
            elif isinstance(value, str) and "/" not in value:
                number = Decimal(value)
            if isinstance(number, Decimal) and number.is_finite() and number:
                if number.adjusted() not in _EXPONENTS:
                    raise _out_of_range(value)
            number = Fraction(number)
        except (ValueError, ArithmeticError) as e:  # NaN, infinity, x/0, junk text
            raise DomainError(f"cannot interpret {value!r} as a rational") from e
    n, d = abs(number.numerator), number.denominator
    if n and not (d <= n * _SCALE and n < d * _SCALE):
        raise _out_of_range(value)
    return number


@dataclass(frozen=True)
class Node:
    """A replica with read/write capacities (ops per second) and a latency
    (seconds). Defaults of 1 give the classical probability-based load.
    Hashed once, as the dataclass would hash it on every call."""

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
        object.__setattr__(
            self, "_hash", hash((self.name, self.read_cap, self.write_cap, self.latency)))

    def __hash__(self) -> int:
        return self._hash


def read_fraction(value: Rational) -> Fraction:
    """``value`` as an exact read fraction; outside [0, 1] raises DomainError."""
    fr = as_fraction(value)
    if not 0 <= fr <= 1:
        raise DomainError(f"read fraction {fr} is outside [0, 1]")
    return fr


def _by_fraction(points: Mapping[Rational, Rational]) -> dict[Fraction, Fraction]:
    """``points`` with each key and value made exact by :func:`as_fraction`;
    two keys that name one read fraction are refused, and so is a
    ``points`` that is no mapping."""
    if not isinstance(points, Mapping):
        raise DomainError(f"a workload maps read fractions to numbers, got {points!r}")
    converted: dict[Fraction, Fraction] = {}
    for fr, value in points.items():
        fr = as_fraction(fr)
        if fr in converted:
            raise DomainError(f"duplicate read fraction {fr}")
        converted[fr] = as_fraction(value)
    return converted


class Workload:
    """Discrete probability distribution over read fractions in [0, 1].

    A scalar read fraction is the single-point distribution. Probabilities
    must sum to 1 within 1e-9; keys are kept exactly as given.
    """

    def __init__(self, points: Mapping[Rational, Rational]):
        converted = _by_fraction(points)
        if not converted:
            raise DomainError("workload needs at least one read fraction")
        for fr, p in converted.items():
            read_fraction(fr)
            if not 0 <= p <= 1:
                raise DomainError(f"probability {p} is outside [0, 1]")
        total = sum(converted.values())
        if abs(total - 1) > _PROB_SUM_TOL:
            raise DomainError(f"workload probabilities sum to {total}, not 1")
        self._points = dict(sorted(converted.items()))
        self._hash = hash(tuple(self._points.items()))

    @classmethod
    def coerce(cls, value: "Workload" | Rational | Mapping[Rational, Rational]) -> "Workload":
        if isinstance(value, Workload):
            return value
        if isinstance(value, Mapping):
            return cls(value)
        return cls({as_fraction(value): 1})

    @classmethod
    def from_weights(cls, weights: Mapping[Rational, Rational]) -> "Workload":
        """Normalize arbitrary nonnegative weights into a distribution."""
        ws = _by_fraction(weights)
        for fr, w in ws.items():
            if w < 0:
                raise DomainError(f"workload weight {w} of read fraction {fr} is negative")
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
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{fr}: {p}" for fr, p in self._points.items())
        return f"Workload({{{inner}}})"


WorkloadLike = Union[Workload, Rational, Mapping[Rational, Rational]]
ExprLike = Union[_expr.Expression, str, None]


def as_universe(nodes: Sequence[Node]) -> tuple[Node, ...]:
    """``nodes`` as a tuple; DomainError if it is no collection, or one of
    them is no Node."""
    nodes = _expr.as_tuple(nodes, "a universe holds Nodes")
    for n in nodes:
        if not isinstance(n, Node):
            raise DomainError(f"a universe holds Nodes, got {n!r}")
    return nodes


def _checked_side(side: str) -> str:
    """``side``, which must be "read" or "write"; else DomainError."""
    if side not in ("read", "write"):
        raise DomainError(f"side must be 'read' or 'write', got {side!r}")
    return side


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
    the nodes outside each minimal write quorum hold no read quorum, in one
    tree pass over the membership of every minimal write quorum.

    Each fact of a side has one public method that takes the side, "read"
    or "write", as its first argument, as the two sides are each other's
    duals: :meth:`side` (its expression), :meth:`is_quorum`,
    :meth:`resilient_quorums` (its minimal quorums at f = 0),
    :meth:`members`, :meth:`is_resilient` and :meth:`fault_tolerance`,
    which with no side gives the weaker side's. Any other side raises
    DomainError. Only the given expressions, :attr:`reads` and
    :attr:`writes`, are named by side.

    A family is a side or a side's dual, and each fact is kept once per
    family: its names, its minimal (f-resilient) quorums, enumerated on
    first use and cached in canonical order as int bitmasks over its names
    (:meth:`_family`), and its smallest quorum size
    (:meth:`_least_size`). In a derived system the two sides are each
    other's duals; otherwise a side's dual is one more family. An
    expression that was not given, a derived system's missing side or a
    side's dual, is built on first use. The masks stay in this module:
    other modules read a side's quorums as its membership table over the
    universe (:meth:`members`), cached next to the masks, or as name sets,
    unmasked from the masks on each call. A side's fault tolerance is its
    dual's smallest quorum less one; the walk of a given side that repeats
    no name finds the smallest quorum of the side and of its dual, so
    neither enumerates.
    A side over more than ``expr.ENUMERATION_BOUND`` names raises
    UniverseTooLarge at construction.

    A quorum that a caller gives, to :meth:`is_quorum` and
    :meth:`is_resilient` here, and to ``optimize.quorum_latency`` and
    ``optimize.Strategy``, is any iterable of node names of the universe,
    read once by :meth:`node_set` into a frozenset. A ``str``, which is no
    set of names, an ``int`` or another object that is no iterable, and a
    member that cannot be hashed, such as a list, raise DomainError; a name
    outside the universe raises UnknownNode.
    """

    def __init__(self, universe: Sequence[Node], reads: ExprLike = None, writes: ExprLike = None):
        universe = as_universe(universe)
        names = [n.name for n in universe]
        if len(set(names)) != len(names):
            raise DomainError("node names must be unique within a universe")
        reads, writes = _coerce_expr(reads), _coerce_expr(writes)
        if reads is None and writes is None:
            raise DomainError("supply read quorums, write quorums, or both")
        derived = reads is None or writes is None
        # A family is a side or a side's dual. Derived, each side is the
        # other's dual, as dual(dual(e)) is e; else a side's dual is one more
        # family, "~read" or "~write", whose expression is built on first use.
        pairs = [("read", "write")] if derived else [("read", "~read"), ("write", "~write")]
        self._dual_of = dict(pairs + [(b, a) for a, b in pairs])
        # One walk of each given side finds its names, which its dual shares,
        # and, if no name repeats, the smallest quorum sizes of the side and
        # of its dual (see _least_size).
        self._names: dict[str, tuple[str, ...]] = {}
        self._least: dict[str, int] = {}
        for side, e in (("read", reads), ("write", writes)):
            if e is None:
                continue
            dual = self._dual_of[side]
            self._names[side], sizes = _expr._survey(e)
            self._names[dual] = self._names[side]
            if sizes is not None:
                self._least[side], self._least[dual] = sizes
        read_names, write_names = self._names["read"], self._names["write"]
        unknown = sorted(set(read_names + write_names).difference(names))
        if unknown:
            raise UnknownNode(f"expression names {unknown} are not in the universe")
        # Refuse now what enumerating a side's quorums would refuse on first use.
        _expr.check_enumeration_bound(max(len(read_names), len(write_names)))
        self._universe = universe
        self._nodes = {n.name: n for n in universe}
        # The given sides; the other families are built on first use.
        self._exprs = {side: e for side, e in (("read", reads), ("write", writes))
                       if e is not None}
        self._masks: dict[tuple[str, int], tuple[int, ...]] = {}
        self._members: dict[tuple[str, int], np.ndarray] = {}
        if not derived:
            self._check_intersection()

    def _check_intersection(self) -> None:
        """Raise IntersectionViolation, naming the first disjoint pair in
        read-major order, if the reads hold on the complement of a minimal
        write quorum: one tree pass over the negated write table
        (:meth:`members`), whose row of each universe node says which
        minimal write quorums leave it out."""
        outside = dict(zip((n.name for n in self._universe), ~self.members("write")))
        missed = np.flatnonzero(_expr.fold(self._exprs["read"], outside.__getitem__,
                                           lambda values, k: np.sum(values, axis=0) >= k))
        if missed.size:
            masks = self._family("write")
            writes = _expr.unmask([masks[i] for i in missed], self._names["write"])
            raise IntersectionViolation(*next(
                (r, w) for r in self.resilient_quorums("read") for w in writes if not r & w))

    @property
    def universe(self) -> tuple[Node, ...]:
        return self._universe

    @property
    def reads(self) -> _expr.Expression:
        return self._expression("read")

    @property
    def writes(self) -> _expr.Expression:
        return self._expression("write")

    def node(self, name: str) -> Node:
        """The node named ``name``: UnknownNode if the universe has none,
        DomainError if ``name`` cannot be hashed, such as a list."""
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNode(f"no node named {name!r}") from None
        except TypeError:
            raise DomainError(f"a node name is a string, got {name!r}") from None

    def __repr__(self) -> str:
        return f"QuorumSystem(reads={self.reads}, writes={self.writes})"

    # -- membership ---------------------------------------------------------

    def node_set(self, quorum: Iterable[str]) -> frozenset[str]:
        """``quorum`` as the frozenset of its node names: the one reading of
        a quorum that a caller gives. A ``str``, which would be read as the
        set of its characters, an object that is no iterable, or a member
        that cannot be hashed raises DomainError; a name outside the
        universe raises UnknownNode, for the first such name in sorted
        order. A name of the universe that is on neither side is kept."""
        if isinstance(quorum, str):
            raise DomainError(f"a quorum is a set of node names, got the text {quorum!r}")
        try:
            names = frozenset(quorum)
        except TypeError:  # no iterable, or a member that cannot be hashed
            raise DomainError(f"a quorum is a set of node names, got {quorum!r}") from None
        unknown = names.difference(self._nodes)
        if unknown:
            raise UnknownNode(f"no node named {min(unknown, key=str)!r}")
        return names

    def is_quorum(self, side: str, names: Iterable[str]) -> bool:
        """True iff the node set ``names`` holds a quorum of ``side``."""
        return self.side(side).evaluate(self.node_set(names))

    def side(self, side: str) -> _expr.Expression:
        """The expression of ``side``, which must be "read" or "write"."""
        return self._expression(_checked_side(side))

    def members(self, side: str, f: int = 0) -> np.ndarray:
        """``table[node, j]`` is True iff the j-th of ``side``'s minimal
        f-resilient quorums, in :meth:`resilient_quorums` order, holds the
        node, nodes in universe order; a node outside the side is in none.
        Built once per (side, f) from the masks and kept, read-only: every
        caller shares it. This is the form in which a quorum family leaves
        the model: the LP, the search's screen and the quorum metrics read
        it."""
        masks = self._family(_checked_side(side), f)
        if (side, f) not in self._members:
            bit = _expr._bits(self._names[side])
            column = np.array([bit.get(n.name, 0) for n in self._universe], dtype=np.int64)
            table = (column[:, None] & np.array(masks, dtype=np.int64)) != 0
            table.flags.writeable = False
            self._members[side, f] = table
        return self._members[side, f]

    def _family(self, family: str, f: int = 0) -> tuple[int, ...]:
        """The minimal f-resilient quorums of a family, a side or a side's
        dual, as masks over its names, enumerated once and cached: at f = 0
        from its expression, else by :func:`expr.minimal_transversals` from
        the minimal quorums of its dual. An f that is no int, or a bool,
        raises DomainError before the cache is read, where True would find
        the entry of 1."""
        if isinstance(f, bool) or not isinstance(f, int) or f < 0:
            raise DomainError(f"f must be a nonnegative integer, got {f!r}")
        if (family, f) not in self._masks:
            if f > 0 and self._fault_tolerance(family) < f:
                raise NoResilientQuorum(f"no {family} quorum survives every removal of {f} nodes")
            self._masks[family, f] = (
                _expr._masks(self._expression(family), self._names[family]) if f == 0
                else _expr.minimal_transversals(
                    self._family(self._dual_of[family]), len(self._names[family]), f))
        return self._masks[family, f]

    def _expression(self, family: str) -> _expr.Expression:
        """The expression of a family: a given side, or the dual of its dual
        family's expression, built on first use and kept."""
        if family not in self._exprs:
            self._exprs[family] = self._exprs[self._dual_of[family]].dual()
        return self._exprs[family]

    # -- fault tolerance -----------------------------------------------------

    def fault_tolerance(self, side: str | None = None) -> int:
        """The largest f such that some quorum of ``side`` survives any f
        failures, or the smaller of the two sides' if ``side`` is None: the
        smallest quorum of the side's dual less one, read without building
        the side's own expression."""
        if side is None:
            return min(self._fault_tolerance("read"), self._fault_tolerance("write"))
        return self._fault_tolerance(_checked_side(side))

    def _fault_tolerance(self, family: str) -> int:
        # Killing a node set removes every quorum iff the set meets every
        # quorum. The minimal such sets are the minimal quorums of the dual,
        # so the dual's smallest quorum, less one, is the fault tolerance.
        return self._least_size(self._dual_of[family]) - 1

    def _least_size(self, family: str, f: int = 0) -> int:
        """The node count of the family's smallest minimal f-resilient
        quorum: at f = 0 the size that the walk of a read-once side found
        for the side or its dual, so such a family enumerates nothing; else
        the first of its masks in canonical order."""
        if f == 0 and family in self._least:
            return self._least[family]
        return self._family(family, f)[0].bit_count()

    # -- resilient quorums ---------------------------------------------------

    def is_resilient(self, side: str, quorum: Iterable[str], f: int) -> bool:
        """True iff ``quorum`` stays a quorum of ``side`` after the removal of
        any f of its nodes, so never for f or fewer nodes: iff it holds one
        of the side's minimal f-resilient quorums (:meth:`resilient_quorums`),
        which the first call for a (side, f) sweeps for. False for every set
        past the side's fault tolerance; a negative f raises DomainError
        before the quorum is read (:meth:`node_set`)."""
        try:
            masks = self._family(_checked_side(side), f)
        except NoResilientQuorum:
            masks = ()
        bit = _expr._bits(self._names[side])
        s = sum(bit.get(x, 0) for x in self.node_set(quorum))
        return any(s & m == m for m in masks)

    def resilient_quorums(self, side: str, f: int = 0) -> list[frozenset[str]]:
        """Inclusion-minimal quorums of ``side`` that survive the removal of
        any f of their nodes, in canonical order; for f = 0, the minimal
        quorums. For f > 0, :func:`expr.minimal_transversals` finds them in
        one vectorised sweep of every set of the side's names, once per
        (side, f); there are some iff f is at most the side's fault
        tolerance. Each call unmasks a fresh list from the cached masks."""
        return _expr.unmask(self._family(_checked_side(side), f), self._names[side])
