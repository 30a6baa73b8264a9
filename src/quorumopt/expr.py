"""Monotone boolean expressions over node names.

An expression denotes a superset-closed family of node sets: ``S`` is a
quorum of ``e`` iff ``e.evaluate(S)`` is true. Because the algebra has no
negation, every expression is monotone, so the family is generated by its
inclusion-minimal members (see :func:`minimal_sets`).

Expressions are immutable; all operations are pure functions. ``+`` is
disjunction, ``*`` is conjunction, and ``choose(k, es)`` is true when at
least ``k`` of its children are true.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, ParseError, UniverseTooLarge

# Variable names: exactly the identifiers the parser reads back.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Output size, not the enumeration, bounds the universe: a majority of 20
# nodes already has 167,960 minimal quorums per side, and find_strategy makes
# each of them an LP column.
ENUMERATION_BOUND = 20


class Expression:
    """Base class; concrete nodes are Var, and Or, And, and Choose, which hold
    a tuple of children."""

    __slots__ = ()

    def __add__(self, other: "Expression") -> "Expression":
        return or_(self, other)

    def __mul__(self, other: "Expression") -> "Expression":
        return and_(self, other)

    def evaluate(self, alive: AbstractSet[str]) -> bool:
        """True iff ``alive`` is a quorum of this expression."""
        raise NotImplementedError

    def dual(self) -> "Expression":
        """Swap and/or (thresholds flip k to n-k+1).

        The minimal quorums of the dual are exactly the minimal transversals
        of this expression's minimal quorums, and dual(dual(e)) equals e as a
        boolean function.
        """
        raise NotImplementedError

    def depth(self) -> int:
        """Height of the syntax tree; a bare variable has depth 0."""
        return 1 + max(c.depth() for c in self.children)

    def leaves(self) -> tuple[str, ...]:
        """Leaf names in syntactic order, with repetitions."""
        return tuple(itertools.chain.from_iterable(c.leaves() for c in self.children))

    def names(self) -> frozenset[str]:
        return frozenset(self.leaves())

    def uses_each_variable_once(self) -> bool:
        """Syntactic duplicate-freedom: no name occurs in two leaves."""
        ls = self.leaves()
        return len(ls) == len(set(ls))

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Var(Expression):
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME.fullmatch(self.name):
            raise DomainError(
                f"variable name {self.name!r} is not an identifier {_NAME.pattern}"
            )

    def evaluate(self, alive: AbstractSet[str]) -> bool:
        return self.name in alive

    def dual(self) -> Expression:
        return self

    def depth(self) -> int:
        return 0

    def leaves(self) -> tuple[str, ...]:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


def _check_children(children, op: str) -> None:
    if len(children) < 2:
        raise DomainError(f"{op} needs at least 2 children, got {len(children)}")
    for c in children:
        if not isinstance(c, Expression):
            raise DomainError(f"{op} child {c!r} is not an Expression")


@dataclass(frozen=True, slots=True)
class Or(Expression):
    children: tuple[Expression, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        _check_children(self.children, "Or")

    def evaluate(self, alive: AbstractSet[str]) -> bool:
        return any(c.evaluate(alive) for c in self.children)

    def dual(self) -> Expression:
        return And(tuple(c.dual() for c in self.children))

    def __str__(self) -> str:
        return " + ".join(str(c) for c in self.children)


@dataclass(frozen=True, slots=True)
class And(Expression):
    children: tuple[Expression, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        _check_children(self.children, "And")

    def evaluate(self, alive: AbstractSet[str]) -> bool:
        return all(c.evaluate(alive) for c in self.children)

    def dual(self) -> Expression:
        return Or(tuple(c.dual() for c in self.children))

    def __str__(self) -> str:
        # Or children need parentheses under *; everything else binds tighter.
        parts = []
        for c in self.children:
            s = str(c)
            parts.append(f"({s})" if isinstance(c, Or) else s)
        return "*".join(parts)


@dataclass(frozen=True, slots=True)
class Choose(Expression):
    k: int
    children: tuple[Expression, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        _check_children(self.children, "Choose")
        if not isinstance(self.k, int) or not 1 <= self.k <= len(self.children):
            raise DomainError(
                f"choose threshold must satisfy 1 <= k <= {len(self.children)}, got {self.k}"
            )

    def evaluate(self, alive: AbstractSet[str]) -> bool:
        need = self.k
        for c in self.children:
            if c.evaluate(alive):
                need -= 1
                if need == 0:
                    return True
        return False

    def dual(self) -> Expression:
        n = len(self.children)
        return Choose(n - self.k + 1, tuple(c.dual() for c in self.children))

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.children)
        return f"choose({self.k}, [{inner}])"


def or_(*exprs: Expression) -> Expression:
    """Disjunction; splices nested Or children so a+b+c is one node."""
    flat: list[Expression] = []
    for e in exprs:
        if isinstance(e, Or):
            flat.extend(e.children)
        else:
            flat.append(e)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def and_(*exprs: Expression) -> Expression:
    """Conjunction; splices nested And children so a*b*c is one node."""
    flat: list[Expression] = []
    for e in exprs:
        if isinstance(e, And):
            flat.extend(e.children)
        else:
            flat.append(e)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def choose(k: int, exprs: Sequence[Expression]) -> Expression:
    """Threshold combinator: true when at least k of exprs are true.

    choose(1, es) is the same function as or(es) and choose(n, es) the same
    as and(es); those cases are normalized to the plain connectives.
    """
    exprs = list(exprs)
    if len(exprs) < 2:
        raise DomainError(f"choose needs at least 2 children, got {len(exprs)}")
    if not isinstance(k, int) or k < 1 or k > len(exprs):
        raise DomainError(
            f"choose threshold must satisfy 1 <= k <= {len(exprs)}, got {k}"
        )
    if k == 1:
        return or_(*exprs)
    if k == len(exprs):
        return and_(*exprs)
    return Choose(k, tuple(exprs))


def majority(exprs: Sequence[Expression]) -> Expression:
    """Strict-majority threshold: choose(floor(n/2) + 1, exprs)."""
    return choose(len(exprs) // 2 + 1, exprs)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>""" + _NAME.pattern + r""")
  | (?P<num>\d+)
  | (?P<sym>[+*(),\[\]])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        kind, value, pos = self.peek()
        if value != text:
            got = "end of input" if kind == "eof" else repr(value)
            raise ParseError(f"expected {text!r}, found {got}", pos)
        self.advance()

    def parse(self) -> Expression:
        e = self.parse_or()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def parse_or(self) -> Expression:
        parts = [self.parse_and()]
        while self.peek()[1] == "+":
            self.advance()
            parts.append(self.parse_and())
        return or_(*parts)

    def parse_and(self) -> Expression:
        parts = [self.parse_atom()]
        while self.peek()[1] == "*":
            self.advance()
            parts.append(self.parse_atom())
        return and_(*parts)

    def parse_atom(self) -> Expression:
        kind, value, pos = self.peek()
        if value == "(":
            self.advance()
            e = self.parse_or()
            self.expect(")")
            return e
        if kind == "ident":
            self.advance()
            if value == "choose" and self.peek()[1] == "(":
                self.advance()
                k = self.parse_int()
                self.expect(",")
                children = self.parse_list()
                self.expect(")")
                return choose(k, children)
            if value == "majority" and self.peek()[1] == "(":
                self.advance()
                children = self.parse_list()
                self.expect(")")
                return majority(children)
            return Var(value)
        got = "end of input" if kind == "eof" else repr(value)
        raise ParseError(f"expected an expression, found {got}", pos)

    def parse_int(self) -> int:
        kind, value, pos = self.peek()
        if kind != "num":
            raise ParseError(f"expected an integer, found {value!r}", pos)
        self.advance()
        return int(value)

    def parse_list(self) -> list[Expression]:
        self.expect("[")
        items = [self.parse_or()]
        while self.peek()[1] == ",":
            self.advance()
            items.append(self.parse_or())
        self.expect("]")
        return items


def parse(text: str) -> Expression:
    """Parse expression text.

    Grammar: identifiers ``[A-Za-z_][A-Za-z0-9_]*``; ``+`` (or, lowest
    precedence), ``*`` (and), parentheses; ``choose(k, [e1, ..., en])``;
    ``majority([e1, ..., en])`` which is choose(floor(n/2)+1, ...).
    Whitespace is insignificant. Same-operator chains are flattened, so
    ``a*b*c`` is a single conjunction of three children.

    Raises ParseError (with position) for malformed input and DomainError
    for an out-of-range choose threshold.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def canonical(e: Expression) -> Expression:
    """Equivalent expression with same-operator chains flattened, threshold
    extremes folded into the plain connectives (choose(1, es) is or, and
    choose(n, es) is and), and children sorted by their printed form.
    parse(str(canonical(e))) == canonical(e).
    """
    if isinstance(e, Var):
        return e
    children = [canonical(c) for c in e.children]
    if isinstance(e, Choose) and 1 < e.k < len(children):
        return Choose(e.k, tuple(sorted(children, key=str)))
    as_or = isinstance(e, Or) or (isinstance(e, Choose) and e.k == 1)
    flat: list[Expression] = []
    for c in children:
        if as_or and isinstance(c, Or):
            flat.extend(c.children)
        elif not as_or and isinstance(c, And):
            flat.extend(c.children)
        else:
            flat.append(c)
    ordered = tuple(sorted(flat, key=str))
    return Or(ordered) if as_or else And(ordered)


# ---------------------------------------------------------------------------
# Minimal quorum enumeration
# ---------------------------------------------------------------------------


def check_enumeration_bound(n: int) -> None:
    """Raise UniverseTooLarge if n names are more than ``ENUMERATION_BOUND``,
    the most whose subsets this package will enumerate."""
    if n > ENUMERATION_BOUND:
        raise UniverseTooLarge(
            f"{n} nodes exceeds the enumeration bound of {ENUMERATION_BOUND}"
        )


def minimal_sets(
    e: Expression, universe: Iterable[str] | None = None
) -> list[frozenset[str]]:
    """All inclusion-minimal S with e.evaluate(S) true, in canonical order:
    by size, then lexicographically by position in the universe, which
    defaults to the sorted names of e.

    Sets are built as bitmasks with the universe's first name in the top
    bit, so canonical order is by bit count, then by descending value.
    Or, And and choose(k) each take k of their children (k = 1, n, k), so a
    node's minimal sets are the unions of one minimal set from each of k
    children, built bottom-up without sweeping subsets. A union can be
    non-minimal only where children share a variable; there, non-minimal
    unions are dropped after every child, so partial families stay antichains."""
    names = sorted(e.names()) if universe is None else list(universe)
    check_enumeration_bound(len(names))
    bit = {x: 1 << (len(names) - 1 - i) for i, x in enumerate(names)}
    try:
        masks, _ = _masks(e, bit)
    except KeyError:
        missing = sorted(e.names().difference(names))
        raise DomainError(f"expression names {missing} are not in the universe") from None
    return unmask(sorted(masks, key=lambda mask: (mask.bit_count(), -mask)), names)


def unmask(masks: Iterable[int], names: Sequence[str]) -> list[frozenset[str]]:
    """The name set of each mask, ``names[0]`` being the top of len(names) bits."""
    bits = [(1 << (len(names) - 1 - i), x) for i, x in enumerate(names)]
    return [frozenset(x for b, x in bits if m & b) for m in masks]


def to_masks(sets: Iterable[Iterable[str]], names: Sequence[str]) -> tuple[int, ...]:
    """The mask of each set, as :func:`unmask` reads it; other names are dropped."""
    bit = {x: 1 << (len(names) - 1 - i) for i, x in enumerate(names)}
    return tuple(sum(bit.get(x, 0) for x in s) for s in sets)


def mask_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """``bits[i, j]`` is 1 iff ``masks[j]`` holds the i-th of n names, as
    :func:`unmask` reads it."""
    return masks >> np.arange(n - 1, -1, -1)[:, None] & 1


def _masks(e: Expression, bit: dict[str, int]) -> tuple[list[int], int]:
    """The minimal sets of e as masks, and the mask of the names e uses."""
    if isinstance(e, Var):
        return [bit[e.name]], bit[e.name]
    families = []
    used = 0
    shared = False  # whether two children use a common name
    for c in e.children:
        family, names = _masks(c, bit)
        families.append(family)
        shared = shared or bool(used & names)
        used |= names
    n = len(families)
    k = threshold(e)
    # picked[j]: unions of one set from each of j children so far, if k is reachable
    picked = [[0]] + [[] for _ in range(k)]
    for i, family in enumerate(families):
        for j in range(min(k, i + 1), max(0, k - n + i), -1):
            picked[j].extend(a | b for a in picked[j - 1] for b in family)
            if shared and j < k:  # absorb, or products of sums grow multiplicatively
                picked[j] = _minimal(picked[j])
    return (_minimal(picked[k]) if shared else picked[k]), used


def minimal_transversals(family: Sequence[int], n: int, f: int = 0) -> tuple[int, ...]:
    """The inclusion-minimal masks over n bits that share more than f bits
    with every mask of ``family``, in canonical order (by bit count, then by
    descending value), from one vectorised sweep over all 2^n masks. For
    f = 0 these are the minimal transversals of the family; given the
    minimal quorums of an expression's dual, the expression's minimal
    f-resilient quorums."""
    subsets = np.arange(1 << n, dtype=np.int32)  # n is at most ENUMERATION_BOUND
    family = np.array(family, dtype=np.int32)
    ok = np.ones(1 << n, dtype=bool)
    block = max(1, (1 << 16) >> n)  # at most about 2^16 popcounts at a time
    for i in range(0, len(family), block):
        ok &= (np.bitwise_count(subsets[:, None] & family[i:i + block]) > f).all(axis=1)
    # The property is upward closed, so a mask that has it is minimal iff
    # dropping any one bit loses it.
    keep = ok.copy()
    for b in range(n):
        keep.reshape(-1, 2, 1 << b)[:, 1] &= ~ok.reshape(-1, 2, 1 << b)[:, 0]
    found = subsets[keep]
    return tuple(found[np.lexsort((-found, np.bitwise_count(found)))].tolist())


def _minimal(masks: list[int]) -> list[int]:
    """The inclusion-minimal masks among ``masks``, smallest first."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return kept


def threshold(e: Expression) -> int:
    """How many children of a composite node must be true: k for choose(k),
    1 for Or, all of them for And."""
    if isinstance(e, Choose):
        return e.k
    return 1 if isinstance(e, Or) else len(e.children)


# ---------------------------------------------------------------------------
# Cheapest and fastest quorums
# ---------------------------------------------------------------------------


def min_quorum_size(e: Expression) -> int:
    """The number of nodes in the smallest quorum of e.

    When no name repeats, one pass over the tree: 1 for a variable, and for
    a node that takes k children, the sum of the k smallest child values,
    since children of a read-once tree share no node. Otherwise the size of
    the first of :func:`minimal_sets`."""
    size = survey(e)[1]
    return len(minimal_sets(e)[0]) if size is None else size


def survey(e: Expression) -> tuple[tuple[str, ...], int | None]:
    """From one walk of the tree: the sorted names of e, and the tree pass of
    :func:`min_quorum_size` if no name repeats, else None."""
    leaves: list[str] = []
    size = _smallest(e, leaves)
    names = tuple(sorted(set(leaves)))
    return names, size if len(names) == len(leaves) else None


def _smallest(e: Expression, leaves: list[str]) -> int:
    """The tree pass of min_quorum_size; appends each leaf's name to ``leaves``."""
    if isinstance(e, Var):
        leaves.append(e.name)
        return 1
    return sum(sorted(_smallest(c, leaves) for c in e.children)[: threshold(e)])


def min_quorum_latency(
    e: Expression, latency: Mapping[str, Fraction | float]
) -> Fraction | float:
    """The least t such that the nodes of latency at most t form a quorum of
    e: the latency of its fastest quorum, each quorum taking as long as its
    slowest node.

    One pass over the tree, exact for every expression: a variable's own
    latency, and for a node that takes k children, the k-th smallest child
    value, because whether a child holds on the nodes of latency at most t
    depends on t alone."""
    if isinstance(e, Var):
        return latency[e.name]
    return sorted(min_quorum_latency(c, latency) for c in e.children)[threshold(e) - 1]
