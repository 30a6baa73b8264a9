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

import re
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import DomainError, ParseError, UniverseTooLarge

# Variable names: exactly the identifiers the parser reads back.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Output size, not the enumeration, bounds the universe: a majority of 20
# nodes already has 167,960 minimal quorums per side, and find_strategy makes
# each of them an LP column.
ENUMERATION_BOUND = 20

# Parsed text may open at most this many parentheses at once. The parser and
# the passes over the tree recurse: each level costs up to four parser frames
# and, as in a*(b + a*(b + ...)), two tree levels. Without a bound, such an
# expression overflows Python's default limit of 1000 frames at about 165
# levels; at 100 levels, analyze, the deepest command, needs about 620.
NESTING_BOUND = 100
# The deepest tree that + and * give within that many parentheses: an Or and
# an And inside each and outside them all, then a variable. No tree may be
# deeper, however it was built, as the passes over the tree recurse. Parsed
# choose(2, [x + y*choose(...), ...]) nests three levels a parenthesis, so
# past 67 of them it is refused here.
_DEPTH_BOUND = 2 * NESTING_BOUND + 2

T = TypeVar("T")


class Expression:
    """Base class; concrete nodes are Var, and Or, And, and Choose, which hold
    a tuple of children."""

    __slots__ = ("_depth",)  # a composite node's, set by _check_children; Var's is 0

    def __add__(self, other: "Expression") -> "Expression":
        return or_(self, other)

    def __mul__(self, other: "Expression") -> "Expression":
        return and_(self, other)

    def __reduce__(self):
        # Pickle and copy rebuild the node through its constructor, which
        # records _depth, a slot that is not a dataclass field.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def evaluate(self, alive: AbstractSet[str]) -> bool:
        """True iff ``alive`` is a quorum of this expression: a variable iff
        ``alive`` holds it, a node that takes k children iff k of them hold."""
        return fold(self, alive.__contains__, lambda held, k: sum(held) >= k)

    def dual(self) -> "Expression":
        """Swap and/or (thresholds flip k to n-k+1).

        The minimal quorums of the dual are exactly the minimal transversals
        of this expression's minimal quorums, and dual(dual(e)) equals e as a
        boolean function. An Or gives an And, an And an Or, and choose(k)
        over m children choose(m - k + 1) over their duals.
        """
        children = tuple(c.dual() for c in self.children)
        if isinstance(self, Choose):
            return Choose(len(children) - self.k + 1, children)
        return And(children) if isinstance(self, Or) else Or(children)

    def depth(self) -> int:
        """Height of the syntax tree; a bare variable has depth 0. A
        composite node records it when it is built."""
        return self._depth

    def leaves(self) -> tuple[str, ...]:
        """Leaf names in syntactic order, with repetitions."""
        return fold(self, lambda x: (x,), lambda parts, k: sum(parts, ()))

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
    _depth = 0  # a class attribute, not a field

    def __post_init__(self):
        if not isinstance(self.name, str) or not _NAME.fullmatch(self.name):
            raise DomainError(
                f"variable name {self.name!r} is not an identifier {_NAME.pattern}"
            )

    def dual(self) -> Expression:
        return self

    def __str__(self) -> str:
        return self.name


def as_tuple(items: Iterable[T], what: str) -> tuple[T, ...]:
    """``items`` as a tuple; DomainError, its message led by ``what``, if
    it is no iterable, or a ``str``, which would be read as the collection
    of its characters."""
    if isinstance(items, str):
        raise DomainError(f"{what}, got the text {items!r}")
    try:
        return tuple(items)
    except TypeError:
        raise DomainError(f"{what}, got {items!r}") from None


def _check_children(node: Expression) -> None:
    """Make a composite node's children a tuple, check them, and record the
    node's depth, which may not pass ``_DEPTH_BOUND``: the passes over the
    tree recurse."""
    children = as_tuple(node.children, "a node's children are a collection of Expressions")
    object.__setattr__(node, "children", children)
    if len(children) < 2:
        raise DomainError(f"{type(node).__name__} needs at least 2 children, got {len(children)}")
    depth = 1  # one more than the deepest child's
    for c in children:
        if not isinstance(c, Expression):
            raise DomainError(f"{type(node).__name__} child {c!r} is not an Expression")
        if c._depth >= depth:
            depth = c._depth + 1
    if depth > _DEPTH_BOUND:
        raise DomainError(f"expression is nested more than {_DEPTH_BOUND} levels deep")
    object.__setattr__(node, "_depth", depth)


@dataclass(frozen=True, slots=True)
class Or(Expression):
    children: tuple[Expression, ...]
    __post_init__ = _check_children

    def __str__(self) -> str:
        return " + ".join(str(c) for c in self.children)


@dataclass(frozen=True, slots=True)
class And(Expression):
    children: tuple[Expression, ...]
    __post_init__ = _check_children

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
        _check_children(self)
        k = self.k
        if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= len(self.children):
            raise DomainError(
                f"choose threshold must satisfy 1 <= k <= {len(self.children)}, got {k}"
            )

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.children)
        return f"choose({self.k}, [{inner}])"


def fold(e: Expression, leaf: Callable[[str], T], take: Callable[[list[T], int], T]) -> T:
    """The bottom-up value of e: ``leaf(name)`` at a variable, and
    ``take(values, k)`` at a node that takes k of its children, ``values``
    being the children's values in order. Every pass over the tree is a
    fold, so the k-of-m rule is written here once; only the checks and the
    printing of a node and :meth:`Expression.dual`, which keeps a hand-built
    choose(1) or choose(m) as it is, read the node's kind."""
    if isinstance(e, Var):
        return leaf(e.name)
    return take([fold(c, leaf, take) for c in e.children], threshold(e))


def threshold(e: Expression) -> int:
    """How many children of a composite node must be true: k for choose(k),
    1 for Or, all of them for And."""
    if isinstance(e, Choose):
        return e.k
    return 1 if isinstance(e, Or) else len(e.children)


def or_(*exprs: Expression) -> Expression:
    """Disjunction; splices nested Or children so a+b+c is one node."""
    return _spliced(Or, exprs)


def and_(*exprs: Expression) -> Expression:
    """Conjunction; splices nested And children so a*b*c is one node."""
    return _spliced(And, exprs)


def _spliced(kind: type, exprs: Iterable[Expression]) -> Expression:
    """A ``kind`` node over ``exprs``, each ``kind`` node among them replaced
    by its children; the one expression left, if only one is."""
    flat = [c for e in exprs for c in (e.children if isinstance(e, kind) else (e,))]
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def choose(k: int, exprs: Sequence[Expression]) -> Expression:
    """Threshold combinator: true when at least k of exprs are true.

    choose(1, es) is the same function as or(es) and choose(n, es) the same
    as and(es); those cases are normalized to the plain connectives, after
    :class:`Choose` has checked k and the children.
    """
    node = Choose(k, exprs)
    if k == 1:
        return or_(*node.children)
    if k == len(node.children):
        return and_(*node.children)
    return node


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
        depth = 0  # parentheses open after each token
        for _, value, pos in self.tokens:
            depth += (value == "(") - (value == ")")
            if depth > NESTING_BOUND:
                raise ParseError(f"more than {NESTING_BOUND} nested parentheses", pos)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> None:
        self.i += 1

    def expect(self, text: str) -> None:
        kind, value, pos = self.peek()
        if value != text:
            got = "end of input" if kind == "eof" else repr(value)
            raise ParseError(f"expected {text!r}, found {got}", pos)
        self.advance()

    def parse(self) -> Expression:
        e = self.parse_chain("+")
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def parse_chain(self, op: str) -> Expression:
        """Operands joined by ``op``: a sum of products for "+", a product
        of atoms for "*"."""
        parts = []
        while True:
            parts.append(self.parse_chain("*") if op == "+" else self.parse_atom())
            if self.peek()[1] != op:
                return (or_ if op == "+" else and_)(*parts)
            self.advance()

    def parse_atom(self) -> Expression:
        kind, value, pos = self.peek()
        if value == "(":
            self.advance()
            e = self.parse_chain("+")
            self.expect(")")
            return e
        if kind == "ident":
            self.advance()
            if value in ("choose", "majority") and self.peek()[1] == "(":
                self.advance()
                if value == "choose":
                    k = self.parse_int()
                    self.expect(",")
                children = self.parse_list()
                self.expect(")")
                return choose(k, children) if value == "choose" else majority(children)
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
        items = [self.parse_chain("+")]
        while self.peek()[1] == ",":
            self.advance()
            items.append(self.parse_chain("+"))
        self.expect("]")
        return items


def parse(text: str) -> Expression:
    """Parse expression text.

    Grammar: identifiers ``[A-Za-z_][A-Za-z0-9_]*``; ``+`` (or, lowest
    precedence), ``*`` (and), parentheses; ``choose(k, [e1, ..., en])``;
    ``majority([e1, ..., en])`` which is choose(floor(n/2)+1, ...).
    Whitespace is insignificant. Same-operator chains are flattened, so
    ``a*b*c`` is a single conjunction of three children.

    Raises ParseError (with position) for malformed input, including more
    than ``NESTING_BOUND`` open parentheses, and DomainError for an
    out-of-range choose threshold or for text that is no str.
    """
    if not isinstance(text, str):
        raise DomainError(f"expected expression text, got {text!r}")
    if not text.strip():
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
    return fold(e, Var, _sorted_node)


def _sorted_node(children: list[Expression], k: int) -> Expression:
    """choose(k, children) with its children sorted by printed form."""
    node = choose(k, children)
    return replace(node, children=sorted(node.children, key=str))


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
    unions are dropped after every child, so partial families stay antichains.
    A ``universe`` that is no collection, or a ``str``, raises DomainError."""
    names = (sorted(e.names()) if universe is None
             else as_tuple(universe, "a universe is a collection of node names"))
    check_enumeration_bound(len(names))
    try:
        masks = _masks(e, names)
    except KeyError:
        missing = sorted(e.names().difference(names))
        raise DomainError(f"expression names {missing} are not in the universe") from None
    return unmask(masks, names)


def _bits(names: Sequence[str]) -> dict[str, int]:
    """Each name's bit in a mask over ``names``: ``names[0]`` is the top of
    len(names) bits."""
    return {x: 1 << (len(names) - 1 - i) for i, x in enumerate(names)}


def unmask(masks: Iterable[int], names: Sequence[str]) -> list[frozenset[str]]:
    """The name set of each mask, as :func:`_bits` lays the names out."""
    bits = _bits(names).items()
    return [frozenset(x for x, b in bits if m & b) for m in masks]


def _masks(e: Expression, names: Sequence[str]) -> tuple[int, ...]:
    """The minimal sets of e as masks over ``names``, which must hold every
    name of e (else KeyError), in the canonical order of :func:`minimal_sets`."""
    bit = _bits(names)
    return _canonical(fold(e, lambda x: ([bit[x]], bit[x]), _family)[0])


def _canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """``masks`` in canonical order: by bit count, then by descending value."""
    return tuple(sorted(masks, key=lambda mask: (mask.bit_count(), -mask)))


def _family(values: list[tuple[list[int], int]], k: int) -> tuple[list[int], int]:
    """The minimal sets, as masks, of a node that takes k of its children,
    and the mask of the names it uses, from each child's: the unions of one
    minimal set from each of k children."""
    families = []
    used = 0
    shared = False  # whether two children use a common name
    for family, names in values:
        families.append(family)
        shared = shared or bool(used & names)
        used |= names
    n = len(families)
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
    with every mask of ``family``, in canonical order (:func:`_canonical`),
    from one vectorised sweep over all 2^n masks. For f = 0 these are the
    minimal transversals of the family; given the minimal quorums of an
    expression's dual, the expression's minimal f-resilient quorums."""
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
    return _canonical(subsets[keep].tolist())


def _minimal(masks: list[int]) -> list[int]:
    """The inclusion-minimal masks among ``masks``, smallest first."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return kept


# ---------------------------------------------------------------------------
# Cheapest and fastest quorums
# ---------------------------------------------------------------------------


def _survey(e: Expression) -> tuple[tuple[str, ...], tuple[int, int] | None]:
    """From one fold over the tree: the sorted names of e and, if no name
    repeats, the smallest quorum sizes of e and of its dual
    (:func:`_least_sizes`); else None, as a repeated name may be counted
    twice."""
    leaves: list[str] = []
    sizes = fold(e, lambda x: leaves.append(x) or (1, 1), _least_sizes)
    names = tuple(sorted(set(leaves)))
    return names, sizes if len(names) == len(leaves) else None


def _least_sizes(values: list[tuple[int, int]], k: int) -> tuple[int, int]:
    """The smallest quorum sizes of a node that takes k of its m children
    and of its dual, from its children's, a variable's being 1 and 1: the
    sum of the k smallest sizes, since children of a read-once tree share
    no node, and of the m - k + 1 smallest of their duals', as the dual
    takes m - k + 1 of their duals."""
    sizes, duals = zip(*values)
    return sum(sorted(sizes)[:k]), sum(sorted(duals)[: len(duals) - k + 1])


def min_quorum_latency(
    e: Expression, latency: Mapping[str, Fraction | float]
) -> Fraction | float:
    """The least t such that the nodes of latency at most t form a quorum of
    e: the latency of its fastest quorum, each quorum taking as long as its
    slowest node.

    One fold over the tree, exact for every expression: a variable's own
    latency, and for a node that takes k children, the k-th smallest child
    value, because whether a child holds on the nodes of latency at most t
    depends on t alone."""
    return fold(e, latency.__getitem__, lambda values, k: sorted(values)[k - 1])
