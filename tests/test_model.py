"""Nodes, workloads, quorum systems, fault tolerance, resilient quorums."""

import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounds import screen
from exprgen import duplicate_free_expressions, expressions
from quorumopt.errors import (
    DomainError,
    IntersectionViolation,
    NoResilientQuorum,
    UniverseTooLarge,
    UnknownNode,
)
from quorumopt import expr as expr_module
from quorumopt.expr import Expression, Var, and_, choose, majority, minimal_transversals, parse
from quorumopt.model import Node, QuorumSystem, Workload, as_fraction
from quorumopt.optimize import Objective, Strategy, quorum_latency
from quorumopt.oracle import (
    exhaustive_fault_tolerance,
    exhaustive_minimal_sets,
    _is_f_resilient,
    exhaustive_resilient,
    truth_table,
)


def nodes(names):
    return [Node(x) for x in names]


# Each method that asks about one side of a quorum system, given the side.
SIDED = {
    "side": lambda qs, side: qs.side(side),
    "is_quorum": lambda qs, side: qs.is_quorum(side, {"a"}),
    "resilient_quorums": lambda qs, side: qs.resilient_quorums(side),
    "members": lambda qs, side: qs.members(side),
    "is_resilient": lambda qs, side: qs.is_resilient(side, {"a"}, 0),
    "fault_tolerance": lambda qs, side: qs.fault_tolerance(side),
}


def network_bound(qs, side, f):
    """The search screen's least node count of a side's f-resilient quorum."""
    return screen(qs, 1, "network", f)._least_cost(qs, Objective.NETWORK, side)


def majority_text(names, form):
    """k-of-n majority over names as a sum of products ("sop") of every
    k-subset, or as the equivalent product of sums ("pos") of every
    (n-k+1)-subset; either way every name repeats across terms."""
    n = len(names)
    k = n // 2 + 1
    if form == "sop":
        return " + ".join("*".join(c) for c in itertools.combinations(names, k))
    return " * ".join(
        "(" + " + ".join(c) + ")" for c in itertools.combinations(names, n - k + 1)
    )


class TestNode:
    def test_defaults(self):
        n = Node("a")
        assert (n.read_cap, n.write_cap, n.latency) == (1, 1, 1)

    def test_values_convert_to_exact_rationals(self):
        n = Node("a", read_cap=0.1, write_cap="3/7", latency="0.25")
        assert n.read_cap == Fraction(1, 10)
        assert n.write_cap == Fraction(3, 7)
        assert n.latency == Fraction(1, 4)

    @pytest.mark.parametrize("field", ["read_cap", "write_cap", "latency"])
    def test_positive_required(self, field):
        with pytest.raises(DomainError):
            Node("a", **{field: 0})

    def test_name_nonempty(self):
        with pytest.raises(DomainError):
            Node("")

    def test_equal_nodes_hash_equal(self):
        # the hash, worked out once, is the dataclass's hash of the fields
        n = Node("a", read_cap=2, write_cap="0.5", latency=1.5)
        same = Node("a", read_cap=Fraction(2), write_cap=Fraction(1, 2), latency="3/2")
        assert n == same and hash(n) == hash(same)
        assert hash(n) == hash(("a", Fraction(2), Fraction(1, 2), Fraction(3, 2)))
        assert n != Node("a", read_cap=2, write_cap="0.5", latency=1)
        assert len({n, same, Node("b")}) == 2


class TestWorkload:
    def test_scalar_is_single_point(self):
        w = Workload.coerce(0.25)
        assert w.items() == [(Fraction(1, 4), Fraction(1))]

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(DomainError):
            Workload({0.2: 0.5, 0.8: 0.4})

    def test_sum_tolerance_is_tight(self):
        Workload({0.2: 0.5, 0.8: 0.5000000001})  # within 1e-9 of 1
        with pytest.raises(DomainError):
            Workload({0.2: 0.5, 0.8: 0.51})

    def test_keys_stay_in_unit_interval(self):
        with pytest.raises(DomainError):
            Workload({1.5: 1})

    def test_needs_a_point(self):
        with pytest.raises(DomainError):
            Workload({})

    def test_from_weights_normalizes_exactly(self):
        w = Workload.from_weights({0.9: 10, 0.5: 460})
        assert dict(w.items())[Fraction(9, 10)] == Fraction(10, 470)

    def test_from_weights_refuses_a_negative_weight(self):
        with pytest.raises(DomainError, match="weight -1 of read fraction 1/2 is negative"):
            Workload.from_weights({"0.5": -1, "0.7": 2})

    def test_from_weights_refuses_a_zero_total(self):
        with pytest.raises(DomainError, match="weights must have positive total"):
            Workload.from_weights({"0.5": 0, "0.7": 0})

    @pytest.mark.parametrize("build", [Workload, Workload.from_weights])
    def test_a_read_fraction_named_twice_is_refused(self, build):
        # Both keys name 1/2: neither weight may be dropped for the other.
        with pytest.raises(DomainError, match="^duplicate read fraction 1/2$"):
            build({"0.5": Fraction(1, 4), "1/2": Fraction(1, 4), 0.9: Fraction(1, 2)})

    @pytest.mark.parametrize("build", [Workload, Workload.from_weights])
    def test_points_that_are_no_mapping_are_refused(self, build):
        with pytest.raises(DomainError, match=r"maps read fractions to numbers, got \[0\.5\]"):
            build([0.5])

    def test_coerce_refuses_a_list(self):
        with pytest.raises(DomainError, match=r"cannot interpret \[0\.5\] as a rational"):
            Workload.coerce([0.5])

    def test_mean(self):
        w = Workload({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert w.mean_read_fraction == Fraction(1, 2)

    def test_string_fraction_values(self):
        w = Workload({"0.5": "1/3", "0.25": "2/3"})
        assert dict(w.items())[Fraction(1, 2)] == Fraction(1, 3)

    def test_repr_prints_exact_fractions(self):
        assert repr(Workload({"0.5": 1})) == "Workload({1/2: 1})"

    def test_equal_workloads_hash_equal(self):
        w = Workload({"0.5": "1/4", 0.9: 0.75})
        same = Workload.from_weights({Fraction(9, 10): 3, "1/2": 1})
        assert w == same and hash(w) == hash(same)
        assert hash(w) == hash(((Fraction(1, 2), Fraction(1, 4)), (Fraction(9, 10), Fraction(3, 4))))
        assert Workload.coerce(Fraction(1, 2)) == Workload({"0.5": 1})
        assert hash(Workload.coerce(Fraction(1, 2))) == hash(Workload({"0.5": 1}))
        assert w != Workload({"0.5": "3/4", 0.9: 0.25})


class TestQuorumSystem:
    def test_missing_side_is_the_dual(self):
        qs = QuorumSystem(nodes("abc"), reads="a*b + b*c + a*c")
        assert truth_table(qs.writes, "abc") == truth_table(qs.reads.dual(), "abc")
        # majority is self-dual
        assert truth_table(qs.writes, "abc") == truth_table(qs.reads, "abc")

    @pytest.mark.parametrize("given_as", ["reads", "writes"])
    def test_a_derived_side_is_built_once_on_first_use(self, given_as, monkeypatch):
        duals, dual = [], Expression.dual
        monkeypatch.setattr(Expression, "dual", lambda e: duals.append(e) or dual(e))
        e = parse("choose(2, [a, b*c, d + e])")
        qs = QuorumSystem(nodes("abcde"), **{given_as: e})
        assert qs.fault_tolerance() == 1
        assert duals == []
        missing = "write" if given_as == "reads" else "read"
        assert qs.side(missing) == qs.side(missing) == dual(e)
        assert [d for d in duals if d is e] == [e]

    def test_writes_only(self):
        qs = QuorumSystem(nodes("ab"), writes="a*b")
        assert qs.reads == parse("a + b")

    def test_disjoint_sides_rejected(self):
        with pytest.raises(IntersectionViolation) as err:
            QuorumSystem(nodes("abcd"), reads="a*b", writes="c*d")
        assert err.value.read_quorum == frozenset("ab")
        assert err.value.write_quorum == frozenset("cd")

    def test_both_sides_accepted_when_intersecting(self):
        qs = QuorumSystem(nodes("abc"), reads="a + b", writes="a*b")
        assert qs.resilient_quorums("read") == [frozenset("a"), frozenset("b")]

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            QuorumSystem(nodes("ab"), reads="a*z")

    def test_a_side_must_be_an_expression_or_text(self):
        with pytest.raises(DomainError, match="expected an Expression or text, got 5"):
            QuorumSystem(nodes("ab"), reads=5)

    @pytest.mark.parametrize("sides", ["reads", "writes", "both"])
    def test_too_many_names_rejected_at_construction(self, sides):
        # Quorums are enumerated on first use, yet a side over 21 names is
        # refused before any query, as when both sides are enumerated at once.
        names = [f"n{i}" for i in range(21)]
        any_one, all_of = " + ".join(names), " * ".join(names)
        given = {"reads": dict(reads=any_one), "writes": dict(writes=any_one),
                 "both": dict(reads=any_one, writes=all_of)}[sides]
        with pytest.raises(UniverseTooLarge):
            QuorumSystem(nodes(names), **given)

    def test_spare_nodes_do_not_count_toward_the_enumeration_bound(self):
        names = [f"n{i}" for i in range(25)]
        qs = QuorumSystem(nodes(names), reads=" + ".join(names[:20]))
        assert (qs.fault_tolerance("read"), qs.fault_tolerance("write")) == (19, 0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DomainError):
            QuorumSystem([Node("a"), Node("a")], reads="a")

    def test_a_universe_entry_that_is_no_node_is_refused(self):
        with pytest.raises(DomainError, match="a universe holds Nodes, got 'a'"):
            QuorumSystem(["a"], reads="a")

    def test_a_universe_that_is_no_collection_is_refused(self):
        # it used to end in TypeError: 'int' object is not iterable
        with pytest.raises(DomainError, match="^a universe holds Nodes, got 5$"):
            QuorumSystem(5, reads="a")
        with pytest.raises(DomainError, match="^a universe holds Nodes, got the text 'ab'$"):
            QuorumSystem("ab", reads="a")

    def test_a_node_name_that_cannot_be_hashed_is_refused(self):
        # it used to end in TypeError: unhashable type: 'list'
        qs = QuorumSystem(nodes("abc"), reads="choose(2, [a, b, c])")
        with pytest.raises(DomainError, match=r"^a node name is a string, got \['a'\]$"):
            qs.node(["a"])
        with pytest.raises(UnknownNode, match="^no node named 'z'$"):
            qs.node("z")

    def test_some_side_required(self):
        with pytest.raises(DomainError):
            QuorumSystem(nodes("ab"))

    def test_spare_nodes_allowed(self):
        qs = QuorumSystem(nodes("abcd"), reads="a*b + b*c + a*c")
        assert qs.node("d").name == "d"

    def test_membership(self):
        maj = QuorumSystem(nodes("abc"), reads="a*b + b*c + a*c")
        assert maj.is_quorum("read", {"a", "b", "c"})
        assert maj.is_quorum("write", {"a", "b", "c"})
        grid = QuorumSystem(nodes("abcdef"), reads="a*b*c + d*e*f")
        assert grid.is_quorum("write", {"a", "d"})
        assert not maj.is_quorum("read", set())

    @pytest.mark.parametrize("ask", SIDED.values(), ids=SIDED)
    @pytest.mark.parametrize("side", ["sideways", "reads", "Read"])
    def test_every_method_of_a_side_refuses_another_side(self, ask, side):
        qs = QuorumSystem(nodes("ab"), reads="a + b")
        with pytest.raises(DomainError, match=f"^side must be 'read' or 'write', got {side!r}$"):
            ask(qs, side)

    @pytest.mark.parametrize("given_as", ["reads", "writes"])
    @pytest.mark.parametrize("text", ["choose(2, [a, b*c, d + e])", "a*b + a*c + d*e"],
                             ids=["read-once", "repeated-name"])
    def test_the_missing_sides_fault_tolerance_builds_no_expression(self, given_as, text,
                                                                   monkeypatch):
        # It is the given side's smallest quorum less one: the walk's size,
        # or the first of the given side's masks when a name repeats.
        duals, dual = [], Expression.dual
        monkeypatch.setattr(Expression, "dual", lambda e: duals.append(e) or dual(e))
        qs = QuorumSystem(nodes("abcde"), **{given_as: text})
        missing = "write" if given_as == "reads" else "read"
        tolerance = qs.fault_tolerance(missing)
        assert duals == []
        assert tolerance == exhaustive_fault_tolerance(qs, missing)

    @given(st.one_of(duplicate_free_expressions(), expressions()))
    @settings(max_examples=200, deadline=None)
    def test_lazy_build_matches_eager_build(self, e):
        universe = nodes(sorted(e.names()))
        # both sides given: the intersection check enumerates both at once
        eager = QuorumSystem(universe, reads=e, writes=e.dual())
        lazy = QuorumSystem(universe, reads=e)
        assert (lazy.fault_tolerance("read"), lazy.fault_tolerance("write")) == (
            eager.fault_tolerance("read"), eager.fault_tolerance("write"))
        assert lazy.resilient_quorums("read") == eager.resilient_quorums("read")
        assert lazy.resilient_quorums("write") == eager.resilient_quorums("write")
        assert repr(lazy) == repr(eager)

    def test_read_once_systems_enumerate_no_quorum_for_fault_tolerance(self, monkeypatch):
        calls = []
        monkeypatch.setattr("quorumopt.expr._masks", lambda *a: calls.append(a))
        qs = QuorumSystem(nodes("abcde"), reads="choose(2, [a, b*c, d + e])")
        assert qs.fault_tolerance() == 1
        assert calls == []

    def test_minimal_quorums_cached_in_canonical_order(self):
        qs = QuorumSystem(nodes("abc"), reads="b*c + a*b + a*c")
        assert qs.resilient_quorums("read") == [frozenset("ab"), frozenset("ac"), frozenset("bc")]
        assert qs.resilient_quorums("read", 0) == qs.resilient_quorums("read")
        with pytest.raises(DomainError):
            qs.resilient_quorums("sideways")


class TestIntersectionCheck:
    @given(expressions(), expressions())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_product(self, reads, writes):
        # expressions() draw from six names, with repeats
        pairs = itertools.product(
            exhaustive_minimal_sets(reads), exhaustive_minimal_sets(writes))
        disjoint = next(((r, w) for r, w in pairs if not r & w), None)
        universe = nodes(sorted(reads.names() | writes.names()))
        if disjoint is None:
            QuorumSystem(universe, reads=reads, writes=writes)
        else:
            with pytest.raises(IntersectionViolation) as err:
                QuorumSystem(universe, reads=reads, writes=writes)
            assert (err.value.read_quorum, err.value.write_quorum) == disjoint
            assert str(err.value) == str(IntersectionViolation(*disjoint))

    def test_intersecting_sides_unmask_no_write_quorum(self, monkeypatch):
        # the check reads the write masks; name sets are made only to report
        # a violation
        unmasked = []
        unmask = expr_module.unmask
        monkeypatch.setattr(expr_module, "unmask", lambda masks, names: unmasked.append(
            names) or unmask(masks, names))
        QuorumSystem(nodes("abcdef"), reads="choose(2, [a, b, c, d])",
                     writes="choose(3, [a, b, c, d]) * (e + f)")
        assert unmasked == []
        with pytest.raises(IntersectionViolation, match=r"read quorum \{a, b\} does not "
                           r"intersect write quorum \{c, d, e\}"):
            QuorumSystem(nodes("abcdef"), reads="choose(2, [a, b, c, d])",
                         writes="choose(2, [a, b, c, d]) * (e + f)")

    def test_reports_the_first_disjoint_pair_in_read_major_order(self):
        with pytest.raises(IntersectionViolation) as err:
            QuorumSystem(nodes("abcd"), reads="a*b + c + d", writes="a*c + b*d + c*d")
        # (c, b*d) comes first: the read quorum c meets a*c and c*d but not b*d
        assert err.value.read_quorum == frozenset("c")
        assert err.value.write_quorum == frozenset("bd")


class TestFaultTolerance:
    def test_majority(self):
        qs = QuorumSystem(nodes("abc"), reads="a*b + b*c + a*c")
        assert qs.fault_tolerance() == 1

    def test_two_by_three_grid(self):
        qs = QuorumSystem(nodes("abcdef"), reads="a*b*c + d*e*f")
        assert qs.fault_tolerance("read") == 1
        assert qs.fault_tolerance("write") == 2
        assert qs.fault_tolerance() == 1

    def test_singleton(self):
        qs = QuorumSystem([Node("a")], reads="a")
        assert qs.fault_tolerance() == 0

    @given(st.one_of(duplicate_free_expressions(), expressions()))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_oracle(self, e):
        qs = QuorumSystem([Node(x) for x in sorted(e.names())], reads=e)
        assert qs.fault_tolerance("read") == exhaustive_fault_tolerance(qs, "read")
        assert qs.fault_tolerance("write") == exhaustive_fault_tolerance(qs, "write")

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_explicit_threshold_writes_match_exhaustive_oracle(self, n):
        # reads k of n, writes n-k+2 of n: they intersect, and the writes are
        # not the reads' dual, so each side's tolerance needs its own dual
        vs = [Var(x) for x in "abcdef"[:n]]
        for k in range(2, n + 1):
            qs = QuorumSystem(nodes("abcdef"[:n]), choose(k, vs), choose(n - k + 2, vs))
            assert qs.fault_tolerance("read") == exhaustive_fault_tolerance(qs, "read")
            assert qs.fault_tolerance("write") == exhaustive_fault_tolerance(qs, "write")

    @given(expressions(names=("a", "b", "c", "d", "e")), st.data())
    @settings(max_examples=100, deadline=None)
    def test_strengthened_dual_writes_match_exhaustive_oracle(self, e, data):
        # every quorum of dual(e) * g meets every quorum of e
        g = data.draw(expressions(names=sorted(e.names())))
        qs = QuorumSystem(nodes(sorted(e.names())), reads=e, writes=and_(e.dual(), g))
        assert qs.fault_tolerance("read") == exhaustive_fault_tolerance(qs, "read")
        assert qs.fault_tolerance("write") == exhaustive_fault_tolerance(qs, "write")

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_majority_as_sum_of_products_matches_exhaustive_oracle(self, n):
        # the derived writes are a product of sums whose children all share
        # variables: at n = 6 it is 15 four-way sums, 4^15 unabsorbed unions
        names = "abcdefgh"[:n]
        qs = QuorumSystem(nodes(names), reads=majority_text(names, "sop"))
        assert qs.reads.dual() == qs.writes
        assert qs.resilient_quorums("read") == exhaustive_minimal_sets(qs.reads)
        assert qs.resilient_quorums("write") == exhaustive_minimal_sets(qs.writes)
        k = n // 2 + 1
        assert qs.resilient_quorums("read") == [
            frozenset(c) for c in itertools.combinations(names, k)]
        assert qs.resilient_quorums("write") == [
            frozenset(c) for c in itertools.combinations(names, n - k + 1)
        ]
        assert qs.fault_tolerance("read") == exhaustive_fault_tolerance(qs, "read")
        assert qs.fault_tolerance("write") == exhaustive_fault_tolerance(qs, "write")

    @pytest.mark.parametrize("n", [6, 7])
    def test_product_of_sums_with_explicit_writes_matches_exhaustive_oracle(self, n):
        # both sides given: each side's tolerance takes the minimal quorums
        # of its own dual, and the dual of the writes is a product of sums
        names = "abcdefg"[:n]
        qs = QuorumSystem(
            nodes(names),
            reads=majority_text(names, "pos"),
            writes=majority_text(names, "sop"),
        )
        assert qs.resilient_quorums("read") == exhaustive_minimal_sets(qs.reads)
        assert qs.resilient_quorums("write") == exhaustive_minimal_sets(qs.writes)
        assert qs.resilient_quorums("read") == qs.resilient_quorums("write")
        assert qs.fault_tolerance("read") == exhaustive_fault_tolerance(qs, "read")
        assert qs.fault_tolerance("write") == exhaustive_fault_tolerance(qs, "write")
        assert qs.fault_tolerance() == (n - 1) // 2

    def test_majority_of_fifteen(self):
        names = [f"n{i:02d}" for i in range(15)]
        qs = QuorumSystem(nodes(names), reads=majority([Var(x) for x in names]))
        assert len(qs.resilient_quorums("read")) == len(qs.resilient_quorums("write")) == 6435
        assert qs.fault_tolerance() == 7

    @given(st.one_of(duplicate_free_expressions(), expressions()),
           st.sampled_from(["reads", "writes", "both"]))
    @settings(max_examples=300, deadline=None)
    def test_one_walk_gives_both_sides(self, e, given_as):
        # A side that repeats no name gets both fault tolerances from the
        # walk at construction, with no second tree pass; a derived system
        # enumerates no quorum either (both sides given, the intersection
        # check does). A repeated name takes the dual's minimal quorums.
        sides = {"reads": dict(reads=e), "writes": dict(writes=e),
                 "both": dict(reads=e, writes=e.dual())}[given_as]

        walks = []
        survey = expr_module._survey

        def counting(tree):
            walks.append(tree)
            return survey(tree)

        def refuse(*args):
            raise AssertionError("an enumeration")

        with pytest.MonkeyPatch.context() as m:
            m.setattr(expr_module, "_survey", counting)
            if e.uses_each_variable_once() and given_as != "both":
                m.setattr(expr_module, "_masks", refuse)
            qs = QuorumSystem(nodes(sorted(e.names())), **sides)
            tolerance = (qs.fault_tolerance("read"), qs.fault_tolerance("write"))
        assert tolerance == (exhaustive_fault_tolerance(qs, "read"),
                             exhaustive_fault_tolerance(qs, "write"))
        assert walks == list(sides.values())

    @given(duplicate_free_expressions())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_under_swapping_sides(self, e):
        universe = [Node(x) for x in sorted(e.names())]
        by_reads = QuorumSystem(universe, reads=e)
        by_writes = QuorumSystem(universe, writes=e)
        assert by_reads.fault_tolerance("read") == by_writes.fault_tolerance("write")
        assert by_reads.fault_tolerance("write") == by_writes.fault_tolerance("read")
        assert by_reads.fault_tolerance() == by_writes.fault_tolerance()


class TestResilientQuorums:
    def test_two_disjoint_pairs_need_everything(self):
        qs = QuorumSystem(nodes("abcd"), reads="a*b + c*d")
        assert qs.resilient_quorums("read", 1) == [frozenset("abcd")]

    def test_two_of_four_threshold(self):
        qs = QuorumSystem(nodes("abcd"), reads="choose(2, [a, b, c, d])")
        assert qs.resilient_quorums("read", 1) == [
            frozenset("abc"),
            frozenset("abd"),
            frozenset("acd"),
            frozenset("bcd"),
        ]

    def test_zero_removals_is_minimal_quorums(self):
        qs = QuorumSystem(nodes("abcd"), reads="a*b + c*d")
        assert qs.resilient_quorums("read", 0) == qs.resilient_quorums("read")

    def test_no_resilient_quorum(self):
        qs = QuorumSystem([Node("a")], reads="a")
        with pytest.raises(NoResilientQuorum):
            qs.resilient_quorums("read", 1)

    def test_sweep_runs_once_and_callers_get_copies(self, monkeypatch):
        sweeps = []

        def counting(*args):
            sweeps.append(args)
            return minimal_transversals(*args)

        monkeypatch.setattr("quorumopt.expr.minimal_transversals", counting)
        qs = QuorumSystem(nodes("abcd"), reads="choose(2, [a, b, c, d])")
        quorums = qs.resilient_quorums("read", 1)
        expected = list(quorums)
        monkeypatch.setattr(qs, "is_resilient", None)  # a second sweep would fail
        for _ in range(2):
            quorums.append(frozenset("a"))
            quorums = qs.resilient_quorums("read", 1)
            assert quorums == expected
        assert qs._family("read", 1) == (0b1110, 0b1101, 0b1011, 0b0111)
        assert len(sweeps) == 1

    def test_negative_f_rejected(self):
        qs = QuorumSystem(nodes("ab"), reads="a + b")
        with pytest.raises(DomainError):
            qs.resilient_quorums("read", -1)
        pairs = QuorumSystem(nodes("abcd"), reads="a*b + c*d")
        for quorum in ({"a"}, {"a", "b"}):
            with pytest.raises(DomainError):
                pairs.is_resilient("read", quorum, -1)

    @pytest.mark.parametrize("f", [True, False, 1.5, 1.0, "1"])
    def test_a_resilience_level_that_is_no_int_is_refused(self, f):
        # Refused before the cache is read: True would find the entry of 1,
        # and False that of 0.
        qs = QuorumSystem(nodes("abcde"), reads="choose(3, [a, b, c, d, e])")
        assert qs.resilient_quorums("read", 1) and qs.resilient_quorums("read", 0)
        with pytest.raises(DomainError, match=f"f must be a nonnegative integer, got {f!r}"):
            qs.resilient_quorums("read", f)
        with pytest.raises(DomainError):
            qs.resilient_quorums("write", f)
        with pytest.raises(DomainError):
            qs.is_resilient("read", {"a", "b", "c", "d"}, f)

    def test_spare_universe_nodes_never_join_resilient_quorums(self):
        qs = QuorumSystem(nodes("abcdz"), reads="a*b + c*d")
        assert qs.resilient_quorums("read", 1) == exhaustive_resilient(qs, "read", 1)
        assert all("z" not in q for q in qs.resilient_quorums("read", 1))

    @given(
        st.one_of(duplicate_free_expressions(names=("a", "b", "c", "d", "e")), expressions())
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_unpruned_oracle(self, e):
        qs = QuorumSystem([Node(x) for x in sorted(e.names())], reads=e)
        for f in (0, 1, 2):
            for side in ("read", "write"):
                try:
                    fast = qs.resilient_quorums(side, f)
                except NoResilientQuorum:
                    assert exhaustive_resilient(qs, side, f) == []
                else:
                    assert fast == exhaustive_resilient(qs, side, f)

    @pytest.mark.parametrize("f", [1, 2])
    def test_two_of_four_majorities_of_three_match_unpruned_oracle(self, f):
        names = [f"n{i:02d}" for i in range(12)]
        groups = [majority([Var(x) for x in names[i:i + 3]]) for i in range(0, 12, 3)]
        qs = QuorumSystem(nodes(names), reads=choose(2, groups))
        for side in ("read", "write"):
            try:
                fast = qs.resilient_quorums(side, f)
            except NoResilientQuorum:
                assert exhaustive_resilient(qs, side, f) == []
            else:
                assert fast == exhaustive_resilient(qs, side, f)
                assert fast

    @given(st.one_of(duplicate_free_expressions(), expressions()), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_is_resilient_matches_oracle_on_every_subset(self, e, both_given):
        names = sorted(e.names())
        # with both sides given, the dual is enumerated rather than read off
        # the other side
        sides = dict(reads=e, writes=e.dual()) if both_given else dict(reads=e)
        qs = QuorumSystem(nodes(names + ["z"]), **sides)
        for side in ("read", "write"):
            expr = qs.side(side)
            for size in range(len(names) + 2):
                for subset in itertools.combinations(names + ["z"], size):
                    s = frozenset(subset)
                    for f in range(4):
                        assert qs.is_resilient(side, s, f) == _is_f_resilient(expr, s, f)

    @given(duplicate_free_expressions(names=("a", "b", "c", "d", "e"), min_vars=2))
    @settings(max_examples=100, deadline=None)
    def test_resilience_nests(self, e):
        qs = QuorumSystem([Node(x) for x in sorted(e.names())], reads=e)
        for f in (1, 2):
            try:
                stronger = qs.resilient_quorums("read", f)
            except NoResilientQuorum:
                continue
            weaker = qs.resilient_quorums("read", f - 1)
            for s in stronger:
                # every f-resilient quorum is (f-1)-resilient
                assert any(w <= s for w in weaker)


# A bad quorum, the error it raises and that error's message.
BAD_QUORUMS = [
    pytest.param("ab", DomainError, r"^a quorum is a set of node names, got the text 'ab'$",
                 id="str"),
    pytest.param({"a", "b", "zz"}, UnknownNode, r"^no node named 'zz'$", id="unknown-name"),
    pytest.param(["a", ["b"]], DomainError,
                 r"^a quorum is a set of node names, got \['a', \['b'\]\]$", id="list-member"),
    pytest.param(5, DomainError, r"^a quorum is a set of node names, got 5$", id="int"),
]
# Each entry point that reads a caller's quorum, on the read side.
QUORUM_READERS = {
    "is_quorum(read)": lambda qs, q: qs.is_quorum("read", q),
    "is_quorum(write)": lambda qs, q: qs.is_quorum("write", q),
    "is_resilient": lambda qs, q: qs.is_resilient("read", q, 0),
    "quorum_latency": lambda qs, q: quorum_latency(qs, "read", q),
    "Strategy": lambda qs, q: Strategy(qs, [(q, 1)], [({"a", "b"}, 1)]),
}


class TestNodeSet:
    """``QuorumSystem.node_set``, the one reader of a caller's quorum, and
    the entry points that read their quorum through it."""

    @given(st.one_of(duplicate_free_expressions(), expressions()), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_entry_points_match_the_oracle_on_every_subset(self, e, both_given):
        # y is a write-side name only when both sides are given, z a spare node
        names = sorted(e.names()) + ["y", "z"]
        sides = dict(reads=e, writes=e.dual() * Var("y")) if both_given else dict(reads=e)
        qs = QuorumSystem(nodes(names), **sides)
        table = {side: truth_table(qs.side(side), names) for side in ("read", "write")}
        for mask in range(1 << len(names)):
            s = frozenset(x for j, x in enumerate(names) if mask >> j & 1)
            assert qs.node_set(sorted(s)) == s
            assert qs.is_quorum("read", s) == bool(table["read"] >> mask & 1)
            assert qs.is_quorum("write", list(s)) == bool(table["write"] >> mask & 1)
            for side in ("read", "write"):
                for f in (0, 1):
                    want = _is_f_resilient(qs.side(side), s, f)
                    assert qs.is_resilient(side, iter(s), f) == want

    @pytest.mark.parametrize("quorum, error, message", BAD_QUORUMS)
    @pytest.mark.parametrize("reader", QUORUM_READERS.values(), ids=QUORUM_READERS)
    def test_every_entry_point_refuses_a_bad_quorum(self, reader, quorum, error, message):
        qs = QuorumSystem(nodes("abc"), reads="choose(2, [a, b, c])")
        with pytest.raises(error, match=message):
            reader(qs, quorum)

    @pytest.mark.parametrize("quorum, error, message", BAD_QUORUMS)
    def test_is_resilient_refuses_a_bad_quorum_at_every_f(self, quorum, error, message):
        # the 2-of-3 majority tolerates one failure on each side
        qs = QuorumSystem(nodes("abc"), reads="choose(2, [a, b, c])")
        for side in ("read", "write"):
            for f in range(4):
                with pytest.raises(error, match=message):
                    qs.is_resilient(side, quorum, f)
            assert qs.is_resilient(side, {"a", "b", "c"}, 1)
            assert not qs.is_resilient(side, {"a", "b", "c"}, 2)  # past the fault tolerance
            # f is read first
            with pytest.raises(DomainError, match="^f must be a nonnegative integer, got -1$"):
                qs.is_resilient(side, quorum, -1)

    def test_names_the_first_unknown_name_in_sorted_order(self):
        qs = QuorumSystem(nodes("abc"), reads="choose(2, [a, b, c])")
        with pytest.raises(UnknownNode, match="^no node named 'yy'$"):
            qs.node_set(["zz", "a", "yy"])
        with pytest.raises(UnknownNode, match="^no node named 5$"):
            qs.node_set(["zz", 5])

    def test_keeps_a_universe_name_outside_both_sides(self):
        qs = QuorumSystem(nodes("abcd"), reads="choose(2, [a, b, c])")
        assert qs.node_set(x for x in "abd") == frozenset("abd")
        assert qs.is_quorum("read", {"a", "b", "d"}) and not qs.is_quorum("read", {"a", "d"})


class TestMembers:
    """``QuorumSystem.members``, the membership table of a side's minimal
    f-resilient quorums over the universe, the one form in which a quorum
    family leaves the model."""

    @given(st.one_of(duplicate_free_expressions(), expressions()), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_exhaustive_oracle(self, e, both_given):
        # a spare node, and a universe order that is not the sorted names'
        universe = nodes(["z"] + sorted(e.names(), reverse=True))
        sides = dict(reads=e, writes=e.dual()) if both_given else dict(reads=e)
        qs = QuorumSystem(universe, **sides)
        for side in ("read", "write"):
            for f in (0, 1):
                expected = (exhaustive_minimal_sets(qs.side(side)) if f == 0
                            else exhaustive_resilient(qs, side, f))
                if not expected:
                    with pytest.raises(NoResilientQuorum):
                        qs.members(side, f)
                    continue
                table = qs.members(side, f)
                assert table.dtype == bool
                assert table.tolist() == [[n.name in q for q in expected] for n in universe]
                assert qs.resilient_quorums(side, f) == expected  # the table's column order
                names = qs.side(side).names()
                outside = [i for i, n in enumerate(universe) if n.name not in names]
                assert not table[outside].any()

    def test_a_second_call_returns_the_cached_table(self):
        qs = QuorumSystem(nodes("abcde"), reads="choose(2, [a, b*c, d + e])")
        for side in ("read", "write"):
            for f in (0, 1):
                table = qs.members(side, f)
                assert qs.members(side, f) is table
                assert not table.flags.writeable
        assert qs.members("read", 0) is not qs.members("read", 1)

    def test_refuses_what_resilient_quorums_refuses(self):
        qs = QuorumSystem(nodes("ab"), reads="a + b")
        qs.members("read", 1)  # the entry that True would find
        for side, f in (("sideways", 0), ("read", -1), ("read", True)):
            with pytest.raises(DomainError):
                qs.members(side, f)


class TestLeastSize:
    """``QuorumSystem._least_size``, the one owner of a side's smallest
    quorum, and the search screen's network bound, ``_Screen._least_cost``,
    that reads it."""

    SIDES = {"reads": lambda e: dict(reads=e), "writes": lambda e: dict(writes=e),
             "both": lambda e: dict(reads=e, writes=e.dual())}

    # duplicate_free_expressions() gives read-once sides, which a derived
    # system prices from the other side's fault tolerance; expressions()
    # repeats names, which read the side's enumerated family
    @pytest.mark.parametrize("given_as", SIDES)
    @pytest.mark.parametrize("generate", [duplicate_free_expressions, expressions])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_exhaustive_oracle(self, given_as, generate, data):
        e = data.draw(generate(names=("a", "b", "c", "d", "e")))
        qs = QuorumSystem(nodes(sorted(e.names())), **self.SIDES[given_as](e))
        for f in (0, 1, 2):
            for side in ("read", "write"):
                pool = exhaustive_resilient(qs, side, f)
                if not pool:
                    with pytest.raises(NoResilientQuorum):
                        qs._least_size(side, f)
                    with pytest.raises(NoResilientQuorum):
                        network_bound(qs, side, f)
                    continue
                least = min(map(len, pool))
                assert qs._least_size(side, f) == least
                cost = network_bound(qs, side, f)
                assert type(cost) is float and cost == least

    @pytest.mark.parametrize("given_as", SIDES)
    def test_repeated_names_are_not_summed_twice(self, given_as):
        # the tree pass alone would give 2 + 2 for a*b * a*c; the smallest
        # quorum is {a, b, c}
        e = parse("(a*b + d*e*f) * (a*c + d*e*f)")
        qs = QuorumSystem(nodes("abcdef"), **self.SIDES[given_as](e))
        side = "write" if given_as == "writes" else "read"
        assert qs._least_size(side) == 3
        assert network_bound(qs, side, 0) == 3.0

    # given both sides, each walk prices its side and the side's dual
    @pytest.mark.parametrize("given_as", ["reads", "both"])
    def test_a_derived_read_once_side_enumerates_nothing(self, given_as, monkeypatch):
        e = parse("choose(2, [a, b*c, d + e])")
        qs = QuorumSystem(nodes("abcde"), **self.SIDES[given_as](e))
        monkeypatch.setattr(expr_module, "_masks", None)
        assert (qs._least_size("read"), qs._least_size("write")) == (2, 2)
        assert (qs.fault_tolerance("read"), qs.fault_tolerance("write")) == (1, 1)


def test_as_fraction_rejects_junk():
    junk = ["not a number", object(), "1/0", True, False]
    junk += [float(x) for x in ("nan", "inf", "-inf")]
    junk += [Decimal(x) for x in ("NaN", "Infinity", "-Infinity")]
    junk += ["NaN", "Infinity", "-inf"]
    for value in junk:
        with pytest.raises(DomainError):
            as_fraction(value)
