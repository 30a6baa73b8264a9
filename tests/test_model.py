"""Nodes, workloads, quorum systems, fault tolerance, resilient quorums."""

import itertools
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import duplicate_free_expressions, expressions
from quorumopt.errors import (
    DomainError,
    IntersectionViolation,
    NoResilientQuorum,
    UniverseTooLarge,
    UnknownNode,
)
from quorumopt.expr import Var, and_, choose, majority, minimal_transversals, parse
from quorumopt.model import Node, QuorumSystem, Workload, as_fraction
from quorumopt.oracle import (
    exhaustive_fault_tolerance,
    exhaustive_minimal_sets,
    _is_f_resilient,
    exhaustive_resilient,
    truth_table,
)


def nodes(names):
    return [Node(x) for x in names]


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
        assert w.points[Fraction(9, 10)] == Fraction(10, 470)

    def test_mean(self):
        w = Workload({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert w.mean_read_fraction == Fraction(1, 2)

    def test_string_fraction_values(self):
        w = Workload({"0.5": "1/3", "0.25": "2/3"})
        assert w.points[Fraction(1, 2)] == Fraction(1, 3)


class TestQuorumSystem:
    def test_missing_side_is_the_dual(self):
        qs = QuorumSystem(nodes("abc"), reads="a*b + b*c + a*c")
        assert truth_table(qs.writes, "abc") == truth_table(qs.reads.dual(), "abc")
        # majority is self-dual
        assert truth_table(qs.writes, "abc") == truth_table(qs.reads, "abc")

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
        assert qs.read_minimal == [frozenset("a"), frozenset("b")]

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            QuorumSystem(nodes("ab"), reads="a*z")

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
        assert (qs.read_fault_tolerance(), qs.write_fault_tolerance()) == (19, 0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DomainError):
            QuorumSystem([Node("a"), Node("a")], reads="a")

    def test_some_side_required(self):
        with pytest.raises(DomainError):
            QuorumSystem(nodes("ab"))

    def test_spare_nodes_allowed(self):
        qs = QuorumSystem(nodes("abcd"), reads="a*b + b*c + a*c")
        assert qs.node("d").name == "d"

    def test_membership(self):
        maj = QuorumSystem(nodes("abc"), reads="a*b + b*c + a*c")
        assert maj.is_read_quorum({"a", "b", "c"})
        assert maj.is_write_quorum({"a", "b", "c"})
        grid = QuorumSystem(nodes("abcdef"), reads="a*b*c + d*e*f")
        assert grid.is_write_quorum({"a", "d"})
        assert not maj.is_read_quorum(set())

    @given(st.one_of(duplicate_free_expressions(), expressions()))
    @settings(max_examples=200, deadline=None)
    def test_lazy_build_matches_eager_build(self, e):
        universe = nodes(sorted(e.names()))
        # both sides given: the intersection check enumerates both at once
        eager = QuorumSystem(universe, reads=e, writes=e.dual())
        lazy = QuorumSystem(universe, reads=e)
        assert (lazy.read_fault_tolerance(), lazy.write_fault_tolerance()) == (
            eager.read_fault_tolerance(), eager.write_fault_tolerance())
        assert lazy.read_minimal == eager.read_minimal
        assert lazy.write_minimal == eager.write_minimal
        assert repr(lazy) == repr(eager)

    def test_read_once_systems_enumerate_no_quorum_for_fault_tolerance(self, monkeypatch):
        calls = []
        monkeypatch.setattr("quorumopt.expr.minimal_sets", lambda *a: calls.append(a))
        qs = QuorumSystem(nodes("abcde"), reads="choose(2, [a, b*c, d + e])")
        assert qs.fault_tolerance() == 1
        assert calls == []

    def test_minimal_quorums_cached_in_canonical_order(self):
        qs = QuorumSystem(nodes("abc"), reads="b*c + a*b + a*c")
        assert qs.read_minimal == [frozenset("ab"), frozenset("ac"), frozenset("bc")]
        assert qs.minimal_quorums("read") == qs.read_minimal
        with pytest.raises(DomainError):
            qs.minimal_quorums("sideways")


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
        assert qs.read_fault_tolerance() == 1
        assert qs.write_fault_tolerance() == 2
        assert qs.fault_tolerance() == 1

    def test_singleton(self):
        qs = QuorumSystem([Node("a")], reads="a")
        assert qs.fault_tolerance() == 0

    @given(st.one_of(duplicate_free_expressions(), expressions()))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_oracle(self, e):
        qs = QuorumSystem([Node(x) for x in sorted(e.names())], reads=e)
        assert qs.read_fault_tolerance() == exhaustive_fault_tolerance(qs, "read")
        assert qs.write_fault_tolerance() == exhaustive_fault_tolerance(qs, "write")

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_explicit_threshold_writes_match_exhaustive_oracle(self, n):
        # reads k of n, writes n-k+2 of n: they intersect, and the writes are
        # not the reads' dual, so each side's tolerance needs its own dual
        vs = [Var(x) for x in "abcdef"[:n]]
        for k in range(2, n + 1):
            qs = QuorumSystem(nodes("abcdef"[:n]), choose(k, vs), choose(n - k + 2, vs))
            assert qs.read_fault_tolerance() == exhaustive_fault_tolerance(qs, "read")
            assert qs.write_fault_tolerance() == exhaustive_fault_tolerance(qs, "write")

    @given(expressions(names=("a", "b", "c", "d", "e")), st.data())
    @settings(max_examples=100, deadline=None)
    def test_strengthened_dual_writes_match_exhaustive_oracle(self, e, data):
        # every quorum of dual(e) * g meets every quorum of e
        g = data.draw(expressions(names=sorted(e.names())))
        qs = QuorumSystem(nodes(sorted(e.names())), reads=e, writes=and_(e.dual(), g))
        assert qs.read_fault_tolerance() == exhaustive_fault_tolerance(qs, "read")
        assert qs.write_fault_tolerance() == exhaustive_fault_tolerance(qs, "write")

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_majority_as_sum_of_products_matches_exhaustive_oracle(self, n):
        # the derived writes are a product of sums whose children all share
        # variables: at n = 6 it is 15 four-way sums, 4^15 unabsorbed unions
        names = "abcdefgh"[:n]
        qs = QuorumSystem(nodes(names), reads=majority_text(names, "sop"))
        assert qs.reads.dual() == qs.writes
        assert qs.read_minimal == exhaustive_minimal_sets(qs.reads)
        assert qs.write_minimal == exhaustive_minimal_sets(qs.writes)
        k = n // 2 + 1
        assert qs.read_minimal == [frozenset(c) for c in itertools.combinations(names, k)]
        assert qs.write_minimal == [
            frozenset(c) for c in itertools.combinations(names, n - k + 1)
        ]
        assert qs.read_fault_tolerance() == exhaustive_fault_tolerance(qs, "read")
        assert qs.write_fault_tolerance() == exhaustive_fault_tolerance(qs, "write")

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
        assert qs.read_minimal == exhaustive_minimal_sets(qs.reads)
        assert qs.write_minimal == exhaustive_minimal_sets(qs.writes)
        assert qs.read_minimal == qs.write_minimal
        assert qs.read_fault_tolerance() == exhaustive_fault_tolerance(qs, "read")
        assert qs.write_fault_tolerance() == exhaustive_fault_tolerance(qs, "write")
        assert qs.fault_tolerance() == (n - 1) // 2

    def test_majority_of_fifteen(self):
        names = [f"n{i:02d}" for i in range(15)]
        qs = QuorumSystem(nodes(names), reads=majority([Var(x) for x in names]))
        assert len(qs.read_minimal) == len(qs.write_minimal) == 6435
        assert qs.fault_tolerance() == 7

    @given(duplicate_free_expressions())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_under_swapping_sides(self, e):
        universe = [Node(x) for x in sorted(e.names())]
        by_reads = QuorumSystem(universe, reads=e)
        by_writes = QuorumSystem(universe, writes=e)
        assert by_reads.read_fault_tolerance() == by_writes.write_fault_tolerance()
        assert by_reads.write_fault_tolerance() == by_writes.read_fault_tolerance()
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
        assert qs.resilient_quorums("read", 0) == qs.read_minimal

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
        assert qs.quorum_masks("read", 1) == (0b1110, 0b1101, 0b1011, 0b0111)
        assert len(sweeps) == 1

    def test_negative_f_rejected(self):
        qs = QuorumSystem(nodes("ab"), reads="a + b")
        with pytest.raises(DomainError):
            qs.resilient_quorums("read", -1)

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


def test_as_fraction_rejects_junk():
    junk = ["not a number", object(), "1/0", True, False]
    junk += [float(x) for x in ("nan", "inf", "-inf")]
    junk += [Decimal(x) for x in ("NaN", "Infinity", "-Infinity")]
    junk += ["NaN", "Infinity", "-inf"]
    for value in junk:
        with pytest.raises(DomainError):
            as_fraction(value)
