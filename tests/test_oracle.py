"""The brute-force reference implementations themselves."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exprgen import expressions
from quorumopt.errors import UniverseTooLarge
from quorumopt.expr import Var, or_, parse
from quorumopt.model import Node, QuorumSystem
from quorumopt.optimize import Strategy, uniform_strategy
from quorumopt.oracle import (
    exhaustive_fault_tolerance,
    exhaustive_minimal_sets,
    exhaustive_resilient,
    strategy_metric_recompute,
    truth_table,
)


class TestTruthTable:
    def test_single_variable_marks_subsets_containing_it(self):
        table = truth_table(Var("a"), ["a", "b"])
        # subsets by mask over (a, b): {}, {a}, {b}, {a,b}
        assert [table >> m & 1 for m in range(4)] == [0, 1, 0, 1]

    def test_majority_is_true_on_four_of_eight_subsets(self):
        table = truth_table(parse("a*b + b*c + a*c"), "abc")
        assert bin(table).count("1") == 4

    def test_involution(self):
        e = parse("a*(b + c) + d*e")
        names = sorted(e.names())
        assert truth_table(e.dual().dual(), names) == truth_table(e, names)

    def test_bound(self):
        names = [f"n{i:02d}" for i in range(21)]
        with pytest.raises(UniverseTooLarge):
            truth_table(or_(*[Var(n) for n in names]), names)


class TestExhaustiveMinimalSets:
    def test_majority_in_universe_order(self):
        e = parse("a*b + b*c + a*c")
        assert exhaustive_minimal_sets(e) == [frozenset(p) for p in ("ab", "ac", "bc")]
        assert exhaustive_minimal_sets(e, "cba") == [
            frozenset(p) for p in ("bc", "ac", "ab")
        ]

    def test_absorbed_terms_are_dropped(self):
        assert exhaustive_minimal_sets(parse("a + a*b + b*c")) == [
            frozenset("a"),
            frozenset("bc"),
        ]


class TestExhaustiveFaultTolerance:
    def test_majority(self):
        qs = QuorumSystem([Node(x) for x in "abc"], reads="a*b + b*c + a*c")
        assert exhaustive_fault_tolerance(qs, "read") == 1

    def test_grid_write_side(self):
        qs = QuorumSystem([Node(x) for x in "abcdef"], reads="a*b*c + d*e*f")
        assert exhaustive_fault_tolerance(qs, "write") == 2

    def test_singleton(self):
        qs = QuorumSystem([Node("a")], reads="a")
        assert exhaustive_fault_tolerance(qs, "read") == 0


class TestExhaustiveResilient:
    def test_two_disjoint_pairs(self):
        qs = QuorumSystem([Node(x) for x in "abcd"], reads="a*b + c*d")
        assert exhaustive_resilient(qs, "read", 1) == [frozenset("abcd")]

    def test_zero_removals_is_minimal_quorums(self):
        qs = QuorumSystem([Node(x) for x in "abcd"], reads="a*b + c*d")
        assert exhaustive_resilient(qs, "read", 0) == qs.resilient_quorums("read")


class TestMetricRecompute:
    def test_uniform_majority_is_exact(self):
        qs = QuorumSystem([Node(x) for x in "abc"], reads="a*b + b*c + a*c")
        load, latency, network = strategy_metric_recompute(uniform_strategy(qs), 1)
        assert load == Fraction(2, 3)
        assert latency == 1
        assert network == 2

    @given(expressions(names=("a", "b", "c", "d"), depth=2), st.randoms(use_true_random=False))
    # drawn expressions seldom tolerate a fault; these do, on both sides
    @example(parse("a*b + b*c + a*c"), random.Random(1))
    @example(parse("choose(2, [a + b, c, d])"), random.Random(2))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_strategy_methods(self, e, rng):
        names = sorted(e.names())
        universe = [
            Node(x, read_cap=i + 1, write_cap=2 * i + 1, latency=3 * i + 1)
            for i, x in enumerate(names)
        ]
        qs = QuorumSystem(universe, reads=e)

        def weighted(quorums):
            # random weights over the quorums and over random supersets of them
            pool = quorums + [q | set(rng.sample(names, rng.randint(0, len(names))))
                              for q in quorums]
            weights = [Fraction(rng.randint(1, 9)) for _ in pool]
            return [(q, w / sum(weights)) for q, w in zip(pool, weights)]

        sides = ("read", "write")
        strategies = [
            uniform_strategy(qs),
            Strategy(qs, *[weighted(qs.resilient_quorums(side)) for side in sides]),
        ]
        if qs.fault_tolerance() >= 1:
            strategies.append(Strategy(
                qs, *[weighted(qs.resilient_quorums(side, 1)) for side in sides], f=1))
        w = {Fraction(1, 4): Fraction(1, 2), Fraction(9, 10): Fraction(1, 2)}
        for sigma in strategies:
            load, latency, network = strategy_metric_recompute(sigma, w)
            # same values through the optimizer's own (prefix-scan) code paths
            assert load == sigma.load(w)
            assert latency == sigma.latency(w)
            assert network == sigma.network_load(w)
