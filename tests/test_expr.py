"""Expression algebra: parsing, evaluation, duality, minimal quorums."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import NAMES, duplicate_free_expressions, expressions
from quorumopt.errors import DomainError, ParseError, UniverseTooLarge
from quorumopt.expr import (
    And,
    Choose,
    Or,
    Var,
    and_,
    canonical,
    choose,
    majority,
    min_quorum_size,
    minimal_sets,
    minimal_transversals,
    or_,
    parse,
    survey,
    to_masks,
    unmask,
)
from quorumopt.oracle import exhaustive_minimal_sets, truth_table

a, b, c, d, e = (Var(x) for x in "abcde")


class TestParse:
    def test_sum_of_products(self):
        got = parse("a*b + b*c + a*c")
        assert got == Or((And((a, b)), And((b, c)), And((a, c))))

    def test_majority_desugars_to_strict_majority_threshold(self):
        assert parse("majority([a,b,c,d,e])") == Choose(3, (a, b, c, d, e))

    def test_choose_with_compound_child(self):
        got = parse("choose(2, [a, b, c*d*e])")
        assert got == Choose(2, (a, b, And((c, d, e))))
        expanded = parse("a*b + a*c*d*e + b*c*d*e")
        assert truth_table(got, "abcde") == truth_table(expanded, "abcde")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("a*(b +")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("a + ?")
        assert err.value.position == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("a b")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_whitespace_insignificant(self):
        assert parse(" a *b+ c ") == parse("a*b + c")

    def test_same_operator_chains_flatten(self):
        assert parse("a*b*c") == And((a, b, c))
        assert parse("(a + b) + c") == Or((a, b, c))
        assert parse("(a*b)*c") == And((a, b, c))

    @pytest.mark.parametrize("text", ["choose(0, [a, b])", "choose(3, [a, b])", "choose(1, [a])", "majority([a])"])
    def test_bad_choose_thresholds(self, text):
        with pytest.raises(DomainError):
            parse(text)

    def test_choose_one_and_all_normalize_to_connectives(self):
        assert parse("choose(1, [a, b, c])") == Or((a, b, c))
        assert parse("choose(3, [a, b, c])") == And((a, b, c))

    def test_choose_as_plain_variable_name(self):
        assert parse("choose + majority") == Or((Var("choose"), Var("majority")))


class TestEvaluate:
    maj = parse("a*b + b*c + a*c")

    def test_pair_satisfies_majority(self):
        assert self.maj.evaluate({"a", "b"})

    def test_single_node_does_not(self):
        assert not self.maj.evaluate({"a"})

    def test_superset_of_a_quorum_is_a_quorum(self):
        grid = parse("a*b*c + d*e*f")
        assert grid.evaluate({"a", "b", "c", "f"})

    def test_empty_set_never_satisfies(self):
        assert not self.maj.evaluate(frozenset())

    def test_choose_counts_true_children(self):
        e2 = parse("choose(2, [a, b, c, d])")
        assert e2.evaluate({"a", "c"})
        assert not e2.evaluate({"d"})


class TestDual:
    def test_and_becomes_or(self):
        assert (a * b).dual() == a + b

    def test_nested(self):
        got = parse("a*(b + c) + d*e").dual()
        assert got == parse("(a + b*c)*(d + e)")

    def test_choose_two_of_three_is_self_dual(self):
        e2 = Choose(2, (a, b, c))
        assert e2.dual() == e2
        assert truth_table(e2.dual(), "abc") == truth_table(e2, "abc")

    def test_choose_threshold_flips(self):
        e2 = Choose(2, (a, b, c, d))
        assert e2.dual() == Choose(3, (a, b, c, d))


class TestMinimalSets:
    def test_majority(self):
        got = minimal_sets(parse("a*b + b*c + a*c"))
        assert got == [frozenset("ab"), frozenset("ac"), frozenset("bc")]

    def test_two_rows(self):
        assert minimal_sets(parse("a*b*c + d*e*f")) == [
            frozenset("abc"),
            frozenset("def"),
        ]

    def test_dual_of_rows_is_all_transversals(self):
        got = minimal_sets(parse("a*b*c + d*e*f").dual())
        assert got == [
            frozenset(p) for p in ("ad", "ae", "af", "bd", "be", "bf", "cd", "ce", "cf")
        ]

    def test_canonical_order_is_size_then_lexicographic(self):
        got = minimal_sets(parse("a*b*c + d + b*e"))
        assert got == [frozenset("d"), frozenset("be"), frozenset("abc")]

    def test_universe_bound(self):
        names = [f"n{i:02d}" for i in range(21)]
        wide = or_(*[Var(n) for n in names])
        with pytest.raises(UniverseTooLarge):
            minimal_sets(wide)

    def test_universe_must_cover_leaves(self):
        with pytest.raises(DomainError):
            minimal_sets(a * b, universe=["a"])


class TestStructure:
    def test_depth(self):
        assert a.depth() == 0
        assert parse("a + b*c").depth() == 2
        assert parse("choose(2, [a, b, c, d])").depth() == 1

    def test_uses_each_variable_once(self):
        assert parse("a + b*c").uses_each_variable_once()
        assert not parse("a*b + a*c").uses_each_variable_once()
        assert not parse("a*b + a*c*e + d*e + d*c*b").uses_each_variable_once()

    def test_operator_overloads_flatten(self):
        assert a * b * c == And((a, b, c))
        assert a + b + c == Or((a, b, c))

    def test_or_and_need_two_children(self):
        with pytest.raises(DomainError):
            Or((a,))
        with pytest.raises(DomainError):
            And(())

    def test_var_name_nonempty(self):
        # and an identifier, so that printed expressions parse back
        for name in ("", "x-y", "1a", "a b", "é"):
            with pytest.raises(DomainError):
                Var(name)


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "a*b + a*c + b*c",
            "(a + b*c)*(d + e)",
            "choose(2, [a, b, c*d*e])",
            "a",
            "a + b + c",
        ],
    )
    def test_parse_print_identity_on_canonical_text(self, text):
        assert str(canonical(parse(text))) == text

    def test_canonical_sorts_children(self):
        assert str(canonical(parse("b*a + c*a"))) == "a*b + a*c"

    @given(expressions())
    @settings(max_examples=100)
    def test_print_then_parse_preserves_function(self, e):
        names = sorted(e.names())
        assert truth_table(parse(str(e)), names) == truth_table(e, names)

    @given(expressions())
    @settings(max_examples=100)
    def test_canonical_is_a_fixed_point(self, e):
        ce = canonical(e)
        assert parse(str(ce)) == ce
        assert truth_table(ce, sorted(e.names())) == truth_table(e, sorted(e.names()))


class TestProperties:
    @given(expressions())
    @settings(max_examples=200)
    def test_monotone(self, e):
        names = sorted(e.names())
        for mask in range(1 << len(names)):
            s = {names[i] for i in range(len(names)) if mask >> i & 1}
            if e.evaluate(s):
                assert e.evaluate(s | {names[0]})
                assert e.evaluate(set(names))

    @given(expressions())
    @settings(max_examples=200)
    def test_dual_involution(self, e):
        names = sorted(e.names())
        assert truth_table(e.dual().dual(), names) == truth_table(e, names)

    @given(expressions())
    @settings(max_examples=200)
    def test_dual_sets_are_minimal_transversals(self, e):
        quorums = minimal_sets(e)
        transversals = minimal_sets(e.dual())
        for t in transversals:
            assert all(t & q for q in quorums)
            for x in t:
                assert any(not ((t - {x}) & q) for q in quorums)

    @given(expressions(names=("a", "b", "c", "d", "e"), depth=2))
    @settings(max_examples=100)
    def test_choose_equals_explicit_expansion(self, child):
        for n in (2, 3, 4):
            children = [child] + [Var(x) for x in "vwxyz"[: n - 1]]
            for k in range(2, n):
                threshold = Choose(k, tuple(children))
                expansion = or_(
                    *[and_(*combo) for combo in itertools.combinations(children, k)]
                )
                names = sorted(threshold.names())
                assert truth_table(threshold, names) == truth_table(expansion, names)

    @given(expressions())
    @settings(max_examples=150)
    def test_minimal_sets_generate_exactly_the_true_sets(self, e):
        names = sorted(e.names())
        mins = minimal_sets(e)
        for mask in range(1 << len(names)):
            s = frozenset(names[i] for i in range(len(names)) if mask >> i & 1)
            assert e.evaluate(s) == any(m <= s for m in mins)

    @given(expressions())
    @settings(max_examples=300, deadline=None)
    def test_minimal_sets_match_brute_force(self, e):
        assert minimal_sets(e) == exhaustive_minimal_sets(e)
        assert minimal_sets(e.dual()) == exhaustive_minimal_sets(e.dual())

    @given(expressions(), st.permutations(NAMES))
    @settings(max_examples=200, deadline=None)
    def test_minimal_sets_match_brute_force_in_universe_order(self, e, universe):
        assert minimal_sets(e, universe) == exhaustive_minimal_sets(e, universe)


class TestCheapestQuorum:
    # expressions() repeats names, which takes the minimal-set fallback;
    # duplicate_free_expressions() takes the tree pass
    @given(st.one_of(expressions(), duplicate_free_expressions()))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, e):
        assert min_quorum_size(e) == min(len(s) for s in exhaustive_minimal_sets(e))

    def test_repeated_names_are_not_summed_twice(self):
        # the pass alone would give 2 + 2 for a*b * a*c; the smallest quorum is {a, b, c}
        assert min_quorum_size(parse("(a*b + d*e*f) * (a*c + d*e*f)")) == 3


class TestMasks:
    @given(st.one_of(expressions(), duplicate_free_expressions()))
    @settings(max_examples=200, deadline=None)
    def test_survey_finds_the_names_and_the_tree_pass(self, e):
        names, size = survey(e)
        assert names == tuple(sorted(e.names()))
        assert (size is None) == (not e.uses_each_variable_once())
        assert size is None or size == min(len(s) for s in exhaustive_minimal_sets(e))

    @given(st.one_of(expressions(), duplicate_free_expressions()))
    @settings(max_examples=200, deadline=None)
    def test_masks_round_trip(self, e):
        names = sorted(e.names())
        quorums = minimal_sets(e)
        assert unmask(to_masks(quorums, names), names) == quorums
        assert to_masks([{"z"} | quorums[0]], names) == to_masks(quorums[:1], names)

    @given(st.one_of(expressions(), duplicate_free_expressions()), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_transversals_match_brute_force(self, e, f):
        names = sorted(e.names())
        family = to_masks(minimal_sets(e), names)
        got = unmask(minimal_transversals(family, len(names), f), names)
        hits = [
            frozenset(s) for k in range(len(names) + 1)
            for s in itertools.combinations(names, k)
            if all(len(q.intersection(s)) > f for q in minimal_sets(e))
        ]
        assert got == [s for s in hits if not any(t < s for t in hits)]
        if f == 0:  # the minimal transversals are the dual's minimal quorums
            assert got == minimal_sets(e.dual())


def test_choose_helper_validates():
    with pytest.raises(DomainError):
        choose(2, [a])
    with pytest.raises(DomainError):
        choose(0, [a, b])
    assert choose(2, [a, b, c]) == Choose(2, (a, b, c))
    assert majority([a, b, c, d]) == Choose(3, (a, b, c, d))
