"""Candidate enumeration and constrained search."""

import functools
import hashlib
import importlib
import itertools
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounds import can_beat
from exprgen import duplicate_free_expressions
from quorumopt import lp
from quorumopt.cli import load_config, main
from quorumopt.errors import DomainError, Infeasible, NoFeasibleCandidate, NoResilientQuorum
from quorumopt.expr import parse
from quorumopt.model import Node, QuorumSystem, Workload
from quorumopt.optimize import Constraints, Objective, Strategy, find_strategy
from quorumopt.oracle import exhaustive_fault_tolerance, strategy_metric_recompute, truth_table
from quorumopt.search import SearchOptions, enumerate_candidates, search

# the module, which the package's `search` function shadows as an attribute
search_module = importlib.import_module("quorumopt.search")
expr_module = importlib.import_module("quorumopt.expr")
DATA = Path(__file__).parent / "data"


def table(e, names):
    return truth_table(e, names)


FIVE = ("a", "b", "c", "d", "e")


# Count and sha256 of the printed candidates, one per line, for nodes "a".."f"[:n]
PINNED_ORDER = {
    1: (1, "87428fc522803d31065e7bce3cf03fe475096631e5e07bbd7a0fde60c4cf25c7"),
    2: (2, "c0d1681a4376a8ed86260d1ab4e69137bce455abd570e02439e90b92a4ea30a1"),
    3: (9, "80782c0934b5e591915d8b29ab0fb5cbf2d0ffda9a8d1e0a038d82f3e48217c0"),
    4: (74, "e206585b04bbcd0222ffa0fa9f5baa9d464546631a4964a7c8bdc251f25d889a"),
    5: (885, "39e233366c4a742f5e7a8f3c60c4caac6f31f64924caba6a2c10c4e5f41e6583"),
    6: (13684, "d617cb3359a9dacf1e2d3974d7875c1f78c61e42c498974ea72fa4a8a2ea888a"),
}


@functools.cache
def five_node_tables():
    return frozenset(table(e, FIVE) for e in enumerate_candidates(FIVE))


def hetero_nodes():
    return [
        Node("a", read_cap=200, write_cap=100, latency=4),
        Node("b", read_cap=200, write_cap=100, latency=4),
        Node("c", read_cap=100, write_cap=50, latency=1),
        Node("d", read_cap=100, write_cap=50, latency=1),
    ]


class TestEnumerateCandidates:
    def test_three_nodes_start_with_the_thresholds(self):
        stream = list(enumerate_candidates(["a", "b", "c"]))
        depth_one = [str(e) for e in stream if e.depth() == 1]
        assert depth_one == ["a + b + c", "a*b*c", "choose(2, [a, b, c])"]

    def test_depths_nondecreasing(self):
        depths = [e.depth() for e in enumerate_candidates(["a", "b", "c", "d"])]
        assert depths == sorted(depths)

    def test_every_variable_appears_exactly_once(self):
        for e in enumerate_candidates(["a", "b", "c", "d", "e"]):
            assert e.uses_each_variable_once()
            assert e.names() == {"a", "b", "c", "d", "e"}

    def test_no_two_candidates_share_a_truth_table(self):
        for names in ("abcd", FIVE):
            tables = [table(e, names) for e in enumerate_candidates(names)]
            assert len(tables) == len(set(tables))

    @given(duplicate_free_expressions(names=FIVE, min_vars=5))
    @settings(max_examples=200, deadline=None)
    def test_every_duplicate_free_function_is_a_candidate(self, e):
        assert table(e, FIVE) in five_node_tables()

    @pytest.mark.parametrize("n", sorted(PINNED_ORDER))
    def test_emission_order_is_pinned(self, n):
        count, digest = PINNED_ORDER[n]
        # --budget runs and candidates_examined depend on this exact order
        printed = [str(e) for e in enumerate_candidates("abcdef"[:n])]
        assert len(printed) == count
        text = "".join(p + "\n" for p in printed)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [4, 5])
    def test_only_proper_sub_blocks_enter_the_cache(self, monkeypatch, n):
        # Every recursive call is on a proper sub-block, so the top level of
        # each depth is built and not kept, and no list of whole candidates
        # is held until the stream ends. The stream has one memo, which
        # builds each (sub-block, depth) once, and stays the pinned one.
        raw = search_module._exact_depth
        calls = []

        def recording(block, d, kept):
            calls.append((block, d, kept))
            return raw(block, d, kept)

        monkeypatch.setattr(search_module, "_exact_depth", recording)
        names = tuple("abcdef"[:n])
        text = "".join(f"{e}\n" for e in enumerate_candidates(names))
        assert (text.count("\n"), hashlib.sha256(text.encode()).hexdigest()) == PINNED_ORDER[n]
        memo = calls[0][2]
        assert all(kept is memo for _, _, kept in calls)
        assert [(block, d) for block, d, _ in calls if block == names] == [
            (names, d) for d in range(n)]
        built = [(block, d) for block, d, _ in calls if block != names]
        assert memo and sorted(built) == sorted(memo)
        assert all(set(block) < set(names) for block, _ in memo)

    def test_an_ending_stream_leaves_a_running_ones_memo(self):
        # A 4-name stream that runs to its end while a 6-name one is midway
        # frees its own memo, not the other's: the 6-name stream keeps every
        # sub-block that it built, and both streams are the pinned ones.
        def pinned(printed):
            text = "".join(p + "\n" for p in printed)
            return len(printed), hashlib.sha256(text.encode()).hexdigest()

        six = enumerate_candidates("abcdef")
        head = [str(next(six)) for _ in range(500)]
        memo = six.gi_frame.f_locals["kept"]
        before = dict(memo)
        four = [str(e) for e in enumerate_candidates("abcd")]
        assert before and memo.keys() == before.keys()
        assert all(memo[key] is value for key, value in before.items())
        assert pinned(four) == PINNED_ORDER[4]
        assert pinned(head + [str(e) for e in six]) == PINNED_ORDER[6]

    def test_single_node(self):
        assert [str(e) for e in enumerate_candidates(["a"])] == ["a"]

    def test_contains_known_five_node_systems(self):
        names = ["a", "b", "c", "d", "e"]
        tables = {table(e, names) for e in enumerate_candidates(names)}
        assert table(parse("(c + b*d)*(a + e)"), names) in tables
        # same function as a*b + a*c*d*e + b*c*d*e
        assert table(parse("choose(2, [a, b, c*d*e])"), names) in tables

    def test_node_bound(self):
        with pytest.raises(DomainError):
            list(enumerate_candidates([f"n{i}" for i in range(9)]))
        with pytest.raises(DomainError):
            list(enumerate_candidates([]))

    @pytest.mark.parametrize("nodes,message", [
        (5, "^search enumerates a collection of node names, got 5$"),
        (["a", 1], "^node names must be strings, got 1$"),
        ([["a"], "b"], r"^node names must be strings, got \['a'\]$"),
    ], ids=["int", "int-name", "list-name"])
    def test_names_that_are_no_collection_of_strings_are_refused(self, nodes, message):
        with pytest.raises(DomainError, match=message):
            list(enumerate_candidates(nodes))


class TestSearch:
    def test_latency_search_with_capacity_and_network_limits(self):
        options = SearchOptions(
            objective="latency",
            constraints=Constraints(capacity_limit=150, network_limit=2),
        )
        result = search(hetero_nodes(), 1, options)
        eps = Fraction(1, 10**6)
        assert result.metric_value <= 1 + eps
        assert result.strategy.capacity(1) >= 150 - eps
        # re-verify constraints independently of the solver
        load, latency, network = strategy_metric_recompute(result.strategy, 1)
        assert 1 / load >= 150 - eps
        assert network <= 2 + eps
        assert latency == result.metric_value

    def test_six_node_capacity_limited_search_passes_unclassified_lps(self, tmp_path, capsys,
                                                                       monkeypatch):
        # Some candidate LPs of this search end with HiGHS status Unknown;
        # their phase-1 LPs show each out of reach of the limit, and the
        # search skips it as infeasible.
        results, real = [], lp.linprog
        monkeypatch.setattr(lp, "linprog",
                            lambda c, **kw: results.append(real(c, **kw)) or results[-1])
        config = json.loads((DATA / "case_study_search.json").read_text())
        config["nodes"].append({"name": "f", "read_cap": 2000, "write_cap": 1000,
                                "latency_s": 2})
        path = tmp_path / "six.json"
        path.write_text(json.dumps(config))
        code = main(["search", str(path), "--optimize", "latency", "--capacity-limit", "3500"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["candidates_examined"] == 13684
        assert 4 in [result.status for result in results]

    def test_search_result_is_at_least_as_good_as_hand_candidates(self):
        nodes = hetero_nodes()
        result = search(nodes, 1, SearchOptions(objective="load"))
        hand = ["a*b + c*d", "choose(2, [a, b, c, d])", "a + b + c + d", "a*b*c*d"]
        eps = Fraction(1, 10**6)
        for reads in hand:
            qs = QuorumSystem(nodes, reads=reads)
            sigma = find_strategy(qs, 1)
            assert result.metric_value >= sigma.capacity(1) - eps

    def test_impossible_fault_tolerance(self):
        with pytest.raises(NoFeasibleCandidate):
            search(
                [Node(x) for x in "abcde"],
                Fraction(1, 2),
                SearchOptions(min_fault_tolerance=5),
            )

    def test_budget_runs_are_reproducible(self):
        options = SearchOptions(min_fault_tolerance=1, budget=40)
        first = search(hetero_nodes(), Fraction(1, 2), options)
        second = search(hetero_nodes(), Fraction(1, 2), options)
        assert str(first.strategy.qs.reads) == str(second.strategy.qs.reads)
        assert first.metric_value == second.metric_value
        assert first.candidates_examined == second.candidates_examined == 40

    def test_budget_exhaustion_with_no_feasible_candidate(self):
        with pytest.raises(NoFeasibleCandidate):
            search(
                hetero_nodes(),
                1,
                SearchOptions(min_fault_tolerance=4, budget=10),
            )

    def test_meets_fault_tolerance_floor(self):
        result = search(hetero_nodes(), 1, SearchOptions(min_fault_tolerance=1))
        assert result.strategy.qs.fault_tolerance() >= 1

    def test_options_validation(self):
        with pytest.raises(DomainError):
            SearchOptions(min_fault_tolerance=-1)
        with pytest.raises(DomainError):
            SearchOptions(budget=0)
        with pytest.raises(DomainError):
            SearchOptions(timeout=0)
        for timeout in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                SearchOptions(timeout=timeout)
        with pytest.raises(DomainError):
            SearchOptions(f=-1)
        with pytest.raises(DomainError, match="objective must be load, latency or network"):
            SearchOptions(objective="fast")

    @pytest.mark.parametrize("timeout", [True, False, "5", 1j, [1]])
    def test_a_timeout_that_is_no_real_number_is_refused(self, timeout):
        # True used to be taken as one second, and "5" ended in a TypeError
        with pytest.raises(DomainError, match="^timeout must be positive and finite, got "):
            SearchOptions(timeout=timeout)

    @pytest.mark.parametrize("timeout", [5, 0.5, Fraction(1, 2)])
    def test_a_timeout_that_is_a_positive_real_number_is_taken(self, timeout):
        assert SearchOptions(timeout=timeout).timeout == timeout

    @pytest.mark.parametrize("options", [{}, {"objective": "latency"}])
    def test_options_that_are_no_search_options_are_refused(self, options):
        # {} used to run with the defaults, and a nonempty dict ended in an
        # AttributeError
        with pytest.raises(DomainError, match=r"^options must be a SearchOptions or None, got "):
            search(hetero_nodes(), 1, options)

    def test_a_universe_of_names_is_refused(self):
        with pytest.raises(DomainError, match="a universe holds Nodes, got 'a'"):
            search(["a", "b"], Fraction(1, 2))

    def test_a_universe_that_is_no_collection_is_refused(self):
        # it used to end in TypeError: 'int' object is not iterable
        with pytest.raises(DomainError, match="^a universe holds Nodes, got 5$"):
            search(5, Fraction(1, 2))

    def test_constraints_that_are_no_constraints_are_refused(self):
        with pytest.raises(DomainError, match=r"^constraints must be a Constraints or None, "
                                              r"got \{'capacity_limit': 1\}$"):
            SearchOptions(constraints={"capacity_limit": 1})

    def test_no_constraints_are_no_limits(self):
        # None used to end in an AttributeError inside search()
        options = SearchOptions(constraints=None)
        assert options.constraints == Constraints()
        assert outcome(hetero_nodes(), 1, options) == outcome(hetero_nodes(), 1, SearchOptions())

    @pytest.mark.parametrize("name,value", [
        (name, value) for name in ("min_fault_tolerance", "f", "budget")
        for value in (1.5, 2.0, True, "2")] + [("min_fault_tolerance", None), ("f", None)])
    def test_counts_that_are_no_int_are_refused(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be an integer of at least"):
            SearchOptions(**{name: value})

    def test_a_fractional_f_is_no_search(self):
        # f = 1.5 used to return choose(3, [a, b, c, d, e]) with exit 0: the
        # floor took it as 2, the quorums as 1. At f = 1 the answer is
        # choose(2, [a, b, c, d, e]).
        five = [Node(x) for x in FIVE]
        with pytest.raises(DomainError, match="^f must be an integer of at least 0, got 1.5$"):
            search(five, Fraction(1, 2), SearchOptions(f=1.5))
        result = search(five, Fraction(1, 2), SearchOptions(f=1))
        assert str(result.strategy.qs.reads) == "choose(2, [a, b, c, d, e])"


@st.composite
def hetero_universes(draw):
    names = "abcde"[: draw(st.integers(4, 5))]
    return [
        Node(
            x,
            read_cap=(cap := draw(st.sampled_from([25, 50, 100, 150, 200]))),
            write_cap=cap * draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), 1])),
            latency=draw(st.sampled_from([1, 2, 3, 5, 8])),
        )
        for x in names
    ]


@st.composite
def multi_point_workloads(draw):
    fractions = draw(st.sets(st.integers(1, 9), min_size=2, max_size=4))
    return Workload.from_weights(
        {Fraction(fr, 10): draw(st.integers(1, 5)) for fr in sorted(fractions)}
    )


def outcome(nodes, w, options):
    try:
        r = search(nodes, w, options)
    except NoFeasibleCandidate:
        return None
    s = r.strategy
    return (str(s.qs.reads), str(s.qs.writes), s.dist("read"), s.dist("write"),
            r.metric_value, r.candidates_examined)


def node_types(nodes, options):
    """Each node's type under ``options``: the attributes of it that the
    query reads."""
    caps = options.objective is Objective.LOAD or options.constraints.capacity_limit is not None
    lat = options.objective is Objective.LATENCY or options.constraints.latency_limit is not None
    return [((n.read_cap, n.write_cap) if caps else ()) + ((n.latency,) if lat else ())
            for n in nodes]


def first_members(nodes, options, candidates):
    """The candidates that no earlier one maps onto by a renaming of the
    nodes that keeps each node's type: the first member of each group, found
    by brute force over the truth tables of every such renaming."""
    names = [n.name for n in nodes]
    types, n = node_types(nodes, options), len(nodes)
    renamings = [p for p in itertools.permutations(range(n))
                 if all(types[p[j]] == types[j] for j in range(n))]
    moves = [[sum(1 << p[j] for j in range(n) if i >> j & 1) for i in range(1 << n)]
             for p in renamings]
    seen, firsts = set(), []
    for e in candidates:
        t = truth_table(e, names)
        key = min(sum(1 << move[i] for i in range(1 << n) if t >> i & 1) for move in moves)
        if key not in seen:
            seen.add(key)
            firsts.append(e)
    return firsts


def meets_floor(nodes, e, floor):
    qs = QuorumSystem(nodes, reads=e)
    return min(exhaustive_fault_tolerance(qs, side) for side in ("read", "write")) >= floor


def recorded_solves(monkeypatch):
    """Replace the search's find_strategy by one that records the reads of
    each quorum system that it is handed."""
    reached = []

    def recording(qs, *args, **kwargs):
        reached.append(str(qs.reads))
        return find_strategy(qs, *args, **kwargs)

    monkeypatch.setattr(search_module, "find_strategy", recording)
    return reached


def counted_solves(monkeypatch):
    """Replace the search's find_strategy by one that records each call's
    outcome: "solved", or the name of the error it raised."""
    outcomes = []

    def counting(*args, **kwargs):
        try:
            sigma = find_strategy(*args, **kwargs)
        except Exception as e:
            outcomes.append(type(e).__name__)
            raise
        outcomes.append("solved")
        return sigma

    monkeypatch.setattr(search_module, "find_strategy", counting)
    return outcomes


def never_out_of_reach(monkeypatch):
    """Make the screen's one predicate rule no candidate out: the search
    then solves the LP of the first member of every group that meets the
    floor."""

    def nothing(self, bar, cost, load=None):
        return np.zeros(cost.shape[:-1], dtype=bool)

    monkeypatch.setattr(search_module._Screen, "out_of_reach", nothing)


class TestBoundPruning:
    # Five-node searches run under a budget: an unpruned one solves up to
    # 885 LPs. A limit is a factor of the reference system's optimum: a
    # capacity limit below 1 is looser, a latency or network limit above 1.
    CASES = {
        "load-floor": dict(min_fault_tolerance=1),
        "latency-capacity": dict(objective="latency"),
        "load-latency-limit": dict(),
        "latency-network-limit": dict(objective="latency"),
        "network-f1": dict(objective="network", f=1),
        "load-budget": dict(),
    }
    LIMITS = {
        "latency-capacity": ("capacity_limit", "load", [Fraction(1, 2), Fraction(9, 10), 1]),
        "load-latency-limit": ("latency_limit", "latency", [1, Fraction(11, 10), 2]),
        "latency-network-limit": ("network_limit", "network", [1, Fraction(11, 10), 2]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @given(nodes=hetero_universes(), w=multi_point_workloads(), data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_same_result_as_solving_every_lp(self, case, nodes, w, data):
        options = dict(self.CASES[case])
        if case == "load-budget":
            options["budget"] = data.draw(st.integers(1, 300))
        elif len(nodes) == 5:
            options["budget"] = 150
        if case in self.LIMITS:
            limit, metric, factors = self.LIMITS[case]
            names = ", ".join(n.name for n in nodes)
            reference = QuorumSystem(nodes, reads=f"choose(2, [{names}])")
            sigma = find_strategy(reference, w, metric)
            best = {"load": 1 / sigma.load(w), "latency": sigma.latency(w),
                    "network": sigma.network_load(w)}[metric]
            factor = data.draw(st.sampled_from(factors))
            options["constraints"] = Constraints(**{limit: best * factor})
        options = SearchOptions(**options)
        pruned = outcome(nodes, w, options)
        with pytest.MonkeyPatch.context() as m:
            never_out_of_reach(m)
            unpruned = outcome(nodes, w, options)
        assert pruned == unpruned

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_can_beat_is_the_only_prune(self, case, monkeypatch):
        # With nothing out of the screen's reach, the first member of every group
        # that meets the floor reaches find_strategy: no tree or limit bound
        # prunes outside it. a and b share a type, and so do c and d.
        nodes = hetero_nodes()
        options = dict(self.CASES[case])
        options["constraints"] = Constraints(
            capacity_limit=100, latency_limit=3, network_limit=Fraction(5, 2)
        )
        options = SearchOptions(**options)
        never_out_of_reach(monkeypatch)
        reached = recorded_solves(monkeypatch)
        examined = outcome(nodes, Fraction(1, 2), options)
        floor = max(options.min_fault_tolerance, options.f)
        expected = [str(e) for e in first_members(nodes, options, enumerate_candidates("abcd"))
                    if meets_floor(nodes, e, floor)]
        assert examined is None or examined[-1] == 74
        assert reached == expected

    def test_case_study_lp_count_is_pinned(self, monkeypatch):
        # A lost or weakened bound changes no output, only this count;
        # without the bound, the first members of the 67 groups that meet
        # the floor are solved.
        config = load_config(str(DATA / "case_study_search.json"))
        solves = counted_solves(monkeypatch)
        result = search(config.nodes, config.workload, SearchOptions(min_fault_tolerance=1))
        assert result.candidates_examined == 885
        assert len(solves) == 10

    def test_case_study_enumerates_quorums_only_above_the_floor(self, monkeypatch):
        # The floor is decided on the expression tree: of the 293 of 885
        # candidates that meet it, only the first members of their 67 groups
        # have their minimal quorums enumerated, reads and writes once each.
        config = load_config(str(DATA / "case_study_search.json"))
        names = [n.name for n in config.nodes]
        options = SearchOptions(min_fault_tolerance=1)
        enumerated = []
        masks = expr_module._masks

        def counting(e, *args):
            enumerated.append(str(e))
            return masks(e, *args)

        monkeypatch.setattr(expr_module, "_masks", counting)
        search(config.nodes, config.workload, options)
        above = [e for e in enumerate_candidates(names) if meets_floor(config.nodes, e, 1)]
        assert len(above) == 293
        firsts = first_members(config.nodes, options, above)
        assert len(firsts) == 67
        assert sorted(enumerated) == sorted(str(s) for e in firsts for s in (e, e.dual()))

    def test_case_study_folds_no_key_below_the_floor(self, monkeypatch):
        # A renaming keeps fault tolerance, so a group lies wholly above or
        # below the floor: the floor is tested first, and only the 293
        # candidates that meet it have their group key folded (all 885 did
        # when the key came first). The search still solves its 10 LPs.
        config = load_config(str(DATA / "case_study_search.json"))
        keyed, screen = [], search_module._Screen

        def keying(*args):
            built = screen(*args)
            key = built.group_key
            built.group_key = lambda reads: keyed.append(reads) or key(reads)
            return built

        monkeypatch.setattr(search_module, "_Screen", keying)
        solves = counted_solves(monkeypatch)
        result = search(config.nodes, config.workload, SearchOptions(min_fault_tolerance=1))
        assert result.candidates_examined == 885
        assert solves == ["solved"] * 10
        assert len(keyed) == 293
        assert all(meets_floor(config.nodes, reads, 1) for reads in keyed)

    @pytest.mark.parametrize("flags,lps", [
        (dict(objective="network", f=1), 2),
        (dict(objective="network"), 3),
        (dict(objective="latency"), 4),
    ], ids=["network-f1", "network", "latency"])
    def test_case_study_ties_are_pruned(self, monkeypatch, flags, lps):
        # a, c and e are interchangeable, and so are b and d: a candidate
        # that swaps them ties exactly. Without the tie band, its bound
        # could not rule it out, and these searches solved 72, 140 and 48 LPs.
        config = load_config(str(DATA / "case_study_search.json"))
        solves = counted_solves(monkeypatch)
        result = search(config.nodes, config.workload, SearchOptions(**flags))
        assert result.candidates_examined == 885
        assert solves == ["solved"] * lps

    def test_capacity_limited_latency_search_infeasible_lp_count_is_pinned(self, monkeypatch):
        # The expected-load bound proves the limit out of reach for all but
        # one of the 14 candidates whose LP is infeasible without it.
        config = load_config(str(DATA / "case_study_search.json"))
        solves = counted_solves(monkeypatch)
        options = SearchOptions(objective="latency", constraints=Constraints(capacity_limit=3000))
        search(config.nodes, config.workload, options)
        assert solves.count("Infeasible") == 1
        assert len(solves) == 57


def reference_solves(nodes, w, options):
    """The candidates that a search taking one candidate at a time hands to
    find_strategy: can_beat on the first member of each group, against the
    incumbent of the moment moved by the tie band, each solved metric being
    exact, up to the budget. Also each improvement of the incumbent: its
    position among the first members, and its reads."""
    tie = search_module._TIE
    band = 1 + tie if options.objective is Objective.LOAD else 1 - tie
    bar, solved, improved = None, [], []
    stream = itertools.islice(enumerate_candidates([n.name for n in nodes]), options.budget)
    for i, reads in enumerate(first_members(nodes, options, stream)):
        qs = QuorumSystem(nodes, reads=reads)
        if qs.fault_tolerance() < options.min_fault_tolerance:
            continue
        try:
            if not can_beat(qs, w, options.objective, bar, options.f, options.constraints):
                continue
            solved.append(str(qs.reads))
            sigma = find_strategy(qs, w, options.objective, options.constraints, f=options.f)
        except (Infeasible, NoResilientQuorum):
            continue
        value = search_module._metric(sigma, w, options.objective)
        if bar is None or (value > bar if options.objective is Objective.LOAD else value < bar):
            bar = value * band
            improved.append((i, str(reads)))
    return solved, improved


class TestBlocks:
    def test_same_lps_as_one_candidate_at_a_time(self, monkeypatch):
        config = load_config(str(DATA / "case_study_search.json"))
        # Five-node universes with one node type shared by a, c and e, and by
        # a and e. The second one's load search improves twice inside its
        # second block of first members, whose ascent ran against an older
        # incumbent; the first one's 273 first members leave that block 17.
        hetero_w = Workload.from_weights(
            {Fraction(1, 10): 1, Fraction(1, 2): 2, Fraction(9, 10): 1})
        runs = [
            (config.nodes, config.workload, SearchOptions(min_fault_tolerance=1)),
            (config.nodes, config.workload,
             SearchOptions(objective="latency", constraints=Constraints(capacity_limit=3000))),
        ]
        for c in [(200, 50), (100, 50)]:
            caps = [(200, 50), (100, 100), c, (25, Fraction(25, 4)), (200, 50)]
            hetero = [Node(x, read_cap=r, write_cap=wc) for x, (r, wc) in zip("abcde", caps)]
            runs.append((hetero, hetero_w, SearchOptions()))
        block = search_module._BLOCK
        for nodes, w, options in runs:
            expected, improved = reference_solves(nodes, w, options)
            with monkeypatch.context() as m:
                reached = recorded_solves(m)
                search(nodes, w, options)
            assert reached == expected
        assert [i for i, _ in improved if i > block and i % block] == [374, 394]


    def test_one_screen_per_search(self, monkeypatch):
        # The workload, objective, limits and f are read once per search,
        # not once per candidate or block: the case study takes four blocks.
        config = load_config(str(DATA / "case_study_search.json"))
        screens = []
        screen = search_module._Screen
        monkeypatch.setattr(search_module, "_Screen",
                            lambda *args: screens.append(args) or screen(*args))
        result = search(config.nodes, config.workload, SearchOptions())
        assert result.candidates_examined == 885
        assert len(screens) == 1


class TestDecide:
    # A stream that is not the enumeration, on six nodes of four types: a
    # majority, a system given both sides, read-once ones, a choose over
    # composite children, and one whose reads repeat names. Under a capacity
    # limit of 3000 the majority, the choose and a*b + c*d + e*f are
    # infeasible; under the network objective the choose ties the system
    # with repeated names at 2, and keeps its place as the earlier one.
    CAPS = [(4000, 2000), (4000, 2000), (2000, 1000), (2000, 1000), (1000, 500), (2000, 1000)]
    LATENCIES = [1, 5, 2, 3, 8, 4]
    SYSTEMS = [
        ("majority([a, b, c, d, e, f])", None),
        ("a*b*c + d*e*f", "(a + b + c)*(d + e + f)"),
        ("(a + b)*(c + d)*(e + f)", None),
        ("choose(2, [a*b, c, d + e + f])", None),
        ("a*b + a*c*d + b*e*f", None),
        ("a*b + c*d + e*f", None),
    ]

    @pytest.mark.parametrize("capacity_limit", [None, 3000])
    @pytest.mark.parametrize("objective", ["load", "latency", "network"])
    def test_decides_a_hand_built_stream_as_brute_force_does(self, objective, capacity_limit):
        nodes = [Node(x, read_cap=r, write_cap=wc, latency=latency)
                 for x, (r, wc), latency in zip("abcdef", self.CAPS, self.LATENCIES)]
        w = Workload.from_weights({Fraction(1, 10): 1, Fraction(1, 2): 2, Fraction(9, 10): 1})
        systems = [QuorumSystem(nodes, reads=r, writes=wr) for r, wr in self.SYSTEMS]
        objective, constraints = Objective(objective), Constraints(capacity_limit=capacity_limit)
        # Every LP solved; a later system replaces the best only if its
        # exact metric is strictly better, so a tie keeps the first.
        best, best_value = None, None
        for qs in systems:
            try:
                sigma = find_strategy(qs, w, objective, constraints)
            except Infeasible:
                continue
            value = search_module._metric(sigma, w, objective)
            if best is None or (value > best_value if objective is Objective.LOAD
                                else value < best_value):
                best, best_value = qs, value
        screen = search_module._Screen(tuple(nodes), w, objective, constraints, 0)
        decided = screen.decide(systems)
        assert decided.qs is best
        assert search_module._metric(decided, w, objective) == best_value


@st.composite
def typed_universes(draw):
    """Four or five nodes of at most three kinds, so that some share a type."""
    kind = st.tuples(st.sampled_from([25, 50, 100, 200]),
                     st.sampled_from([Fraction(1, 2), 1]), st.sampled_from([1, 2, 5]))
    kinds = draw(st.lists(kind, min_size=1, max_size=3))
    names = "abcde"[: draw(st.integers(4, 5))]
    picks = [draw(st.sampled_from(kinds)) for _ in names]
    return [Node(x, read_cap=cap, write_cap=cap * ratio, latency=latency)
            for x, (cap, ratio, latency) in zip(names, picks)]


def unbounded_outcome(nodes, w, options):
    """What :func:`outcome` reports, by a loop with no groups and no bounds:
    each candidate taken, up to the budget, that meets the floor has its LP
    solved, and replaces the best so far only if its exact metric beats that
    by more than the tie band."""
    objective = options.objective
    maximize = objective is Objective.LOAD
    band = 1 + search_module._TIE if maximize else 1 - search_module._TIE
    metric = {Objective.LOAD: Strategy.capacity, Objective.LATENCY: Strategy.latency,
              Objective.NETWORK: Strategy.network_load}[objective]
    floor = max(options.min_fault_tolerance, options.f)
    best, bar, examined = None, None, 0
    stream = enumerate_candidates([n.name for n in nodes])
    for reads in itertools.islice(stream, options.budget):
        examined += 1
        qs = QuorumSystem(nodes, reads=reads)
        if qs.fault_tolerance() < floor:
            continue
        try:
            sigma = find_strategy(qs, w, objective, options.constraints, f=options.f)
        except Infeasible:
            continue
        value = metric(sigma, w)
        if bar is None or (value > bar if maximize else value < bar):
            best, bar = sigma, value * band
    if best is None:
        return None
    return (str(best.qs.reads), str(best.qs.writes), best.dist("read"), best.dist("write"),
            metric(best, w), examined)


class TestGroups:
    # A limit is a factor of the reference system's optimum, as in
    # TestBoundPruning.
    CASES = {
        "load-floor": (dict(min_fault_tolerance=1), None),
        "latency-capacity": (dict(objective="latency"),
                             ("capacity_limit", "load", [Fraction(1, 2), Fraction(9, 10), 1])),
        "load-latency-limit": (dict(), ("latency_limit", "latency", [1, Fraction(11, 10), 2])),
        "network-f1": (dict(objective="network", f=1), None),
        "load-budget": (dict(), None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @given(nodes=typed_universes(), w=multi_point_workloads(), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_same_result_as_solving_every_candidate(self, case, nodes, w, data):
        options, limit = self.CASES[case]
        options = dict(options)
        if case == "load-budget":
            options["budget"] = data.draw(st.integers(1, 120))
        elif len(nodes) == 5:
            options["budget"] = 100
        if limit is not None:
            name, metric, factors = limit
            names = ", ".join(n.name for n in nodes)
            sigma = find_strategy(QuorumSystem(nodes, reads=f"choose(2, [{names}])"), w, metric)
            best = {"load": 1 / sigma.load(w), "latency": sigma.latency(w)}[metric]
            factor = data.draw(st.sampled_from(factors))
            options["constraints"] = Constraints(**{name: best * factor})
        options = SearchOptions(**options)
        assert outcome(nodes, w, options) == unbounded_outcome(nodes, w, options)

    @pytest.mark.parametrize("flags", [dict(min_fault_tolerance=1), dict(objective="network"),
                                       dict(budget=300)], ids=["floor", "network", "budget"])
    def test_one_quorum_system_per_candidate_examined(self, monkeypatch, flags):
        # A later member of a group is decided without its quorum system, yet
        # it is built: perfbench's traced mode checks that a search builds
        # one quorum system per candidate examined.
        config = load_config(str(DATA / "case_study_search.json"))
        built, init = [], QuorumSystem.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuorumSystem, "__init__", counting)
        result = search(config.nodes, config.workload, SearchOptions(**flags))
        assert len(built) == result.candidates_examined

    def test_no_key_without_a_shared_type(self):
        nodes = [Node(x, read_cap=i + 1, latency=5 - i) for i, x in enumerate("abcd")]
        for objective in Objective:
            for constraints in (Constraints(), Constraints(capacity_limit=1, latency_limit=9)):
                key = search_module._Screen(tuple(nodes), Workload.coerce(1), objective,
                                            constraints, 0).group_key
                shared = objective is Objective.NETWORK and constraints == Constraints()
                assert (key is not None) == shared


class TestTieBand:
    @given(nodes=hetero_universes(), w=multi_point_workloads(),
           objective=st.sampled_from(["load", "latency", "network"]))
    @settings(max_examples=12, deadline=None)
    def test_float_decisions_match_exact_ones(self, nodes, w, objective):
        # The search decides on float scores; the reference on exact
        # metrics, under the same band. They solve the same LPs and agree
        # on the winner.
        options = SearchOptions(objective=objective, budget=120)
        expected, improved = reference_solves(nodes, w, options)
        with pytest.MonkeyPatch.context() as m:
            reached = recorded_solves(m)
            result = search(nodes, w, options)
        assert reached == expected
        _, winner = improved[-1]
        assert str(result.strategy.qs.reads) == winner
        sigma = find_strategy(QuorumSystem(nodes, reads=winner), w, objective)
        assert result.metric_value == search_module._metric(sigma, w, Objective(objective))

    @given(nodes=hetero_universes(), w=multi_point_workloads(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_score_is_the_metric_in_floats(self, nodes, w, data):
        names = sorted(n.name for n in nodes)
        reads = data.draw(duplicate_free_expressions(names=names, min_vars=len(names)))
        qs = QuorumSystem(nodes, reads=reads)

        def dist(side):
            pool = qs.resilient_quorums(side)
            weights = data.draw(st.lists(st.integers(0, 9), min_size=len(pool),
                                         max_size=len(pool)).filter(any))
            return [(q, Fraction(k, sum(weights))) for q, k in zip(pool, weights) if k]

        sigma = Strategy(qs, dist("read"), dist("write"))
        for objective in Objective:
            exact = search_module._metric(sigma, w, objective)
            score = search_module._score(sigma, w, objective)
            assert abs(Fraction(score) - exact) <= Fraction(1, 10**12) * exact

    @given(nodes=hetero_universes(), w=multi_point_workloads(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_score_is_the_exact_metric_rounded(self, nodes, w, data):
        # Latency and network scores are the exact metric rounded once; a
        # capacity score sums the exact per-node table in floats.
        names = sorted(n.name for n in nodes)
        reads = data.draw(duplicate_free_expressions(names=names, min_vars=len(names)))
        qs = QuorumSystem(nodes, reads=reads)

        def dist(side):
            pool = qs.resilient_quorums(side)
            weights = data.draw(st.lists(st.integers(0, 9), min_size=len(pool),
                                         max_size=len(pool)).filter(any))
            return [(q, Fraction(k, sum(weights))) for q, k in zip(pool, weights) if k]

        sigma = Strategy(qs, dist("read"), dist("write"))
        for objective in (Objective.LATENCY, Objective.NETWORK):
            exact = search_module._metric(sigma, w, objective)
            assert search_module._score(sigma, w, objective) == float(exact)
        exact = search_module._metric(sigma, w, Objective.LOAD)
        score = search_module._score(sigma, w, Objective.LOAD)
        assert abs(Fraction(score) - exact) <= Fraction(1, 10**15) * exact


def fake_clock(monkeypatch):
    """Make search's clock read the number of quorum systems it has built,
    so a timeout of k - 1/2 expires after k candidates."""
    built = []

    def building(*args, **kwargs):
        built.append(None)
        return QuorumSystem(*args, **kwargs)

    monkeypatch.setattr(search_module, "QuorumSystem", building)
    monkeypatch.setattr(search_module, "time", SimpleNamespace(monotonic=lambda: len(built)))
    return built


class TestTimeout:
    @pytest.mark.parametrize("reached", [40, 300])
    def test_returns_the_best_of_the_candidates_reached(self, monkeypatch, reached):
        # 300 candidates end inside the second block.
        config = load_config(str(DATA / "case_study_search.json"))
        options = dict(min_fault_tolerance=1)
        built = fake_clock(monkeypatch)
        result = search(config.nodes, config.workload,
                        SearchOptions(timeout=reached - 0.5, **options))
        assert result.candidates_examined == len(built) == reached
        budget = search(config.nodes, config.workload,
                        SearchOptions(budget=reached, **options))
        assert (str(result.strategy.qs.reads), result.metric_value) == (
            str(budget.strategy.qs.reads), budget.metric_value)
        # The best of those candidates, every LP solved.
        never_out_of_reach(monkeypatch)
        solved = search(config.nodes, config.workload,
                        SearchOptions(budget=reached, **options))
        assert (str(result.strategy.qs.reads), result.metric_value) == (
            str(solved.strategy.qs.reads), solved.metric_value)

    def test_expiry_before_a_feasible_candidate(self, monkeypatch):
        # The first two candidates, a + b + c + d and a*b*c*d, tolerate no fault.
        built = fake_clock(monkeypatch)
        with pytest.raises(NoFeasibleCandidate, match="among 2 candidates"):
            search(hetero_nodes(), 1, SearchOptions(min_fault_tolerance=1, timeout=1.5))
        assert len(built) == 2
