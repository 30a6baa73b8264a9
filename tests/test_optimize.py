"""Strategy optimization: the LP, metrics, and their invariants."""

import itertools
import math
import re
import statistics
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounds import can_beat, screen, search_module
from exprgen import duplicate_free_expressions, expressions
from quorumopt import expr as _expr
from quorumopt import lp
from quorumopt.cli import load_config
from quorumopt.errors import (
    DomainError,
    Infeasible,
    NoResilientQuorum,
    SolverFailure,
    UnknownNode,
)
from quorumopt.expr import min_quorum_latency
from quorumopt.model import Node, QuorumSystem, Workload
from quorumopt.optimize import (
    Constraints,
    Objective,
    Strategy,
    capacity_curve,
    _quorum_metric,
    find_strategy,
    quorum_latency,
    throughput_breakdown,
    uniform_strategy,
)
from quorumopt.oracle import (
    _subquorum_latency,
    exhaustive_minimal_sets,
    exhaustive_resilient,
    strategy_metric_recompute,
)
from quorumopt.search import SearchOptions, enumerate_candidates


def plain(names):
    return [Node(x) for x in names]


def hetero_nodes(latencies=(1, 1, 1, 1)):
    la, lb, lc, ld = latencies
    return [
        Node("a", read_cap=200, write_cap=100, latency=la),
        Node("b", read_cap=200, write_cap=100, latency=lb),
        Node("c", read_cap=100, write_cap=50, latency=lc),
        Node("d", read_cap=100, write_cap=50, latency=ld),
    ]


@pytest.fixture(scope="module")
def maj3():
    return QuorumSystem(plain("abc"), reads="a*b + b*c + a*c")


@pytest.fixture(scope="module")
def grid():
    return QuorumSystem(hetero_nodes(), reads="a*b + c*d")


@pytest.fixture(scope="module")
def skew_workload():
    return Workload(
        {"0.00": "10/18", "0.25": "4/18", "0.50": "2/18", "0.75": "1/18", "1.00": "1/18"}
    )


# The metrics strategy_metric_recompute returns, in order; a load limit is
# a capacity limit of its inverse.
METRICS = ("load", "latency", "network")


def within(value, target, rel):
    return abs(Fraction(value) - Fraction(target)) <= rel * abs(Fraction(target))


class TestQuorumLatency:
    @given(st.one_of(expressions(), duplicate_free_expressions()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_fastest_quorum_matches_every_minimal_quorum(self, e, data):
        names = sorted(e.names())
        latencies = st.sampled_from([Fraction(1, 2), 1, 2, 3, 5, 8])
        universe = [Node(x, latency=data.draw(latencies)) for x in names]
        qs = QuorumSystem(universe, reads=e)
        latency = {n.name: n.latency for n in universe}
        for side in ("read", "write"):
            e = qs.side(side)
            fastest = min(quorum_latency(qs, side, q) for q in exhaustive_minimal_sets(e))
            assert min_quorum_latency(e, latency) == fastest

    @given(st.one_of(expressions(), duplicate_free_expressions()), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_minimal_quorums_and_supersets(self, e, data):
        names = sorted(e.names())
        latencies = st.sampled_from([Fraction(1, 2), 1, 2, 3, 5, 8])
        universe = [Node(x, latency=data.draw(latencies)) for x in names + ["z"]]
        qs = QuorumSystem(universe, reads=e)
        for side in ("read", "write"):
            for q in qs.resilient_quorums(side):
                assert quorum_latency(qs, side, q) == _subquorum_latency(qs, side, q)
                extra = data.draw(st.sets(st.sampled_from(names + ["z"])))
                superset = q | extra
                assert quorum_latency(qs, side, superset) == _subquorum_latency(
                    qs, side, superset)

    @given(st.one_of(expressions(), duplicate_free_expressions()), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cost_vectors_match_oracle_bit_for_bit(self, e, data):
        names = sorted(e.names())
        latencies = st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, 2, 3, Fraction(7, 3)])
        universe = [Node(x, latency=data.draw(latencies)) for x in names]
        qs = QuorumSystem(universe, reads=e)
        fr = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(9, 10), 1]))
        share = {"read": fr, "write": 1 - fr}
        for f in range(min(qs.fault_tolerance(), 2) + 1):
            columns = [(s, q) for s in share for q in qs.resilient_quorums(s, f)]
            expected = {
                Objective.LATENCY: [float(share[s] * _subquorum_latency(qs, s, q))
                                    for s, q in columns],
                Objective.NETWORK: [float(share[s] * len(q)) for s, q in columns],
            }
            for objective, costs in expected.items():
                c = captured_costs(qs, fr, objective, f)
                got = np.asarray(c[:len(columns)])
                assert got.tobytes() == np.array(costs).tobytes()
                assert not np.any(c[len(columns):])

    @given(st.one_of(expressions(), duplicate_free_expressions()), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_quorum_metric_matches_each_quorum(self, e, both_given, data):
        # _quorum_metric reads the side's membership table over a universe
        # with a spare node and in reverse order of the names
        latencies = st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, 2, 3, 8])
        universe = [Node(x, latency=data.draw(latencies))
                    for x in ["z"] + sorted(e.names(), reverse=True)]
        sides = dict(reads=e, writes=e.dual()) if both_given else dict(reads=e)
        qs = QuorumSystem(universe, **sides)
        for side in ("read", "write"):
            for f in range(min(qs.fault_tolerance(), 1) + 1):
                pool = qs.resilient_quorums(side, f)
                expected = {Objective.LATENCY: [quorum_latency(qs, side, q) for q in pool],
                            Objective.NETWORK: [len(q) for q in pool]}
                for kind, costs in expected.items():
                    index, values = _quorum_metric(qs, kind, side, f)
                    assert [values[i] for i in index] == costs

    def test_max_over_equal_latencies(self, grid):
        assert quorum_latency(grid, "read", {"c", "d"}) == 1

    def test_fast_subquorum_completes_first(self):
        qs = QuorumSystem(hetero_nodes(latencies=(4, 4, 1, 1)), reads="a*b + c*d")
        assert quorum_latency(qs, "read", {"a", "b", "c", "d"}) == 1

    def test_non_quorum_rejected(self, grid):
        with pytest.raises(DomainError):
            quorum_latency(grid, "read", {"a", "c"})

    def test_unknown_side_rejected(self, grid):
        # {a, c} is a write quorum; an unknown side must not fall back to it
        with pytest.raises(DomainError):
            quorum_latency(grid, "sideways", {"a", "c"})


def captured_costs(qs, workload, objective, f):
    """The cost vector find_strategy hands the solver."""
    captured = []
    real = lp.linprog

    def capture(c, **kwargs):
        captured.append(np.array(c))
        return real(c, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "linprog", capture)
        find_strategy(qs, workload, objective, f=f)
    (c,) = captured
    return c


class TestUniformStrategy:
    def test_three_node_majority(self, maj3):
        sigma = uniform_strategy(maj3)
        assert [p for _, p in sigma.dist("read")] == [Fraction(1, 3)] * 3

    def test_grid_rows(self):
        qs = QuorumSystem(plain("abcdef"), reads="a*b*c + d*e*f")
        sigma = uniform_strategy(qs)
        assert [p for _, p in sigma.dist("read")] == [Fraction(1, 2)] * 2

    def test_five_node_majority_has_ten_quorums(self):
        qs = QuorumSystem(plain("abcde"), reads="majority([a, b, c, d, e])")
        sigma = uniform_strategy(qs)
        assert [p for _, p in sigma.dist("read")] == [Fraction(1, 10)] * 10

    def test_exact_metrics(self, maj3):
        sigma = uniform_strategy(maj3)
        assert sigma.load(1) == Fraction(2, 3)
        assert sigma.capacity(1) == Fraction(3, 2)

    def test_repr_lists_each_side_in_canonical_order(self, maj3):
        thirds = "{{a, b}: 1/3, {a, c}: 1/3, {b, c}: 1/3}"
        assert repr(uniform_strategy(maj3)) == f"Strategy(reads={thirds}, writes={thirds})"


class TestFindStrategy:
    def test_majority_load_and_capacity(self, maj3):
        sigma = find_strategy(maj3, 1)
        assert within(sigma.load(1), Fraction(2, 3), Fraction(1, 10**6))
        assert within(sigma.capacity(1), Fraction(3, 2), Fraction(1, 10**6))

    @pytest.mark.parametrize(
        "fr,expected", [(1, 300), (Fraction(1, 2), 200), (0, 100)]
    )
    def test_heterogeneous_grid(self, grid, fr, expected):
        sigma = find_strategy(grid, fr)
        assert within(sigma.capacity(fr), expected, Fraction(1, 10**6))

    def test_workload_distribution(self, skew_workload):
        qs = QuorumSystem(hetero_nodes(), reads="a*c + b*d")
        sigma = find_strategy(qs, skew_workload)
        assert within(sigma.capacity(skew_workload), 159, Fraction(1, 100))

    @pytest.mark.parametrize(
        "reads,f,expected",
        [
            ("a*b + c*d", 0, 300),
            ("a*b + c*d", 1, 100),
            ("choose(2, [a, b, c, d])", 0, 300),
            ("choose(2, [a, b, c, d])", 1, 200),
        ],
    )
    def test_resilient_capacities(self, reads, f, expected):
        qs = QuorumSystem(hetero_nodes(), reads=reads)
        sigma = find_strategy(qs, 1, f=f)
        assert sigma.f == f
        assert within(sigma.capacity(1), expected, Fraction(1, 10**6))

    def test_latency_objective_with_capacity_and_network_limits(self):
        qs = QuorumSystem(hetero_nodes(latencies=(4, 4, 1, 1)), reads="a*b + c*d")
        sigma = find_strategy(
            qs, 1, "latency", Constraints(capacity_limit=150, network_limit=2)
        )
        assert within(sigma.latency(1), 2, Fraction(1, 10**6))
        # constraints hold exactly under independent recomputation
        load, latency, network = strategy_metric_recompute(sigma, 1)
        assert 1 / load >= 150 - Fraction(1, 10**6)
        assert network <= 2 + Fraction(1, 10**6)
        assert latency == sigma.latency(1)

    def test_infeasible_capacity_limit(self, grid):
        with pytest.raises(Infeasible):
            find_strategy(grid, 1, "load", Constraints(capacity_limit=10**4))

    def test_network_objective_prefers_small_quorums(self):
        qs = QuorumSystem(plain("abc"), reads="a + b*c")
        sigma = find_strategy(qs, 1, "network")
        assert sigma.network_load(1) == 1
        assert sigma.dist("read") == [(frozenset("a"), Fraction(1))]

    @pytest.mark.parametrize("objective", list(Objective), ids=lambda o: o.value)
    @pytest.mark.parametrize(
        "limited",
        [kinds for k in range(4) for kinds in itertools.combinations(METRICS, k)],
        ids=lambda kinds: "+".join(kinds) or "none",
    )
    def test_every_objective_under_every_limit_subset(self, skew_workload, objective, limited):
        qs = QuorumSystem(hetero_nodes(latencies=(4, 4, 1, 1)), reads="a*b + c*d")
        uniform = dict(zip(METRICS, strategy_metric_recompute(uniform_strategy(qs), skew_workload)))
        # each limit 1% looser than the uniform strategy's value, so it is feasible
        bound = {metric: uniform[metric] * Fraction(101, 100) for metric in limited}
        constraints = Constraints(
            capacity_limit=1 / bound["load"] if "load" in bound else None,
            latency_limit=bound.get("latency"),
            network_limit=bound.get("network"),
        )
        sigma = find_strategy(qs, skew_workload, objective, constraints)
        got = dict(zip(METRICS, strategy_metric_recompute(sigma, skew_workload)))
        rel = 1 + Fraction(1, 10**9)
        for metric in limited:
            assert got[metric] <= bound[metric] * rel, metric
        assert got[objective.value] <= uniform[objective.value] * rel

    def test_latency_limit_constraint(self):
        qs = QuorumSystem(hetero_nodes(latencies=(1, 1, 5, 5)), reads="a*b + c*d")
        sigma = find_strategy(qs, 1, "load", Constraints(latency_limit=1))
        assert sigma.latency(1) <= 1
        assert sigma.dist("read") == [(frozenset("ab"), Fraction(1))]

    @pytest.mark.parametrize("f", [0, 1])
    @pytest.mark.parametrize(
        "objective,constraints",
        [(o, Constraints()) for o in Objective]
        + [(Objective.LATENCY, Constraints(capacity_limit=50))],
        ids=[o.value for o in Objective] + ["latency-capacity_limit"],
    )
    def test_columns_come_from_the_masks_alone(self, monkeypatch, objective, constraints, f):
        reads = "choose(2, [a, b, c, d])"
        expected = find_strategy(QuorumSystem(hetero_nodes(), reads=reads), Fraction(1, 2),
                                 objective, constraints, f=f)

        def refuse(*args):
            raise AssertionError("find_strategy unmasked every quorum")

        monkeypatch.setattr(QuorumSystem, "resilient_quorums", refuse)
        qs = QuorumSystem(hetero_nodes(), reads=reads)
        sigma = find_strategy(qs, Fraction(1, 2), objective, constraints, f=f)
        for side in ("read", "write"):
            assert sigma.dist(side) == expected.dist(side)

    def test_repeated_names_enumerate_each_side_once(self, monkeypatch):
        """Each side's fault tolerance is read off the other side's family,
        its dual, which the LP then takes as its columns."""
        masks, calls = _expr._masks, []
        monkeypatch.setattr(_expr, "_masks", lambda *args: calls.append(args) or masks(*args))
        qs = QuorumSystem(plain("abcd"), reads="a*b + a*c + b*c*d")
        assert qs.fault_tolerance() == 1
        find_strategy(qs, Fraction(1, 2))
        assert len(calls) == 2


def recorded_statuses(monkeypatch) -> list[int]:
    """Make lp.linprog record the status of every result it returns."""
    statuses, real = [], lp.linprog

    def record(c, **kwargs):
        result = real(c, **kwargs)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(lp, "linprog", record)
    return statuses


class TestUnclassifiedFailure:
    """An LP that HiGHS ends neither optimal nor infeasible under a limit is
    decided by its phase-1 LP."""

    @pytest.mark.parametrize("reads", ["((b + e)*c + a)*d", "(a*(b + e) + c)*d",
                                       "(a*(d + e) + c)*b"])
    def test_a_limit_far_out_of_reach_is_infeasible(self, monkeypatch, reads):
        # HiGHS ends each LP with model status Unknown; the phase-1 LP shows
        # the capacity limit out of reach by 6-8%
        config = load_config(str(Path(__file__).parent / "data" / "case_study_search.json"))
        qs = QuorumSystem(config.nodes, reads=reads)
        statuses = recorded_statuses(monkeypatch)
        with pytest.raises(Infeasible):
            find_strategy(qs, config.workload, "latency", Constraints(capacity_limit=4000))
        assert statuses == [4, 0]

    def test_a_limit_within_reach_keeps_the_solver_failure(self, monkeypatch, grid):
        statuses = recorded_statuses(monkeypatch)
        record, calls = lp.linprog, []
        failed = SimpleNamespace(status=4, message="stub", x=None, nit=0, basis=None)

        def first_fails(c, **kwargs):
            # the first LP fails; its phase-1 LP is solved for real
            calls.append(c)
            return record(c, **kwargs) if len(calls) > 1 else failed

        monkeypatch.setattr(lp, "linprog", first_fails)
        with pytest.raises(SolverFailure, match="stub"):
            find_strategy(grid, 1, "load", Constraints(capacity_limit=100))
        assert statuses == [0]

    def test_no_phase_one_lp_without_a_limit(self, monkeypatch, grid):
        calls = []
        failed = SimpleNamespace(status=4, message="stub", x=None, nit=0, basis=None)
        monkeypatch.setattr(lp, "linprog", lambda c, **kw: calls.append(c) or failed)
        with pytest.raises(SolverFailure, match="stub"):
            find_strategy(grid, 1, "latency")
        assert len(calls) == 1


@pytest.mark.parametrize("f", [True, 1.5])
def test_a_resilience_level_that_is_no_int_is_a_domain_error(maj3, f):
    # find_strategy(maj3, w, f=True) solved the f = 1 LP.
    with pytest.raises(DomainError, match="f must be a nonnegative integer"):
        find_strategy(maj3, Fraction(1, 2), f=f)
    with pytest.raises(DomainError, match="f must be a nonnegative integer"):
        uniform_strategy(maj3, f=f)
    with pytest.raises(DomainError, match="f must be a nonnegative integer"):
        capacity_curve(maj3, [Fraction(1, 2)], f=f)
    with pytest.raises(DomainError, match="f must be a nonnegative integer"):
        Strategy(maj3, [({"a", "b", "c"}, 1)], [({"a", "b", "c"}, 1)], f=f)


def test_an_unknown_objective_is_a_domain_error(maj3):
    message = "objective must be load, latency or network, got 'LOAD'"
    with pytest.raises(DomainError, match=message):
        find_strategy(maj3, Fraction(1, 2), "LOAD")
    with pytest.raises(DomainError, match=message):
        SearchOptions(objective="LOAD")


def test_constraints_that_are_no_constraints_are_a_domain_error(maj3):
    # a dict used to end in an AttributeError inside the LP build
    with pytest.raises(DomainError, match=r"^constraints must be a Constraints or None, "
                                          r"got \{'capacity_limit': 1\}$"):
        find_strategy(maj3, 1, "load", {"capacity_limit": 1})
    sigma = find_strategy(maj3, 1, "load", None)
    expected = find_strategy(maj3, 1)
    for side in ("read", "write"):
        assert sigma.dist(side) == expected.dist(side)


class TestArgumentsOfTheWrongKind:
    # Each call ended in an AttributeError on a method that a QuorumSystem
    # or a Strategy has and the argument lacks.
    NOT_A_QS = "^qs must be a QuorumSystem, got a "

    @pytest.fixture(params=["strategy", "text", "none"])
    def not_a_qs(self, request, maj3):
        return {"strategy": uniform_strategy(maj3), "text": "a*b + b*c + a*c",
                "none": None}[request.param]

    def test_strategy(self, not_a_qs):
        with pytest.raises(DomainError, match=self.NOT_A_QS):
            Strategy(not_a_qs, [({"a", "b"}, 1)], [({"a", "b"}, 1)])

    def test_find_strategy(self, not_a_qs):
        with pytest.raises(DomainError, match=self.NOT_A_QS):
            find_strategy(not_a_qs, Fraction(1, 2))

    def test_uniform_strategy(self, not_a_qs):
        with pytest.raises(DomainError, match=self.NOT_A_QS):
            uniform_strategy(not_a_qs)

    def test_capacity_curve(self, not_a_qs):
        # refused before the fractions are read, so with none too
        for fractions in ([Fraction(1, 2)], []):
            with pytest.raises(DomainError, match=self.NOT_A_QS):
                capacity_curve(not_a_qs, fractions)

    def test_quorum_latency(self, not_a_qs):
        with pytest.raises(DomainError, match=self.NOT_A_QS):
            quorum_latency(not_a_qs, "read", {"a", "b"})

    def test_throughput_breakdown(self, maj3):
        for strategy, kind in ((maj3, "QuorumSystem"), ("a*b", "str"), (None, "NoneType")):
            with pytest.raises(DomainError, match=f"^strategy must be a Strategy, got a {kind}$"):
                throughput_breakdown(strategy, Fraction(1, 2))


class TestSolverStatus:
    @pytest.mark.parametrize("limits", [Constraints(), Constraints(capacity_limit=1)],
                             ids=["no-limit", "capacity-limit"])
    @pytest.mark.parametrize("status,error,message", [
        (2, Infeasible, "^constraints are unsatisfiable$"),
        (4, SolverFailure, "^LP solve failed: stub$")])
    def test_status_maps_to_error(self, monkeypatch, maj3, status, error, message, limits):
        calls = []
        result = SimpleNamespace(status=status, message="stub", x=None, nit=0, basis=None)
        monkeypatch.setattr(lp, "linprog", lambda c, **kwargs: calls.append(c) or result)
        with pytest.raises(error, match=message):
            find_strategy(maj3, 1, "load", limits)
        # status 2 is HiGHS's proof; a failure under a limit gets a phase-1
        # LP, which fails here too and so decides nothing
        assert len(calls) == (2 if status == 4 and limits.limits() else 1)


class TestLimits:
    def test_each_limit_is_the_bound_on_its_metric_in_row_order(self):
        limits = Constraints(network_limit=3, latency_limit="1.5", capacity_limit=200).limits()
        assert list(limits.items()) == [(Objective.LOAD, Fraction(1, 200)),
                                        (Objective.LATENCY, Fraction(3, 2)),
                                        (Objective.NETWORK, 3)]
        assert Constraints().limits() == {}
        assert Constraints(latency_limit=2).limits() == {Objective.LATENCY: 2}

    @pytest.mark.parametrize("constraints", [
        Constraints(capacity_limit=150, latency_limit=3, network_limit="5/2"),
        Constraints(network_limit=3), Constraints()])
    def test_the_lp_limit_rows_are_the_limits(self, monkeypatch, constraints):
        seen, real = [], lp.linprog
        monkeypatch.setattr(lp, "linprog",
                            lambda c, **kwargs: seen.append(kwargs) or real(c, **kwargs))
        qs = QuorumSystem(hetero_nodes(latencies=(4, 4, 1, 1)), reads="a*b + c*d")
        find_strategy(qs, 1, "load", constraints)
        (kwargs,) = seen
        limits = constraints.limits()
        # the node-load rows end in -1 on their L_f column; the limit rows come last
        assert (kwargs["A_ub"][:, -1] == -1).sum() == len(kwargs["b_ub"]) - len(limits)
        assert kwargs["b_ub"][len(kwargs["b_ub"]) - len(limits):].tolist() == [
            float(v) for v in limits.values()]

    def test_the_screen_reads_the_limits(self, maj3):
        tol, above = lp.FEASIBILITY_TOL, float(1 + search_module._BOUND_MARGIN)
        one = screen(maj3, 1, "load", constraints=Constraints(capacity_limit=150,
                                                              network_limit=2))
        assert one.kinds == [Objective.NETWORK]
        assert one.ceiling.tolist() == [(2 + tol) * above]
        assert one.max_load == (float(Fraction(1, 150)) + 2 * tol) * above
        one = screen(maj3, 1, "latency")
        assert (one.kinds, one.ceiling.tolist(), one.max_load) == (
            [Objective.LATENCY], [math.inf], None)


class TestNodeLoad:
    def test_uniform_majority_by_symmetry(self, maj3):
        sigma = uniform_strategy(maj3)
        for x in "abc":
            assert sigma.node_load(x, 1) == Fraction(2, 3)

    def test_node_outside_all_quorums(self):
        qs = QuorumSystem(plain("abcd"), reads="a*b + b*c + a*c")
        sigma = uniform_strategy(qs)
        assert sigma.node_load("d", 1) == 0

    def test_unknown_node_rejected(self, maj3):
        with pytest.raises(UnknownNode):
            uniform_strategy(maj3).node_load("z", 1)

    def test_a_name_that_cannot_be_hashed_is_refused(self, maj3):
        # it used to end in TypeError: unhashable type: 'list'
        with pytest.raises(DomainError, match=r"^a node name is a string, got \['a'\]$"):
            uniform_strategy(maj3).node_load(["a"], 1)

    def test_optimal_grid_balances_fast_and_slow(self, grid):
        sigma = find_strategy(grid, 1)
        third = Fraction(1, 300)
        assert abs(sigma.node_load("a", 1) - third) <= Fraction(1, 10**6)
        assert abs(sigma.node_load("c", 1) - third) <= Fraction(1, 10**6)

    def test_max_node_load_is_the_load_on_single_point_workloads(self, grid):
        sigma = find_strategy(grid, Fraction(1, 2))
        assert sigma.load(Fraction(1, 2)) == max(
            sigma.node_load(x, Fraction(1, 2)) for x in "abcd"
        )


class TestMetrics:
    def test_single_quorum_latency_and_network(self, grid):
        sigma = Strategy(grid, [({"a", "b", "c", "d"}, 1)], [({"a", "c"}, 1)])
        assert sigma.network_load(1) == 4
        assert sigma.latency(1) == 1  # prefix {c, d} completes the read

    def test_singleton_reads_have_unit_network_load(self):
        qs = QuorumSystem(plain("abcd"), reads="a + b + c + d")
        sigma = find_strategy(qs, 1, "network")
        assert sigma.network_load(1) == 1

    def test_all_mass_on_one_quorum_loads_its_slowest_member(self, grid):
        sigma = Strategy(grid, [({"c", "d"}, 1)], [({"a", "c"}, 1)])
        assert sigma.load_at(1) == Fraction(1, 100)

    def test_a_read_fraction_outside_the_unit_interval_is_rejected(self, maj3):
        # reads a*b at write_cap 100: -1 would give a load of -49/50, and
        # -1/99 a load of 0, a division by zero in the capacity
        qs = QuorumSystem([Node(x, read_cap=1, write_cap=100) for x in "ab"], reads="a*b")
        sigma = find_strategy(qs, 1)
        for fr in (-1, Fraction(-1, 99)):
            with pytest.raises(DomainError, match=f"read fraction {fr} is outside"):
                sigma.load_at(fr)
            with pytest.raises(DomainError, match=f"read fraction {fr} is outside"):
                sigma.capacity(fr)
            with pytest.raises(DomainError, match=f"read fraction {fr} is outside"):
                capacity_curve(qs, [fr])
        with pytest.raises(DomainError, match="read fraction 2 is outside"):
            find_strategy(maj3, Fraction(1, 2)).load_at(2)

    def test_strategy_validation(self, maj3):
        with pytest.raises(DomainError):
            Strategy(maj3, [({"a", "b"}, Fraction(1, 2))], [({"a", "b"}, 1)])
        with pytest.raises(DomainError):
            Strategy(maj3, [({"a"}, 1)], [({"a", "b"}, 1)])
        for p in (2, -1):
            with pytest.raises(DomainError, match=f"probability {p} is outside"):
                Strategy(maj3, [({"a", "b"}, p)], [({"a", "b"}, 1)])

    def test_each_side_gives_a_new_list_of_its_distribution(self, grid):
        sigma = Strategy(grid, [({"a", "b"}, 1)], [({"a", "c"}, 1)])
        for side, quorum in (("read", "ab"), ("write", "ac")):
            dist = sigma.dist(side)
            assert dist == [(frozenset(quorum), 1)]
            dist.clear()
            assert sigma.dist(side) == [(frozenset(quorum), 1)]
            assert sigma.dist(side) is not sigma.dist(side)

    @pytest.mark.parametrize("side", ["reads", "Read", None])
    def test_a_side_other_than_read_or_write_is_refused(self, grid, side):
        sigma = Strategy(grid, [({"a", "b"}, 1)], [({"a", "c"}, 1)])
        message = f"side must be 'read' or 'write', got {side!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sigma.dist(side)

    @pytest.mark.parametrize("read_dist,write_dist,got", [
        (5, 5, "5"),
        ([5], [({"a", "b"}, 1)], "the entry 5"),
        ([(["a", "b"],)], [({"a", "b"}, 1)], "the entry (['a', 'b'],)"),
        ([(["a", "b"], 1, 2)], [({"a", "b"}, 1)], "the entry (['a', 'b'], 1, 2)"),
        # a str used to be unpacked, and the message named its character 'a'
        ("ab", [({"a", "b"}, 1)], "the text 'ab'"),
        (["ab"], [({"a", "b"}, 1)], "the entry 'ab'"),
    ], ids=["int", "int-entry", "one-item", "three-items", "str", "str-entry"])
    def test_a_distribution_that_is_no_collection_of_pairs_is_refused(self, maj3, read_dist,
                                                                     write_dist, got):
        # each used to end in TypeError or ValueError
        message = f"a read distribution is a collection of (quorum, probability) pairs, got {got}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Strategy(maj3, read_dist, write_dist)

    def test_a_quorum_given_as_text_is_refused(self):
        # "ab" used to be read as the set of its characters, {a, b}
        qs = QuorumSystem(plain("abc"), reads="choose(2, [a, b, c])")
        with pytest.raises(DomainError, match="^a quorum is a set of node names, got the text"):
            Strategy(qs, [("ab", 1)], [({"a", "c"}, 1)])

    def test_a_quorum_naming_a_node_outside_the_universe_is_rejected(self, maj3):
        # a superset of a quorum, but zzz is no node: it must not count
        # towards the network load nor get a row of its own
        with pytest.raises(UnknownNode, match="zzz"):
            Strategy(maj3, [({"a", "b", "zzz"}, 1)], [({"a", "b"}, 1)])
        # a node of the universe outside the side's expression is allowed
        qs = QuorumSystem(plain("abcd"), reads="a*b + b*c + a*c")
        sigma = Strategy(qs, [({"a", "b", "d"}, 1)], [({"a", "b"}, 1)])
        assert sigma.network_load(1) == 3

    def test_resilience_validation(self, grid):
        with pytest.raises(DomainError):
            Strategy(grid, [({"a", "b"}, 1)], [({"a", "b", "c", "d"}, 1)], f=1)
        # the read side has no 1-resilient quorum at all
        pair = QuorumSystem(plain("ab"), reads="a*b")
        with pytest.raises(DomainError):
            Strategy(pair, [({"a", "b"}, 1)], [({"a", "b"}, 1)], f=1)
        # a set of fewer than f nodes has no f-subset to remove, yet is not resilient
        single = QuorumSystem(plain("a"), reads="a")
        with pytest.raises(DomainError):
            Strategy(single, [({"a"}, 1)], [({"a"}, 1)], f=2)
        with pytest.raises(DomainError):
            Strategy(single, [({"a"}, 1)], [({"a"}, 1)], f=-1)

    def test_degenerate_workload_equals_scalar(self, grid):
        sigma = find_strategy(grid, Workload({Fraction(3, 10): 1}))
        fr = Fraction(3, 10)
        assert sigma.load(Workload({fr: 1})) == sigma.load(fr)
        assert sigma.capacity(Workload({fr: 1})) == sigma.capacity(fr)

    @given(expressions(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_point_load_is_worked_out_once_and_exactly(self, e, data):
        caps = st.sampled_from([1, 3, Fraction(1, 2), 100])
        qs = QuorumSystem([Node(x, read_cap=data.draw(caps), write_cap=data.draw(caps))
                           for x in sorted(e.names())], reads=e)
        dists = []
        for side in ("read", "write"):
            pool = qs.resilient_quorums(side)
            weights = data.draw(st.lists(st.integers(1, 5), min_size=len(pool),
                                         max_size=len(pool)))
            dists.append([(q, Fraction(w, sum(weights))) for q, w in zip(pool, weights)])
        sigma = Strategy(qs, *dists)
        fractions = st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), "0.9", 1])
        points = data.draw(st.lists(fractions, min_size=1, max_size=4,
                                    unique_by=lambda fr: Fraction(fr)))
        w = Workload.from_weights({fr: i + 1 for i, fr in enumerate(points)})
        # twice over, the second time from the loads the first worked out:
        # against a strategy that has worked out none and against the oracle
        loads = {fr: strategy_metric_recompute(sigma, fr)[0] for fr, _ in w.items()}
        for _ in range(2):
            assert sigma.capacity(w) == Strategy(qs, *dists).capacity(w) == sum(
                p / loads[fr] for fr, p in w.items())
            assert sigma.load(w) == Strategy(qs, *dists).load(w) == sum(
                p * loads[fr] for fr, p in w.items())
            for fr, _ in w.items():
                assert sigma.load_at(fr) == Strategy(qs, *dists).load_at(fr) == loads[fr]


class TestOptimalityInvariants:
    def test_lp_unbeaten_by_random_strategies(self, skew_workload):
        systems = [
            QuorumSystem(plain("abc"), reads="a*b + b*c + a*c"),
            QuorumSystem(hetero_nodes(), reads="a*b + c*d"),
            QuorumSystem(hetero_nodes(), reads="a*c + b*d"),
        ]
        rng = np.random.default_rng(20240801)
        tolerance = Fraction(1, 10**6)
        for qs in systems:
            best = find_strategy(qs, skew_workload).load(skew_workload)
            reads = qs.resilient_quorums("read")
            writes = qs.resilient_quorums("write")
            for _ in range(1000):
                rd = rng.dirichlet(np.ones(len(reads)))
                wd = rng.dirichlet(np.ones(len(writes)))
                sigma = Strategy(qs, list(zip(reads, rd)), list(zip(writes, wd)))
                assert sigma.load(skew_workload) >= best - tolerance

    def test_optimal_beats_uniform(self, skew_workload):
        for reads in ("a*b + c*d", "a*c + b*d", "choose(2, [a, b, c, d])"):
            qs = QuorumSystem(hetero_nodes(), reads=reads)
            optimal = find_strategy(qs, skew_workload)
            baseline = uniform_strategy(qs)
            eps = Fraction(1, 10**6)
            assert optimal.load(skew_workload) <= baseline.load(skew_workload) + eps
            assert optimal.capacity(skew_workload) >= baseline.capacity(skew_workload) - eps

    def test_capacity_never_increases_with_f(self):
        for reads in ("a*b + c*d", "choose(2, [a, b, c, d])"):
            qs = QuorumSystem(hetero_nodes(), reads=reads)
            caps = [find_strategy(qs, 1, f=f).capacity(1) for f in (0, 1)]
            assert caps[1] <= caps[0] + Fraction(1, 10**6)

    def test_capacity_scales_linearly_with_node_capacity(self, skew_workload):
        scale = Fraction(7, 3)
        base = QuorumSystem(hetero_nodes(), reads="a*c + b*d")
        scaled_nodes = [
            Node(
                n.name,
                read_cap=n.read_cap * scale,
                write_cap=n.write_cap * scale,
                latency=n.latency,
            )
            for n in hetero_nodes()
        ]
        scaled = QuorumSystem(scaled_nodes, reads="a*c + b*d")
        cap = find_strategy(base, skew_workload).capacity(skew_workload)
        cap_scaled = find_strategy(scaled, skew_workload).capacity(skew_workload)
        assert within(cap_scaled, cap * scale, Fraction(1, 10**6))
        # the unscaled optimum, rescaled, stays optimal on the scaled system
        sigma = find_strategy(base, skew_workload)
        replayed = Strategy(scaled, sigma.dist("read"), sigma.dist("write"))
        assert replayed.load(skew_workload) <= (
            find_strategy(scaled, skew_workload).load(skew_workload) + Fraction(1, 10**9)
        )

    @given(duplicate_free_expressions(names=("a", "b", "c", "d")))
    @settings(max_examples=40, deadline=None)
    def test_lp_no_worse_than_uniform_on_random_systems(self, e):
        universe = [
            Node(x, read_cap=i + 1, write_cap=i + 2)
            for i, x in enumerate(sorted(e.names()))
        ]
        qs = QuorumSystem(universe, reads=e)
        fr = Fraction(2, 3)
        lp = find_strategy(qs, fr).load(fr)
        assert lp <= uniform_strategy(qs).load(fr) + Fraction(1, 10**6)


class TestCanBeat:
    @pytest.mark.parametrize("workload", ["skew", Fraction(3, 4)])
    @pytest.mark.parametrize("f", [0, 1])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_never_rules_out_a_value_the_lp_beats(self, skew_workload, workload, f, objective):
        w = skew_workload if workload == "skew" else Workload.coerce(workload)
        nodes = hetero_nodes(latencies=(4, 3, 1, 2))
        for reads in enumerate_candidates("abcd"):
            qs = QuorumSystem(nodes, reads=reads)
            try:
                sigma = find_strategy(qs, w, objective, f=f)
            except NoResilientQuorum:
                with pytest.raises(NoResilientQuorum):
                    can_beat(qs, w, objective, 1, f=f)
                continue
            if objective is Objective.LOAD:
                worse = sigma.capacity(w) * Fraction(999, 1000)
            elif objective is Objective.LATENCY:
                worse = sigma.latency(w) * Fraction(1001, 1000)
            else:
                worse = sigma.network_load(w) * Fraction(1001, 1000)
            assert can_beat(qs, w, objective, worse, f=f), reads

    @pytest.mark.parametrize("f", [0, 1])
    @pytest.mark.parametrize("limited", METRICS)
    def test_never_rules_out_a_limit_the_lp_meets(self, skew_workload, f, limited):
        # The limit is 0.1% looser than the candidate's own optimum of the
        # limited metric, whose strategy meets it and scores on every objective.
        w = skew_workload
        nodes = hetero_nodes(latencies=(4, 3, 1, 2))
        for reads in enumerate_candidates("abcd"):
            qs = QuorumSystem(nodes, reads=reads)
            if qs.fault_tolerance() < f:
                continue
            sigma = find_strategy(qs, w, limited, f=f)
            load, latency, network = strategy_metric_recompute(sigma, w)
            if limited == "load":
                limit = Constraints(capacity_limit=1 / (load * Fraction(1001, 1000)))
            elif limited == "latency":
                limit = Constraints(latency_limit=latency * Fraction(1001, 1000))
            else:
                limit = Constraints(network_limit=network * Fraction(1001, 1000))
            worse = {
                Objective.LOAD: sigma.capacity(w) * Fraction(999, 1000),
                Objective.LATENCY: latency * Fraction(1001, 1000),
                Objective.NETWORK: network * Fraction(1001, 1000),
            }
            for objective, value in worse.items():
                assert can_beat(qs, w, objective, None, f, limit), reads
                assert can_beat(qs, w, objective, value, f, limit), reads

    def test_margin_admits_values_at_the_exact_bound(self, grid, maj3):
        # Every read and write quorum of a*b + c*d has two nodes, so network
        # load is at least 2, and 3/2 is the capacity of majority of 3 at
        # any read fraction. An LP strategy may sum to 1 - 1e-6 on each side
        # and score just past either bound, so neither rules the system out.
        assert can_beat(grid, Fraction(1, 2), "network", 2)
        assert not can_beat(grid, Fraction(1, 2), "network", Fraction(199, 100))
        assert can_beat(maj3, 1, "load", Fraction(3, 2))
        assert not can_beat(maj3, 1, "load", Fraction(151, 100))
        # The same bounds, as limits that any strategy may meet with equality.
        for objective in Objective:
            at = Constraints(network_limit=2, capacity_limit=Fraction(3, 2))
            assert can_beat(grid, 1, objective, None, constraints=at)
            assert can_beat(maj3, 1, objective, None, constraints=at)
            over = Constraints(network_limit=Fraction(199, 100))
            assert not can_beat(grid, 1, objective, None, constraints=over)
            over = Constraints(capacity_limit=Fraction(151, 100))
            assert not can_beat(maj3, 1, objective, None, constraints=over)

    def test_limits_allow_for_the_solver_tolerance(self):
        # HiGHS meets a limit's row only within lp.FEASIBILITY_TOL, absolutely:
        # it returns a strategy of latency 1/10**4 under a limit tol/2 below.
        tol = Fraction(lp.FEASIBILITY_TOL)
        fast = QuorumSystem(
            [Node(x, latency=Fraction(1, 10**4)) for x in "abc"], reads="choose(2, [a, b, c])"
        )
        near = Constraints(latency_limit=Fraction(1, 10**4) - tol / 2)
        find_strategy(fast, Fraction(1, 2), "load", near)
        assert can_beat(fast, Fraction(1, 2), "load", None, constraints=near)
        far = Constraints(latency_limit=Fraction(1, 10**4) - 2 * tol)
        assert not can_beat(fast, Fraction(1, 2), "load", None, constraints=far)
        # Expected load may pass 1/c by 2*tol. Majority of three over nodes of
        # capacity 10**6 has load 2/(3*10**6), which the load bound reaches at
        # once; the relative margin alone does not cover 3*tol/2 here.
        big = QuorumSystem(
            [Node(x, read_cap=10**6, write_cap=10**6) for x in "abc"],
            reads="choose(2, [a, b, c])",
        )
        load = Fraction(2, 3 * 10**6)
        near = Constraints(capacity_limit=1 / (load - 3 * tol / 2))
        far = Constraints(capacity_limit=1 / (load - 3 * tol))
        for objective in Objective:
            assert can_beat(big, Fraction(1, 2), objective, None, constraints=near)
            assert not can_beat(big, Fraction(1, 2), objective, None, constraints=far)


class TestLeastCost:
    @given(st.one_of(expressions(), duplicate_free_expressions()), st.data())
    @settings(max_examples=100, deadline=None)
    def test_resilient_quorums_are_priced_from_their_masks(self, e, data):
        # The f > 0 bounds price the side's cached membership table
        # (_quorum_metric) alone: no padded batch of tables (the search's
        # _stacked) is built.
        latencies = st.sampled_from([Fraction(1, 3), Fraction(1, 2), 1, 2, 3, 8])
        qs = QuorumSystem([Node(x, latency=data.draw(latencies)) for x in sorted(e.names())],
                          reads=e)

        def unused(systems, side, f):
            raise AssertionError("_least_cost built a padded batch of membership tables")

        with pytest.MonkeyPatch.context() as m:
            m.setattr(search_module, "_stacked", unused)
            for f in (1, 2):
                least_cost = screen(qs, 1, f=f)._least_cost
                for side in ("read", "write"):
                    pool = exhaustive_resilient(qs, side, f)
                    expected = {
                        Objective.LATENCY: min((_subquorum_latency(qs, side, q) for q in pool),
                                               default=None),
                        Objective.NETWORK: min(map(len, pool), default=None),
                    }
                    for kind, least in expected.items():
                        if least is None:
                            with pytest.raises(NoResilientQuorum):
                                least_cost(qs, kind, side)
                        else:
                            assert least_cost(qs, kind, side) == float(least)


class TestBlockAscent:
    @pytest.mark.parametrize("f", [0, 1])
    def test_each_row_is_its_bound_alone(self, f):
        # The case-study candidates with an f-resilient quorum (885 at f = 0,
        # 293 at f = 1) in one batch, against each one alone. Their quorum
        # counts differ, so short rows are padded.
        config = load_config(str(Path(__file__).parent / "data" / "case_study_search.json"))
        w = config.workload
        systems = [QuorumSystem(config.nodes, reads=e)
                   for e in enumerate_candidates([n.name for n in config.nodes])]
        systems = [qs for qs in systems if qs.fault_tolerance() >= f]
        assert len(systems) == {0: 885, 1: 293}[f]
        assert len({qs.members("read", f).shape[1] for qs in systems}) > 1
        loads = screen(systems[0], w, "load", f)
        batch = loads.ascend(systems, loads.costs(systems), None)
        for qs, row in zip(systems, batch):
            alone = loads.ascend([qs], loads.costs([qs]), None)[0]
            assert np.allclose(row, alone, rtol=1e-12, atol=0), qs.reads
        # Decisions against a capacity that about half the rows reach, and
        # against a capacity limit, with the batch's bounds and alone.
        capacity = statistics.median(float(loads.prob @ (1 / row)) for row in batch)
        for objective, value, limits in (
            ("load", capacity, Constraints()),
            ("network", None, Constraints(capacity_limit=capacity)),
        ):
            query = screen(systems[0], w, objective, f, limits)
            decided = list(~query.out_of_reach(value, query.costs(systems), batch))
            assert decided == [can_beat(qs, w, objective, value, f, limits) for qs in systems]
            assert 0 < sum(decided) < len(decided)


class TestCapacityCurve:
    def test_reoptimized_point_matches_single_point_solve(self, grid):
        rows = capacity_curve(grid, [1])
        sigma = find_strategy(grid, 1)
        assert abs(rows[0][1] - sigma.capacity(1)) <= Fraction(1, 10**6)

    def test_fixed_strategy_never_beats_per_point_optimum(self, skew_workload):
        qs = QuorumSystem(hetero_nodes(), reads="a*c + b*d")
        sigma = find_strategy(qs, skew_workload)
        grid_points = [Fraction(i, 10) for i in range(11)]
        for fr, cap_opt in capacity_curve(qs, grid_points):
            assert cap_opt >= sigma.capacity(fr) - Fraction(1, 10**6)

    def test_every_capacity_positive(self, grid):
        rows = capacity_curve(grid, [Fraction(i, 4) for i in range(5)])
        assert all(cap > 0 for _, cap in rows)

    @given(expressions(), st.integers(2, 20), st.data())
    @settings(max_examples=30, deadline=None)
    def test_warm_curve_matches_cold_solves(self, e, points, data):
        caps = st.sampled_from([50, 100, 200, 1000])
        universe = [Node(x, read_cap=data.draw(caps), write_cap=data.draw(caps))
                    for x in sorted(e.names())]
        qs = QuorumSystem(universe, reads=e)
        grid = [Fraction(i, points - 1) for i in range(points)]
        for fr, cap in capacity_curve(qs, grid):
            cold = find_strategy(qs, fr).capacity(fr)
            assert abs(cap - cold) <= cold * Fraction(1, 10**9)

    @pytest.mark.parametrize("fractions,message", [
        ("01", "^fractions are a collection of read fractions, got the text '01'$"),
        (5, "^fractions are a collection of read fractions, got 5$"),
    ], ids=["str", "int"])
    def test_fractions_that_are_text_or_no_collection_are_refused(self, maj3, fractions,
                                                                  message):
        # "01" used to give a curve at 0 and 1, read from its characters; 5
        # ended in TypeError
        with pytest.raises(DomainError, match=message):
            capacity_curve(maj3, fractions)

    def test_each_point_starts_from_the_previous_basis(self, monkeypatch):
        qs = QuorumSystem(plain("abcdefg"), reads="choose(4, [a, b, c, d, e, f, g])")
        seen, real = [], lp.linprog

        def record(c, **kwargs):
            result = real(c, **kwargs)
            seen.append((kwargs["basis"], result))
            return result

        monkeypatch.setattr(lp, "linprog", record)
        capacity_curve(qs, [Fraction(i, 10) for i in range(11)])
        assert seen[0][0] is None
        assert [basis for basis, _ in seen[1:]] == [result.basis for _, result in seen[:-1]]


class TestThroughputBreakdown:
    def test_uniform_majority_splits_evenly(self, maj3):
        rows = throughput_breakdown(uniform_strategy(maj3), 1)
        read_rows = [r for r in rows if r[1] == "read"]
        # capacity 3/2, each quorum picked 1/3 of the time
        assert all(thr == Fraction(1, 2) for _, _, _, thr in read_rows)
        assert len(read_rows) == 6  # three 2-node quorums

    def test_single_quorum_carries_everything(self, grid):
        sigma = Strategy(grid, [({"a", "b"}, 1)], [({"a", "c"}, 1)])
        rows = throughput_breakdown(sigma, 1)
        rate = 1 / sigma.load(1)
        for name, side, quorum, thr in rows:
            assert thr == (rate if side == "read" else 0)

    def test_node_totals_respect_saturation(self, skew_workload):
        qs = QuorumSystem(hetero_nodes(), reads="a*c + b*d")
        sigma = find_strategy(qs, skew_workload)
        rows = throughput_breakdown(sigma, skew_workload)
        for node in qs.universe:
            usage = sum(
                thr / (node.read_cap if side == "read" else node.write_cap)
                for name, side, _, thr in rows
                if name == node.name
            )
            assert usage <= 1 + Fraction(1, 10**9)


def node_usage(qs: QuorumSystem, rows) -> dict[str, Fraction]:
    """Each node's breakdown throughput over its capacity, summed over its
    rows: its utilization at the breakdown's rate."""
    usage = {}
    for name, side, _, thr in rows:
        node = qs.node(name)
        cap = node.read_cap if side == "read" else node.write_cap
        usage[name] = usage.get(name, 0) + thr / cap
    return usage


class TestBreakdownRate:
    """The breakdown runs at 1/load, at which no node passes its capacity at
    the workload's mean read fraction: a node's load is linear in the
    fraction, and the busiest node's load is convex in it."""

    def test_no_node_passes_its_capacity_on_the_case_study(self):
        config = load_config(str(Path(__file__).parent / "data" / "case_study.json"))
        qs = config.quorum_system()
        rows = throughput_breakdown(find_strategy(qs, config.workload), config.workload)
        usage = node_usage(qs, rows)
        assert len(usage) == 5
        assert max(usage.values()) <= 1

    @given(expressions(), st.dictionaries(st.integers(0, 10), st.integers(1, 5), min_size=2,
                                          max_size=4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_node_passes_its_capacity_on_multi_point_workloads(self, e, weights, data):
        caps = st.sampled_from([50, 100, 200, 1000])
        universe = [Node(x, read_cap=data.draw(caps), write_cap=data.draw(caps))
                    for x in sorted(e.names())]
        qs = QuorumSystem(universe, reads=e)
        w = Workload.from_weights({Fraction(k, 10): v for k, v in weights.items()})
        rows = throughput_breakdown(find_strategy(qs, w), w)
        assert max(node_usage(qs, rows).values()) <= 1

    def test_the_rate_is_not_sustained_at_every_point(self):
        # Every write quorum holds c, whose write capacity is 1, so at read
        # fraction 0 no rate above 1 is sustained; the load-optimal strategy
        # reads a*b mostly, and 1/load is 11/6.
        qs = QuorumSystem([Node("a", read_cap=100, write_cap=10),
                           Node("b", read_cap=10, write_cap=100), Node("c")], reads="a*b + c")
        w = Workload({0: Fraction(1, 2), 1: Fraction(1, 2)})
        sigma = Strategy(qs, [({"a", "b"}, Fraction(10, 11)), ({"c"}, Fraction(1, 11))],
                         [({"a", "c"}, 1)])
        assert within(find_strategy(qs, w).load(w), sigma.load(w), Fraction(1, 10**9))
        assert 1 / sigma.load(w) == Fraction(11, 6)
        assert 1 / max(sigma.load_at(fr) for fr, _ in w.items()) == 1
        rows = throughput_breakdown(sigma, w)
        # each quorum's throughput is counted once per member
        assert sum(thr / len(q) for _, _, q, thr in rows) == Fraction(11, 6)
        assert node_usage(qs, rows)["c"] == 1
