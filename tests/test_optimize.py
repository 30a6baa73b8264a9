"""Strategy optimization: the LP, metrics, and their invariants."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import duplicate_free_expressions, expressions
from quorumopt import lp
from quorumopt.errors import DomainError, Infeasible, NoResilientQuorum, SolverFailure
from quorumopt.expr import min_quorum_latency
from quorumopt.model import Node, QuorumSystem, Workload
from quorumopt.optimize import (
    Constraints,
    Objective,
    Strategy,
    can_beat,
    capacity_curve,
    find_strategy,
    quorum_latency,
    throughput_breakdown,
    uniform_strategy,
)
from quorumopt.oracle import (
    _subquorum_latency,
    exhaustive_minimal_sets,
    strategy_metric_recompute,
)
from quorumopt.search import enumerate_candidates


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
            for q in qs.minimal_quorums(side):
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
        assert [p for _, p in sigma.read_dist] == [Fraction(1, 3)] * 3

    def test_grid_rows(self):
        qs = QuorumSystem(plain("abcdef"), reads="a*b*c + d*e*f")
        sigma = uniform_strategy(qs)
        assert [p for _, p in sigma.read_dist] == [Fraction(1, 2)] * 2

    def test_five_node_majority_has_ten_quorums(self):
        qs = QuorumSystem(plain("abcde"), reads="majority([a, b, c, d, e])")
        sigma = uniform_strategy(qs)
        assert [p for _, p in sigma.read_dist] == [Fraction(1, 10)] * 10

    def test_exact_metrics(self, maj3):
        sigma = uniform_strategy(maj3)
        assert sigma.load(1) == Fraction(2, 3)
        assert sigma.capacity(1) == Fraction(3, 2)


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
        assert sigma.read_dist == [(frozenset("a"), Fraction(1))]

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
        assert sigma.read_dist == [(frozenset("ab"), Fraction(1))]


class TestSolverStatus:
    @pytest.mark.parametrize("status,error", [(2, Infeasible), (4, SolverFailure)])
    def test_status_maps_to_error(self, monkeypatch, status, error):
        result = SimpleNamespace(status=status, message="stub", x=None, nit=0)
        monkeypatch.setattr(lp, "linprog", lambda *a, **k: result)
        with pytest.raises(error):
            lp.solve([1.0], None, None, [[1.0]], [1.0], [(0.0, 1.0)])


class TestNodeLoad:
    def test_uniform_majority_by_symmetry(self, maj3):
        sigma = uniform_strategy(maj3)
        for x in "abc":
            assert sigma.node_load(x, 1) == Fraction(2, 3)

    def test_node_outside_all_quorums(self):
        qs = QuorumSystem(plain("abcd"), reads="a*b + b*c + a*c")
        sigma = uniform_strategy(qs)
        assert sigma.node_load("d", 1) == 0

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

    def test_strategy_validation(self, maj3):
        with pytest.raises(DomainError):
            Strategy(maj3, [({"a", "b"}, Fraction(1, 2))], [({"a", "b"}, 1)])
        with pytest.raises(DomainError):
            Strategy(maj3, [({"a"}, 1)], [({"a", "b"}, 1)])

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

    def test_degenerate_workload_equals_scalar(self, grid):
        sigma = find_strategy(grid, Workload({Fraction(3, 10): 1}))
        fr = Fraction(3, 10)
        assert sigma.load(Workload({fr: 1})) == sigma.load(fr)
        assert sigma.capacity(Workload({fr: 1})) == sigma.capacity(fr)


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
            reads = qs.read_minimal
            writes = qs.write_minimal
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
        replayed = Strategy(scaled, sigma.read_dist, sigma.write_dist)
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


class TestCapacityCurve:
    def test_reoptimized_point_matches_single_point_solve(self, grid):
        rows = capacity_curve(grid, [1])
        sigma = find_strategy(grid, 1)
        assert abs(rows[0][1] - sigma.capacity(1)) <= Fraction(1, 10**6)

    def test_fixed_strategy_never_beats_per_point_optimum(self, skew_workload):
        qs = QuorumSystem(hetero_nodes(), reads="a*c + b*d")
        sigma = find_strategy(qs, skew_workload)
        grid_points = [Fraction(i, 10) for i in range(11)]
        fixed = capacity_curve(sigma, grid_points)
        optimal = capacity_curve(qs, grid_points)
        for (fr1, cap_fixed), (fr2, cap_opt) in zip(fixed, optimal):
            assert fr1 == fr2
            assert cap_opt >= cap_fixed - Fraction(1, 10**6)

    def test_every_capacity_positive(self, grid):
        rows = capacity_curve(grid, [Fraction(i, 4) for i in range(5)])
        assert all(cap > 0 for _, cap in rows)


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
