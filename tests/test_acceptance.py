"""Acceptance suite.

Each test covers one acceptance criterion, prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them all), and
asserts at the criterion's stated tolerance: 1e-6 for exact values, 1%
relative for rounded reported values.
"""

import contextlib
import io
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quorumopt.cli import main as cli_main
from quorumopt.errors import NoResilientQuorum
from quorumopt.expr import Var, choose, minimal_sets, parse
from quorumopt.model import Node, QuorumSystem, Workload
from quorumopt.optimize import (
    Constraints,
    Strategy,
    capacity_curve,
    find_strategy,
    uniform_strategy,
)
from quorumopt.oracle import (
    exhaustive_fault_tolerance,
    exhaustive_resilient,
    strategy_metric_recompute,
    truth_table,
)
from quorumopt.search import SearchOptions, search

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

EXACT = Fraction(1, 10**6)
ROUNDED = Fraction(1, 100)


def criterion(number: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {number:02d} {status}: {description}")
    assert not failures, f"criterion {number:02d}: " + "; ".join(failures)


def off(value, target, tolerance, label: str, failures: list[str], relative=True) -> None:
    value, target = Fraction(value), Fraction(target)
    bound = tolerance * abs(target) if relative else tolerance
    if abs(value - target) > bound:
        failures.append(f"{label}: got {float(value)}, want {float(target)}")


def case_study_nodes() -> list[Node]:
    return [
        Node("a", read_cap=4000, write_cap=2000, latency=1),
        Node("b", read_cap=2000, write_cap=1000, latency=1),
        Node("c", read_cap=4000, write_cap=2000, latency=3),
        Node("d", read_cap=2000, write_cap=1000, latency=4),
        Node("e", read_cap=4000, write_cap=2000, latency=5),
    ]


def case_study_workload() -> Workload:
    return Workload(
        {
            "0.9": "10/470", "0.8": "20/470", "0.7": "100/470",
            "0.6": "100/470", "0.5": "100/470", "0.4": "60/470",
            "0.3": "30/470", "0.2": "30/470", "0.1": "20/470",
        }
    )


def hetero_grid_nodes(latencies=(1, 1, 1, 1)) -> list[Node]:
    la, lb, lc, ld = latencies
    return [
        Node("a", read_cap=200, write_cap=100, latency=la),
        Node("b", read_cap=200, write_cap=100, latency=lb),
        Node("c", read_cap=100, write_cap=50, latency=lc),
        Node("d", read_cap=100, write_cap=50, latency=ld),
    ]


def random_expression(rng: random.Random, names, depth=3):
    if depth == 0 or rng.random() < 0.34:
        return Var(rng.choice(names))
    n = rng.randint(2, 4)
    children = [random_expression(rng, names, depth - 1) for _ in range(n)]
    return choose(rng.randint(1, n), children)


def random_duplicate_free(rng: random.Random, names):
    pool = list(names[: rng.randint(1, len(names))])

    def build(block):
        if len(block) == 1:
            return Var(block[0])
        items = list(block)
        rng.shuffle(items)
        m = rng.randint(2, len(block))
        cuts = sorted(rng.sample(range(1, len(block)), m - 1))
        pieces = [items[i:j] for i, j in zip([0] + cuts, cuts + [len(block)])]
        return build_choose([build(p) for p in pieces])

    def build_choose(children):
        return choose(rng.randint(1, len(children)), children)

    return build(pool)


def test_criterion_01_three_node_majority_exact_metrics():
    failures: list[str] = []
    qs = QuorumSystem([Node(x) for x in "abc"], reads="a*b + b*c + a*c")
    if qs.fault_tolerance() != 1:
        failures.append(f"fault tolerance {qs.fault_tolerance()} != 1")
    sigma = find_strategy(qs, 1)
    off(sigma.load(1), Fraction(2, 3), EXACT, "load", failures)
    off(sigma.capacity(1), Fraction(3, 2), EXACT, "capacity", failures)
    criterion(1, "3-node majority: fault tolerance 1, load 2/3, capacity 3/2", failures)


def test_criterion_02_two_by_three_grid_exact_capacities():
    failures: list[str] = []
    qs = QuorumSystem([Node(x) for x in "abcdef"], reads="a*b*c + d*e*f")
    for label, got, want in [
        ("read ft", qs.fault_tolerance("read"), 1),
        ("write ft", qs.fault_tolerance("write"), 2),
        ("ft", qs.fault_tolerance(), 1),
    ]:
        if got != want:
            failures.append(f"{label} {got} != {want}")
    for fr, want in [(1, 2), (0, 3), (Fraction(1, 2), Fraction(12, 5))]:
        off(find_strategy(qs, fr).capacity(fr), want, EXACT, f"capacity@{fr}", failures)
    criterion(2, "2x3 grid: fault tolerances 1/2/1, capacities 2, 3, 12/5", failures)


def test_criterion_03_heterogeneous_grid_capacities():
    failures: list[str] = []
    qs = QuorumSystem(hetero_grid_nodes(), reads="a*b + c*d")
    for fr, want in [(1, 300), (Fraction(1, 2), 200), (0, 100)]:
        off(find_strategy(qs, fr).capacity(fr), want, EXACT, f"capacity@{fr}", failures)
    criterion(3, "heterogeneous 2x2 grid: capacities 300 / 200 / 100", failures)


def test_criterion_04_workload_distribution_capacity():
    failures: list[str] = []
    qs = QuorumSystem(hetero_grid_nodes(), reads="a*c + b*d")
    w = Workload({"0.00": "10/18", "0.25": "4/18", "0.50": "2/18",
                  "0.75": "1/18", "1.00": "1/18"})
    off(find_strategy(qs, w).capacity(w), 159, ROUNDED, "capacity", failures)
    criterion(4, "write-skewed distribution: capacity 159 within 1%", failures)


def test_criterion_05_resilient_capacities():
    failures: list[str] = []
    for reads, f, want in [
        ("a*b + c*d", 0, 300),
        ("a*b + c*d", 1, 100),
        ("choose(2, [a, b, c, d])", 0, 300),
        ("choose(2, [a, b, c, d])", 1, 200),
    ]:
        qs = QuorumSystem(hetero_grid_nodes(), reads=reads)
        off(
            find_strategy(qs, 1, f=f).capacity(1),
            want,
            EXACT,
            f"{reads} f={f}",
            failures,
        )
    criterion(5, "resilience trade-off: 300/100 for the grid, 300/200 for 2-of-4", failures)


def test_criterion_06_case_study_capacities():
    failures: list[str] = []
    nodes, w = case_study_nodes(), case_study_workload()
    for reads, want in [
        ("majority([a, b, c, d, e])", 3667),
        ("a*b + c*d*e", 4200),
        ("a*b + a*c*e + d*e + d*c*b", 4125),
    ]:
        qs = QuorumSystem(nodes, reads=reads)
        off(find_strategy(qs, w).capacity(w), want, ROUNDED, reads, failures)
    criterion(6, "5-node case: capacities 3,667 / 4,200 / 4,125 within 1%", failures)


def test_criterion_07_uniform_majority_baseline():
    failures: list[str] = []
    qs = QuorumSystem(case_study_nodes(), reads="majority([a, b, c, d, e])")
    off(
        uniform_strategy(qs).capacity(case_study_workload()),
        2292,
        ROUNDED,
        "uniform capacity",
        failures,
    )
    criterion(7, "uniform 5-node majority baseline: capacity 2,292 within 1%", failures)


def test_criterion_08_load_search_beats_hand_construction():
    failures: list[str] = []
    nodes, w = case_study_nodes(), case_study_workload()
    qs = QuorumSystem(nodes, reads="(c + b*d)*(a + e)")
    if qs.fault_tolerance() != 1:
        failures.append(f"fault tolerance {qs.fault_tolerance()} != 1")
    off(find_strategy(qs, w).capacity(w), 5005, ROUNDED, "direct capacity", failures)
    result = search(nodes, w, SearchOptions(min_fault_tolerance=1))
    if result.metric_value < Fraction(5005) * Fraction(99, 100):
        failures.append(f"search capacity {float(result.metric_value)} < 5005*0.99")
    criterion(8, "load search: direct (c+bd)(a+e) at 5,005 and search at least as good", failures)


def test_criterion_09_latency_round():
    failures: list[str] = []
    nodes, w = case_study_nodes(), case_study_workload()
    limit = Constraints(capacity_limit=2000)
    for reads, want in [
        ("majority([a, b, c, d, e])", Fraction(324, 100)),
        ("a*b + c*d*e", Fraction(195, 100)),
        ("a*b + a*c*e + d*e + d*c*b", Fraction(243, 100)),
    ]:
        qs = QuorumSystem(nodes, reads=reads)
        sigma = find_strategy(qs, w, "latency", limit)
        off(sigma.latency(w), want, ROUNDED, reads, failures)
    direct = QuorumSystem(nodes, reads="choose(2, [a, b, c*d*e])")
    sigma = find_strategy(direct, w, "latency", limit)
    off(sigma.latency(w), Fraction(148, 100), ROUNDED, "direct 2-of-[a,b,cde]", failures)
    result = search(nodes, w, SearchOptions(objective="latency", constraints=limit))
    if result.metric_value > Fraction(149, 100):
        failures.append(f"latency search {float(result.metric_value)} > 1.49")
    criterion(9, "latency round: 3.24/1.95/2.43, direct 1.48, search at most 1.49 s", failures)


def test_criterion_10_latency_semantics_with_limits():
    failures: list[str] = []
    qs = QuorumSystem(hetero_grid_nodes(latencies=(4, 4, 1, 1)), reads="a*b + c*d")
    sigma = find_strategy(
        qs, 1, "latency", Constraints(capacity_limit=150, network_limit=2)
    )
    off(sigma.latency(1), 2, EXACT, "latency", failures)
    load, _, network = strategy_metric_recompute(sigma, 1)
    if 1 / load < 150 - EXACT:
        failures.append(f"capacity {float(1 / load)} < 150")
    if network > 2 + EXACT:
        failures.append(f"network {float(network)} > 2")
    criterion(10, "constrained latency optimum is 2.0 s with capacity 150, network 2", failures)


def test_criterion_11_property_suites():
    failures: list[str] = []
    rng = random.Random(20240809)
    names6 = list("abcdef")

    # dual involution and minimal-transversal duality on 200 random expressions
    for i in range(200):
        e = random_expression(rng, names6)
        universe = sorted(e.names())
        if truth_table(e.dual().dual(), universe) != truth_table(e, universe):
            failures.append(f"dual involution broke on {e}")
            break
        quorums = minimal_sets(e)
        for t in minimal_sets(e.dual()):
            if not all(t & q for q in quorums):
                failures.append(f"non-transversal dual set {set(t)} for {e}")
                break
            if not all(any(not ((t - {x}) & q) for q in quorums) for x in t):
                failures.append(f"non-minimal dual set {set(t)} for {e}")
                break

    # fault-tolerance fast path equals the exhaustive oracle on 200 systems
    for i in range(200):
        e = random_duplicate_free(rng, names6)
        qs = QuorumSystem([Node(x) for x in sorted(e.names())], reads=e)
        for side in ("read", "write"):
            if qs.fault_tolerance(side) != exhaustive_fault_tolerance(qs, side):
                failures.append(f"fault tolerance mismatch on {e} ({side})")

    # resilient-quorum fast path equals the unpruned oracle
    for i in range(60):
        e = random_duplicate_free(rng, list("abcde"))
        qs = QuorumSystem([Node(x) for x in sorted(e.names())], reads=e)
        for side, f in itertools.product(("read", "write"), (0, 1, 2)):
            try:
                fast = qs.resilient_quorums(side, f)
            except NoResilientQuorum:
                fast = []
            if fast != exhaustive_resilient(qs, side, f):
                failures.append(f"resilient mismatch on {e} ({side}, f={f})")

    # the LP optimum is unbeaten by 1,000 random feasible strategies per system
    nrng = np.random.default_rng(20240809)
    w = Workload({"0.00": "10/18", "0.25": "4/18", "0.50": "2/18",
                  "0.75": "1/18", "1.00": "1/18"})
    for reads in ("a*b + b*c + a*c", "a*b + c*d", "a*c + b*d"):
        universe = hetero_grid_nodes() if "d" in reads else [Node(x) for x in "abc"]
        qs = QuorumSystem(universe, reads=reads)
        best = find_strategy(qs, w).load(w)
        reads_pool, writes_pool = qs.resilient_quorums("read"), qs.resilient_quorums("write")
        for _ in range(1000):
            sigma = Strategy(
                qs,
                list(zip(reads_pool, nrng.dirichlet(np.ones(len(reads_pool))))),
                list(zip(writes_pool, nrng.dirichlet(np.ones(len(writes_pool))))),
            )
            if sigma.load(w) < best - EXACT:
                failures.append(f"random strategy beat the LP on {reads}")
                break

    # capacity scales linearly with node capacities
    scale = Fraction(17, 5)
    base = QuorumSystem(hetero_grid_nodes(), reads="a*c + b*d")
    scaled = QuorumSystem(
        [
            Node(n.name, read_cap=n.read_cap * scale, write_cap=n.write_cap * scale)
            for n in hetero_grid_nodes()
        ],
        reads="a*c + b*d",
    )
    cap = find_strategy(base, w).capacity(w)
    cap_scaled = find_strategy(scaled, w).capacity(w)
    off(cap_scaled, cap * scale, EXACT, "scaling", failures)

    # a per-point optimal strategy dominates the distribution-optimal one
    qs = QuorumSystem(hetero_grid_nodes(), reads="a*c + b*d")
    sigma = find_strategy(qs, w)
    grid_points = [Fraction(i, 10) for i in range(11)]
    for fr, optimal in capacity_curve(qs, grid_points):
        if optimal < sigma.capacity(fr) - EXACT:
            failures.append(f"fixed strategy beat per-point optimum at {fr}")

    criterion(11, "property suites: duality, oracle agreement, LP optimality, scaling, curve domination", failures)


def test_criterion_12_cli_golden_and_exit_codes():
    failures: list[str] = []
    golden_cases = [
        (["analyze", "majority3.json"], "analyze_majority3.json"),
        (["analyze", "hetero_grid.json"], "analyze_hetero_grid.json"),
        (["analyze", "case_study.json"], "analyze_case_study.json"),
        (["strategy", "majority3.json"], "strategy_majority3.json"),
        (
            ["strategy", "hetero_grid.json", "--optimize", "latency",
             "--capacity-limit", "150", "--network-limit", "2"],
            "strategy_hetero_grid_latency.json",
        ),
        (
            ["strategy", "case_study.json", "--optimize", "latency",
             "--capacity-limit", "2000"],
            "strategy_case_study_latency.json",
        ),
        (
            ["search", "case_study_search.json", "--fault-tolerance", "1"],
            "search_case_study.json",
        ),
        (["curve", "hetero_grid.json", "--points", "10"], "curve_hetero_grid.csv"),
        (["breakdown", "case_study.json", "--uniform"], "breakdown_case_study_uniform.csv"),
        (["breakdown", "case_study.json"], "breakdown_case_study_optimal.csv"),
    ]
    for argv, golden in golden_cases:
        argv = [str(DATA / a) if a.endswith(".json") and "golden" not in a else a for a in argv]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(argv)
        if code != 0:
            failures.append(f"{golden}: exit {code}")
        elif buffer.getvalue() != (GOLDEN / golden).read_text():
            failures.append(f"{golden}: output drifted")

    for argv, want in [
        (["analyze", str(DATA / "bad_empty_nodes.json")], 2),
        (["strategy", str(DATA / "bad_infeasible.json"), "--capacity-limit", "10000"], 3),
        (["search", str(DATA / "search_exhausted.json"), "--fault-tolerance", "5"], 4),
    ]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
        if code != want:
            failures.append(f"{argv}: exit {code} != {want}")
    criterion(12, "CLI outputs byte-stable; exit codes 2/3/4 on the failure configs", failures)
