"""The HiGHS seam in lp.py, checked against scipy.optimize.linprog."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from exprgen import expressions
from quorumopt import lp
from quorumopt.cli import load_config, main
from quorumopt.errors import Infeasible, NoResilientQuorum, SolverFailure
from quorumopt.model import Node, QuorumSystem
from quorumopt.optimize import (
    Constraints,
    Objective,
    capacity_curve,
    find_strategy,
    uniform_strategy,
)

DATA = Path(__file__).parent / "data"
# What lp.linprog asks of HiGHS, in the form scipy's linprog takes.
SCIPY_OPTIONS = {
    "primal_feasibility_tolerance": lp.FEASIBILITY_TOL,
    "dual_feasibility_tolerance": lp.FEASIBILITY_TOL,
}


def record(monkeypatch) -> list:
    """Make lp.linprog record every (c, keyword arguments, result) it sees."""
    seen = []
    direct = lp.linprog

    def spy(c, **kwargs):
        result = direct(c, **kwargs)
        seen.append((c, kwargs, result))
        return result

    monkeypatch.setattr(lp, "linprog", spy)
    return seen


def patch_highs(monkeypatch, make):
    """Make ``make()`` the HiGHS instance of the solves of this test. The kept
    instance is set aside first, so that the next solve makes one with
    ``make``, and it is back in place when the test ends."""
    monkeypatch.setattr(lp, "_kept", None)
    monkeypatch.setattr(lp, "_Highs", make)


def assert_agrees_with_scipy(seen, atol=0.0):
    """Each recorded result of a cold solve has scipy's status and iteration
    count and, when optimal, an x within ``atol`` of scipy's (bit-identical
    at 0). A warm solve, one handed a basis, takes another simplex path than
    scipy's cold one: it has scipy's status and, when optimal, its objective
    within 1e-9 relative."""
    for c, kwargs, got in seen:
        kwargs = dict(kwargs)
        basis = kwargs.pop("basis", None)
        want = scipy_linprog(c, **kwargs, method="highs", options=SCIPY_OPTIONS)
        if basis is not None:
            assert got.status == want.status
            if want.x is not None:
                assert c @ got.x == pytest.approx(want.fun, rel=1e-9, abs=0)
            continue
        assert (got.status, got.nit) == (want.status, want.nit)
        assert (got.x is None) == (want.x is None)
        if want.x is not None:
            np.testing.assert_allclose(got.x, want.x, rtol=0, atol=atol)


def fixture_commands(path):
    """CLI commands that solve the LPs of one fixture: every objective,
    a tight capacity limit and the curve for a system; a search otherwise."""
    config = json.loads(path.read_text())
    if "reads" not in config and "writes" not in config:
        return [["search", path, "--fault-tolerance", "1"]]
    return [
        ["analyze", path],
        ["strategy", path, "--optimize", "latency"],
        ["strategy", path, "--optimize", "network", "--f", "1"],
        ["strategy", path, "--capacity-limit", "10000"],
        ["curve", path, "--points", "4"],
        ["breakdown", path],
    ]


class TestAgainstScipy:
    @pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
    def test_fixture_lps_are_bit_identical(self, monkeypatch, capsys, path):
        seen = record(monkeypatch)
        for argv in fixture_commands(path):
            main([str(a) for a in argv])
        capsys.readouterr()
        assert_agrees_with_scipy(seen)

    @given(expressions(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_find_strategy_lps_agree(self, e, data):
        names = sorted(e.names())
        assume(len(names) >= 3)
        caps = st.sampled_from([50, 100, 200, 1000])
        universe = [
            Node(
                x,
                read_cap=data.draw(caps),
                write_cap=data.draw(caps),
                latency=data.draw(st.sampled_from([1, 2, 5])),
            )
            for x in names
        ]
        qs = QuorumSystem(universe, reads=e)
        workload = data.draw(st.sampled_from([1, Fraction(1, 2), {"0.25": "1/2", "0.9": "1/2"}]))
        uniform = uniform_strategy(qs)
        within_reach = Constraints(
            capacity_limit=uniform.capacity(workload),
            latency_limit=uniform.latency(workload),
            network_limit=uniform.network_load(workload),
        )
        out_of_reach = Constraints(capacity_limit=1e9, latency_limit=0.5, network_limit=0.5)
        with pytest.MonkeyPatch.context() as mp:
            seen = record(mp)
            for objective in Objective:
                for f in (0, 1):
                    for limits in (None, within_reach, out_of_reach):
                        try:
                            find_strategy(qs, workload, objective, limits, f=f)
                        except (Infeasible, NoResilientQuorum):
                            pass
        assert seen
        assert_agrees_with_scipy(seen, atol=1e-12)


class _Perturbed:
    """A HiGHS instance whose optimal solution has 1e-3 added to x[0]."""

    def __init__(self, highs):
        self._highs = highs

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getSolution(self):
        solution = self._highs.getSolution()
        solution.col_value = [solution.col_value[0] + 1e-3] + list(solution.col_value[1:])
        return solution


class TestPostSolveCheck:
    @pytest.fixture
    def perturbed(self, monkeypatch):
        binding = lp._Highs
        patch_highs(monkeypatch, lambda: _Perturbed(binding()))

    def test_row_missed_by_1e_3_is_a_solver_failure(self, perturbed):
        # x[0] and x[1] must sum to 1; the perturbed optimum sums to 1.001
        result = lp.linprog(
            np.array([1.0, 1.0]),
            A_ub=np.array([[1.0, -1.0]]),
            b_ub=np.array([0.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
        )
        assert result.status == 4
        assert "misses a bound or row" in result.message
        maj3 = QuorumSystem([Node(x) for x in "abc"], reads="choose(2, [a, b, c])")
        with pytest.raises(SolverFailure, match="^LP solve failed: .*misses a bound or row"):
            find_strategy(maj3, 1)

    def test_cli_exits_3_with_one_line(self, perturbed, capsys):
        code = main(["strategy", str(DATA / "majority3.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("solver failure: ")
        assert captured.err.count("\n") == 1


class _FailsWarm:
    """A HiGHS instance that, once handed a basis, fails its run of that
    model: it reports model status Unknown, or an optimal x with 1e-3 added
    to x[0]."""

    def __init__(self, highs, failure):
        self._highs, self._failure, self._warm = highs, failure, False

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, model):
        self._warm = False
        return self._highs.passModel(model)

    def setBasis(self, basis):
        self._warm = True
        return self._highs.setBasis(basis)

    def getModelStatus(self):
        if self._warm and self._failure == "status":
            return lp.HighsModelStatus.kUnknown
        return self._highs.getModelStatus()

    def getSolution(self):
        solution = self._highs.getSolution()
        if self._warm and self._failure == "x":
            solution.col_value = [solution.col_value[0] + 1e-3] + list(solution.col_value[1:])
        return solution


# minimize x0 + 2*x1 subject to x0 - x1 <= 0, x0 + x1 = 1, both in [0, 1]
SMALL = dict(A_ub=np.array([[1.0, -1.0]]), b_ub=np.array([0.0]), A_eq=np.array([[1.0, 1.0]]),
             b_eq=np.array([1.0]), bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))
SMALL_COST = np.array([1.0, 2.0])


class TestWarmStart:
    @pytest.fixture(params=["status", "x"])
    def fails_warm(self, request, monkeypatch):
        binding = lp._Highs
        patch_highs(monkeypatch, lambda: _FailsWarm(binding(), request.param))

    def test_a_warm_solve_from_the_optimal_basis_takes_no_iteration(self):
        cold = lp.linprog(SMALL_COST, **SMALL)
        warm = lp.linprog(SMALL_COST, **SMALL, basis=cold.basis)
        assert (warm.status, warm.nit) == (0, 0)
        assert warm.x.tolist() == cold.x.tolist() == [0.5, 0.5]

    def test_a_basis_of_another_shape_gives_the_cold_solve(self):
        other = lp.linprog(np.array([1.0]), A_ub=np.zeros((0, 1)), b_ub=np.zeros(0),
                           A_eq=np.array([[1.0]]), b_eq=np.array([1.0]),
                           bounds=np.array([[0.0, 1.0]]))
        cold = lp.linprog(SMALL_COST, **SMALL)
        warm = lp.linprog(SMALL_COST, **SMALL, basis=other.basis)
        assert (warm.status, warm.nit, warm.x.tolist()) == (cold.status, cold.nit, cold.x.tolist())

    def test_a_failed_warm_solve_is_solved_again_cold(self, fails_warm):
        cold = lp.linprog(SMALL_COST, **SMALL)
        warm = lp.linprog(SMALL_COST, **SMALL, basis=cold.basis)
        # the warm run, from the optimal basis, took no iteration
        assert (warm.status, warm.nit, warm.x.tolist()) == (0, cold.nit, cold.x.tolist())

    def test_a_curve_whose_warm_solves_fail_gives_the_cold_answer(self, fails_warm,
                                                                   monkeypatch):
        qs = QuorumSystem([Node(x, read_cap=c, write_cap=c // 2) for x, c in
                           zip("abcd", (200, 200, 100, 100))], reads="choose(2, [a, b, c, d])")
        grid = [Fraction(i, 8) for i in range(9)]
        seen = record(monkeypatch)
        rows = capacity_curve(qs, grid)
        assert sum(kwargs["basis"] is not None for _, kwargs, _ in seen) == len(grid) - 1
        assert rows == [(fr, find_strategy(qs, fr).capacity(fr)) for fr in grid]


class _OutOfMemory:
    """A HiGHS instance whose ``failing`` method raises MemoryError, as the
    binding does when HiGHS cannot allocate; no memory is taken."""

    def __init__(self, highs, failing):
        self._highs, self._failing = highs, failing

    def __getattr__(self, name):
        if name == self._failing:
            def fail(*args):
                raise MemoryError
            return fail
        return getattr(self._highs, name)


class TestOutOfMemory:
    @pytest.fixture(params=["passModel", "run"])
    def out_of_memory(self, request, monkeypatch):
        """The first instance runs out of memory; those made after it solve."""
        binding = lp._Highs
        made = []

        def make():
            made.append(binding() if made else _OutOfMemory(binding(), request.param))
            return made[-1]

        patch_highs(monkeypatch, make)
        return made

    def test_is_a_solver_failure_and_the_next_solve_succeeds(self, out_of_memory):
        failed = lp.linprog(SMALL_COST, **SMALL)
        assert (failed.status, failed.x, failed.nit, failed.basis) == (4, None, 0, None)
        assert failed.message == ("HiGHS ran out of memory on a model of 2 rows, 2 columns "
                                  "and 4 nonzeros")
        assert lp._kept is None  # the instance that failed is dropped
        solved = lp.linprog(SMALL_COST, **SMALL)
        assert (solved.status, solved.x.tolist()) == (0, [0.5, 0.5])
        assert len(out_of_memory) == 2

    def test_find_strategy_raises_solver_failure(self, out_of_memory):
        maj3 = QuorumSystem([Node(x) for x in "abc"], reads="choose(2, [a, b, c])")
        with pytest.raises(SolverFailure, match="^LP solve failed: HiGHS ran out of memory "
                                                "on a model of 5 rows, 7 columns and 15 nonzeros$"):
            find_strategy(maj3, 1)
        assert abs(find_strategy(maj3, 1).load(1) - Fraction(2, 3)) < Fraction(1, 10**9)

    def test_cli_exits_3_with_one_line(self, out_of_memory, capsys):
        code = main(["strategy", str(DATA / "majority3.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("solver failure: LP solve failed: HiGHS ran out of memory")
        assert captured.err.count("\n") == 1
        assert main(["strategy", str(DATA / "majority3.json")]) == 0


class TestInfiniteBound:
    def test_inf_upper_bound_reaches_highs_as_unbounded(self, monkeypatch):
        models = []
        binding = lp._Highs

        class Recording:
            def __init__(self):
                self._highs = binding()

            def __getattr__(self, name):
                return getattr(self._highs, name)

            def passModel(self, model):
                models.append(model)
                return self._highs.passModel(model)

        patch_highs(monkeypatch, Recording)
        # minimize L subject to L >= 1e15: L is free above 0
        result = lp.linprog(
            np.array([1.0]),
            A_ub=np.array([[-1.0]]),
            b_ub=np.array([-1e15]),
            A_eq=np.zeros((0, 1)),
            b_eq=np.zeros(0),
            bounds=np.array([[0.0, np.inf]]),
        )
        assert result.status == 0
        assert result.x.tolist() == [1e15]
        assert models[0].col_upper_ == [lp.kHighsInf]
        assert models[0].col_lower_ == [0.0]



def test_a_refused_model_is_a_solver_failure():
    # HiGHS refuses a coefficient of magnitude 1e15 or more when the model is
    # passed; scipy reports that as infeasible (status 2), lp as a failure
    args = dict(A_ub=np.array([[1e15]]), b_ub=np.array([1.0]), A_eq=np.zeros((0, 1)),
                b_eq=np.zeros(0), bounds=np.array([[0.0, 1.0]]))
    result = lp.linprog(np.array([1.0]), **args)
    assert (result.status, result.x, result.nit) == (4, None, 0)
    assert result.message == "HiGHS rejected the model"
    assert scipy_linprog(np.array([1.0]), **args, method="highs").status == 2
    # capacities of 1e-20 give node-load coefficients of 1e20
    tiny = QuorumSystem([Node(x, read_cap="1e-20", write_cap="1e-20") for x in "abc"],
                        reads="a*b + b*c + a*c")
    with pytest.raises(SolverFailure, match="^LP solve failed: HiGHS rejected the model$"):
        find_strategy(tiny, 1)



def test_a_model_that_highs_alters_is_a_solver_failure(tmp_path, capsys):
    # HiGHS drops each coefficient of magnitude 1e-9 or less when the model
    # is passed, and says so only with a warning; solved, the rest of the
    # model answers x = 2 where the asked optimum is x = 1
    args = dict(A_ub=np.array([[1e-10]]), b_ub=np.array([1e-10]), A_eq=np.zeros((0, 1)),
                b_eq=np.zeros(0), bounds=np.array([[0.0, 2.0]]))
    result = lp.linprog(np.array([-1.0]), **args)
    assert (result.status, result.x, result.nit, result.basis) == (4, None, 0, None)
    assert result.message == "HiGHS altered a model whose nonzero magnitudes span 1e-10 to 2"
    assert scipy_linprog(np.array([-1.0]), **args, method="highs").x.tolist() == [2.0]
    # The case study with its largest capacity at 1e9: node-load coefficients
    # of 1e-10 were dropped, and analyze printed 0.75 of the optimal capacity
    doc = json.loads((DATA / "case_study.json").read_text())
    for node in doc["nodes"]:
        node["read_cap"] *= 250_000
        node["write_cap"] *= 250_000
    path = tmp_path / "case_study_1e9.json"
    path.write_text(json.dumps(doc))
    config = load_config(str(path))
    message = "LP solve failed: HiGHS altered a model whose nonzero magnitudes span 1e-10 to 1"
    with pytest.raises(SolverFailure, match=f"^{message}$"):
        find_strategy(config.quorum_system(), config.workload)
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"solver failure: {message}\n")


def _random_lp(rng, rows, cols):
    """minimize c.x subject to a.x <= b with x in [0, 1]: feasible at 0 and
    bounded, with a dense a."""
    a = rng.random((rows, cols))
    return -rng.random(cols), dict(A_ub=a, b_ub=a.sum(axis=1) / 4, A_eq=np.zeros((0, cols)),
                                   b_eq=np.zeros(0), bounds=np.tile([0.0, 1.0], (cols, 1)))


def _statuses(basis):
    return None if basis is None else ([int(s) for s in basis.col_status],
                                       [int(s) for s in basis.row_status])


def test_the_kept_instance_solves_as_a_fresh_one(monkeypatch):
    # the strategy LPs of three fixtures, under limits, and of a curve, whose
    # points after the first start from the previous point's basis
    seen = record(monkeypatch)
    for name in ("majority3", "case_study", "hetero_grid"):
        for argv in fixture_commands(DATA / f"{name}.json")[:5]:
            main([str(a) for a in argv])
    monkeypatch.undo()
    produced = {id(result.basis): i for i, (_, _, result) in enumerate(seen)
                if result.basis is not None}
    fixtures = [(c, {k: v for k, v in kwargs.items() if k != "basis"},
                 produced.get(id(kwargs.get("basis")))) for c, kwargs, _ in seen]
    assert any(start is not None for _, _, start in fixtures)

    one_column = dict(A_ub=np.zeros((0, 1)), b_ub=np.zeros(0), A_eq=np.array([[1.0]]),
                      b_eq=np.array([1.0]), bounds=np.array([[0.0, 1.0]]))
    infeasible = dict(SMALL, b_eq=np.array([3.0]))
    rng = np.random.default_rng(5)
    large_c, large = _random_lp(rng, 60, 100)
    small_c, small = _random_lp(rng, 12, 30)
    # (c, arguments, the index of the LP whose basis starts the solve)
    sequence = [
        (SMALL_COST, SMALL, None),
        (SMALL_COST, infeasible, None),
        (np.array([1.0]), dict(one_column, A_ub=np.array([[1e15]]), b_ub=np.array([1.0])), None),
        (np.array([1.0]), one_column, None),
        (SMALL_COST, SMALL, 3),  # a basis of another shape: the run starts cold
        (SMALL_COST, infeasible, 0),  # the warm run ends infeasible and is run again cold
        (SMALL_COST, SMALL, 0),
    ]
    sequence += [(c, kwargs, None if start is None else start + len(sequence))
                 for c, kwargs, start in fixtures]
    sequence += [(large_c, large, None), (small_c, small, None), (SMALL_COST, SMALL, 0)]
    sequence += [(c, kwargs, None) for c, kwargs, _ in fixtures[:5]]

    kept, fresh, instances = [], [], []
    for c, kwargs, start in sequence:
        kept.append(lp.linprog(c, **kwargs, basis=None if start is None else kept[start].basis))
        instances.append(lp._kept)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "_kept", None)
            fresh.append(lp.linprog(c, **kwargs,
                                    basis=None if start is None else fresh[start].basis))
    assert [r.status for r in kept[:7]] == [0, 2, 4, 0, 0, 2, 0]
    assert (kept[4].nit, kept[6].nit) == (kept[0].nit, 0)
    assert kept[5].nit > kept[1].nit
    for got, want in zip(kept, fresh):
        assert (got.status, got.nit, got.message) == (want.status, want.nit, want.message)
        assert (got.x is None) == (want.x is None)
        if want.x is not None:
            assert got.x.tobytes() == want.x.tobytes()
        assert _statuses(got.basis) == _statuses(want.basis)
    # one instance solves LP after LP, and a model above the bound drops it
    sizes = [np.count_nonzero(kwargs["A_ub"]) + np.count_nonzero(kwargs["A_eq"])
             for _, kwargs, _ in sequence]
    assert [size > lp._KEEP_NNZ for size in sizes].count(True) == 1
    for i, size in enumerate(sizes):
        if size > lp._KEEP_NNZ:
            assert instances[i] is None
        else:
            assert instances[i] is not None
            assert i == 0 or instances[i - 1] is None or instances[i - 1] is instances[i]
