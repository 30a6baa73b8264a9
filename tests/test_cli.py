"""CLI: golden outputs, exit codes, and output/oracle agreement."""

import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import quorumopt.cli
import quorumopt.lp
from quorumopt.cli import build_parser, load_config, main
from quorumopt.expr import NESTING_BOUND, parse
from quorumopt.model import QuorumSystem, Workload
from quorumopt.optimize import Strategy, find_strategy
from quorumopt.oracle import strategy_metric_recompute, truth_table

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


GOLDEN_CASES = [
    (("analyze", DATA / "majority3.json"), "analyze_majority3.json"),
    (("analyze", DATA / "hetero_grid.json"), "analyze_hetero_grid.json"),
    (("analyze", DATA / "case_study.json"), "analyze_case_study.json"),
    (("strategy", DATA / "majority3.json"), "strategy_majority3.json"),
    (
        (
            "strategy",
            DATA / "hetero_grid.json",
            "--optimize",
            "latency",
            "--capacity-limit",
            "150",
            "--network-limit",
            "2",
        ),
        "strategy_hetero_grid_latency.json",
    ),
    (
        (
            "strategy",
            DATA / "case_study.json",
            "--optimize",
            "latency",
            "--capacity-limit",
            "2000",
        ),
        "strategy_case_study_latency.json",
    ),
    (
        ("search", DATA / "case_study_search.json", "--fault-tolerance", "1"),
        "search_case_study.json",
    ),
    (("curve", DATA / "hetero_grid.json", "--points", "10"), "curve_hetero_grid.csv"),
    (
        ("curve", DATA / "hetero_grid.json", "--points", "10", "--fixed"),
        "curve_hetero_grid_fixed.csv",
    ),
    (
        ("breakdown", DATA / "case_study.json", "--uniform"),
        "breakdown_case_study_uniform.csv",
    ),
    (("breakdown", DATA / "case_study.json"), "breakdown_case_study_optimal.csv"),
    (("analyze", DATA / "case_study.json", "--table"), "analyze_case_study_table.txt"),
    (
        (
            "strategy",
            DATA / "case_study.json",
            "--optimize",
            "latency",
            "--capacity-limit",
            "2000",
            "--table",
        ),
        "strategy_case_study_latency_table.txt",
    ),
    (
        ("strategy", DATA / "majority3.json", "--f", "1", "--table"),
        "strategy_majority3_f1_table.txt",
    ),
    (
        ("search", DATA / "case_study_search.json", "--budget", "40", "--table"),
        "search_case_study_budget40_table.txt",
    ),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES, ids=lambda v: str(v))
def test_golden_outputs_are_byte_stable(capsys, argv, golden):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


class TestExitCodes:
    def test_config_error(self, capsys):
        code, _ = run(capsys, "analyze", DATA / "bad_empty_nodes.json")
        assert code == 2

    def test_infeasible(self, capsys):
        code, _ = run(
            capsys,
            "strategy",
            DATA / "bad_infeasible.json",
            "--capacity-limit",
            "10000",
        )
        assert code == 3

    def test_search_exhausted(self, capsys):
        code, _ = run(
            capsys,
            "search",
            DATA / "search_exhausted.json",
            "--fault-tolerance",
            "5",
            "--budget",
            "2000",
        )
        assert code == 4

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "analyze", DATA / "does_not_exist.json")
        assert code == 2

    def test_search_rejects_fixed_expressions(self, capsys):
        code, _ = run(capsys, "search", DATA / "majority3.json")
        assert code == 2

    def test_resilience_beyond_reach_is_infeasible(self, capsys):
        code, _ = run(capsys, "strategy", DATA / "majority3.json", "--f", "3")
        assert code == 3

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_nonpositive_curve_points(self, capsys, points):
        code = main(["curve", str(DATA / "hetero_grid.json"), "--points", points])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --points must be positive\n"

    def test_solver_failure(self, capsys, monkeypatch):
        failed = SimpleNamespace(status=4, message="numerical difficulties", x=None, nit=0)
        monkeypatch.setattr(quorumopt.lp, "linprog", lambda *a, **k: failed)
        code = main(["strategy", str(DATA / "majority3.json")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("solver failure: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command,reads", [("analyze", "a*b + b*c + a*c"),
                                               ("search", None)])
    def test_a_refused_model_is_a_solver_failure(self, tmp_path, capsys, command, reads):
        # capacities of 1e-20 give node-load coefficients of 1e20, past what
        # HiGHS accepts: a solver failure, not an infeasibility
        caps = {"read_cap": "1e-20", "write_cap": "1e-20"}
        doc = {"version": "1", "nodes": [{"name": x, **caps} for x in "abc"],
               "read_fraction": 1}
        if reads is not None:
            doc["reads"] = reads
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "solver failure: LP solve failed: HiGHS rejected the model\n"


class TestSuccessiveCalls:
    """main() builds its parser once per process, so no call may see the
    options or defaults of an earlier one."""

    ARGVS = [
        ["strategy", str(DATA / "majority3.json"), "--f", "1", "--table"],
        ["strategy", str(DATA / "majority3.json")],
        ["search", str(DATA / "case_study_search.json"), "--budget", "5"],
    ]

    def test_each_call_parses_as_a_fresh_parser_would(self):
        for argv in self.ARGVS:
            fresh = build_parser.__wrapped__().parse_args(argv)
            assert vars(build_parser().parse_args(argv)) == vars(fresh)

    def test_options_do_not_leak_into_later_calls(self, capsys):
        table, plain, searched = [run(capsys, *argv) for argv in self.ARGVS]
        assert table[0] == plain[0] == searched[0] == 0
        assert not table[1].startswith("{")
        assert plain[1] == (GOLDEN / "strategy_majority3.json").read_text()
        assert json.loads(searched[1])["candidates_examined"] == 5

    def test_usage_error_after_a_successful_call(self, capsys):
        assert run(capsys, *self.ARGVS[0])[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["strategy", str(DATA / "majority3.json"), "--bogus"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def _config(node='{"name": "a"}', reads='"a*b"', read_fraction="1"):
    """Config text with a free-form first node, read expression and
    read_fraction, so that JSON literals such as NaN can be spliced in."""
    return (
        f'{{"version": "1", "nodes": [{node}, {{"name": "b"}}], '
        f'"reads": {reads}, "read_fraction": {read_fraction}}}'
    )


UNREADABLE_INPUTS = [
    pytest.param(["strategy", "--capacity-limit", "nan"], None, id="capacity-limit-nan"),
    pytest.param(["strategy", "--capacity-limit", "inf"], None, id="capacity-limit-inf"),
    pytest.param(["strategy", "--latency-limit", "1e400"], None, id="latency-limit-1e400"),
    pytest.param(["strategy", "--capacity-limit", "1e-320"], None, id="capacity-limit-1e-320"),
    pytest.param(["analyze"], _config(read_fraction="true"), id="read_fraction-true"),
    pytest.param(["analyze"], _config(read_fraction="NaN"), id="read_fraction-NaN"),
    pytest.param(
        ["search"], _config('{"name": "x-y"}', reads="null"), id="search-node-x-y"
    ),
    # not UTF-8, written as bytes
    pytest.param(["analyze"], b"\xff\xfe" + _config().encode(), id="config-not-utf-8"),
    # nested deeper than the JSON decoder's recursion limit
    pytest.param(["analyze"], "[" * 100_000, id="config-100000-brackets"),
    # past the interpreter's limit on the digits of an int read from text
    pytest.param(["analyze"], _config('{"name": "a", "read_cap": ' + "1" * 5000 + "}"),
                 id="read_cap-5000-digits"),
] + [
    pytest.param(
        ["analyze"], _config(f'{{"name": "a", "{field}": {value}}}'), id=f"{field}-{value}"
    )
    for field in ("read_cap", "latency_s")
    for value in ("NaN", "Infinity", "-Infinity", "1e400", '"Infinity"', "true",
                  '"1e400"', '"1e-400"', '"1e30000000"')
] + [
    # nested deeper than expr.NESTING_BOUND
    pytest.param(
        [command], _config('{"name": "a"}, {"name": "c"}', reads=json.dumps(reads)),
        id=f"{command}-{name}",
    )
    for name, reads in [
        ("400-parentheses", "(" * 400 + "a" + ")" * 400),
        ("200-alternations", "a*(b+" * 200 + "c" + ")" * 200),
    ]
    for command in ("analyze", "strategy", "curve", "breakdown")
]


@pytest.mark.parametrize("argv,config", UNREADABLE_INPUTS)
def test_unreadable_numbers_and_names_exit_2(tmp_path, capsys, argv, config):
    path = DATA / "majority3.json"
    if config is not None:
        path = tmp_path / "config.json"
        (path.write_bytes if isinstance(config, bytes) else path.write_text)(config)
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _doc(**fields) -> str:
    """A two-node config document with ``fields`` replaced; a field given
    as None is left out."""
    doc = {"version": "1", "nodes": [{"name": "a"}, {"name": "b"}], "reads": "a*b",
           "read_fraction": 1, **fields}
    return json.dumps({k: v for k, v in doc.items() if v is not None})


INVALID_CONFIGS = [
    pytest.param(["analyze"], "[]", "config must be a JSON object", id="json-list"),
    pytest.param(["analyze"], _doc(nodes=[{"read_cap": 2}, {"name": "b"}]),
                 "node entry {'read_cap': 2} needs a name", id="node-without-name"),
    pytest.param(["analyze"], _doc(nodes=[{"name": "a", "cap": 2}, {"name": "b"}]),
                 "unknown node fields ['cap']", id="unknown-node-field"),
    pytest.param(["analyze"], _doc(reads=5), "reads must be an expression string",
                 id="reads-not-a-string"),
    pytest.param(["analyze"], _doc(read_fraction=None), "config needs a read_fraction",
                 id="no-read-fraction"),
    pytest.param(["analyze"], _doc(read_fraction=[0.5]),
                 "read_fraction must be a number or a map", id="read-fraction-list"),
    pytest.param(["analyze"], _doc(reads=None), "config must declare reads, writes, or both",
                 id="no-expression"),
    pytest.param(["analyze"], _doc(nodes=[{"name": "a", "read_cap": 10**300}, {"name": "b"}]),
                 f"{10**300} is out of range: a nonzero number must be at least 1e-300 "
                 "and below 1e300 in magnitude", id="capacity-301-digits"),
    pytest.param(["analyze"], _doc(read_fraction={"0.5": 2}),
                 "probability 2 is outside [0, 1]", id="probability-2"),
    pytest.param(["analyze"], _doc(reads="choose(x, [a, b])"),
                 "expected an integer, found 'x' (at position 7)", id="choose-x"),
    pytest.param(["analyze"], _doc(reads="(a + b"),
                 "expected ')', found end of input (at position 6)", id="missing-paren"),
    pytest.param(["search"], _doc(nodes=[{"name": "a"}, {"name": "a"}], reads=None),
                 "node names must be unique", id="search-duplicate-names"),
    pytest.param(["strategy", "--capacity-limit", "0"], _doc(),
                 "capacity_limit must be positive", id="capacity-limit-0"),
]


@pytest.mark.parametrize("argv,config,message", INVALID_CONFIGS)
def test_invalid_configs_exit_2_with_one_error_line(tmp_path, capsys, argv, config, message):
    path = tmp_path / "config.json"
    path.write_text(config)
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "strategy", "curve", "breakdown"])
def test_nesting_at_the_bound_runs(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    reads = "a*(b+" * NESTING_BOUND + "c" + ")" * NESTING_BOUND
    path.write_text(_config('{"name": "a"}, {"name": "c"}', reads=json.dumps(reads)))
    code, out = run(capsys, command, path)
    assert code == 0
    assert out


@pytest.mark.parametrize("command", ["analyze", "strategy", "curve", "breakdown"])
def test_trees_past_the_depth_bound_exit_2(tmp_path, capsys, command):
    # Within the parenthesis bound, choose(2, [d + a*...]) nests three tree
    # levels a parenthesis, 300 here: each command refuses the tree as the
    # parser builds it.
    path = tmp_path / "config.json"
    reads = "choose(2, [d + a*" * NESTING_BOUND + "c" + ", b, c])" * NESTING_BOUND
    nodes = '{"name": "a"}, {"name": "c"}, {"name": "d"}'
    path.write_text(_config(nodes, reads=json.dumps(reads)))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: expression is nested more than 202 levels deep\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--timeout", "nan"],
        ["--timeout", "inf"],
        ["--timeout", "1e400"],
        ["--f", "-1", "--fault-tolerance", "9"],
        ["--timeout", "-1e400"],
        ["--f", "1.5"],
        ["--budget", "2.5"],
    ],
    ids=["timeout-nan", "timeout-inf", "timeout-1e400", "f-minus-1", "timeout-minus-1e400",
         "f-1.5", "budget-2.5"],
)
def test_bad_search_options_exit_2_before_any_work(capsys, monkeypatch, flags):
    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr(quorumopt.cli, "search", no_search)
    argv = ["search", str(DATA / "case_study_search.json"), *flags]
    if flags[-1] in ("-1e400", "1.5", "2.5"):
        # argparse reads -1e400 as an option, not a value, and reads --f and
        # --budget as ints: a usage error
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code = exc.value.code
    else:
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["analyze"], ["strategy", "--f", "1"], ["curve", "--f", "1"]]
)
def test_too_many_nodes_exit_2(tmp_path, capsys, argv):
    # Every read quorum is one of 21 nodes, so the write side tolerates no
    # failure: the size check must come before any question of resilience.
    names = [f"n{i}" for i in range(21)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "version": "1",
        "nodes": [{"name": x} for x in names],
        "reads": " + ".join(names),
        "read_fraction": 0.5,
    }))
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: 21 nodes exceeds the enumeration bound")
    assert captured.err.count("\n") == 1


class TestOutputContracts:
    def test_emitted_expressions_reparse_to_the_same_function(self, capsys):
        for config in ("majority3.json", "hetero_grid.json", "case_study.json"):
            code, out = run(capsys, "analyze", DATA / config)
            assert code == 0
            doc = json.loads(out)
            cfg = load_config(str(DATA / config))
            qs = cfg.quorum_system()
            names = sorted(n.name for n in qs.universe if n.name in qs.reads.names())
            assert truth_table(parse(doc["reads"]), names) == truth_table(qs.reads, names)
            assert truth_table(parse(doc["writes"]), names) == truth_table(qs.writes, names)

    def test_strategy_doc_matches_oracle_recompute(self, capsys):
        code, out = run(capsys, "strategy", DATA / "hetero_grid.json")
        assert code == 0
        doc = json.loads(out)
        cfg = load_config(str(DATA / "hetero_grid.json"))
        qs = cfg.quorum_system()
        sigma = Strategy(
            qs,
            [(frozenset(e["quorum"]), e["prob"]) for e in doc["read_dist"]],
            [(frozenset(e["quorum"]), e["prob"]) for e in doc["write_dist"]],
        )
        load, latency, network = strategy_metric_recompute(sigma, cfg.workload)
        eps = Fraction(1, 10**6)
        assert abs(Fraction(str(doc["load"])) - load) <= eps
        assert abs(Fraction(str(doc["latency"])) - latency) <= eps
        assert abs(Fraction(str(doc["network_load"])) - network) <= eps

    def test_curve_has_points_plus_one_positive_rows(self, capsys):
        code, out = run(capsys, "curve", DATA / "hetero_grid.json", "--points", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "read_fraction,capacity"
        assert len(lines) == 6
        assert all(float(line.split(",")[1]) > 0 for line in lines[1:])

    def test_fixed_curve_never_beats_reoptimized(self, capsys):
        _, fixed = run(capsys, "curve", DATA / "hetero_grid.json", "--points", "5", "--fixed")
        _, opt = run(capsys, "curve", DATA / "hetero_grid.json", "--points", "5")
        for fline, oline in zip(fixed.splitlines()[1:], opt.splitlines()[1:]):
            assert float(fline.split(",")[1]) <= float(oline.split(",")[1]) + 1e-6

    def test_fixed_curve_rows_are_the_strategys_capacity(self, capsys):
        code, out = run(capsys, "curve", DATA / "hetero_grid.json", "--points", "5", "--fixed")
        assert code == 0
        cfg = load_config(str(DATA / "hetero_grid.json"))
        sigma = find_strategy(cfg.quorum_system(), cfg.workload, "load")
        assert out.splitlines()[1:] == [
            f"{float(Fraction(i, 5))!r},{float(sigma.capacity(Fraction(i, 5))):.9f}"
            for i in range(6)]

    def test_breakdown_favors_higher_capacity_nodes(self, capsys):
        code, out = run(capsys, "breakdown", DATA / "case_study.json")
        assert code == 0
        totals = {}
        for line in out.strip().splitlines()[1:]:
            node, _, _, thr = line.split(",")
            totals[node] = totals.get(node, 0.0) + float(thr)
        fast = min(totals[x] for x in "ace")
        slow = max(totals[x] for x in "bd")
        assert fast > slow

    def test_breakdown_respects_node_saturation(self, capsys):
        code, out = run(capsys, "breakdown", DATA / "case_study.json", "--uniform")
        assert code == 0
        cfg = load_config(str(DATA / "case_study.json"))
        caps = {n.name: (n.read_cap, n.write_cap) for n in cfg.nodes}
        usage = {}
        for line in out.strip().splitlines()[1:]:
            node, side, _, thr = line.split(",")
            cap = caps[node][0] if side == "read" else caps[node][1]
            usage[node] = usage.get(node, Fraction(0)) + Fraction(thr) / cap
        assert all(u <= 1 + Fraction(1, 10**6) for u in usage.values())

    def test_table_mode_mentions_metrics(self, capsys):
        code, out = run(capsys, "analyze", DATA / "majority3.json", "--table")
        assert code == 0
        assert "fault_tolerance" in out and "capacity" in out


class TestConfigValidation:
    def test_rejects_unknown_version(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "2", "nodes": [{"name": "a"}], "reads": "a", "read_fraction": 1}')
        code, _ = run(capsys, "analyze", bad)
        assert code == 2

    def test_rejects_unknown_fields(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"version": "1", "nodes": [{"name": "a"}], "reads": "a", "read_fraction": 1, "extra": 2}'
        )
        code, _ = run(capsys, "analyze", bad)
        assert code == 2

    def test_string_decimal_workload_keys_accepted(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(
            '{"version": "1", "nodes": [{"name": "a"}], "reads": "a", "read_fraction": {"0.5": 0.5, "0.4": 0.5}}'
        )
        code, _ = run(capsys, "analyze", good)
        assert code == 0

    def test_workload_must_normalize(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"version": "1", "nodes": [{"name": "a"}], "reads": "a", "read_fraction": {"0.5": 0.5, "0.4": 0.4}}'
        )
        code, _ = run(capsys, "analyze", bad)
        assert code == 2

    @pytest.mark.parametrize("points", ['{"0.5": 1, "1/2": 1}', '{"0.5": 0.5, "0.50": 0.5}'])
    def test_a_read_fraction_named_twice_exits_2(self, tmp_path, capsys, points):
        bad = tmp_path / "bad.json"
        bad.write_text(_config(reads='"a"', read_fraction=points))
        code = main(["analyze", str(bad)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: duplicate read fraction 1/2\n"

    def test_parse_error_in_expression(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"version": "1", "nodes": [{"name": "a"}], "reads": "a*(b +", "read_fraction": 1}'
        )
        code, _ = run(capsys, "analyze", bad)
        assert code == 2
