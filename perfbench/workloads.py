"""Seeded command streams for the three workloads.

Every stream is generated from ``random.Random(seed)`` alone. Generation is
pure: it returns config documents and commands whose limits are still
symbolic (a factor of an optimum). :func:`resolve_limits` then turns each
factor into a number by solving the unconstrained optimum once per system,
before anything is timed. The program only ever sees the config files that
:func:`write_configs` puts in the work directory.

Why each workload exists (the same text is in BENCHMARK.json):

plan
    About 200 small commands (analyze, strategy with every objective
    and limit kind, curve, breakdown, ``--f 1``) over 3-10 node systems:
    majorities, grids, hierarchical ``choose``, random duplicate-free
    expressions and explicit non-dual writes, with seeded heterogeneous
    capacities and latencies and single- or multi-point read fractions, plus
    the non-search golden fixtures. Each command is mostly LP building,
    HiGHS and exact ``Fraction`` metrics with little enumeration, so LP,
    sparse-matrix and metric changes show here. About one strategy command in
    ten asks for a limit past the optimum and must exit 3, which exercises
    the infeasible path.
wide
    Seven commands on 11-16 node universes. The 2^n minimal-set and
    hitting-set sweeps dominate (about 2.5 s of a 3 s majority-13 analyze)
    and the LPs have about 10^3 columns, so quorum enumeration and large-LP
    changes show here; ``plan`` barely reaches these paths.
search
    Five-node searches over seeded heterogeneous universes with a 4-point
    read-fraction workload (load with a fault-tolerance floor, latency under
    a capacity limit, network with ``--f 1``, the case-study golden) and one
    6-node search under a fixed budget. Thousands of tiny quorum-system
    builds and LPs, enumeration and truth-table dedup run here; the other
    workloads never reach this code.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from fractions import Fraction

WHY = {
    "plan": "about 200 small analyze/strategy/curve/breakdown commands on 3-10 "
    "node systems: LP build, HiGHS and exact metrics dominate; some exit 3 by plan",
    "wide": "few commands on 11-16 node universes: the 2^n minimal-set and "
    "hitting-set sweeps and 10^3-column LPs dominate",
    "search": "5- and 6-node candidate searches: enumeration, truth-table dedup "
    "and thousands of tiny quorum-system builds and LPs",
}

# Non-search golden fixtures: (argv after the config, config, golden file).
PLAN_FIXTURES = [
    (["analyze"], "majority3.json", [], "analyze_majority3.json"),
    (["analyze"], "hetero_grid.json", [], "analyze_hetero_grid.json"),
    (["analyze"], "case_study.json", [], "analyze_case_study.json"),
    (["strategy"], "majority3.json", [], "strategy_majority3.json"),
    (
        ["strategy"],
        "hetero_grid.json",
        ["--optimize", "latency", "--capacity-limit", "150", "--network-limit", "2"],
        "strategy_hetero_grid_latency.json",
    ),
    (
        ["strategy"],
        "case_study.json",
        ["--optimize", "latency", "--capacity-limit", "2000"],
        "strategy_case_study_latency.json",
    ),
    (["curve"], "hetero_grid.json", ["--points", "10"], "curve_hetero_grid.csv"),
    (["breakdown"], "case_study.json", ["--uniform"], "breakdown_case_study_uniform.csv"),
    (["breakdown"], "case_study.json", [], "breakdown_case_study_optimal.csv"),
]
SEARCH_FIXTURE = (
    ["search"],
    "case_study_search.json",
    ["--fault-tolerance", "1"],
    "search_case_study.json",
)

# Limit flags by metric name.
LIMIT_FLAGS = {
    "capacity": "--capacity-limit",
    "latency": "--latency-limit",
    "network": "--network-limit",
}


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy.

    ``kind`` selects the output check; ``expect`` is the planned exit code.
    ``limits`` maps a metric to ``(factor, feasible)`` until
    :func:`resolve_limits` replaces it by the number passed on the command
    line. ``pair`` links a ``--fixed`` curve to its re-optimized twin.
    """

    kind: str
    config: str
    args: list[str] = field(default_factory=list)
    expect: int = 0
    objective: str = "load"
    f: int = 0
    limits: dict = field(default_factory=dict)
    golden: str | None = None
    points: int = 0
    fixed: bool = False
    pair: int | None = None
    floor: int = 0
    budget: int | None = None

    def argv(self, work_dir: str) -> list[str]:
        argv = [self.kind if self.kind != "golden" else self.args[0]]
        argv.append(f"{work_dir}/{self.config}")
        rest = self.args[1:] if self.kind == "golden" else list(self.args)
        for metric, value in sorted(self.limits.items()):
            if isinstance(value, tuple):
                raise ValueError("limits must be resolved before running")
            rest += [LIMIT_FLAGS[metric], value]
        return argv + rest


@dataclass
class Stream:
    """Generated inputs of one workload: config documents by file name, and
    the command stream in execution order."""

    configs: dict[str, dict]
    commands: list[Command]

    def digest_text(self) -> str:
        body = {
            "configs": self.configs,
            "commands": [vars(c) for c in self.commands],
        }
        return json.dumps(body, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Node and workload generation
# ---------------------------------------------------------------------------


def _names(n: int) -> list[str]:
    return list(string.ascii_lowercase[:n])


# Node values come from fixed ladders and the seed only assigns them to
# nodes, so that every seed poses problems of about the same arithmetic cost
# (exact Fraction work grows with the size of numerators and denominators).
READ_CAPS = [200, 100, 150, 50, 175, 75, 125, 25, 190, 60, 140, 80, 110, 30, 160, 90]
WRITE_SHARES = ["0.5", "1", "0.25", "0.75"]
LATENCIES = [1, 4, 2.5, 8, 3, 12, 0.5, 6, 1.5, 10, 5, 2, 7, 3.5, 9, 4.5]
READ_WEIGHTS = [3, 5, 2, 4]


def _nodes(rng: random.Random, names: list[str]) -> list[dict]:
    n = len(names)
    caps = rng.sample(READ_CAPS[:n], n)
    latencies = rng.sample(LATENCIES[:n], n)
    shares = [WRITE_SHARES[rng.randrange(4)] for _ in names]
    return [
        {
            "name": name,
            "read_cap": cap,
            "write_cap": float(Fraction(cap) * Fraction(share)),
            "latency_s": latency,
        }
        for name, cap, share, latency in zip(names, caps, shares, latencies)
    ]


def _read_fraction(rng: random.Random, points: int):
    if points == 1:
        return rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])
    fractions = sorted(rng.sample(range(1, 10), points))
    weights = rng.sample(READ_WEIGHTS[:points], points)
    total = sum(weights)
    return {f"0.{fr}": f"{w}/{total}" for fr, w in zip(fractions, weights)}


def _config(rng, names, reads=None, writes=None, points=1) -> dict:
    doc = {"version": "1", "nodes": _nodes(rng, names)}
    if reads is not None:
        doc["reads"] = reads
    if writes is not None:
        doc["writes"] = writes
    doc["read_fraction"] = _read_fraction(rng, points)
    return doc


def _join(op: str, parts: list[str]) -> str:
    return op.join(p if len(p) == 1 else f"({p})" for p in parts)


def _majority(names: list[str]) -> str:
    return f"majority([{', '.join(names)}])"


def _choose(k: int, parts: list[str]) -> str:
    return f"choose({k}, [{', '.join(parts)}])"


def _grid_rows(names: list[str], cols: int) -> str:
    rows = [names[i : i + cols] for i in range(0, len(names), cols)]
    return " + ".join("*".join(row) for row in rows)


def _random_expr(rng: random.Random, names: list[str]) -> str:
    """A duplicate-free expression: every name is used in exactly one leaf."""
    if len(names) == 1:
        return names[0]
    names = list(names)
    rng.shuffle(names)
    nblocks = rng.randint(2, min(4, len(names)))
    cuts = sorted(rng.sample(range(1, len(names)), nblocks - 1))
    blocks = [names[a:b] for a, b in zip([0] + cuts, cuts + [len(names)])]
    children = [_random_expr(rng, sorted(b)) for b in blocks]
    op = rng.choice(["+", "*", "choose"])
    if op == "choose" and len(children) >= 3:
        return _choose(rng.randint(2, len(children) - 1), children)
    return _join(" + " if op == "+" else "*", children)


# The plan workload's systems: (family, shape). The mix is fixed so that the
# stream costs about the same for every seed; the seed picks capacities,
# latencies, read fractions, random expressions and limit factors. Forty
# systems give about 200 commands, few enough that a 25 s run repeats every
# command about a dozen times, which its best time needs on a noisy machine.
PLAN_SLOTS = (
    [("majority", n) for n in (3, 4, 5, 6, 7, 8, 9)]
    + [("grid", rc) for rc in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5), (5, 2))]
    + [
        ("hierarchy", sizes)
        for sizes in (
            (2, 2, 2), (3, 3, 3), (2, 3, 2), (3, 2, 3, 2), (2, 2, 2, 2), (3, 3, 2, 2), (2, 2, 3),
        )
    ]
    + [("random", n) for n in (3, 4, 5, 6, 7, 8)]
    + [("choose_pair", n) for n in (4, 6, 7, 9)]
    + [("rows_all", n) for n in (5, 8)]
    + [("writes_only", n) for n in (3, 4, 5, 6, 7, 5, 6)]
)


def _plan_system(rng: random.Random, i: int, family: str, shape) -> dict:
    # Every other system has a multi-point read fraction of 2, 3 or 4 points.
    points = 1 if i % 2 == 0 else 2 + (i // 2) % 3
    if family == "majority":
        names = _names(shape)
        return _config(rng, names, reads=_majority(names), points=points)
    if family == "grid":
        rows, cols = shape
        names = _names(rows * cols)
        return _config(rng, names, reads=_grid_rows(names, cols), points=points)
    if family == "hierarchy":
        names = _names(sum(shape))
        groups, at = [], 0
        for size in shape:
            groups.append(_majority(names[at : at + size]))
            at += size
        k = len(groups) // 2 + 1
        return _config(rng, names, reads=_choose(k, groups), points=points)
    names = _names(shape)
    if family == "random":
        return _config(rng, names, reads=_random_expr(rng, names), points=points)
    if family == "choose_pair":
        k = 2 + i % (shape - 2)
        # k + m > n guarantees intersection; m != n - k + 1 avoids the dual.
        return _config(
            rng, names, reads=_choose(k, names), writes=_choose(shape - k + 2, names),
            points=points,
        )
    if family == "rows_all":
        reads = _grid_rows(names, 2) if shape % 2 == 0 else " + ".join(names)
        return _config(rng, names, reads=reads, writes="*".join(names), points=points)
    return _config(rng, names, writes=_random_expr(rng, names), points=points)


def _limits(rng: random.Random, j: int) -> dict:
    """Limits of the j-th strategy command: one in ten past the optimum (exit
    3), one in three with one feasible limit, one in six with a feasible
    pair, the rest none. Only the factors depend on the seed."""
    metric = ("capacity", "latency", "network")[j // 30 % 3]
    slot = j % 30
    if slot < 3:
        factor = rng.uniform(1.1, 1.6) if metric == "capacity" else rng.uniform(0.5, 0.9)
        return {metric: (round(factor, 4), False)}
    if slot < 13:
        factor = rng.uniform(0.5, 0.95) if metric == "capacity" else rng.uniform(1.05, 1.8)
        return {metric: (round(factor, 4), True)}
    if slot < 18:
        return {"capacity": ("mix", True), ("latency", "network")[j % 2]: ("mix", True)}
    return {}


def plan(seed: int) -> Stream:
    """The mix of families, sizes, command kinds, limit kinds and ``--f 1``
    is the same for every seed, so that the stream costs about the same."""
    rng = random.Random(seed)
    configs: dict[str, dict] = {}
    commands: list[Command] = []
    for i, (family, shape) in enumerate(PLAN_SLOTS):
        name = f"p{i:03d}.json"
        configs[name] = _plan_system(rng, i, family, shape)
        commands.append(Command("analyze", name))
        # f=1 commands exit 0 or 3 by the system's fault tolerance, which
        # resolve_limits settles.
        if i % 3 == 0:
            commands.append(Command("analyze", name, args=["--f", "1"], f=1))
        for j, objective in enumerate(("load", "latency", "network")):
            # 7 is coprime to 30, so limit kinds spread over all objectives.
            k = 7 * (3 * i + j)
            f = int(k % 49 < 7)
            cmd = Command("strategy", name, objective=objective, f=f, limits=_limits(rng, k))
            cmd.args = ["--optimize", objective] + (["--f", "1"] if f else [])
            cmd.expect = 3 if any(not ok for _, ok in cmd.limits.values()) else 0
            commands.append(cmd)
        if i % 4 == 0:
            p = 2 + (i // 4) % 3
            commands.append(Command("curve", name, args=["--points", str(p)], points=p))
            if i % 8 == 0:
                commands.append(
                    Command(
                        "curve", name, args=["--points", str(p), "--fixed"], points=p, fixed=True
                    )
                )
        if i % 3 == 1:
            commands.append(
                Command("breakdown", name, args=["--uniform"] if i % 6 == 1 else [])
            )
    for argv, data, extra, golden in PLAN_FIXTURES:
        commands.append(Command("golden", f"fixture_{data}", args=argv + extra, golden=golden))
    rng.shuffle(commands)
    _link_curve_pairs(commands)
    return Stream(configs, commands)


def _link_curve_pairs(commands: list[Command]) -> None:
    reopt = {
        (c.config, c.points): i
        for i, c in enumerate(commands)
        if c.kind == "curve" and not c.fixed
    }
    for c in commands:
        if c.kind == "curve" and c.fixed:
            c.pair = reopt[(c.config, c.points)]


def wide(seed: int) -> Stream:
    rng = random.Random(seed)
    n13 = _names(13)
    n16 = _names(16)
    n15 = _names(15)
    n12 = _names(12)
    n11 = _names(11)
    groups = [_majority(n12[i : i + 3]) for i in range(0, 12, 3)]
    configs = {
        "maj13.json": _config(rng, n13, reads=_majority(n13)),
        "choose4of13.json": _config(
            rng, n13, reads=_choose(4, n13), writes=_choose(10, n13)
        ),
        "grid4x4.json": _config(rng, n16, reads=_grid_rows(n16, 4)),
        "grid3x5.json": _config(rng, n15, reads=_grid_rows(n15, 5)),
        "majmaj12.json": _config(rng, n12, reads=_choose(2, groups)),
        "maj11.json": _config(rng, n11, reads=_majority(n11)),
    }
    commands = [
        Command("analyze", "maj13.json"),
        Command(
            "strategy",
            "maj13.json",
            args=["--optimize", "latency"],
            objective="latency",
            limits={"capacity": (0.8, True)},
        ),
        Command("analyze", "choose4of13.json"),
        Command("analyze", "grid4x4.json"),
        Command("strategy", "grid3x5.json", args=["--optimize", "network"], objective="network"),
        Command("analyze", "majmaj12.json", args=["--f", "1"], f=1),
        Command("curve", "maj11.json", args=["--points", "10"], points=10),
    ]
    return Stream(configs, commands)


def search(seed: int) -> Stream:
    rng = random.Random(seed)
    five = _names(5)
    six = _names(6)
    configs = {
        "s_load.json": _config(rng, five, points=4),
        "s_latency.json": _config(rng, five, points=4),
        "s_network.json": _config(rng, five, points=4),
        "s_budget.json": _config(rng, six, points=4),
    }
    argv, data, extra, golden = SEARCH_FIXTURE
    commands = [
        Command("search", "s_load.json", args=["--fault-tolerance", "1"], floor=1),
        Command(
            "search",
            "s_latency.json",
            args=["--optimize", "latency"],
            objective="latency",
            limits={"capacity": (0.9, True)},
        ),
        Command(
            "search", "s_network.json", args=["--optimize", "network", "--f", "1"],
            objective="network", f=1,
        ),
        Command("golden", f"fixture_{data}", args=argv + extra, golden=golden),
        Command("search", "s_budget.json", args=["--budget", "400"], budget=400),
    ]
    return Stream(configs, commands)


GENERATORS = {"plan": plan, "wide": wide, "search": search}


# ---------------------------------------------------------------------------
# Set-up: files and limit resolution
# ---------------------------------------------------------------------------


def write_configs(stream: Stream, work_dir, data_dir) -> None:
    """Write generated configs and copies of the fixture configs used by the
    stream into ``work_dir``."""
    for name, doc in stream.configs.items():
        (work_dir / name).write_text(json.dumps(doc, indent=1) + "\n")
    for cmd in stream.commands:
        if cmd.config.startswith("fixture_"):
            source = data_dir / cmd.config[len("fixture_") :]
            (work_dir / cmd.config).write_text(source.read_text())


def _fmt(value: Fraction | float) -> str:
    return f"{float(value):.6g}"


def resolve_limits(stream: Stream, systems) -> None:
    """Replace symbolic limits by numbers and settle planned exit codes.

    ``systems`` is the checker's cache of parsed configs and quorum systems.
    Optima come from one unconstrained solve per (system, objective, f): a
    capacity limit past ``1 / min load``, or a latency or network limit below
    the minimum, is infeasible. A ``mix`` pair is met by the half-and-half
    mixture of the load-optimal and the other metric's optimal strategy
    (load is convex and latency and network are linear in the strategy), so
    it is feasible with the 3% margin used here.

    Commands with ``--f 1`` on a system whose fault tolerance is 0 have no
    1-resilient quorum and are planned to exit 3. A search's limits are set
    from the majority system over its nodes, so that candidate is feasible.
    """
    from quorumopt.optimize import find_strategy

    optima: dict = {}

    def optimum(cmd: Command, objective: str):
        key = (cmd.config, objective, cmd.f)
        if key not in optima:
            sys_ = systems.get(cmd.config)
            qs = sys_.majority if cmd.kind == "search" else sys_.qs
            optima[key] = find_strategy(qs, sys_.workload, objective, f=cmd.f)
        return optima[key]

    for cmd in stream.commands:
        if cmd.kind == "golden":
            continue
        sys_ = systems.get(cmd.config)
        if cmd.kind != "search" and cmd.f > sys_.fault_tolerance:
            cmd.expect = 3
            cmd.limits = {}
            continue
        if not cmd.limits:
            continue
        w = sys_.workload
        resolved = {}
        for metric, (factor, _feasible) in cmd.limits.items():
            load_opt = optimum(cmd, "load")
            if factor == "mix":
                other = next(m for m in cmd.limits if m != "capacity")
                other_opt = optimum(cmd, other)
                if metric == "capacity":
                    mixed_load = (load_opt.load(w) + other_opt.load(w)) / 2
                    resolved[metric] = _fmt(Fraction(97, 100) / mixed_load)
                else:
                    value = (
                        _metric(load_opt, other, w) + _metric(other_opt, other, w)
                    ) / 2
                    resolved[metric] = _fmt(value * Fraction(103, 100))
                continue
            factor = Fraction(str(factor))
            if metric == "capacity":
                resolved[metric] = _fmt(factor / load_opt.load(w))
            else:
                best = optimum(cmd, metric)
                resolved[metric] = _fmt(factor * _metric(best, metric, w))
        cmd.limits = resolved


def _metric(strategy, metric: str, w) -> Fraction:
    if metric == "latency":
        return strategy.latency(w)
    return strategy.network_load(w)
