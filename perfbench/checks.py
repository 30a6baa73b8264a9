"""Output checks, run outside the timed region.

Fixture commands are byte-compared with ``tests/golden``. Generated commands
are checked against ``quorumopt.oracle`` and against themselves:

* printed load, latency and network load equal the oracle's exact
  recompute of the printed distributions within 1e-6 relative, plus the
  rounding that printing 9 decimals can cause;
* each distribution sums to 1 and holds only (f-resilient) quorums of its
  side;
* every requested limit is met within 1e-6 relative;
* fault tolerance equals the oracle's exhaustive kill-set sweep;
* a load-optimal strategy's load is at most that of ``uniform_strategy``,
  and so, at a single read fraction, its capacity is at least the uniform
  one's (under a distribution the LP minimizes expected load, which does
  not bound expected capacity);
* a search winner's writes are the dual of its reads, it meets its fault
  tolerance floor, and ``candidates_examined`` equals the enumerated count
  or the budget.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from quorumopt.cli import load_config
from quorumopt.expr import Var, majority, parse
from quorumopt.model import QuorumSystem
from quorumopt.optimize import Strategy, uniform_strategy
from quorumopt.oracle import (
    exhaustive_fault_tolerance,
    strategy_metric_recompute,
    truth_table,
)
from quorumopt.search import enumerate_candidates

REL = Fraction(1, 10**6)
# Printed numbers carry 9 decimals, so each is within half a unit of that.
HALF_ULP = Fraction(5, 10**10)


def _num(value) -> Fraction:
    return Fraction(repr(float(value)))


class System:
    """A config with its quorum system, built once and shared by every
    check of every command that uses the config."""

    def __init__(self, path: Path):
        self.config = load_config(str(path))
        self.workload = self.config.workload
        self.names = [n.name for n in self.config.nodes]

    @cached_property
    def qs(self) -> QuorumSystem:
        return self.config.quorum_system()

    @cached_property
    def majority(self) -> QuorumSystem:
        """Majority over a search config's nodes, a candidate every search
        examines."""
        return QuorumSystem(self.config.nodes, reads=majority([Var(n) for n in self.names]))

    @cached_property
    def read_ft(self) -> int:
        return exhaustive_fault_tolerance(self.qs, "read")

    @cached_property
    def write_ft(self) -> int:
        return exhaustive_fault_tolerance(self.qs, "write")

    @property
    def fault_tolerance(self) -> int:
        return min(self.read_ft, self.write_ft)

    @cached_property
    def tables(self) -> tuple[int, int]:
        return (
            truth_table(self.qs.reads, self.names),
            truth_table(self.qs.writes, self.names),
        )

    def uniform(self, f: int) -> Strategy:
        return uniform_strategy(self.qs, f)


class Systems:
    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self._cache: dict[str, System] = {}

    def get(self, config: str) -> System:
        if config not in self._cache:
            self._cache[config] = System(self.work_dir / config)
        return self._cache[config]


def _is_resilient(e, quorum: frozenset, f: int) -> bool:
    if len(quorum) <= f:
        return False
    return all(
        e.evaluate(quorum.difference(r)) for r in itertools.combinations(sorted(quorum), f)
    )


def _max_inverse_cap(qs) -> Fraction:
    return max(max(1 / n.read_cap, 1 / n.write_cap) for n in qs.universe)


def check_strategy_doc(doc, qs, workload, f, limits) -> list[str]:
    problems: list[str] = []
    dists = {}
    for side, e in (("read", qs.reads), ("write", qs.writes)):
        entries = doc[f"{side}_dist"]
        dist = [(frozenset(x["quorum"]), _num(x["prob"])) for x in entries]
        total = sum(p for _, p in dist)
        if abs(total - 1) > REL:
            problems.append(f"{side} distribution sums to {float(total)}")
        for quorum, _ in dist:
            if not e.evaluate(quorum):
                problems.append(f"{sorted(quorum)} is not a {side} quorum")
            elif f and not _is_resilient(e, quorum, f):
                problems.append(f"{sorted(quorum)} is not {f}-resilient ({side})")
        dists[side] = dist
    if problems:
        return problems

    sigma = Strategy(qs, dists["read"], dists["write"], f=f)
    load, latency, network = strategy_metric_recompute(sigma, workload)
    spread = (len(dists["read"]) + len(dists["write"])) * HALF_ULP
    slack = {
        "load": spread * _max_inverse_cap(qs),
        "latency": spread * max(n.latency for n in qs.universe),
        "network_load": spread * len(qs.universe),
    }
    for key, ref in (("load", load), ("latency", latency), ("network_load", network)):
        got = _num(doc[key])
        if abs(got - ref) > REL * abs(ref) + slack[key] + HALF_ULP:
            problems.append(f"{key} {float(got)} != oracle {float(ref)}")

    capacity = _num(doc["capacity"])
    inverse = 1 / load
    cap_slack = REL * inverse + inverse * slack["load"] / load + HALF_ULP
    if len(workload.items()) == 1:
        if abs(capacity - inverse) > cap_slack:
            problems.append(f"capacity {float(capacity)} != 1/load {float(inverse)}")
    elif capacity < inverse - cap_slack:
        problems.append(f"capacity {float(capacity)} < 1/load {float(inverse)}")

    problems += _check_limits(doc, limits)
    return problems


def _check_limits(doc, limits) -> list[str]:
    problems = []
    for metric, text in limits.items():
        limit = Fraction(text)
        if metric == "capacity":
            got, bound = _num(doc["load"]), 1 / limit
        elif metric == "latency":
            got, bound = _num(doc["latency"]), limit
        else:
            got, bound = _num(doc["network_load"]), limit
        if got > bound * (1 + REL) + HALF_ULP:
            problems.append(f"{metric} limit {text} not met ({float(got)})")
    return problems


def _check_against_uniform(doc, sys_: System, f: int) -> list[str]:
    uniform = sys_.uniform(f)
    w = sys_.workload
    problems = []
    u_load = uniform.load(w)
    if _num(doc["load"]) > u_load * (1 + REL) + HALF_ULP:
        problems.append(f"load-optimal load {doc['load']} > uniform {float(u_load)}")
    if len(w.items()) == 1:
        u_cap = uniform.capacity(w)
        if _num(doc["capacity"]) < u_cap * (1 - REL) - HALF_ULP:
            problems.append(f"load-optimal capacity {doc['capacity']} < uniform {float(u_cap)}")
    return problems


def _check_expression(text: str, table: int, names, label: str) -> list[str]:
    if truth_table(parse(text), names) != table:
        return [f"printed {label} {text!r} is not the system's {label}"]
    return []


def check_analyze(cmd, out: str, systems: Systems) -> list[str]:
    sys_ = systems.get(cmd.config)
    doc = json.loads(out)
    problems = []
    reads_table, writes_table = sys_.tables
    problems += _check_expression(doc["reads"], reads_table, sys_.names, "reads")
    problems += _check_expression(doc["writes"], writes_table, sys_.names, "writes")
    want = {
        "read_ft": sys_.read_ft,
        "write_ft": sys_.write_ft,
        "fault_tolerance": sys_.fault_tolerance,
    }
    for key, value in want.items():
        if doc[key] != value:
            problems.append(f"{key} {doc[key]} != oracle {value}")
    load, capacity = _num(doc["load"]), _num(doc["capacity"])
    if load <= 0:
        return problems + [f"load {doc['load']} is not positive"]
    inverse = 1 / load
    slack = REL * inverse + inverse * HALF_ULP / load + HALF_ULP
    if len(sys_.workload.items()) == 1 and abs(capacity - inverse) > slack:
        problems.append(f"capacity {doc['capacity']} != 1/load {float(inverse)}")
    problems += _check_against_uniform(doc, sys_, cmd.f)
    return problems


def check_strategy(cmd, out: str, systems: Systems) -> list[str]:
    sys_ = systems.get(cmd.config)
    doc = json.loads(out)
    problems = check_strategy_doc(doc, sys_.qs, sys_.workload, cmd.f, cmd.limits)
    if cmd.objective == "load" and not cmd.limits:
        problems += _check_against_uniform(doc, sys_, cmd.f)
    return problems


def _curve_rows(out: str) -> list[tuple[str, Fraction]]:
    lines = out.splitlines()
    if not lines or lines[0] != "read_fraction,capacity":
        raise ValueError("bad curve header")
    rows = []
    for line in lines[1:]:
        fr, cap = line.split(",")
        rows.append((fr, Fraction(cap)))
    return rows


def check_curve(cmd, out: str, systems: Systems, outputs) -> list[str]:
    sys_ = systems.get(cmd.config)
    rows = _curve_rows(out)
    problems = []
    if len(rows) != cmd.points + 1:
        return [f"curve has {len(rows)} rows, want {cmd.points + 1}"]
    uniform = sys_.uniform(cmd.f)
    for i, (fr, cap) in enumerate(rows):
        if fr != repr(float(Fraction(i, cmd.points))):
            problems.append(f"row {i} read fraction {fr}")
        if cap <= 0:
            problems.append(f"row {i} capacity {cap} is not positive")
        elif not cmd.fixed:
            u_cap = 1 / uniform.load_at(Fraction(i, cmd.points))
            if cap < u_cap * (1 - REL) - HALF_ULP:
                problems.append(f"row {i} capacity {float(cap)} < uniform {float(u_cap)}")
    if cmd.fixed and cmd.pair is not None:
        for i, ((_, cap), (_, best)) in enumerate(zip(rows, _curve_rows(outputs[cmd.pair]))):
            if cap > best * (1 + REL) + 2 * HALF_ULP:
                problems.append(f"row {i} fixed capacity {float(cap)} beats optimum {float(best)}")
    return problems


def check_breakdown(cmd, out: str, systems: Systems) -> list[str]:
    sys_ = systems.get(cmd.config)
    qs = sys_.qs
    lines = out.splitlines()
    if not lines or lines[0] != "node,side,quorum,throughput":
        return ["bad breakdown header"]
    problems = []
    usage: dict[str, Fraction] = {}
    members: dict[tuple[str, frozenset], set] = {}
    rates: dict[tuple[str, frozenset], Fraction] = {}
    for line in lines[1:]:
        name, side, label, thr = line.split(",")
        quorum = frozenset(label.split("*"))
        thr = Fraction(thr)
        e = qs.reads if side == "read" else qs.writes
        if name not in quorum:
            problems.append(f"{name} listed under {label} it is not in")
        members.setdefault((side, quorum), set()).add(name)
        rates[(side, quorum)] = thr
        node = qs.node(name)
        usage[name] = usage.get(name, Fraction(0)) + thr / (
            node.read_cap if side == "read" else node.write_cap
        )
        if not e.evaluate(quorum) or any(e.evaluate(quorum - {x}) for x in quorum):
            problems.append(f"{label} is not a minimal {side} quorum")
    for (side, quorum), seen in members.items():
        if seen != set(quorum):
            problems.append(f"{side} quorum {sorted(quorum)} lists {sorted(seen)}")
    slack = REL + (len(lines) - 1) * HALF_ULP * _max_inverse_cap(qs)
    for name, used in usage.items():
        if used > 1 + slack:
            problems.append(f"{name} runs at {float(used)} of its capacity")
    if "--uniform" in cmd.args:
        for side in ("read", "write"):
            values = {v for (s, _), v in rates.items() if s == side}
            if values and max(values) - min(values) > 2 * HALF_ULP:
                problems.append(f"uniform {side} throughputs differ")
    return problems


def check_search(cmd, out: str, systems: Systems, expected_candidates: int) -> list[str]:
    sys_ = systems.get(cmd.config)
    doc = json.loads(out)
    problems = []
    qs = QuorumSystem(sys_.config.nodes, reads=doc["reads"], writes=doc["writes"])
    names = sys_.names
    if truth_table(qs.writes, names) != truth_table(qs.reads.dual(), names):
        problems.append("winner's writes are not the dual of its reads")
    ft = min(exhaustive_fault_tolerance(qs, side) for side in ("read", "write"))
    if ft < cmd.floor:
        problems.append(f"winner fault tolerance {ft} < floor {cmd.floor}")
    problems += check_strategy_doc(
        doc["strategy"], qs, sys_.workload, cmd.f, cmd.limits
    )
    key = {"load": "capacity", "latency": "latency", "network": "network_load"}[cmd.objective]
    if doc["metric"] != doc["strategy"][key]:
        problems.append(f"metric {doc['metric']} != strategy {key} {doc['strategy'][key]}")
    if doc["candidates_examined"] != expected_candidates:
        problems.append(
            f"candidates_examined {doc['candidates_examined']} != {expected_candidates}"
        )
    return problems


def enumerated_count(names, budget: int | None) -> int:
    """Candidates a search examines: the whole enumeration, or the budget
    when the enumeration is longer."""
    count = 0
    for _ in enumerate_candidates(names):
        count += 1
        if budget is not None and count == budget:
            break
    return count
