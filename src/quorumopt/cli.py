"""Command line interface.

Every command takes a JSON config file (version "1") describing nodes,
optional read/write expressions, and a workload. Each ``cmd_*`` function
maps the loaded config and its arguments to one machine-readable document:
a dict, written as JSON for analyze/strategy/search (a human-readable table
behind --table), or a list of rows, written as CSV for curve/breakdown.
:func:`main` alone loads the config, writes the document through
:func:`_emit`, and turns an error into one stderr line and its exit code
(``_EXITS``); stdout stays empty on an error. All emitted numbers are
quantized to 9 decimal places so outputs are byte-stable.

Exit codes: 0 success, 2 config or parse error, 3 no strategy: unsatisfiable
limits, no f-resilient quorum, or the LP solver failed, 4 search exhausted
without a feasible candidate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DomainError,
    Infeasible,
    IntersectionViolation,
    NoFeasibleCandidate,
    NoResilientQuorum,
    ParseError,
    QuorumError,
    SolverFailure,
    UniverseTooLarge,
    UnknownNode,
)
from .expr import canonical
from .model import Node, QuorumSystem, Workload
from .optimize import (
    Constraints,
    Strategy,
    capacity_curve,
    find_strategy,
    throughput_breakdown,
    uniform_strategy,
)
from .search import SearchOptions, search

# Each exit on an error: the errors it takes, its stderr prefix, its code.
_EXITS = (
    ((DomainError, ParseError, UnknownNode, IntersectionViolation, UniverseTooLarge), "error", 2),
    ((Infeasible, NoResilientQuorum), "infeasible", 3),
    ((SolverFailure,), "solver failure", 3),
    ((NoFeasibleCandidate,), "search exhausted", 4),
)
# Each config node field, with the Node field it sets.
_NODE_FIELDS = {"read_cap": "read_cap", "write_cap": "write_cap", "latency_s": "latency"}


@dataclass
class Config:
    nodes: list[Node]
    reads: str | None
    writes: str | None
    workload: Workload

    def quorum_system(self) -> QuorumSystem:
        if self.reads is None and self.writes is None:
            raise DomainError("config must declare reads, writes, or both")
        return QuorumSystem(self.nodes, reads=self.reads, writes=self.writes)


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # ValueError: bad JSON or UTF-8
        raise DomainError(f"cannot read config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise DomainError("config must be a JSON object")
    if raw.get("version") != "1":
        raise DomainError('config must declare "version": "1"')

    nodes_raw = raw.get("nodes")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        raise DomainError("config needs a nonempty list of nodes")
    nodes = []
    for entry in nodes_raw:
        if not isinstance(entry, dict) or "name" not in entry:
            raise DomainError(f"node entry {entry!r} needs a name")
        unknown = set(entry) - {"name", *_NODE_FIELDS}
        if unknown:
            raise DomainError(f"unknown node fields {sorted(unknown)}")
        fields = {field: entry[key] for key, field in _NODE_FIELDS.items() if key in entry}
        nodes.append(Node(entry["name"], **fields))

    reads = raw.get("reads")
    writes = raw.get("writes")
    for label, value in (("reads", reads), ("writes", writes)):
        if value is not None and not isinstance(value, str):
            raise DomainError(f"{label} must be an expression string")

    if "read_fraction" not in raw:
        raise DomainError("config needs a read_fraction")
    fr = raw["read_fraction"]
    if not isinstance(fr, (dict, int, float, str)):
        raise DomainError("read_fraction must be a number or a map")
    workload = Workload.coerce(fr)

    unknown = set(raw) - {"version", "nodes", "reads", "writes", "read_fraction"}
    if unknown:
        raise DomainError(f"unknown config fields {sorted(unknown)}")
    return Config(nodes, reads, writes, workload)


def _q9(value) -> float:
    """Quantize to 9 decimal places for byte-stable output."""
    return float(f"{float(value):.9f}")


def _dist_doc(dist) -> list[dict]:
    return [{"quorum": sorted(quorum), "prob": _q9(prob)} for quorum, prob in dist]


def _strategy_doc(sigma: Strategy, workload: Workload) -> dict:
    return {
        "read_dist": _dist_doc(sigma.dist("read")),
        "write_dist": _dist_doc(sigma.dist("write")),
        "load": _q9(sigma.load(workload)),
        "capacity": _q9(sigma.capacity(workload)),
        "latency": _q9(sigma.latency(workload)),
        "network_load": _q9(sigma.network_load(workload)),
    }


def _emit(doc: dict | list[dict], table: bool) -> None:
    """The one writer to stdout. A list of rows is written as CSV: a header
    of the first row's keys, then one line per row, floats at 9 decimals and
    strings as given. A dict is written as indented JSON or, with table, as
    aligned ``key  value`` rows: one per scalar field, in the document's
    order, then one per quorum of the read and write distributions of doc,
    or of its strategy."""
    if isinstance(doc, list):
        lines = [doc[0].keys()] + [
            [f"{v:.9f}" if isinstance(v, float) else v for v in row.values()] for row in doc]
        sys.stdout.write("".join(",".join(line) + "\n" for line in lines))
        return
    if not table:
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return
    rows = [(k, str(v)) for k, v in doc.items() if not isinstance(v, (list, dict))]
    dists = doc.get("strategy", doc)
    for side in ("read", "write"):
        for entry in dists.get(f"{side}_dist", []):
            quorum = "{" + ", ".join(entry["quorum"]) + "}"
            rows.append((f"{side} {quorum}", f"{entry['prob']:.9f}"))
    width = max(len(key) for key, _ in rows)
    sys.stdout.write("".join(f"{key.ljust(width)}  {value}\n" for key, value in rows))


def _constraints(args) -> Constraints:
    return Constraints(args.capacity_limit, args.latency_limit, args.network_limit)


def cmd_analyze(config: Config, args) -> dict:
    qs = config.quorum_system()
    sigma = find_strategy(qs, config.workload, "load", f=args.f)
    w = config.workload
    return {
        "reads": str(canonical(qs.reads)),
        "writes": str(canonical(qs.writes)),
        "fault_tolerance": qs.fault_tolerance(),
        "read_ft": qs.fault_tolerance("read"),
        "write_ft": qs.fault_tolerance("write"),
        "capacity": _q9(sigma.capacity(w)),
        "load": _q9(sigma.load(w)),
        "latency": _q9(sigma.latency(w)),
        "network_load": _q9(sigma.network_load(w)),
    }


def cmd_strategy(config: Config, args) -> dict:
    qs = config.quorum_system()
    sigma = find_strategy(qs, config.workload, args.optimize, _constraints(args), f=args.f)
    return _strategy_doc(sigma, config.workload)


def cmd_search(config: Config, args) -> dict:
    if config.reads is not None or config.writes is not None:
        raise DomainError("search configs must not fix reads or writes")
    options = SearchOptions(objective=args.optimize, constraints=_constraints(args),
                            min_fault_tolerance=args.fault_tolerance, f=args.f,
                            timeout=args.timeout, budget=args.budget)
    result = search(config.nodes, config.workload, options)
    return {
        "reads": str(canonical(result.strategy.qs.reads)),
        "writes": str(canonical(result.strategy.qs.writes)),
        "strategy": _strategy_doc(result.strategy, config.workload),
        "metric": _q9(result.metric_value),
        "candidates_examined": result.candidates_examined,
    }


def cmd_curve(config: Config, args) -> list[dict]:
    if args.points <= 0:
        raise DomainError("--points must be positive")
    qs = config.quorum_system()
    grid = [Fraction(i, args.points) for i in range(args.points + 1)]
    if args.fixed:
        sigma = find_strategy(qs, config.workload, "load", f=args.f)
        rows = [(fr, sigma.capacity(fr)) for fr in grid]
    else:
        rows = capacity_curve(qs, grid, f=args.f)
    return [{"read_fraction": repr(float(fr)), "capacity": _q9(cap)} for fr, cap in rows]


def cmd_breakdown(config: Config, args) -> list[dict]:
    qs = config.quorum_system()
    if args.uniform:
        sigma = uniform_strategy(qs)
    else:
        sigma = find_strategy(qs, config.workload, "load")
    return [{"node": node, "side": side, "quorum": "*".join(sorted(q)), "throughput": _q9(thr)}
            for node, side, q, thr in throughput_breakdown(sigma, config.workload)]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, on every subcommand, are one
    ``error: ...`` line on stderr and exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


# Every command line option, declared once; build_parser gives each command
# the config argument and its own options from here.
_OPTIONS = {
    "config": {"help": "JSON config file"},
    "--optimize": {"choices": ["load", "latency", "network"], "default": "load"},
    "--capacity-limit": {"type": float, "default": None},
    "--latency-limit": {"type": float, "default": None},
    "--network-limit": {"type": float, "default": None},
    "--fault-tolerance": {"type": int, "default": 0},
    "--f": {"type": int, "default": 0, "help": "resilience level"},
    "--timeout": {"type": float, "default": None, "help": "wall-clock seconds"},
    "--budget": {"type": int, "default": None, "help": "candidate count budget"},
    "--table": {"action": "store_true", "help": "human-readable output"},
    "--points": {"type": int, "default": 10, "help": "grid intervals"},
    "--fixed": {
        "action": "store_true",
        "help": "evaluate the workload-optimal strategy instead of re-optimizing per point",
    },
    "--uniform": {"action": "store_true", "help": "use the uniform strategy"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args leaves
    it unchanged and returns a fresh namespace on every call."""
    parser = _Parser(
        prog="quorumopt",
        description="Analyze and optimize read-write quorum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    limits = ("--optimize", "--capacity-limit", "--latency-limit", "--network-limit")
    commands = [
        ("analyze", "metrics of the load-optimal strategy", cmd_analyze,
         ("--f", "--table")),
        ("strategy", "optimize a strategy for the config's system", cmd_strategy,
         (*limits, "--f", "--table")),
        ("search", "search duplicate-free quorum systems", cmd_search,
         (*limits, "--fault-tolerance", "--f", "--timeout", "--budget", "--table")),
        ("curve", "capacity vs read fraction as CSV", cmd_curve,
         ("--points", "--f", "--fixed")),
        ("breakdown", "per-node per-quorum throughput as CSV", cmd_breakdown,
         ("--uniform",)),
    ]
    for name, summary, func, options in commands:
        p = sub.add_parser(name, help=summary)
        for option in ("config", *options):
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command: load its config, write the document it returns, and
    map an error of ``_EXITS`` to its stderr line and exit code."""
    args = build_parser().parse_args(argv)
    try:
        doc = args.func(load_config(args.config), args)
    except QuorumError as e:
        for errors, prefix, code in _EXITS:
            if isinstance(e, errors):
                print(f"{prefix}: {e}", file=sys.stderr)
                return code
        raise
    _emit(doc, getattr(args, "table", False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
