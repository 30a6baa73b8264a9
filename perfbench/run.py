"""quorumopt benchmark: one command, three workloads.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload plan|wide|search --seed N \
        --seconds S --trace 0|1

It generates the workload's inputs from ``--seed`` (``random.Random`` only),
writes them as config files into a scratch directory under ``.perfbench/``,
and drives ``quorumopt.cli.main(argv)`` in-process as a closed loop with one
client: each command starts when the previous one returns. The command
stream is repeated in passes for about ``--seconds``. Outputs are checked
(see ``checks.py``) outside the timed region. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a report with the environment, sample
counts, failures, digests and every end-to-end metric of the workload.

End-to-end metrics (``--trace 0``). A command's time is its best over the
passes of the run, because other tenants of a shared machine only ever slow
a command down:

* ``setup_s``: fresh interpreter until ``import quorumopt.cli`` returns,
  median of several fresh processes started one at a time;
* ``wall_s``: time of the whole warm command stream, the sum of its
  commands' times;
* ``peak_rss_mb``: peak resident memory of this process, which ran the
  workload.

The report line adds ``cmd_p50_s`` (median command time), ``cmd_p90_s`` on
``plan`` (the only workload with ten samples beyond p90),
``candidates_per_s`` on ``search`` (``candidates_examined`` over the time
spent in searches) and ``failed_frac``, with their sample counts.

``--trace 1`` interleaves untraced and traced passes and reports the
per-layer metrics defined in ``tracing.py`` with ``trace.overhead_frac``. Work
counts must repeat exactly across traced passes. The spans of the last
traced pass are written to ``.perfbench/trace-<workload>-<seed>.jsonl.gz``.

``HELD_OUT_SEED`` was never used while the benchmark was tuned; confirm a
claimed gain on it as well as on the seeds the claim was developed with.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
DATA = ROOT / "tests" / "data"
OUTPUT_DIR = ROOT / ".perfbench"

HELD_OUT_SEED = 7368
SETUP_RUNS = 5
# Passes of an untraced run, and traced passes of a traced run, at least:
# three samples of every command, and two traced passes whose work counts
# must agree.
MIN_PASSES = 3
MIN_TRACED = 2
SETUP_CODE = "import time, quorumopt.cli; print(time.monotonic())"
# The end-to-end metrics on the result line, which BENCHMARK.json bounds.
# The others are in the report line only: cmd_p90_s and candidates_per_s
# exist on one workload each, failed_frac is 0 when all is well, and
# cmd_p50_s, the time of one of 5 or 7 commands on search and wide, moves
# with machine noise more than its bound allows.
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description="quorumopt benchmark")
    p.add_argument("--workload", required=True, choices=["plan", "wide", "search"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(runs: int) -> list[float]:
    """Seconds from starting a fresh interpreter to ``import quorumopt.cli``
    returning, one process at a time. A first, unrecorded process compiles
    bytecode in a fresh checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for i in range(runs + 1):
        start = time.monotonic()
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            samples.append(float(done.stdout.split()[-1]) - start)
    return samples


class PassResult:
    def __init__(self):
        self.codes: list[int | None] = []
        self.outs: list[str] = []
        self.errs: list[str] = []
        self.times: list[float] = []
        self.wall = 0.0

    def digest(self) -> str:
        h = hashlib.sha256()
        for out in self.outs:
            h.update(out.encode())
        return h.hexdigest()


def run_pass(cli, argvs, tracer=None) -> PassResult:
    res = PassResult()
    begin = time.perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = None
                err.write(traceback.format_exc())
            res.times.append(time.perf_counter() - start)
        res.codes.append(code)
        res.outs.append(out.getvalue())
        res.errs.append(err.getvalue())
    res.wall = time.perf_counter() - begin
    return res


def check_outputs(commands, res: PassResult, systems, expected) -> dict[int, str]:
    """Problems of one pass by command index; absent means correct."""
    import checks

    problems: dict[int, str] = {}
    for i, cmd in enumerate(commands):
        code, out, err = res.codes[i], res.outs[i], res.errs[i]
        found: list[str] = []
        if code is None:
            found = ["traceback: " + err.strip().splitlines()[-1]]
        elif code != cmd.expect:
            first = err.strip().splitlines()[0] if err.strip() else ""
            found = [f"exit {code}, planned {cmd.expect}: {first}"]
        elif code != 0:
            if out or not err.startswith("infeasible:") or err.count("\n") != 1:
                found = [f"exit {code} without a one-line 'infeasible:' message"]
        elif not out:
            found = ["empty output with exit 0"]
        elif cmd.kind == "golden":
            if out != (GOLDEN / cmd.golden).read_text():
                found = [f"output differs from golden {cmd.golden}"]
        else:
            try:
                if cmd.kind == "analyze":
                    found = checks.check_analyze(cmd, out, systems)
                elif cmd.kind == "strategy":
                    found = checks.check_strategy(cmd, out, systems)
                elif cmd.kind == "curve":
                    found = checks.check_curve(cmd, out, systems, res.outs)
                elif cmd.kind == "breakdown":
                    found = checks.check_breakdown(cmd, out, systems)
                else:
                    found = checks.check_search(cmd, out, systems, expected[i])
            except Exception as exc:  # malformed output: the check cannot proceed
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[i] = "; ".join(found)
    return problems


def _best_times(results: list[PassResult]) -> list[float]:
    return [min(times) for times in zip(*(r.times for r in results))]


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "quorumopt" / "cli.py").is_file():
        _die(f"no quorumopt sources under {SRC.name}/; run from a repository checkout")
    if not GOLDEN.is_dir() or not DATA.is_dir():
        _die("tests/golden and tests/data are missing; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import quorumopt
    import quorumopt.cli as cli

    if not Path(quorumopt.__file__).resolve().is_relative_to(SRC):
        _die(f"imported quorumopt from {quorumopt.__file__}, not from the checkout")

    import checks
    import tracing
    import workloads

    env = _environment()
    setup = measure_setup(SETUP_RUNS) if args.trace == 0 else []

    generate = workloads.GENERATORS[args.workload]
    stream = generate(args.seed)
    input_digest = hashlib.sha256(stream.digest_text().encode()).hexdigest()
    regenerated = hashlib.sha256(generate(args.seed).digest_text().encode()).hexdigest()
    problems_global = []
    if regenerated != input_digest:
        problems_global.append("the same seed generated different inputs")

    OUTPUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUTPUT_DIR))
    try:
        workloads.write_configs(stream, work, DATA)
        systems = checks.Systems(work)
        workloads.resolve_limits(stream, systems)
        commands = stream.commands
        expected = {
            i: checks.enumerated_count(systems.get(c.config).names, c.budget)
            for i, c in enumerate(commands)
            if c.kind == "search"
        }
        argvs = [c.argv(str(work)) for c in commands]
        # Lazy imports and first-call set-up inside scipy happen here, untimed.
        shutil.copy(DATA / "majority3.json", work / "warmup.json")
        run_pass(cli, [["strategy", str(work / "warmup.json")], ["curve", str(work / "warmup.json")]])

        passes: list[PassResult] = []
        traced: list[PassResult] = []
        layer_runs: list[dict] = []
        tracer = None
        begin = time.perf_counter()

        def elapsed_with_next(results):
            return time.perf_counter() - begin + _median([r.wall for r in results])

        if args.trace == 0:
            while len(passes) < MIN_PASSES or elapsed_with_next(passes) <= args.seconds:
                passes.append(run_pass(cli, argvs))
        else:
            # One untraced pass, the traced minimum, then alternation while
            # time remains, so that both kinds of pass see the same machine
            # conditions and their difference is the tracing overhead.
            tracer = tracing.Tracer()
            while len(traced) < MIN_TRACED or elapsed_with_next(passes + traced) <= args.seconds:
                if not passes or len(traced) >= MIN_TRACED and len(passes) < len(traced):
                    passes.append(run_pass(cli, argvs))
                    continue
                tracer.reset()
                tracer.install(quorumopt)
                try:
                    traced.append(run_pass(cli, argvs, tracer))
                finally:
                    tracer.uninstall()
                layer_runs.append(tracer.summarize())
                if tracer.candidates_mismatch:
                    problems_global.append("traced candidates != SearchResult.candidates_examined")

        # Checks: the first pass in full, every other pass against it.
        first = passes[0]
        problems = check_outputs(commands, first, systems, expected)
        attempted = failed = 0
        for res in passes + traced:
            for i in range(len(commands)):
                attempted += 1
                same = res.codes[i] == first.codes[i] and res.outs[i] == first.outs[i]
                if i in problems or not same:
                    failed += 1
                    if not same:
                        problems.setdefault(i, "output differs between passes")
        if layer_runs:
            counts = [tracing.exact_counts(m) for m in layer_runs]
            differing = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
            if differing:
                problems_global.append(f"work counts differ between passes: {differing}")

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED,
            "why": workloads.WHY[args.workload],
            "environment": env,
            "loop": "closed, one client, in-process",
            "commands_per_pass": len(commands),
            "planned_exit_3": sum(c.expect == 3 for c in commands),
            "passes": len(passes),
            "traced_passes": len(traced),
            "input_digest": input_digest,
            "stdout_digest": first.digest(),
            "failures": [
                {"command": i, "argv": commands[i].argv("WORK"), "cause": problems[i]}
                for i in sorted(problems)
            ][:50],
            "problems": problems_global,
        }
        # Each command's time is its best over the passes: other tenants of a
        # shared machine only ever slow a command down.
        best = _best_times(passes)
        e2e = {}
        if args.trace == 0:
            e2e["setup_s"] = (_median(setup), "s")
            e2e["wall_s"] = (sum(best), "s")
            e2e["cmd_p50_s"] = (statistics.median(best), "s")
            if args.workload == "plan":
                e2e["cmd_p90_s"] = (statistics.quantiles(best, n=10)[-1], "s")
            if args.workload == "search":
                searched = [i for i in range(len(commands)) if argvs[i][0] == "search" and first.codes[i] == 0]
                examined = sum(json.loads(first.outs[i])["candidates_examined"] for i in searched)
                e2e["candidates_per_s"] = (examined / sum(best[i] for i in searched), "1/s")
            e2e["failed_frac"] = (failed / attempted, "ratio")
            e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            report["samples"] = {
                "setup_s": len(setup),
                "cmd": len(best),
                "passes_per_cmd": len(passes),
            }
            report["pass_wall_s"] = [r.wall for r in passes]
            report["setup_samples_s"] = setup
            report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
            metrics = {
                k: {"value": e2e[k][0], "unit": e2e[k][1]}
                for k in GATED
            }
        else:
            units = tracing.metric_units()
            merged = {}
            for key in units:
                if key == "trace.overhead_frac":
                    continue
                values = [m[key] for m in layer_runs]
                merged[key] = _median(values) if key.endswith("self_s") else values[-1]
            merged["trace.overhead_frac"] = sum(_best_times(traced)) / sum(best) - 1
            metrics = {k: {"value": merged[k], "unit": units[k]} for k in units}
            spans_path = OUTPUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl.gz"
            report["spans"] = {"file": str(spans_path.relative_to(ROOT)), "count": tracer.write(spans_path)}
            report["absent_callables"] = tracer.absent
            report["computed_not_measured"] = ["lp.matrix_bytes"]
            report["samples"] = {"traced_passes": len(traced), "untraced_passes": len(passes)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems and not problems_global
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
