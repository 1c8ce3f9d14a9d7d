"""End-to-end benchmark of the pmgraph command line, with an optional trace.

Usage, from the root of a pmgraph checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout and its click entry
point (``pmgraph.cli:main``) is called in-process, one call per command
line, with stdout and the exit code captured.  One client runs the ops in a
closed loop: the next op starts when the previous one is done and checked.

Set-up imports the package and writes the seeded inputs; it is repeated
and its median reported as ``setup_s``.  The first op then runs twice and
must print the same bytes both times.

``--trace 0`` runs ``--seconds / PASS_SECONDS`` passes over all ops (at
least one) and reports the end-to-end metrics over each op's fastest pass.
``--trace 1`` runs passes over the first ``TRACE_PASS`` ops, each op
untraced and then traced, until ``--seconds`` is used up (at least one
pass), reports calls and self time per op for each layer in
``tracer.LAYERS``, and writes the per-op spans to
``.bench_build/traces/<workload>-seed<seed>.json``.

Every op's output is checked (see ``workloads.py``); a failed check, a
nonzero exit or a raised exception counts the op as failed and the run
goes on.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
facts of the run (sizes, sample count, machine).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import click

from tracer import OP_SPAN, Tracer
from workloads import PASS_SECONDS, TRACE_PASS, WORKLOADS, Op, make_ops

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SETUP_REPEATS = 5
MAX_REPORTED_PROBLEMS = 5

# (layer, "c" for calls per op and/or "s" for self ms per op)
PER_LAYER = (
    (OP_SPAN, "s"),
    ("io.parse_graph", "cs"),
    ("graph.validate", "cs"),
    ("graph.connected_components", "cs"),
    ("graph.canonical_divisor", "c"),
    ("resistance.laplacian", "s"),
    ("resistance.resistance_matrix", "cs"),
    ("resistance.classify_edges", "cs"),
    ("invariants.invariant_set", "cs"),
    ("invariants.tau", "cs"),
    ("invariants.theta", "cs"),
    ("invariants.zhang_invariants", "cs"),
    ("invariants.delta", "s"),
    ("catalog.build", "cs"),
    ("catalog.closed_form", "cs"),
    ("catalog.cross_check", "s"),
    ("catalog.random_lengths", "s"),
    ("bounds.sample_check", "c"),
    ("bounds.engine_ratio", "cs"),
    ("bounds.witness_check", "s"),
    ("polynomials.Polynomial.__mul__", "cs"),
    ("polynomials.Polynomial.__add__", "cs"),
    ("polynomials.Polynomial.substitute", "s"),
    ("polynomials.Polynomial.evaluate", "s"),
    ("polynomials.Polynomial.__init__", "c"),
    ("identities.verify_identity", "s"),
)
ENGINE_LAYERS = ("resistance.resistance_matrix", "invariants.invariant_set", "bounds.engine_ratio")


def load_program():
    """Import pmgraph freshly from the checkout's ``src/`` and return it."""
    src = ROOT / "src"
    if not (src / "pmgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no pmgraph package under {src}; run from a pmgraph checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "pmgraph" or k.startswith("pmgraph.")]:
        del sys.modules[key]
    pm = importlib.import_module("pmgraph")
    importlib.import_module("pmgraph.cli")
    if not Path(pm.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported pmgraph from {pm.__file__}, not from {src}")
    return pm


def run_command(main: click.Group, args: tuple[str, ...]) -> tuple[int, str]:
    """Run one command line in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            returned = main.main(list(args), prog_name="pmgraph", standalone_mode=False)
            code = returned if isinstance(returned, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except click.ClickException as exc:
            code = exc.exit_code
    return code, out.getvalue()


class Tally:
    """Counts attempted and failed ops; reports the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, op: Op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_PROBLEMS:
                print(f"FAILED {op.commands}: {'; '.join(problems)[:2000]}", file=sys.stderr)


def execute(main: click.Group, op: Op, tally: Tally, tracer: Tracer | None = None) -> float:
    """Run and check one op; return the seconds its command lines took."""
    span = tracer.op() if tracer else contextlib.nullcontext()
    start = perf_counter()
    try:
        with span:
            results = [run_command(main, args) for args in op.commands]
    except Exception as exc:  # a raising op is a failed op, not a failed run
        elapsed = perf_counter() - start
        tally.record(op, [f"raised {type(exc).__name__}: {exc}"])
        return elapsed
    elapsed = perf_counter() - start
    try:
        problems = op.check(results)
    except Exception as exc:  # output the check cannot even read
        problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
    tally.record(op, problems)
    return elapsed


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and write the inputs, several times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pm = load_program()
        ops = make_ops(workload, pm, seed, workdir)
        times.append(perf_counter() - start)
    return pm, ops, statistics.median(times)


def stdout_is_stable(main: click.Group, op: Op) -> bool:
    """Identical invocations must print byte-identical stdout."""
    first = [run_command(main, args) for args in op.commands]
    second = [run_command(main, args) for args in op.commands]
    return [(c, o.encode()) for c, o in first] == [(c, o.encode()) for c, o in second]


def measure(main: click.Group, ops: list[Op], passes: int, tally: Tally) -> list[float]:
    """Run every op once per pass; return each op's fastest time.

    The speed of a shared host drifts by tens of percent over a few
    seconds, so an op's cost is its fastest run, taken from passes that lie
    seconds apart.
    """
    best = [math.inf] * len(ops)
    for _ in range(passes):
        for i, op in enumerate(ops):
            best[i] = min(best[i], execute(main, op, tally))
    return best


def end_to_end(best: list[float], setup_s: float) -> dict:
    """Latency percentiles and throughput over the ops' fastest times."""
    ms = sorted(1000 * d for d in best)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "ops_per_s": {"value": len(ms) / (sum(ms) / 1000), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced_passes(main: click.Group, ops: list[Op], seconds: float, tally: Tally, tracer: Tracer):
    """Run each op untraced and then traced, pass after pass, within ``seconds``.

    At least one pass runs.  Whole passes keep ``calls_per_op`` independent
    of machine speed, and running the two versions of an op back to back
    keeps the drift of the host out of the tracing overhead.  Returns the
    total untraced and traced op seconds.
    """
    plain = traced = 0.0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for op in ops:
            plain += execute(main, op, tally)
            with tracer.active():
                traced += execute(main, op, tally, tracer)
        if perf_counter() - start + (perf_counter() - pass_start) > seconds:
            return plain, traced


def per_layer(tracer: Tracer, plain: float, traced: float) -> dict:
    stats = tracer.per_op()
    metrics = {}
    for layer, kinds in PER_LAYER:
        calls, self_ms = stats[layer]
        if "c" in kinds:
            metrics[f"{layer}.calls_per_op"] = {"value": calls, "unit": "calls/op"}
        if "s" in kinds:
            metrics[f"{layer}.self_ms_per_op"] = {"value": self_ms, "unit": "ms/op"}
    metrics["trace.overhead_frac"] = {"value": traced / plain - 1, "unit": "frac"}
    return metrics


def design_facts(pm, tracer: Tracer, ops: list[Op]) -> dict:
    """Figures that confirm what each workload was chosen to stress."""
    stats = tracer.per_op()
    op_ms = sum(self_ms for _, self_ms in stats.values())
    facts = {
        "resistance_matrix_self_frac": stats["resistance.resistance_matrix"][1] / op_ms,
        "polynomial_calls_per_op": sum(c for name, (c, _) in stats.items() if name.startswith("polynomials.")),
        "engine_calls_per_op": sum(stats[name][0] for name in ENGINE_LAYERS),
    }
    paths = [op.path for op in ops if op.path]
    if paths:  # largest resistance numerator or denominator, outside any timed window
        solve = sys.modules["pmgraph.resistance"].resistance_matrix
        bits = 0
        for path in paths:
            matrix = solve(pm.parse_graph(Path(path).read_text(encoding="utf-8")))
            for row in matrix.values:
                bits = max([bits] + [max(x.numerator.bit_length(), x.denominator.bit_length()) for x in row])
        facts["max_resistance_bits"] = bits
    return facts


def write_trace(workload: str, seed: int, ops: list[Op], tracer: Tracer) -> Path:
    path = BUILD / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [
        {"commands": ops[i % len(ops)].commands, "spans": {k: [c, 1000 * s] for k, (c, s) in spans.items()}}
        for i, spans in enumerate(tracer.ops)
    ]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "ops": records}), encoding="utf-8")
    return path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD))
    try:
        pm, ops, setup_s = set_up(workload, seed, workdir)
        main = pm.cli.main
        if not stdout_is_stable(main, ops[0]):
            raise SystemExit(f"error: two runs of {ops[0].commands} printed different stdout")
        tally = Tally()
        info = {
            "workload": workload,
            "seed": seed,
            "ops_in_list": len(ops),
            "n_range": [min(op.n for op in ops), max(op.n for op in ops)],
            "e_range": [min(op.e for op in ops), max(op.e for op in ops)],
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
        }
        if trace:
            tracer = Tracer()
            traced_ops = ops[: TRACE_PASS[workload]]
            plain, traced = traced_passes(main, traced_ops, seconds, tally, tracer)
            metrics = per_layer(tracer, plain, traced)
            info["traced_ops"] = len(tracer.ops)
            info["missing_layers"] = tracer.missing
            info["design"] = design_facts(pm, tracer, traced_ops)
            info["trace_file"] = str(write_trace(workload, seed, traced_ops, tracer).relative_to(ROOT))
        else:
            # the pass count depends on --seconds only, so every commit gets the same
            passes = max(1, round(seconds / PASS_SECONDS[workload]))
            best = measure(main, ops, passes, tally)
            metrics = end_to_end(best, setup_s)
            info["samples"] = len(best)
            info["passes"] = passes
        info["error_rate"] = tally.failed / tally.attempted
        print(json.dumps({"info": info}))
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
