"""Count the bytecode instructions each benchmark op executes, per commit.

Usage, from a pmgraph checkout::

    python3 tools/work.py [--python PYTHON] [--workload NAME ...] [--functions N] REF [REF ...]

Wall time on a shared host drifts from run to run; the number of bytecode
instructions an op executes does not.  Each REF is exported with
``git archive`` into ``.bench_build/work/<commit>``, and each export is run
in its own process of PYTHON, which must be Python 3.12 (default
``python3.12``).  PYTHON may be a command on ``PATH`` or an explicit
interpreter path; pass the path of a pyenv version's ``bin/python3.12``
where the bare command is a pyenv shim that finds no 3.12.  If PYTHON
cannot be run or is not 3.12, the script prints why, with the child's exit
code and stderr, and exits 1.

The PYTHON process builds the workload's ops with the export's own
``bench/workloads.py`` at seed 1, keeps the first ``TRACE_PASS`` of them
(the leading ops that visit the workload's mix evenly), runs each one once
to warm up, and then counts one pass of each op through the export's
``bench/run.py`` ``run_command``, with one ``sys.monitoring`` INSTRUCTION
callback.  After the workloads it counts one ``import pmgraph.cli`` from the
export's ``src``, in a process that has first imported every
standard-library and click module the package's sources name, so the row
holds the package's own import-time work (its module bodies, and the import
system finding and loading them).  The interpreter that runs this script
must import click: its pure-Python packages are linked for PYTHON as
``tools/interpreters.py`` links them.

Each REF is counted twice, in fresh processes under the hash seeds 0 and 1,
and the script exits 1 if the two counts differ, or if two REFs of the same
tree read different counts.  It prints, per workload and for the import,
each REF's instructions per op and its ratio to the first REF.  A tree
compared with itself reads a ratio of exactly 1.  With ``--functions N`` it
also prints, per workload, each REF's N functions that execute the most
instructions themselves (callees not included), per op and as a share of
the op; a function is named by its file, relative to the export when it is
the export's own, and its qualified name, and the per-function counts are
held to the same hash-seed check.  Child processes write no bytecode.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPORTS = ROOT / ".bench_build" / "work"
WORKLOADS = ("catalog-verify", "subdivided-g3", "certificates")
SEED = 1
HASH_SEEDS = ("0", "1")
IMPORT = "import pmgraph.cli"
LIMITS = """\
Limits: only interpreted bytecode is counted, so no C-level work is seen:
big-integer arithmetic, math.gcd and math.lcm, str of large ints, and dict,
set and regex operations cost nothing here.  It runs on Python 3.12 only,
and counts compare only between runs of one interpreter.  Quote it beside
wall-time numbers, never in place of them."""


def _outside_imports(package: Path) -> list[str]:
    """Every absolute module the package's sources import, ``__future__``
    and the package itself left out."""
    names = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return sorted(name for name in names if name.split(".")[0] not in ("__future__", package.name))


def _label(tree: Path, filename: str, qualname: str) -> str:
    # a function's name in the table: its file relative to the export when
    # it is the export's own, else the file's base name, and its qualname
    path = Path(filename)
    shown = path.relative_to(tree).as_posix() if path.is_relative_to(tree) else path.name
    return f"{shown}:{qualname}"


def count(tree: str, workload: str, functions: str = "") -> None:
    """Run in the PYTHON process: print the ops counted and their total
    instructions as one JSON line.  ``IMPORT`` counts one import of the
    tree's ``pmgraph.cli`` as its one op.  With ``functions`` set, the line
    also holds each function's own instructions, by its ``_label``."""
    if sys.version_info[:2] != (3, 12):
        raise SystemExit(f"error: instructions are counted on Python 3.12, not {sys.version}")
    monitoring = sys.monitoring
    tool, event = monitoring.PROFILER_ID, monitoring.events.INSTRUCTION
    total = 0
    codes: Counter = Counter()

    def tick(code, offset):
        nonlocal total
        total += 1

    def tick_code(code, offset):
        codes[code] += 1

    monitoring.use_tool_id(tool, "work")
    monitoring.register_callback(tool, event, tick_code if functions else tick)
    if workload == IMPORT:
        src = Path(tree) / "src"
        for name in _outside_imports(src / "pmgraph"):
            importlib.import_module(name)
        sys.path.insert(0, str(src))
        monitoring.set_events(tool, event)
        importlib.import_module("pmgraph.cli")
        monitoring.set_events(tool, 0)
        print(json.dumps(_result(Path(tree), 1, total, codes)))
        return
    sys.path.insert(0, str(Path(tree) / "bench"))
    import run
    import workloads

    pm = run.load_program()
    main = sys.modules["pmgraph.cli"].main
    with tempfile.TemporaryDirectory() as work:
        ops = workloads.make_ops(workload, pm, SEED, Path(work))[: workloads.TRACE_PASS[workload]]
        for op in ops:
            for args in op.commands:
                run.run_command(main, args)
        for op in ops:
            monitoring.set_events(tool, event)
            for args in op.commands:
                run.run_command(main, args)
            monitoring.set_events(tool, 0)
    print(json.dumps(_result(Path(tree), len(ops), total, codes)))


def _result(tree: Path, ops: int, total: int, codes: Counter) -> dict:
    # a count's JSON line; per function only when counted per code object
    if not codes:
        return {"ops": ops, "instructions": total}
    functions: Counter = Counter()
    for code, n in codes.items():
        functions[_label(tree, code.co_filename, code.co_qualname)] += n
    return {"ops": ops, "instructions": sum(codes.values()), "functions": dict(functions)}


def function_table(functions: Counter, ops: int, top: int) -> list[str]:
    """The ``top`` functions of ``functions`` (own instructions over ``ops``
    ops, by label) as table rows: instructions per op, share of all the
    instructions counted, label.  Ties go by label, so the rows are
    deterministic."""
    total = sum(functions.values())
    ranked = sorted(functions.items(), key=lambda item: (-item[1], item[0]))[:top]
    rows = [f"    {'instructions/op':>16s} {'share':>7s}  function"]
    for label, n in ranked:
        rows.append(f"    {n / ops:16.1f} {100 * n / total:6.1f}%  {label}")
    return rows


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def _export(commit: str) -> Path:
    # the commit's files, once per commit; a partial export is redone
    tree = EXPORTS / commit
    if not tree.is_dir():
        partial = EXPORTS / f"{commit}.partial"
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as archive:
            archive.extractall(partial, filter="data")
        partial.rename(tree)
    return tree


def _counted(python: str, tree: Path, workload: str, env: dict, functions: bool) -> str:
    # the child's JSON line, compared whole across hash seeds
    tools = str(ROOT / "tools")
    code = f"import sys; sys.path.insert(0, {tools!r}); import work; work.count(*sys.argv[1:])"
    flag = ["functions"] if functions else []
    child = subprocess.run(
        [python, "-c", code, str(tree), workload, *flag], capture_output=True, env=env, timeout=3600
    )
    if child.returncode:
        error = child.stderr.decode()
        raise SystemExit(f"error: counting {tree.name} on {workload} failed:\n{error}")
    result = json.loads(child.stdout.decode().splitlines()[-1])
    return json.dumps(result, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("refs", nargs="+", metavar="REF")
    parser.add_argument("--python", default="python3.12",
                        help="a Python 3.12 interpreter: a command or a path")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--functions", type=int, default=0, metavar="N",
                        help="also print each REF's N functions with the most own instructions")
    options = parser.parse_args()
    sys.path.insert(0, str(ROOT / "tools"))
    from interpreters import _link_packages

    commits = [_git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
               for ref in options.refs]
    trees = [_git("rev-parse", f"{commit}^{{tree}}").decode().strip() for commit in commits]
    width = max(len(ref) for ref in options.refs)
    try:
        probe = subprocess.run(
            [options.python, "-c", "import sys; print(sys.version.split()[0])"],
            capture_output=True, text=True,
        )
    except OSError as error:
        print(f"error: cannot run {options.python}: {error.strerror or error}", file=sys.stderr)
        return 1
    version = probe.stdout.strip()
    if probe.returncode or not version.startswith("3.12."):
        print(f"error: {options.python} is Python {version or '?'}, not 3.12 "
              f"(exit code {probe.returncode})", file=sys.stderr)
        if probe.stderr.strip():
            print(probe.stderr.rstrip(), file=sys.stderr)
        return 1
    print(f"Bytecode instructions per op, counted with sys.monitoring on Python {version}, "
          f"seed {SEED}.")
    print(LIMITS)
    failed = False
    with tempfile.TemporaryDirectory() as links:
        _link_packages(Path(links))
        base = {**os.environ, "PYTHONPATH": links, "PYTHONDONTWRITEBYTECODE": "1"}
        for workload in (*(options.workload or WORKLOADS), IMPORT):
            per_op, tables = [], []
            for ref, commit in zip(options.refs, commits):
                tree = _export(commit)
                counts = {
                    _counted(options.python, tree, workload, {**base, "PYTHONHASHSEED": seed},
                             options.functions > 0)
                    for seed in HASH_SEEDS
                }
                results = [json.loads(line) for line in sorted(counts)]
                if len(counts) != 1:
                    totals = [result["instructions"] for result in results]
                    print(f"error: {ref} counted {totals} instructions, or per function "
                          f"differently, on {workload}", file=sys.stderr)
                    failed = True
                ops, total = results[0]["ops"], results[0]["instructions"]
                per_op.append(Fraction(total, ops))
                tables.append((Counter(results[0].get("functions", {})), ops))
            for i, j in ((i, j) for i in range(len(trees)) for j in range(i) if trees[i] == trees[j]):
                if per_op[i] != per_op[j]:
                    print(f"error: {options.refs[j]} and {options.refs[i]} are one tree "
                          f"and counted differently on {workload}", file=sys.stderr)
                    failed = True
            print(f"\n{workload}, once" if workload == IMPORT else f"\n{workload}, first {ops} ops")
            print(f"  {'REF':{width}s}  {'commit':12s} {'instructions/op':>16s} {'ratio':>8s}")
            for ref, commit, value in zip(options.refs, commits, per_op):
                ratio = value / per_op[0]
                print(f"  {ref:{width}s}  {commit[:12]:12s} {float(value):16.1f} {float(ratio):8.4f}")
            for ref, (table, ops) in zip(options.refs, tables if options.functions else ()):
                print(f"  {ref}: top {options.functions} functions by own instructions")
                print("\n".join(function_table(table, ops, options.functions)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
