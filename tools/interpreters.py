"""Compare the command line's stdout across Python interpreters.

Usage::

    python3 tools/interpreters.py PYTHON [PYTHON ...]

Each PYTHON is the path of an interpreter, 3.10 or newer.  The interpreter
that runs this script is the reference: it must import click, and the
distributions below that it has installed (all pure Python) are linked into
a temporary directory that goes on every run's ``PYTHONPATH``, after
``src``.  So the other interpreters need no packages of their own.

Every listed interpreter runs the same commands, and each one's stdout and
exit code are compared with the reference's.  Then the test suite runs on
every interpreter where pytest and hypothesis import.  The script exits 1
if any command differs or any suite fails.  Child processes write no
bytecode, so the linked packages stay as installed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# the pure-Python distributions behind click and the test suite
DISTRIBUTIONS = (
    "click", "pytest", "pluggy", "iniconfig", "packaging", "pygments",
    "hypothesis", "attrs", "sortedcontainers",
)


def _link_packages(target: Path) -> None:
    """Symlink each installed distribution's top-level files into target."""
    for name in DISTRIBUTIONS:
        try:
            dist = importlib.metadata.distribution(name)
        except importlib.metadata.PackageNotFoundError:
            continue
        tops = {file.parts[0] for file in dist.files or ()}
        for top in sorted(tops - {"..", "__pycache__"}):
            source = Path(dist.locate_file(top))
            if source.exists() and not (target / top).exists():
                (target / top).symlink_to(source)


def _commands(work: Path) -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from pmgraph import build, graph_to_text
    from surgery import subdivide

    graph = build("g3.XIV", {"a": 2, "b": 3, "c": 5, "d": 7, "e": 11, "f": 13})
    for edge, t in (("a", "1/3"), ("c", "2/5"), ("f", "1/2")):
        graph = subdivide(graph, edge, t)
    path = work / "subdivided.graph"
    path.write_text(graph_to_text(graph))
    # K4 with a length in every literal shape the grammar accepts, and a
    # loop whose length has a digit separator, which it does not
    shapes = work / "literal_shapes.graph"
    shapes.write_text(
        "".join(f"vertex {v}\n" for v in "1234")
        + "".join(
            f"edge {name} {u} {v} {length}\n"
            for name, u, v, length in zip(
                "abcdef", "111223", "234344", ["7/3", "2.5", "1e3", "+3", "٣", "1"]
            )
        ),
        encoding="utf-8",
    )
    separator = work / "digit_separator.graph"
    separator.write_text("vertex X q=2\nedge a X X 1_000\n")
    # a weight with a digit separator, which int() alone reads from 3.6 on
    weight = work / "weight_separator.graph"
    weight.write_text("vertex X q=1_0\nedge a X X 1\n")
    return [
        ["verify", "bounds", "--samples", "60", "--seed", "5", "--json"],
        ["catalog", "check", "--samples", "15", "--seed", "3"],
        ["verify", "identities"],
        ["invariants", str(path), "--json"],
        ["resistance", str(path)],
        ["invariants", str(shapes), "--json"],
        ["invariants", str(separator)],
        ["invariants", str(weight)],
        # values far outside float's range, printed with their approximations
        ["invariants", str(DATA / "k4_lengths_1e400.graph")],
        ["invariants", str(DATA / "k4_lengths_1e-400.graph")],
        # values past the default limit of 4300 digits on int-to-str
        ["invariants", str(DATA / "two_arcs_2500_digits.graph")],
        ["invariants", str(DATA / "two_arcs_2500_digits.graph"), "--json"],
        ["resistance", str(DATA / "two_arcs_2500_digits.graph")],
    ]


def _run(python: str, args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [python, *args], capture_output=True, cwd=ROOT, env=env, timeout=600
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON")
    options = parser.parse_args()

    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        links = work / "site"
        links.mkdir()
        _link_packages(links)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(links)]),
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        commands = _commands(work)
        reference = [_run(sys.executable, ["-m", "pmgraph.cli", *args], env) for args in commands]
        for python in options.pythons:
            version = _run(python, ["-c", "import sys; print(sys.version.split()[0])"], env)
            print(f"== {python} (Python {version.stdout.decode().strip()})")
            for args, expected in zip(commands, reference):
                got = _run(python, ["-m", "pmgraph.cli", *args], env)
                same = (got.returncode, got.stdout) == (expected.returncode, expected.stdout)
                failed |= not same
                status = "same" if same else "DIFFERS"
                shown = " ".join(Path(a).name for a in args)
                print(f"  {status:8s}  exit {got.returncode}  pmgraph {shown}")
            if _run(python, ["-c", "import pytest, hypothesis"], env).returncode:
                print("  tests     not run: pytest or hypothesis does not import")
                continue
            suite = _run(python, ["-m", "pytest", "-q", "-p", "no:cacheprovider"], env)
            failed |= suite.returncode != 0
            summary = suite.stdout.decode().strip().splitlines()[-1:] or ["(no output)"]
            print(f"  tests     {summary[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
