"""The CLI prints exactly its pinned stdout and exit codes.

``resistance --json``, ``invariants --json`` and ``invariants`` are pinned
on seeded graphs of 1 to 16 vertices.  The graphs cover loops, parallel
edges, bridges, pendant trees, vertex weights, a total genus above 20 (so a
two-digit ``delta`` label is printed) and subdivided catalog graphs, so
both of the solve's producers (the dense one on at most 4 vertices and the
sparse one above) and the reduced model are pinned byte for byte.  Each
block of ``data/engine_stdout.txt`` holds a graph in the text format and
the stdout of each command on it.

``data/cli_stdout.txt`` pins the exit code and the output (stdout, then
stderr) of the catalog, table and verification commands and of every
input error that ends in exit 2.  Those commands run in a directory
holding the files of :data:`FILES`, so a message that names a file is the
same on every machine.

``python tests/test_engine_stdout.py`` (with ``src`` on the path) writes
both files again from the seeds and cases below.
"""

import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from pmgraph import graph_to_text
from pmgraph.cli import main

PINNED = Path(__file__).parent / "data" / "engine_stdout.txt"
COMMANDS = ("resistance --json", "invariants --json", "invariants")
CLI_PINNED = Path(__file__).parent / "data" / "cli_stdout.txt"
# the input files the exit-2 cases read
FILES = {
    "leaves.txt": b"vertex a\nvertex b\nedge e a b 1\n",
    "apart.txt": b"vertex a q=1\nvertex b q=2\n",
    "empty.txt": b"",
    "garbled.txt": b"vertex a\nedge e a b 1\n",
    "latin1.txt": b"vertex \xe9 q=3\n",
    "heavy.txt": b"vertex X q=1001\nedge a X X 1\n",
}
LENGTHS = "--lengths a=1,b=2/3,c=3,d=5/7,e=2,f=11/13"
CLI_CASES = (
    *(f"table --genus {k} {LENGTHS}" for k in range(4)),
    *(f"table --genus {k} {LENGTHS} --format json" for k in range(4)),
    "verify bounds --samples 5 --seed 3",
    "verify bounds --samples 5 --seed 3 --json",
    "catalog check --samples 3 --seed 4",
    # every path to exit 2
    "catalog eval g9.X",
    "catalog check --family g9.X",
    "verify bounds --family g9.X",
    "verify bounds --family g0.I",
    "catalog eval g3.I --lengths a=1,b=1",
    "catalog eval g3.I --lengths a=1,b=1,c=1,z=1",
    "catalog eval g3.I --lengths a=1,b=1,c=x",
    "catalog eval g3.I --lengths a=1,b=1,c=1/0",
    "catalog eval g3.I --lengths a=1,b=1,c=-1",
    "catalog eval g3.I --lengths a",
    "catalog eval g3.I --lengths a=1,a=2",
    "table --genus 3 --lengths a=1",
    "table --genus 1 --lengths a=1,b=x,c=1,d=1",
    *(f"{command} {name}" for command in ("invariants", "resistance") for name in FILES),
    "verify identities --name nope",
)


def _graphs():
    from conftest import dense_graph, random_pm_graph, random_subdivided

    for n in range(1, 13):
        yield f"random_pm_graph({n}, Random('pin:{n}'))", random_pm_graph(n, random.Random(f"pin:{n}"))
        yield f"dense_graph({n}, Random('pin-dense:{n}'))", dense_graph(n, random.Random(f"pin-dense:{n}"))
    for fid in ("g1.IX", "g2.XIV", "g3.XIV"):
        for n in (8, 12):
            yield (f"random_subdivided({fid!r}, {n}, Random('pin-sub:{n}'))",
                   random_subdivided(fid, n, random.Random(f"pin-sub:{n}")))
    yield "random_pm_graph(16, Random('pin:16'))", random_pm_graph(16, random.Random("pin:16"))


def _stdout(text: str, command: str, tmp: Path) -> str:
    path = tmp / "graph.txt"
    path.write_text(text)
    result = CliRunner().invoke(main, [*command.split(), str(path)])
    assert result.exit_code == 0, result.output
    return result.stdout


def _cli(args: str) -> str:
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, data in FILES.items():
            Path(name).write_bytes(data)
        result = runner.invoke(main, args.split())
    # a command ends by its exit code, never by a traceback
    assert result.exception is None or isinstance(result.exception, SystemExit)
    return f"exit {result.exit_code}\n--- stdout\n{result.stdout}--- stderr\n{result.stderr}"


def _blocks() -> list[tuple[str, str, dict[str, str]]]:
    # "### <name>" opens a block with the graph's text; "### <command>" opens
    # that command's stdout
    blocks = []
    for chunk in PINNED.read_text().split("### ")[1:]:
        header, body = chunk.split("\n", 1)
        if header in COMMANDS:
            blocks[-1][2][header] = body
        else:
            blocks.append((header, body, {}))
    return blocks


BLOCKS = _blocks() if PINNED.exists() else []
CLI_BLOCKS = (
    [tuple(chunk.split("\n", 1)) for chunk in CLI_PINNED.read_text().split("### ")[1:]]
    if CLI_PINNED.exists() else []
)


def test_every_pinned_graph_is_present():
    assert [(name, text) for name, text, _ in BLOCKS] == [
        (name, graph_to_text(g)) for name, g in _graphs()
    ]
    assert all(tuple(outputs) == COMMANDS for _, _, outputs in BLOCKS)


def test_a_two_digit_delta_label_is_pinned():
    assert any("\ndelta10  = " in outputs["invariants"] for _, _, outputs in BLOCKS)


@pytest.mark.parametrize("name, text, outputs", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_stdout_is_pinned(name, text, outputs, tmp_path):
    for command, expected in outputs.items():
        assert _stdout(text, command, tmp_path) == expected, command


def test_every_cli_case_is_present():
    assert [args for args, _ in CLI_BLOCKS] == list(CLI_CASES)


@pytest.mark.parametrize("args, expected", CLI_BLOCKS, ids=[b[0] for b in CLI_BLOCKS])
def test_cli_output_is_pinned(args, expected):
    assert _cli(args) == expected


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    with tempfile.TemporaryDirectory() as tmp:
        parts = []
        for name, g in _graphs():
            text = graph_to_text(g)
            parts.append(f"### {name}\n{text}")
            parts += [f"### {command}\n{_stdout(text, command, Path(tmp))}" for command in COMMANDS]
    PINNED.write_text("".join(parts))
    CLI_PINNED.write_text("".join(f"### {args}\n{_cli(args)}" for args in CLI_CASES))
