"""``resistance --json`` and ``invariants --json`` print exactly their pinned
stdout on seeded graphs of 1 to 12 vertices.

The graphs cover loops, parallel edges, bridges, pendant trees, vertex
weights and subdivided catalog graphs, so both of the solve's producers
(the dense one on at most 4 vertices and the sparse one above) and the
reduced model are pinned byte for byte.  Each block of
``data/engine_stdout.txt`` holds a graph in the text format and the stdout
of both commands on it.  ``python tests/test_engine_stdout.py`` (with
``src`` on the path) writes the file again from the seeds below.
"""

import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from pmgraph import graph_to_text
from pmgraph.cli import main

PINNED = Path(__file__).parent / "data" / "engine_stdout.txt"
COMMANDS = ("resistance --json", "invariants --json")


def _graphs():
    from conftest import dense_graph, random_pm_graph, random_subdivided

    for n in range(1, 13):
        yield f"random_pm_graph({n}, Random('pin:{n}'))", random_pm_graph(n, random.Random(f"pin:{n}"))
        yield f"dense_graph({n}, Random('pin-dense:{n}'))", dense_graph(n, random.Random(f"pin-dense:{n}"))
    for fid in ("g1.IX", "g2.XIV", "g3.XIV"):
        for n in (8, 12):
            yield (f"random_subdivided({fid!r}, {n}, Random('pin-sub:{n}'))",
                   random_subdivided(fid, n, random.Random(f"pin-sub:{n}")))


def _stdout(text: str, command: str, tmp: Path) -> str:
    path = tmp / "graph.txt"
    path.write_text(text)
    result = CliRunner().invoke(main, [*command.split(), str(path)])
    assert result.exit_code == 0, result.output
    return result.stdout


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


def test_every_pinned_graph_is_present():
    assert [(name, text) for name, text, _ in BLOCKS] == [
        (name, graph_to_text(g)) for name, g in _graphs()
    ]
    assert all(tuple(outputs) == COMMANDS for _, _, outputs in BLOCKS)


@pytest.mark.parametrize("name, text, outputs", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_stdout_is_pinned(name, text, outputs, tmp_path):
    for command, expected in outputs.items():
        assert _stdout(text, command, tmp_path) == expected, command


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
