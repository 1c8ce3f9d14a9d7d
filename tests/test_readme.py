"""The README's examples run as written."""

import re
from pathlib import Path

from click.testing import CliRunner

from pmgraph.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

UNIT_K4 = "".join(f"vertex {v}\n" for v in "1234") + "".join(
    f"edge {name} {u} {v} 1\n" for name, u, v in zip("abcdef", "111223", "234344")
)


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_the_python_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_the_invariants_example_is_a_prefix_of_the_real_output(tmp_path):
    (example,) = [block for block in _blocks("") if block.startswith("$ pmgraph invariants")]
    command, *lines = example.splitlines()
    assert lines[-1] == "..."
    path = tmp_path / command.split()[-1]
    path.write_text(UNIT_K4)
    result = CliRunner().invoke(main, [*command.split()[2:-1], str(path)])
    assert result.exit_code == 0
    assert result.output.splitlines()[: len(lines) - 1] == lines[:-1]
