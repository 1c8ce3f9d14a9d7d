"""The command line as a user starts it: ``python -m pmgraph.cli`` in a fresh
interpreter, against the package under ``src/``, with the process's own exit
code and streams."""

import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from pmgraph import build, graph_to_text
from pmgraph.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _run(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pmgraph.cli", *args],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_invariants_exits_0_with_the_in_process_stdout(tmp_path):
    path = tmp_path / "g.graph"
    lengths = {"a": 2, "b": 3, "c": 5, "d": 7, "e": 11, "f": 13}
    path.write_text(graph_to_text(build("g3.XIV", lengths)))
    result = _run(["invariants", str(path)], tmp_path)
    assert result.returncode == 0, result.stderr.decode()
    expected = CliRunner().invoke(main, ["invariants", str(path)])
    assert expected.exit_code == 0
    assert result.stdout == expected.stdout_bytes
    assert result.stderr == b""


def test_a_bad_length_exits_2_with_its_position(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("vertex a q=2\nedge l a a zero\n")
    result = _run(["invariants", str(path)], tmp_path)
    assert result.returncode == 2
    assert result.stdout == b""
    stderr = result.stderr.decode()
    assert f"{path}: line 2, column 12: cannot parse length 'zero' as a rational" in stderr
    assert "Traceback" not in stderr


def test_verify_bounds_exits_0(tmp_path):
    args = ["verify", "bounds", "--family", "g1.II", "--samples", "5"]
    result = _run(args, tmp_path)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.startswith(b"PASS")
    assert result.stdout == CliRunner().invoke(main, args).stdout_bytes
