"""Each script under ``demos/`` prints exactly its pinned stdout.

The scripts run as a user would run them, in a fresh interpreter from an
empty working directory, against the package under ``src/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).parent / "data" / "demos"


def test_every_demo_is_pinned():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in PINNED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_is_pinned(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
