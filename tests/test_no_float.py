"""No float enters a computational path.

Every value the package computes is exact, so no module of ``src/pmgraph``
names ``float`` or writes a float literal.  The one exception is display:
``cli.py`` prints two values approximately, each as ``{float(v):.6g}``
inside an f-string, after the exact value.
"""

import ast
from pathlib import Path

import pmgraph

SOURCES = sorted(Path(pmgraph.__file__).parent.glob("*.py"))


def _display_calls(tree: ast.AST) -> set[int]:
    # ids of the ``float`` names called as the whole of an f-string field
    return {
        id(node.value.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "float"
    }


def _floats(path: Path) -> tuple[list[str], int]:
    # every float name or literal outside the display calls, and how many
    # display calls there are
    tree = ast.parse(path.read_text(), str(path))
    display = _display_calls(tree) if path.name == "cli.py" else set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "float" and id(node) not in display:
            found.append(f"{path.name}:{node.lineno}: name float")
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
    return found, len(display)


def test_no_float_in_the_engine():
    assert {path.name for path in SOURCES} >= {"cli.py", "resistance.py", "invariants.py"}
    found = []
    display = 0
    for path in SOURCES:
        names, calls = _floats(path)
        found += names
        display += calls
    assert found == []
    assert display == 2


def test_the_check_sees_names_and_literals(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("x = float(1)\ny = 2.5\nz = 1e3\nw = f'{float(x):.3g}'\n")
    found, display = _floats(path)
    assert sorted(found) == [
        "probe.py:1: name float", "probe.py:2: literal 2.5",
        "probe.py:3: literal 1000.0", "probe.py:4: name float",
    ]
    assert display == 0
