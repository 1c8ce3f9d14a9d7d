"""The oracles share no engine code with what they check.

``tests/oracles.py`` takes the data model from ``pmgraph`` and nothing else:
resistances come from its own dense inverse, the canonical divisor from
its own valence count.  The one listed exception is the selected
inversion, which checks the Takahashi recurrence on the engine's own
factor.  The test modules the oracles import, such as ``tests/surgery.py``,
are held to the same rule.  A new engine import, bare or inside a function,
fails here.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
SURGERY = Path(__file__).with_name("surgery.py")
DATA_MODEL = {
    ("pmgraph", "PmGraph"), ("pmgraph", "Vertex"), ("pmgraph", "Edge"),
    ("pmgraph.polynomials", "VARIABLES"),
}
EXCEPTIONS = {("pmgraph.resistance", "_factor", "green_by_selected_inverse")}


def _ours(module: str) -> bool:
    return module.split(".")[0] == "pmgraph"


def _imports(path: Path) -> list[tuple]:
    # (module, name, enclosing function or "") of every import from pmgraph
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.ImportFrom) and _ours(child.module or ""):
                found.extend((child.module, alias.name, scope) for alias in child.names)
            elif isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
                found.extend((name, None, scope) for name in names if _ours(name))
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def _checked(root: Path) -> list[Path]:
    # root and every module beside it that it imports, however indirectly
    beside = {path.stem: path for path in root.parent.glob("*.py")}
    checked, pending = [], [root]
    while pending:
        path = pending.pop()
        if path in checked:
            continue
        checked.append(path)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            pending.extend(beside[name] for name in names if name in beside)
    return checked


def test_the_oracles_import_the_data_model_alone():
    checked = _checked(ORACLES)
    assert SURGERY in checked
    imports = [site for path in checked for site in _imports(path)]
    engine = [site for site in imports if site[:2] not in DATA_MODEL]
    assert set(engine) == EXCEPTIONS and len(engine) == len(EXCEPTIONS)
    assert ("pmgraph", "PmGraph", "") in imports


def test_the_check_sees_every_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import pmgraph.resistance\n"
        "from pmgraph import PmGraph, resistance_matrix\n"
        "def f():\n"
        "    from pmgraph.graph import validate\n"
    )
    assert sorted(_imports(path), key=str) == sorted([
        ("pmgraph.resistance", None, ""), ("pmgraph", "PmGraph", ""),
        ("pmgraph", "resistance_matrix", ""), ("pmgraph.graph", "validate", "f"),
    ], key=str)


def test_the_check_follows_the_modules_the_oracles_import(tmp_path):
    (tmp_path / "oracles.py").write_text("import helper\n")
    (tmp_path / "helper.py").write_text(
        "from pmgraph.resistance import laplacian\nfrom deeper import x\n"
    )
    (tmp_path / "deeper.py").write_text("def f():\n    import pmgraph.graph\n")
    (tmp_path / "unrelated.py").write_text("import pmgraph.bounds\n")
    checked = _checked(tmp_path / "oracles.py")
    assert [path.name for path in checked] == ["oracles.py", "helper.py", "deeper.py"]
    assert [site for path in checked for site in _imports(path)] == [
        ("pmgraph.resistance", "laplacian", ""), ("pmgraph.graph", None, "f"),
    ]
