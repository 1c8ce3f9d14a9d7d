"""Every solve is made, and scaled, in one place.

``_Topology.solve`` is the only caller of the solve producer ``_green`` and
the only constructor of ``ResistanceMatrix`` in ``src/pmgraph``, so the file
engine, the catalog sampler, ``resistance_matrix`` and ``classify_edges``
cannot drift apart in how a graph's lengths become a solve.  The sparse
producer ``_sparse_green`` is the only caller of the factor ``_factor``, so
no second path reads the factor.  Every solve carries theta's ``X = N K``
for its own topology's canonical divisor, so ``_scale`` takes the solve
alone.  It is called in four places: the catalog sampler's
``FamilySpec._scaled`` on a family's validated topology, the file engine's
``invariants._scaled`` and ``classify_edges`` on a solve of the engine
prologue ``_reduced``, and ``bounds.engine_ratios`` on ``resistance_matrix``,
which solves a catalog family's graph as given.  That is the one call of
``resistance_matrix`` in ``src/pmgraph``: ``_reduced`` never takes it, and
the CLI passes it as a value.
"""

import ast
from pathlib import Path

import pmgraph

SOURCES = sorted(Path(pmgraph.__file__).parent.glob("*.py"))
PINNED = ("_green", "_factor", "ResistanceMatrix", "_scale", "resistance_matrix")


def _call_sites(path: Path) -> list[tuple[str, str]]:
    # (called name, file:enclosing class and function) for each call of a
    # pinned name, bare or as an attribute
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in PINNED:
                    sites.append((name, f"{path.name}:{'.'.join(scope)}"))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), ())
    return sites


def test_only_the_topology_solves():
    assert "resistance.py" in {path.name for path in SOURCES}
    sites = sorted(site for path in SOURCES for site in _call_sites(path))
    assert sites == [
        ("ResistanceMatrix", "resistance.py:_Topology.solve"),
        ("_factor", "resistance.py:_sparse_green"),
        ("_green", "resistance.py:_Topology.solve"),
        ("_scale", "bounds.py:engine_ratios"),
        ("_scale", "catalog.py:FamilySpec._scaled"),
        ("_scale", "invariants.py:_scaled"),
        ("_scale", "resistance.py:classify_edges"),
        ("resistance_matrix", "bounds.py:engine_ratios"),
    ]


def test_the_check_sees_bare_and_attribute_calls(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "t = _green(1, 0, [])\n"
        "class C:\n"
        "    def f(self):\n"
        "        return m.ResistanceMatrix(t) if m._green else None\n"
    )
    assert sorted(_call_sites(path)) == [
        ("ResistanceMatrix", "probe.py:C.f"), ("_green", "probe.py:"),
    ]
