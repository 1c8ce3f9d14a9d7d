"""The front end's helpers against references that share none of its code.

``connected_components``, ``validate``, ``_removable`` and ``normalize`` all
read one incidence index per graph.  Here they meet a union-find, the
previous definitions written out in full (the previous smoothing walk is
``oracles.smooth_by_edges``), and a table of their earlier
output (``data/incidence_table.json``: each graph's validation problems and,
for the random graphs, the text of its normalized graph), on seeded random
graphs with loops, parallel edges and isolated vertices and on graphs that
break the axioms.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pmgraph import (
    Edge,
    PmGraph,
    Vertex,
    build,
    connected_components,
    graph_to_text,
    invariant_set,
    normalize,
    parse_graph,
    validate,
)
from pmgraph.graph import MAX_WEIGHT, _removable

from oracles import smooth_by_edges

TABLE = json.loads((Path(__file__).parent / "data" / "incidence_table.json").read_text())


def _loose_graph(rng: random.Random) -> PmGraph:
    # no axiom is enforced: some vertices are isolated, leaves may have q = 0,
    # and runs of weight-0 vertices give normalize chains and cycles to smooth
    names = [f"v{i}" for i in range(rng.randint(1, 9))]
    vertices = [Vertex(name, rng.choice((0, 0, 0, 1, 2))) for name in names]
    ends = []
    for _ in range(rng.randint(0, 12)):
        shape = rng.random()
        if shape < 0.15:
            u = rng.choice(names)
            ends.append((u, u))  # a loop
        elif shape < 0.3 and ends:
            ends.append(rng.choice(ends)[::-1])  # a parallel edge
        elif shape < 0.7:
            i = rng.randrange(len(names))
            ends.append((names[i], names[(i + 1) % len(names)]))  # a step along a cycle
        else:
            ends.append((rng.choice(names), rng.choice(names)))
    edges = [
        Edge(f"e{k}", u, v, Fraction(rng.randint(1, 12), rng.randint(1, 12)))
        for k, (u, v) in enumerate(ends)
    ]
    return PmGraph(tuple(vertices), tuple(edges))


def _graph(vertices, edges) -> PmGraph:
    return PmGraph(
        tuple(Vertex(*spec) for spec in vertices),
        tuple(Edge(eid, u, v, Fraction(length)) for eid, u, v, length in edges),
    )


RANDOM = {f"random-{k}": _loose_graph(random.Random(f"incidence:{k}")) for k in range(60)}

BROKEN = {
    "duplicate-vertex": _graph(
        [("a", 1), ("a", 0), ("b", 1)], [("e", "a", "b", 1), ("f", "a", "a", 2)]
    ),
    "duplicate-edge": _graph(
        [("a", 1), ("b", 1)], [("e", "a", "b", 1), ("e", "a", "b", 2), ("f", "b", "a", 3)]
    ),
    "undeclared-end": _graph([("a", 2)], [("e", "a", "x", 1)]),
    "undeclared-ends": _graph(
        [("a", 1), ("b", 0), ("c", 1)],
        [("e", "a", "b", 1), ("f", "b", "c", 1), ("g", "x", "y", 1), ("h", "z", "z", 1)],
    ),
    "undeclared-end-and-removable": _graph(
        [("a", 1), ("m", 0), ("b", 1)],
        [("e", "a", "m", 1), ("f", "m", "b", 2), ("g", "b", "x", 3), ("h", "x", "m", 4)],
    ),
    "negative-divisor": _graph(
        [("a", 0), ("b", 2), ("c", 0)], [("e", "a", "b", 1), ("f", "b", "c", "1/2")]
    ),
    "isolated-vertex": _graph(
        [("a", 2), ("i", 0), ("j", 1)], [("l", "a", "a", 1)]
    ),
    "nonpositive-lengths": _graph(
        [("a", 1), ("b", 1)], [("e", "a", "b", 0), ("f", "a", "b", "-3/4")]
    ),
    "weights-out-of-range": _graph(
        [("a", -1), ("b", MAX_WEIGHT + 1), ("c", MAX_WEIGHT)],
        [("e", "a", "b", 1), ("f", "b", "c", 1)],
    ),
    "empty": _graph([], []),
    "edges-without-vertices": _graph([], [("e", "a", "b", 1)]),
    "everything": _graph(
        [("a", 0), ("a", 1), ("b", -2), ("c", 0), ("d", 0)],
        [("e", "a", "b", 1), ("e", "b", "c", 0), ("f", "c", "q", 1), ("g", "d", "d", 1)],
    ),
}

GRAPHS = {**RANDOM, **BROKEN}


def _union_find_components(g: PmGraph) -> list[set[str]]:
    parent = {vid: vid for vid in g.vertex_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        if e.u in parent and e.v in parent:
            parent[find(e.u)] = find(e.v)
    groups: dict[str, set[str]] = {}
    order = []
    for vid in g.vertex_ids:
        root = find(vid)
        if root not in groups:
            groups[root] = set()
            order.append(root)
        groups[root].add(vid)
    return [groups[root] for root in order]


def _loop_set_removable(g: PmGraph, keep=None) -> set[str]:
    # weight 0, valence 2 counting a loop twice, and no loop at the vertex
    valences = {v.id: 0 for v in g.vertices}
    for e in g.edges:
        for end in e.ends:
            valences[end] = valences.get(end, 0) + 1
    looped = {e.u for e in g.edges if e.is_loop}
    return {
        v.id for v in g.vertices
        if v.q == 0 and valences[v.id] == 2 and v.id not in looped and v.id != keep
    }


def test_the_table_covers_every_graph():
    assert set(TABLE) == set(GRAPHS)
    # the seeded graphs still have every feature the helpers meet
    features = {"loop": 0, "parallel": 0, "isolated": 0, "smoothed": 0, "split": 0}
    for name, g in RANDOM.items():
        pairs = [frozenset(e.ends) for e in g.edges]
        features["loop"] += any(e.is_loop for e in g.edges)
        features["parallel"] += len(set(pairs)) < len(pairs)
        features["isolated"] += any(g.valence(vid) == 0 for vid in g.vertex_ids) and len(g.vertices) > 1
        features["smoothed"] += bool(_removable(g))
        features["split"] += len(connected_components(g)) > 1
    assert min(features.values()) >= 5, features


@pytest.mark.parametrize("name", GRAPHS)
def test_components_equal_a_union_find(name):
    g = GRAPHS[name]
    assert connected_components(g) == _union_find_components(g)


@pytest.mark.parametrize("name", GRAPHS)
def test_problems_equal_the_table(name):
    assert list(validate(GRAPHS[name]).problems) == TABLE[name]["problems"]


@pytest.mark.parametrize("name", GRAPHS)
def test_removable_equals_the_loop_set_definition(name):
    g = GRAPHS[name]
    assert _removable(g) == _loop_set_removable(g)
    for vid in g.vertex_ids[:3]:
        assert _removable(g, (vid,)) == _loop_set_removable(g, vid)


@pytest.mark.parametrize("name", RANDOM)
def test_normalize_equals_the_table(name):
    g = RANDOM[name]
    slim = normalize(g)
    assert graph_to_text(slim) == TABLE[name]["normalized"]
    assert slim.total_length == g.total_length


# the broken graphs too: an end that is not declared ends a chain, and here
# the edge that has it comes before the chain's other end, so the chain is
# walked from there, and an edge inside the chain comes first of all
WALKED = {**GRAPHS, "undeclared-end-first": _graph(
    [("a", 2), ("m", 0), ("n", 0)],
    [("f", "m", "n", 1), ("g", "x", "m", 1), ("e", "n", "a", 2)],
)}


@pytest.mark.parametrize("name", WALKED)
def test_normalize_equals_the_previous_walk(name):
    g = WALKED[name]
    assert normalize(g) == smooth_by_edges(g, _removable(g))[0]


def _subdivided_xiv(size: int, rng: random.Random) -> tuple[PmGraph, str]:
    # g3.XIV at random lengths, its six edges cut into paths of random
    # rational pieces until the graph has ``size`` vertices, as file text
    g = build("g3.XIV", {name: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for name in "abcdef"})
    inner, extra = divmod(size - len(g.vertices), len(g.edges))
    lines = [f"vertex {vid}" for vid in g.vertex_ids]
    edges = []
    for k, e in enumerate(g.edges):
        cuts = inner + (k < extra)
        weights = [rng.randint(1, 50) for _ in range(cuts + 1)]
        scale = e.length / sum(weights)
        path = [e.u] + [f"{e.id}{i}" for i in range(cuts)] + [e.v]
        lines += [f"vertex {vid}" for vid in path[1:-1]]
        edges += [
            f"edge {e.id}.{i} {a} {b} {w * scale}"
            for i, (a, b, w) in enumerate(zip(path, path[1:], weights))
        ]
    return g, "\n".join(lines + edges) + "\n"


def test_a_20000_vertex_subdivision_parses_and_smooths_to_its_graph():
    g, text = _subdivided_xiv(20000, random.Random("incidence:20000"))
    start = time.perf_counter()
    big = parse_graph(text)
    assert len(big.vertices) == 20000
    assert invariant_set(big) == invariant_set(g)
    # linear work: about 0.2 s in all; a quadratic pass would take minutes
    assert time.perf_counter() - start < 10
