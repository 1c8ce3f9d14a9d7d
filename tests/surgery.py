"""Graph surgery that builds test inputs: subdivision, rescaling, gluing.

Each operation is a pure function returning a new graph with the same
invariants as its inputs predict (subdivision changes none, rescaling
multiplies each by the factor, and tau adds over a one-point union).  Like
``tests/oracles.py``, which subdivides with it, this module takes the data
model from ``pmgraph`` and nothing else (``tests/test_oracle_imports.py``).
"""

from fractions import Fraction

from pmgraph import Edge, PmGraph, Vertex


def _fresh_id(taken: set[str], stem: str) -> str:
    candidate = stem
    while candidate in taken:
        candidate += "'"
    return candidate


def subdivide(g: PmGraph, edge_id: str, t) -> PmGraph:
    """Split edge ``edge_id`` at interior fraction ``t`` of its length.

    A fresh weight-0 vertex replaces the point at distance ``t * length``
    from the edge's first endpoint.  The metric graph, and hence every
    invariant, is unchanged.  The new vertex is the unique vertex of the
    result that is not in ``g``.
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError(f"subdivision point must satisfy 0 < t < 1, got {t}")
    old = g.edge(edge_id)
    midpoint = _fresh_id(set(g.vertex_ids), f"{edge_id}:{t}")
    edge_ids = {e.id for e in g.edges}
    first = _fresh_id(edge_ids, f"{edge_id}.1")
    second = _fresh_id(edge_ids | {first}, f"{edge_id}.2")
    new_edges = []
    for e in g.edges:
        if e.id == edge_id:
            new_edges.append(Edge(first, old.u, midpoint, old.length * t))
            new_edges.append(Edge(second, midpoint, old.v, old.length * (1 - t)))
        else:
            new_edges.append(e)
    return PmGraph(g.vertices + (Vertex(midpoint, 0),), tuple(new_edges))


def scaled(g: PmGraph, factor) -> PmGraph:
    """The same combinatorial graph with every length multiplied by ``factor``."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return PmGraph(
        g.vertices,
        tuple(Edge(e.id, e.u, e.v, e.length * factor) for e in g.edges),
    )


def one_point_union(g1: PmGraph, g2: PmGraph, at1: str, at2: str) -> PmGraph:
    """Glue ``g2`` onto ``g1`` by identifying vertex ``at2`` with ``at1``.

    Vertex and edge ids of ``g2`` get ``'`` appended until they
    are free, so arbitrary pairs of graphs can be joined.  The merged vertex
    keeps ``q = q1 + q2``, which preserves validity of the union.
    """
    taken_v = set(g1.vertex_ids)
    v_rename = {at2: at1}
    for v in g2.vertices:
        if v.id != at2:
            v_rename[v.id] = _fresh_id(taken_v, v.id)
            taken_v.add(v_rename[v.id])
    taken_e = {e.id for e in g1.edges}
    vertices = list(g1.vertices)
    for i, v in enumerate(vertices):
        if v.id == at1:
            vertices[i] = Vertex(at1, v.q + g2.q(at2))
    for v in g2.vertices:
        if v.id != at2:
            vertices.append(Vertex(v_rename[v.id], v.q))
    edges = list(g1.edges)
    for e in g2.edges:
        name = _fresh_id(taken_e, e.id)
        taken_e.add(name)
        edges.append(Edge(name, v_rename[e.u], v_rename[e.v], e.length))
    return PmGraph(tuple(vertices), tuple(edges))
