"""Exact effective resistance and bridge/type classification.

The graph is viewed as a resistor network: an edge of length ``L`` is a
resistor of ``L`` ohms.  Effective resistances come from inverting the
reduced (grounded) Laplacian over ``Fraction``, so every value is exact.
Self-loops carry no current between distinct vertices and simply do not
enter the Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .graph import PmGraph, PmGraphError, connected_components, genus, require_valid


def laplacian(g: PmGraph) -> tuple[tuple[str, ...], list[list[Fraction]]]:
    """Weighted Laplacian with conductances ``1/length``; loops ignored.

    Returns the vertex order used for rows/columns and the matrix itself.
    """
    order = g.vertex_ids
    index = {vid: i for i, vid in enumerate(order)}
    n = len(order)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        if e.is_loop:
            continue
        c = 1 / e.length
        i, j = index[e.u], index[e.v]
        matrix[i][i] += c
        matrix[j][j] += c
        matrix[i][j] -= c
        matrix[j][i] -= c
    return order, matrix


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse with partial pivoting over Fraction."""
    n = len(matrix)
    work = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if work[r][col] != 0), None
        )
        if pivot_row is None:
            raise ArithmeticError("matrix is singular")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


@dataclass(frozen=True)
class ResistanceMatrix:
    """All pairwise effective resistances of a graph, exactly.

    ``order`` fixes the row/column labelling; ``get`` looks up by vertex id.
    The matrix is symmetric with zero diagonal and does not depend on which
    vertex was grounded during the solve.
    """

    order: tuple[str, ...]
    values: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {vid: i for i, vid in enumerate(self.order)}

    def get(self, p: str, s: str) -> Fraction:
        return self.values[self._index[p]][self._index[s]]


def resistance_matrix(g: PmGraph, ground: Optional[str] = None) -> ResistanceMatrix:
    """Effective resistance between every vertex pair of a valid graph.

    This is the one place the engine validates a graph and solves it; every
    invariant is read off the matrix it returns.  ``ground`` picks the vertex
    removed to form the reduced Laplacian and must not affect the result; it
    defaults to the first vertex.
    """
    require_valid(g)
    order, lap = laplacian(g)
    n = len(order)
    if ground is None:
        ground = order[0]
    elif ground not in order:
        raise PmGraphError(f"ground {ground!r} is not a vertex of the graph")
    k = order.index(ground)
    reduced = [
        [lap[i][j] for j in range(n) if j != k] for i in range(n) if i != k
    ]
    green = _invert(reduced) if reduced else []

    def green_at(i: int, j: int) -> Fraction:
        if i == k or j == k:
            return Fraction(0)
        return green[i - (i > k)][j - (j > k)]

    values = tuple(
        tuple(
            green_at(i, i) + green_at(j, j) - 2 * green_at(i, j)
            for j in range(n)
        )
        for i in range(n)
    )
    return ResistanceMatrix(order, values)


def resistance(g: PmGraph, p: str, s: str) -> Fraction:
    """Effective resistance between two vertices."""
    return resistance_matrix(g).get(p, s)


@dataclass(frozen=True)
class EdgeClass:
    """Classification of one edge.

    ``type_index`` is 0 for a non-bridge.  For a bridge it is the smaller of
    the total genera of the two components of the graph minus the edge, the
    cut endpoints counting with weight 0 on their side.  ``side_genera`` is
    ``None`` for non-bridges.
    """

    edge_id: str
    is_bridge: bool
    type_index: int
    side_genera: Optional[tuple[int, int]] = None


def classify_edges(g: PmGraph) -> dict[str, EdgeClass]:
    """Classify every edge as a bridge of some type or as type 0.

    An edge between distinct vertices is a bridge exactly when its effective
    resistance equals its length (no alternative path).  Loops are never
    bridges.  On a graph of total genus ``gbar``, bridge types range over
    ``1 .. gbar // 2`` because a bridge side of total genus 0 would force a
    negative canonical divisor coefficient at its far end.
    """
    return _classify_edges(g, resistance_matrix(g))


def _classify_edges(g: PmGraph, rm: ResistanceMatrix) -> dict[str, EdgeClass]:
    # classify_edges on a graph already validated and solved into rm
    result: dict[str, EdgeClass] = {}
    for e in g.edges:
        if not e.is_loop and rm.get(e.u, e.v) == e.length:
            sides = connected_components(g, skip_edges=frozenset({e.id}))
            side_u = next(c for c in sides if e.u in c)
            side_v = next(c for c in sides if e.v in c)
            genera = []
            for side, anchor in ((side_u, e.u), (side_v, e.v)):
                sub = PmGraph(
                    tuple(v for v in g.vertices if v.id in side),
                    tuple(
                        f
                        for f in g.edges
                        if f.id != e.id and f.u in side and f.v in side
                    ),
                )
                genera.append(genus(sub).gbar)
            low, high = sorted(genera)
            if low == 0:
                raise ArithmeticError(
                    f"bridge {e.id!r} has a side of total genus 0, which cannot "
                    "occur in a valid pm-graph"
                )
            result[e.id] = EdgeClass(e.id, True, low, (genera[0], genera[1]))
        else:
            result[e.id] = EdgeClass(e.id, False, 0)
    return result
