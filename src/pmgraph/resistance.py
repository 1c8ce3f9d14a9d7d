"""Exact effective resistance and bridge/type classification.

The graph is viewed as a resistor network: an edge of length ``L`` is a
resistor of ``L`` ohms, and every value is an exact ``Fraction``.
Self-loops carry no current between distinct vertices and are skipped;
parallel edges add their conductances.

One vertex is grounded and the Laplacian of the other vertices is factored
as ``A = L D L^T``, always eliminating the vertex with the fewest remaining
neighbours (ties go to the earlier vertex, so the work is deterministic).
On the graphs pm-graph invariants live on, mostly series paths, pendant
trees and bridges, this order makes almost no fill.  The selected
inversion of Takahashi, Fagan and Chin (1973) then walks the elimination
order backwards and gives the grounded Green's function ``Z = A^{-1}``
exactly on the filled pattern, which holds the diagonal and every edge.
That is all tau and the bridge test read; ``r(p, s) = Z_pp + Z_ss - 2 Z_ps``.
A pair outside the pattern costs one forward and back solve with the
factor, after which its whole column is known.  For the engine, ``_scale``
puts the lengths, ``Z`` and theta's one such solve on a single integer
denominator, so tau, theta and the bridge test run on ints after it.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from .graph import PmGraph, PmGraphError, genus, require_valid


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


@dataclass(frozen=True)
class _Factor:
    """``A = L D L^T`` of a grounded Laplacian, by vertex index.

    ``elim`` is the elimination order.  ``cols[v]`` maps each neighbour
    ``a`` eliminated after ``v`` to ``-L[a][v]``, which is positive because
    every off-diagonal entry of a Laplacian is a negated conductance.
    """

    elim: tuple[int, ...]
    cols: dict[int, dict[int, Fraction]]
    pivots: dict[int, Fraction]


def _factor(adj: dict[int, dict[int, Fraction]], diag: dict[int, Fraction]) -> _Factor:
    """Minimum-degree ``L D L^T`` of the matrix with diagonal ``diag`` and
    off-diagonal entries ``-adj[i][j]``; consumes both arguments.

    Eliminating ``v`` joins its remaining neighbours into a clique whose
    conductances grow by ``w_av * w_bv / d_v``; no entry cancels, so the
    numeric pattern is the symbolic one.
    """
    heap = [(len(row), v) for v, row in adj.items()]
    heapq.heapify(heap)
    elim: list[int] = []
    cols: dict[int, dict[int, Fraction]] = {}
    pivots: dict[int, Fraction] = {}
    while heap:
        degree, v = heapq.heappop(heap)
        if v in pivots or degree != len(adj[v]):
            continue  # eliminated, or its degree changed since this entry
        d = diag.pop(v)
        neighbours = list(adj.pop(v).items())
        col = {}
        for i, (a, w) in enumerate(neighbours):
            row = adj[a]
            del row[v]
            la = w / d
            col[a] = la
            diag[a] -= w * la
            for b, wb in neighbours[i + 1:]:
                row[b] = adj[b][a] = row.get(b, 0) + la * wb
        for a in col:
            heapq.heappush(heap, (len(adj[a]), a))
        elim.append(v)
        cols[v] = col
        pivots[v] = d
    return _Factor(tuple(elim), cols, pivots)


def _selected_inverse(factor: _Factor) -> dict[int, dict[int, Fraction]]:
    """Entries of ``A^{-1}`` on the filled pattern (Takahashi recurrence).

    In reverse elimination order, ``Z_vj = sum_a l_av Z_aj`` for each ``j``
    in ``col(v)`` and ``Z_vv = 1/d_v + sum_a l_av Z_av``, with
    ``l_av = -L_av``.  ``col(v)`` is a clique of later vertices, so every
    ``Z_aj`` read is already known.  The result is symmetric.
    """
    z: dict[int, dict[int, Fraction]] = {}
    for v in reversed(factor.elim):
        col = factor.cols[v]
        zv = z[v] = {}
        for j in col:
            zj = z[j]
            zv[j] = zj[v] = sum(l * zj[a] for a, l in col.items())
        zv[v] = 1 / factor.pivots[v] + sum(l * zv[a] for a, l in col.items())
    return z


class ResistanceMatrix:
    """All pairwise effective resistances of a graph, exactly.

    ``order`` fixes the row/column labelling; ``get`` looks up by vertex id
    and ``values`` is the full matrix as a tuple of rows.  Two matrices are
    equal when their orders and values are; neither depends on which vertex
    was grounded during the solve.
    """

    def __init__(
        self, order: tuple[str, ...], index: dict[str, int], ground: int, factor: _Factor
    ) -> None:
        self.order = order
        self._index = index
        self._ground = ground
        self._factor = factor
        # the grounded Green's function, by vertex index; grows by whole
        # columns as pairs outside the filled pattern are asked for
        self._green = _selected_inverse(factor)

    def get(self, p: str, s: str) -> Fraction:
        i, j = self._index[p], self._index[s]
        if i == j:
            return Fraction(0)
        green = self._green
        if i == self._ground:
            return green[j][j]
        if j == self._ground:
            return green[i][i]
        zij = green[i].get(j)
        if zij is None:
            for v, x in self.solve({j: Fraction(1)}).items():
                green[v][j] = green[j][v] = x
            zij = green[i][j]
        return green[i][i] + green[j][j] - 2 * zij

    def solve(self, rhs: dict[int, Fraction]) -> dict[int, Fraction]:
        """``x`` with ``A x = rhs`` by one forward and back solve with the factor.

        Both are keyed by vertex index; the ground is not an unknown, so a
        ground entry of ``rhs`` is ignored and ``x`` has none.
        """
        f = self._factor
        y = dict(rhs)
        for v in f.elim:  # forward: only rhs entries and their ancestors fill
            yv = y.get(v)
            if yv:
                for a, l in f.cols[v].items():
                    y[a] = y.get(a, 0) + l * yv
        x: dict[int, Fraction] = {}
        for v in reversed(f.elim):  # back: x_v = y_v / d_v + sum_a l_av x_a
            x[v] = sum((l * x[a] for a, l in f.cols[v].items()), y.get(v, 0) / f.pivots[v])
        return x

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(self.get(p, s) for s in self.order) for p in self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResistanceMatrix):
            return NotImplemented
        return (self.order, self.values) == (other.order, other.values)

    def __hash__(self) -> int:
        return hash((self.order, self.values))

    def __repr__(self) -> str:
        return f"ResistanceMatrix(order={self.order!r}, values={self.values!r})"


def resistance_matrix(g: PmGraph, ground: Optional[str] = None) -> ResistanceMatrix:
    """Effective resistances of a valid graph, from one exact sparse solve.

    Validates ``g`` and then solves it as given, so every vertex of ``g`` has
    its row.  ``ground`` picks the vertex removed to form the reduced
    Laplacian and must not affect the result; it defaults to the first
    vertex.
    """
    require_valid(g)
    return _solve(g, ground)


def _solve(g: PmGraph, ground: Optional[str] = None) -> ResistanceMatrix:
    # resistance_matrix on a graph already validated
    order = g.vertex_ids
    if ground is None:
        ground = order[0]
    elif ground not in order:
        raise PmGraphError(f"ground {ground!r} is not a vertex of the graph")
    index = {vid: i for i, vid in enumerate(order)}
    k = index[ground]
    adj: dict[int, dict[int, Fraction]] = {i: {} for i in range(len(order))}
    diag = dict.fromkeys(adj, Fraction(0))
    for e in g.edges:
        if e.is_loop:
            continue
        c = Fraction(1) / e.length
        i, j = index[e.u], index[e.v]
        adj[i][j] = adj[j][i] = adj[i].get(j, 0) + c
        diag[i] += c
        diag[j] += c
    for j in adj.pop(k):
        del adj[j][k]
    del diag[k]
    return ResistanceMatrix(order, index, k, _factor(adj, diag))


# a solve on one integer denominator q: q L_e and the bridge test per edge,
# and tau, theta (0 without weights) and ell as numerators over den = 12 q^3
_Scaled = namedtuple("_Scaled", "q lengths bridges tau theta ell den")


def _scale(g: PmGraph, rm: ResistanceMatrix, weights: Optional[dict[str, int]] = None) -> _Scaled:
    """Put the solve of ``g`` on one integer denominator ``q``, once.

    ``q`` is the lcm of the denominators of the edge lengths, of their
    conductances, of the Green's function on the filled pattern and of
    ``Z w``, theta's one solve with the weights ``w`` (by vertex id).  Tau
    is read at the vertex ``rm`` is grounded at.
    """
    index, ground, green = rm._index, rm._ground, rm._green
    w = {index[p]: c for p, c in (weights or {}).items() if c}
    w.pop(ground, None)
    x = rm.solve(w) if w else {}
    lengths = [e.length for e in g.edges]
    q = lcm(
        *(length.numerator * length.denominator for length in lengths),
        *(value.denominator for row in green.values() for value in row.values()),
        *(value.denominator for value in x.values()),
    )
    z = {i: {j: v.numerator * (q // v.denominator) for j, v in row.items()}
         for i, row in green.items()}
    z[ground] = {}
    scaled = [length.numerator * (q // length.denominator) for length in lengths]
    edges = [
        (index[e.u], index[e.v], l, q // length.numerator * length.denominator)
        for e, length, l in zip(g.edges, lengths, scaled)
    ]
    x = {i: v.numerator * (q // v.denominator) for i, v in x.items()}
    tau, theta, bridges = _core(edges, z, w, x, sum((weights or {}).values()))
    s = 12 * q * q
    return _Scaled(q, scaled, bridges, tau, s * theta, s * sum(scaled), s * q)


def _core(edges: list, z: dict, w: dict, x: dict, total) -> tuple:
    """``12 q^3 tau``, ``q theta`` and each edge's bridge test from a solve
    scaled by ``q``, with ``+``, ``-`` and ``*`` alone.

    ``edges`` holds ``(i, j, l = q L, c = q / L)`` with end indices ``i, j``,
    ``z = q Z`` has a row per vertex (the ground's empty: the ground is tau's
    base, ``r(v, base) = Z_vv``) and ``x = q Z w`` for the weights ``w`` off
    the ground, which with the ground's sum to ``total``.  With ``rho = z_uu + z_vv - 2 z_uv`` (0 on a
    loop), ``12 q^3 tau = sum_e ((l - rho)^2 + 3 (z_vv - z_uu)^2) c`` (Cinkir,
    2011), a bridge is an edge with ``rho == l``, and
    ``q theta = sum_p 2 w_p (total z_pp - x_p)``.
    """
    tau = 0
    bridges = []
    for i, j, l, c in edges:
        zi = z[i]
        zii, zjj = zi.get(i, 0), z[j].get(j, 0)
        rho = zii + zjj - 2 * zi.get(j, 0)
        tau += ((l - rho) * (l - rho) + 3 * (zjj - zii) * (zjj - zii)) * c
        bridges.append(rho == l)
    return tau, sum(2 * c * (total * z[i][i] - x[i]) for i, c in w.items()), bridges


def effective_resistance(g: PmGraph, p: str, s: str) -> Fraction:
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
    return _classify_edges(g, _scale(g, resistance_matrix(g)).bridges)


def _classify_edges(g: PmGraph, flags: list) -> dict[str, EdgeClass]:
    # classify_edges on a graph already validated, given _scale's bridge tests
    result = {e.id: EdgeClass(e.id, False, 0) for e in g.edges}
    bridges = [e for e, bridge in zip(g.edges, flags) if bridge]
    if not bridges:
        return result
    # Every bridge is an edge of every spanning tree, and its far side is
    # the subtree below it.  Sum vertices, edge ends (a loop has two) and q
    # over each subtree: a subtree hanging off a bridge holds (ends - 1) / 2
    # edges, the bridge bringing the one odd end, and the two sides' total
    # genera add up to the graph's.
    neighbours: dict[str, list[tuple[str, str]]] = {vid: [] for vid in g.vertex_ids}
    for e in g.edges:
        if not e.is_loop:
            neighbours[e.u].append((e.v, e.id))
            neighbours[e.v].append((e.u, e.id))
    root = g.vertex_ids[0]
    parent = {root: root}
    below: dict[str, str] = {}  # tree edge id -> its endpoint further from root
    preorder = []
    stack = [root]
    while stack:
        x = stack.pop()
        preorder.append(x)
        for y, eid in neighbours[x]:
            if y not in parent:
                parent[y] = x
                below[eid] = y
                stack.append(y)
    sums = {v.id: [1, g.valence(v.id), v.q] for v in g.vertices}
    for x in reversed(preorder[1:]):
        up = sums[parent[x]]
        for slot, value in enumerate(sums[x]):
            up[slot] += value
    gbar = genus(g).gbar
    for e in bridges:
        n_side, ends_side, q_side = sums[below[e.id]]
        g_below = q_side + (ends_side - 1) // 2 - n_side + 1
        genera = (gbar - g_below, g_below) if below[e.id] == e.v else (g_below, gbar - g_below)
        if min(genera) == 0:
            raise ArithmeticError(
                f"bridge {e.id!r} has a side of total genus 0, which cannot "
                "occur in a valid pm-graph"
            )
        result[e.id] = EdgeClass(e.id, True, min(genera), genera)
    return result
