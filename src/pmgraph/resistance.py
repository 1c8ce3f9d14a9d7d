"""Exact effective resistance and bridge/type classification.

The graph is viewed as a resistor network: an edge of length ``L`` is a
resistor of ``L`` ohms.  Self-loops carry no current between distinct
vertices and are skipped; parallel edges add their conductances.

One vertex is grounded, and the solve is held as ints: one integer ``T`` and
``N = T Z``, with ``Z = A^{-1}`` the grounded Green's function of the
reduced Laplacian ``A``.  ``r(p, s) = (N_pp + N_ss - 2 N_ps) / T``, one
``Fraction`` per value.  Two producers give ``T`` and ``N``, chosen by the
number of vertices (``DENSE_VERTICES``):

* up to 4 vertices, the stable bound for total genus 3, the cofactors of
  the integer Laplacian ``M A``, ``M`` the lcm of the length numerators,
  give ``T = det(M A)`` and ``N = M adj(M A)`` with ``+``, ``-`` and ``*``
  alone;
* above, ``A = L D L^T`` is factored over ``Fraction``, always eliminating
  the vertex with the fewest remaining neighbours (ties go to the earlier
  vertex, so the work is deterministic); on the graphs pm-graph invariants
  live on, mostly series paths, pendant trees and bridges, this order makes
  almost no fill.  With ``T = det(A) prod_e num(L_e)``, the recurrence of
  Takahashi, Fagan and Chin (1973) runs on ints and gives ``N`` on the
  diagonal, on each edge and on every pair with a vertex of a chosen set of
  columns, which are eliminated last.  ``resistance_matrix`` chooses every
  vertex, ``effective_resistance`` one, tau alone none, and theta and
  :func:`classify_edges` the support of ``K``, all that ``x = N K`` reads.

Every solve, of a graph as given, a smoothed one or a catalog family's, is
``_Topology.solve``: a validated graph's vertex order, ground and edge ends
at one length per edge, kept by the matrix it makes.  The topology also
carries the canonical divisor ``K`` by vertex index, from the validation,
and the genus that follows from it.  ``_Topology.scaled`` takes lengths to
a scaled solve: ``_scale`` puts those lengths, ``N`` and theta's
``x = N K`` on a single integer denominator ``q``, a multiple of ``T``, so
tau, theta and the bridge test run on ints after it.  Theta's ``x`` also
gives each bridge's side genera (see :func:`classify_edges`), so no second
pass over the graph finds them.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional

from .graph import GenusData, PmGraph, PmGraphError, require_valid


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


# The largest graph solved by the dense producer.  Every stable graph of
# total genus 3 has at most 2g - 2 = 4 vertices, so each engine call on a
# genus-3 input takes this path after smoothing.  Grounded, such a graph
# leaves at most 3 unknowns, the largest matrix ``_adjugate`` takes.
DENSE_VERTICES = 4


def _factor(adj: dict[int, dict[int, Fraction]], diag: dict[int, Fraction], last: set) -> tuple:
    """``(elim, pivots, cols)``: the minimum-degree ``A = L D L^T`` of the
    matrix with diagonal ``diag`` and off-diagonal entries ``-adj[i][j]``,
    by vertex index, with the vertices of ``last`` eliminated after all
    others; consumes ``adj`` and ``diag``.

    ``elim`` is the elimination order and ``pivots[v]`` is ``d_v``.
    ``cols[v]`` is ``(delta_v, {a: delta_v l_av})`` over the neighbours
    ``a`` eliminated after ``v``, with ``l_av = -L[a][v]`` (positive, because
    every off-diagonal entry of a Laplacian is a negated conductance) and
    ``delta_v`` the lcm of the column's denominators, so every entry is an
    int.  Eliminating ``v`` joins its remaining neighbours into a clique
    whose conductances grow by ``w_av * w_bv / d_v``; no entry cancels, so
    the numeric pattern is the symbolic one.
    """
    heap = [(v in last, len(row), v) for v, row in adj.items()]
    heapq.heapify(heap)
    elim: list[int] = []
    pivots: dict[int, Fraction] = {}
    cols: dict[int, tuple[int, dict[int, int]]] = {}
    while heap:
        _, degree, v = heapq.heappop(heap)
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
            heapq.heappush(heap, (a in last, len(adj[a]), a))
        elim.append(v)
        pivots[v] = d
        delta = lcm(*(la.denominator for la in col.values()))
        cols[v] = delta, {a: la.numerator * (delta // la.denominator) for a, la in col.items()}
    return elim, pivots, cols


def _green(n: int, ground: int, edges: list, columns: Optional[Iterable[int]]) -> tuple:
    """``(T, N)`` for the Laplacian of ``n`` vertices grounded at
    ``ground``: one integer ``T`` and ``N = T Z``, with ``Z`` the grounded
    Green's function, on the diagonal, on each edge and on every pair that
    holds a vertex of ``columns`` (``None``: every pair).

    ``edges`` holds ``(i, j, length)`` for every edge that is not a loop.
    Graphs of at most ``DENSE_VERTICES`` vertices take the dense producer,
    which gives every pair, larger ones the sparse one.
    """
    if n <= DENSE_VERTICES:
        return _dense_green(n, ground, edges)
    return _sparse_green(n, ground, edges, columns)


def _dense_green(n: int, ground: int, edges: list) -> tuple:
    """``T = det(M A)`` and ``N = M adj(M A)`` on every pair, from the
    cofactors of the integer Laplacian ``M A`` grounded at ``ground``.

    ``M`` is the lcm of the length numerators, so every ``M / L`` is an int.
    """
    m = lcm(*(length.numerator for _, _, length in edges))
    lap = [[0] * n for _ in range(n)]
    for i, j, length in edges:
        w = m // length.numerator * length.denominator
        lap[i][i] += w
        lap[j][j] += w
        lap[i][j] -= w
        lap[j][i] -= w
    unknowns = [v for v in range(n) if v != ground]
    t, adj = _adjugate([[lap[i][j] for j in unknowns] for i in unknowns])
    return t, {v: {u: m * c for u, c in zip(unknowns, row)} for v, row in zip(unknowns, adj)}


def _adjugate(a: list) -> tuple:
    """``(det a, adj a)`` of a symmetric matrix of size 0 to 3, with ``+``,
    ``-`` and ``*`` alone, so over any commutative ring."""
    size = len(a)
    if size == 3:
        (p, r, s), (_, u, v), (_, _, w) = a
        c00, c01, c02 = u * w - v * v, s * v - r * w, r * v - s * u
        c11, c12, c22 = p * w - s * s, r * s - p * v, p * u - r * r
        return p * c00 + r * c01 + s * c02, ((c00, c01, c02), (c01, c11, c12), (c02, c12, c22))
    if size == 2:
        (p, r), (_, s) = a
        return p * s - r * r, ((s, -r), (-r, p))
    if size == 1:
        return a[0][0], ((1,),)
    return 1, ()


def _sparse_green(n: int, ground: int, edges: list, columns: Optional[Iterable[int]]) -> tuple:
    """``T = det(A) prod_e num(L_e)`` and ``N = T Z`` on the filled pattern
    and on every pair that holds a vertex of ``columns`` (``None``: every
    pair), by the minimum-degree factor and the Takahashi recurrence on ints.

    ``T`` is an integer, a weighted count of spanning trees, and so is every
    ``T Z_ij``, a weighted count of 2-forests (the all-minors matrix-tree
    theorem).  In reverse elimination order (Takahashi, Fagan and Chin,
    1973), ``N_vj = sum_a l_av N_aj`` for each later ``j`` in ``col(v)`` or
    in ``columns``, and ``N_vv = T / d_v + sum_a l_av N_av``.  ``col(v)`` is a
    clique of later vertices and ``columns`` is eliminated last, so every
    ``N_aj`` read is already known: the cost is the pattern's plus about
    ``n`` sums per vertex of ``columns``.  With ``l`` on the column's
    denominator ``delta_v``, each sum is an int divided exactly by
    ``delta_v``.
    """
    adj: dict[int, dict[int, Fraction]] = {i: {} for i in range(n) if i != ground}
    diag = dict.fromkeys(adj, Fraction(0))
    numerators = 1
    for i, j, length in edges:
        numerators *= length.numerator
        c = Fraction(length.denominator, length.numerator)
        for a, b in ((i, j), (j, i)):
            if a != ground:
                diag[a] += c
                if b != ground:
                    adj[a][b] = adj[a].get(b, 0) + c
    columns = set(adj) if columns is None else set(columns)
    elim, pivots, cols = _factor(adj, diag, columns)
    t, den = numerators, 1
    for d in pivots.values():
        t *= d.numerator
        den *= d.denominator
    t //= den
    green: dict[int, dict[int, int]] = {}
    done: set[int] = set()  # the vertices of columns already reached
    for v in reversed(elim):
        delta, col = cols[v]
        gv = {}
        for j in col.keys() | done:
            gj = green[j]
            gv[j] = gj[v] = sum(l * gj[a] for a, l in col.items()) // delta
        d = pivots[v]
        s = sum(l * gv[a] for a, l in col.items())
        gv[v] = (t * d.denominator * delta + s * d.numerator) // (d.numerator * delta)
        green[v] = gv
        if v in columns:
            done.add(v)
    return t, green


class ResistanceMatrix:
    """All pairwise effective resistances of a graph, exactly.

    ``order`` fixes the row/column labelling; ``get`` looks up by vertex id
    and ``values`` is the full matrix as a tuple of rows.  Two matrices are
    equal when their orders and values are; neither depends on which vertex
    was grounded during the solve.

    The solve is held as ints: ``T`` and ``N = T Z`` by vertex index, the
    ground's row left out.  ``resistance_matrix`` holds ``N`` on every pair;
    an engine solve holds only the pairs it reads (see ``_Topology.solve``),
    and ``get`` raises ``KeyError`` on any other.
    """

    def __init__(
        self, topology: _Topology, lengths: list, t: int, green: dict[int, dict[int, int]]
    ) -> None:
        self.order = topology.order
        self._topology = topology
        self._lengths = lengths
        self._t = t
        self._green = green

    def get(self, p: str, s: str) -> Fraction:
        index, ground = self._topology.index, self._topology.ground
        i, j = index[p], index[s]
        if i == j:
            return Fraction(0)
        green = self._green
        if i == ground:
            return Fraction(green[j][j], self._t)
        if j == ground:
            return Fraction(green[i][i], self._t)
        return Fraction(green[i][i] + green[j][j] - 2 * green[i][j], self._t)

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


@dataclass(frozen=True)
class _Topology:
    """A validated graph without its lengths: ``order`` fixes the vertex
    index, ``ground`` is the grounded vertex's index, ``ends`` holds each
    edge's ``(i, j)`` in edge order, loops included, and ``divisor`` the
    nonzero coefficients of the canonical divisor ``K`` by vertex index."""

    order: tuple[str, ...]
    index: dict[str, int]
    ground: int
    ends: tuple[tuple[int, int], ...]
    divisor: dict[int, int]

    @classmethod
    def of(cls, g: PmGraph, ground: Optional[str] = None) -> _Topology:
        # g is already validated; the ground defaults to its first vertex
        order = g.vertex_ids
        if ground is None:
            ground = order[0]
        elif ground not in order:
            raise PmGraphError(f"ground {ground!r} is not a vertex of the graph")
        index = {vid: i for i, vid in enumerate(order)}
        ends = tuple((index[e.u], index[e.v]) for e in g.edges)
        divisor = {index[p]: c for p, c in g._divisor.items() if c}
        return cls(order, index, index[ground], ends, divisor)

    @property
    def genus(self) -> GenusData:
        # of takes only validated, so connected, graphs, on which the Betti
        # number is e - v + 1 and deg K = 2 gbar - 2
        betti = len(self.ends) - len(self.order) + 1
        return GenusData(betti, sum(self.divisor.values()) // 2 + 1)

    def solve(self, lengths: list, columns: Optional[Iterable[int]] = None) -> ResistanceMatrix:
        """The one exact solve, at a positive length per edge in edge order.

        ``N`` holds the diagonal, each edge and every pair with a vertex in
        ``columns``, by index; ``None``, the default, gives every pair.
        """
        edges = [(i, j, length) for (i, j), length in zip(self.ends, lengths) if i != j]
        return ResistanceMatrix(self, lengths, *_green(len(self.order), self.ground, edges, columns))

    def scaled(self, lengths: list) -> _Scaled:
        """The solve at ``lengths`` scaled once, with ``K`` as theta's weights:
        ``N`` on the edges and on the columns of ``K``, all that is read."""
        return _scale(self.solve(lengths, self.divisor), self.divisor)


def resistance_matrix(g: PmGraph, ground: Optional[str] = None) -> ResistanceMatrix:
    """Effective resistances of a valid graph, from one exact solve.

    Validates ``g`` and then solves it as given, so every vertex of ``g`` has
    its row.  ``ground`` picks the vertex removed to form the reduced
    Laplacian and must not affect the result; it defaults to the first
    vertex.
    """
    return _Topology.of(require_valid(g), ground).solve([e.length for e in g.edges])


# a solve on one integer denominator q: q L_e and the bridge test per edge,
# tau, theta (0 without weights) and ell as numerators over den = 12 q^3, each
# edge's end indices, and theta's x = q Z w by vertex index (no ground entry)
_Scaled = namedtuple("_Scaled", "q lengths bridges tau theta ell den ends x")


def _scale(rm: ResistanceMatrix, weights: Optional[dict[int, int]] = None) -> _Scaled:
    """Put the solve ``rm`` on one integer denominator ``q``, once.

    The edges' ends and lengths are the ones ``rm`` solved; ``weights`` are
    theta's, by vertex index.  ``q`` is the lcm of the solve's ``T`` and of
    ``num * den`` of each edge length, so ``r = q / T``, ``q Z = r N``,
    theta's ``x = q Z w = r (N w)``, ``q L`` and ``q / L`` are all ints.
    ``N`` is read on the diagonal, on each edge and on the columns of ``w``;
    only the entries read are multiplied by ``r``.  Tau is read at the vertex
    ``rm`` is grounded at.
    """
    ends, lengths, t = rm._topology.ends, rm._lengths, rm._t
    ground = rm._topology.ground
    weights = weights or {}
    w = {i: c for i, c in weights.items() if c and i != ground}
    q = lcm(t, *(length.numerator * length.denominator for length in lengths))
    r = q // t
    green = {**rm._green, ground: {}}
    x = {i: r * sum(row[j] * c for j, c in w.items()) for i, row in rm._green.items()} if w else {}
    scaled = [length.numerator * (q // length.denominator) for length in lengths]
    edges = [
        (i, j, l, q // length.numerator * length.denominator)
        for (i, j), length, l in zip(ends, lengths, scaled)
    ]
    tau, theta, bridges = _core(edges, green, r, w, x, sum(weights.values()))
    s = 12 * q * q
    return _Scaled(q, scaled, bridges, tau, s * theta, s * sum(scaled), s * q, ends, x)


def _core(edges: list, green: dict, r, w: dict, x: dict, total) -> tuple:
    """``12 q^3 tau``, ``q theta`` and each edge's bridge test from a solve
    scaled by ``q``, with ``+``, ``-`` and ``*`` alone.

    ``edges`` holds ``(i, j, l = q L, c = q / L)`` with end indices ``i, j``,
    ``green`` holds ``N`` with a row per vertex (the ground's empty: the
    ground is tau's base, ``r(v, base) = Z_vv``), ``z = r N = q Z``, and
    ``x = q Z w`` for the weights ``w`` off the ground, which with the
    ground's sum to ``total``.  With ``rho = z_uu + z_vv - 2 z_uv`` (0 on a
    loop), ``12 q^3 tau = sum_e ((l - rho)^2 + 3 (z_vv - z_uu)^2) c`` (Cinkir,
    2011), a bridge is an edge with ``rho == l``, and
    ``q theta = sum_p 2 w_p (total z_pp - x_p)``.
    """
    tau = 0
    bridges = []
    for i, j, l, c in edges:
        ni = green[i]
        nii, njj = ni.get(i, 0), green[j].get(j, 0)
        rho = r * (nii + njj - 2 * ni.get(j, 0))
        slope, gap = r * (njj - nii), l - rho
        tau += (gap * gap + 3 * slope * slope) * c
        bridges.append(rho == l)
    return tau, sum(2 * c * (total * r * green[i][i] - x[i]) for i, c in w.items()), bridges


def effective_resistance(g: PmGraph, p: str, s: str) -> Fraction:
    """Effective resistance between two vertices, from a solve of ``s``'s
    column alone."""
    topology = _Topology.of(require_valid(g))
    return topology.solve([e.length for e in g.edges], {topology.index[s]}).get(p, s)


@dataclass(frozen=True)
class EdgeClass:
    """Classification of one edge.

    ``type_index`` is 0 for a non-bridge.  For a bridge it is the smaller of
    the total genera of the two components of the graph minus the edge, the
    cut endpoints counting with weight 0 on their side.  ``side_genera`` is
    ``(h_u, h_v)``, the total genus of the side holding ``u`` and of the
    side holding ``v``, read off theta's solve (see :func:`classify_edges`);
    it is ``None`` for non-bridges.
    """

    edge_id: str
    is_bridge: bool
    type_index: int
    side_genera: Optional[tuple[int, int]] = None


def classify_edges(g: PmGraph) -> dict[str, EdgeClass]:
    """Classify every edge as a bridge of some type or as type 0.

    An edge between distinct vertices is a bridge exactly when its effective
    resistance equals its length (no alternative path).  Loops are never
    bridges.  The side genera come from the same solve, scaled with the
    canonical divisor ``K`` as theta's weights: across a bridge of length
    ``L``, ``Z_vj - Z_uj`` is ``L`` for every ``j`` on the side away from the
    ground and 0 on the ground's side (Baker and Faber, 2006), so ``x = Z K``
    changes by ``L`` times the sum of ``K`` over the far side, which is
    ``2 h - 1`` for a side of total genus ``h``, the bridge's end included.
    On a graph of total genus ``gbar``, bridge types range over
    ``1 .. gbar // 2`` because a bridge side of total genus 0 would force a
    negative canonical divisor coefficient at its far end.
    """
    topology = _Topology.of(require_valid(g))
    s = topology.scaled([e.length for e in g.edges])
    return {
        e.id: EdgeClass(e.id, True, min(sides), sides) if sides else EdgeClass(e.id, False, 0)
        for e, sides in zip(g.edges, _sides(topology.genus.gbar, s))
    }


def _sides(gbar: int, s: _Scaled) -> list:
    # each edge's side genera (h_u, h_v), None off the bridges, from a solve
    # of total genus gbar scaled with K as theta's weights: x_v - x_u = k l,
    # with k = 2 h - 1 for the far side's genus h, positive when v's side is
    # the far one
    x = s.x
    sides = []
    for position, ((i, j), bridge, l) in enumerate(zip(s.ends, s.bridges, s.lengths)):
        if not bridge:
            sides.append(None)
            continue
        k, rest = divmod(x.get(j, 0) - x.get(i, 0), l)
        h = (abs(k) + 1) // 2
        if rest or not k % 2 or not h < gbar:
            raise ArithmeticError(
                f"the bridge at edge {position} does not split the total genus "
                "into two positive sides, which cannot occur in a valid pm-graph"
            )
        sides.append((gbar - h, h) if k > 0 else (h, gbar - h))
    return sides
