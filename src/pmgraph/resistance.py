"""Exact effective resistance and bridge/type classification.

The graph is viewed as a resistor network: an edge of length ``L`` is a
resistor of ``L`` ohms.  Self-loops carry no current between distinct
vertices and are skipped; parallel edges add their conductances.

One vertex is grounded, and the solve is held as ints: one integer ``T`` and
``N = T Z`` on a pattern, with ``Z = A^{-1}`` the grounded Green's function
of the reduced Laplacian ``A``.  ``r(p, s) = (N_pp + N_ss - 2 N_ps) / T``,
one ``Fraction`` per value.  Two producers give ``T`` and ``N``, chosen by
the number of vertices (``DENSE_VERTICES``):

* up to 4 vertices, the stable bound for total genus 3, a fraction-free
  Gauss-Jordan elimination (Bareiss, 1968) of the integer Laplacian
  ``M A``, ``M`` the lcm of the length numerators, gives
  ``T = det(M A)`` and ``N = M adj(M A)`` on every pair;
* above, ``A = L D L^T`` is factored over ``Fraction``, always eliminating
  the vertex with the fewest remaining neighbours (ties go to the earlier
  vertex, so the work is deterministic); on the graphs pm-graph invariants
  live on, mostly series paths, pendant trees and bridges, this order makes
  almost no fill.  With ``T = det(A) prod_e num(L_e)``, the selected
  inversion of Takahashi, Fagan and Chin (1973) runs on ints and gives
  ``N`` on the filled pattern, which holds the diagonal and every edge.
  A pair outside it costs one forward and back solve with the factor, after
  which its whole column is known.

That is all tau and the bridge test read.  For the engine, ``_scale`` puts
the lengths, ``N`` and theta's one solve on a single integer denominator
``q``, a multiple of ``T``, so tau, theta and the bridge test run on ints
after it.  Theta's solve also gives each bridge's side genera (see
:func:`classify_edges`), so no second pass over the graph finds them.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional

from .graph import PmGraph, PmGraphError, canonical_divisor, genus, require_valid


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
# genus-3 input takes this path after smoothing.  The bound stays there
# because the dense solve's size is not the graph's alone: ``M`` is the lcm of
# every length numerator, so ``det(M A)`` has up to ``(n - 1) bits(M)`` bits
# and grows with each edge of a new numerator, while the sparse producer
# never scales ``A`` as a whole.  Solve plus scale on smoothed random graphs
# with numerators up to 20, 2 cores: 16 against 41 us at 3.7 vertices, 108
# against 226 us at 10, 306 against 344 us at 12.7 and 929 against 505 us at
# 17.2, so even with small numerators the dense solve loses from about 13.
DENSE_VERTICES = 4


@dataclass(frozen=True)
class _Factor:
    """``A = L D L^T`` of a grounded Laplacian, by vertex index.

    ``elim`` is the elimination order.  ``cols[v]`` maps each neighbour
    ``a`` eliminated after ``v`` to ``l_av = -L[a][v]``, which is positive
    because every off-diagonal entry of a Laplacian is a negated
    conductance.  ``scaled[v]`` is the same column on one integer
    denominator: ``(delta_v, {a: delta_v l_av})``, with ``delta_v`` the lcm
    of the column's denominators.
    """

    elim: tuple[int, ...]
    cols: dict[int, dict[int, Fraction]]
    pivots: dict[int, Fraction]
    scaled: dict[int, tuple[int, dict[int, int]]]


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
    scaled: dict[int, tuple[int, dict[int, int]]] = {}
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
        delta = lcm(*(la.denominator for la in col.values()))
        scaled[v] = delta, {a: la.numerator * (delta // la.denominator) for a, la in col.items()}
    return _Factor(tuple(elim), cols, pivots, scaled)


def _green(n: int, ground: int, edges: list) -> tuple:
    """``(T, N, factor)`` for the Laplacian of ``n`` vertices grounded at
    ``ground``: one integer ``T`` and ``N = T Z`` on the pattern, with ``Z``
    the grounded Green's function.

    ``edges`` holds ``(i, j, length)`` for every edge that is not a loop.
    Graphs of at most ``DENSE_VERTICES`` vertices take the dense producer
    (``factor`` is ``None`` and ``N`` holds every pair), larger ones the
    sparse one.
    """
    if n <= DENSE_VERTICES:
        return _dense_green(n, ground, edges)
    return _sparse_green(n, ground, edges)


def _dense_green(n: int, ground: int, edges: list) -> tuple:
    """``T = det(M A)`` and ``N = M adj(M A)`` on every pair, by fraction-free
    Gauss-Jordan elimination (Bareiss, 1968) of the integer Laplacian ``M A``.

    ``M`` is the lcm of the length numerators, so every ``M / L`` is an int.
    The elimination runs in place and keeps the matrix symmetric, as the
    sweep operator does: pivot ``k`` turns each entry ``b_ij`` off row and
    column ``k`` into ``(p b_ij - b_ik b_kj) / p'``, with ``p`` the pivot and
    ``p'`` the one before, and the pivot itself into ``-p'``.  Every
    division is exact by Sylvester's identity: after pivot ``k`` each entry
    is ``p`` times the swept value.  At the end the last pivot is
    ``det(M A)`` and the matrix is ``-adj(M A)``.  A grounded Laplacian is
    positive definite, so no pivot is 0 and no rows swap.
    """
    m = lcm(*(length.numerator for _, _, length in edges))
    unknowns = [v for v in range(n) if v != ground]
    size = len(unknowns)
    row_of = {v: r for r, v in enumerate(unknowns)}
    rows = [[0] * size for _ in unknowns]
    for i, j, length in edges:
        w = m // length.numerator * length.denominator
        ri, rj = row_of.get(i), row_of.get(j)
        if ri is not None:
            rows[ri][ri] += w
        if rj is not None:
            rows[rj][rj] += w
            if ri is not None:
                rows[ri][rj] -= w
                rows[rj][ri] -= w
    previous = 1
    for k, pivot_row in enumerate(rows):
        p = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                for j in range(i, size):
                    if j != k:
                        row[j] = rows[j][i] = (p * row[j] - f * pivot_row[j]) // previous
        pivot_row[k] = -previous
        previous = p
    green = {v: {unknowns[c]: -m * b for c, b in enumerate(row)} for v, row in zip(unknowns, rows)}
    return previous, green, None


def _sparse_green(n: int, ground: int, edges: list) -> tuple:
    """``T = det(A) prod_e num(L_e)`` and ``N = T Z`` on the filled pattern,
    by the minimum-degree factor and the Takahashi recurrence on ints.

    ``T`` is an integer, a weighted count of spanning trees, and so is every
    ``T Z_ij``, a weighted count of 2-forests (the all-minors matrix-tree
    theorem).  In reverse elimination order, ``N_vj = sum_a l_av N_aj`` for
    each ``j`` in ``col(v)`` and ``N_vv = T / d_v + sum_a l_av N_av``
    (Takahashi, Fagan and Chin, 1973); ``col(v)`` is a clique of later
    vertices, so every ``N_aj`` read is already known.  With ``l`` on the
    column's denominator ``delta_v``, each sum is an int divided exactly by
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
    factor = _factor(adj, diag)
    t, den = numerators, 1
    for d in factor.pivots.values():
        t *= d.numerator
        den *= d.denominator
    t //= den
    green: dict[int, dict[int, int]] = {}
    for v in reversed(factor.elim):
        delta, col = factor.scaled[v]
        gv = green[v] = {}
        for j in col:
            gj = green[j]
            gv[j] = gj[v] = sum(l * gj[a] for a, l in col.items()) // delta
        gv[v] = _back(t, factor.pivots[v], 1, delta, sum(l * gv[a] for a, l in col.items()))
    return t, green, factor


def _back(t: int, d: Fraction, y: Fraction | int, delta: int, s: int) -> int:
    # the int T y / d + s / delta, exact: the back substitution's step
    return (t * y.numerator * d.denominator * delta + s * y.denominator * d.numerator) // (
        y.denominator * d.numerator * delta
    )


class ResistanceMatrix:
    """All pairwise effective resistances of a graph, exactly.

    ``order`` fixes the row/column labelling; ``get`` looks up by vertex id
    and ``values`` is the full matrix as a tuple of rows.  Two matrices are
    equal when their orders and values are; neither depends on which vertex
    was grounded during the solve.

    The solve is held as ints: ``T`` and ``N = T Z``, by vertex index, the
    ground's row left out.  ``N`` grows by whole columns as pairs outside
    the filled pattern are asked for; the dense producer leaves none.
    """

    def __init__(
        self, order: tuple[str, ...], index: dict[str, int], ground: int,
        t: int, green: dict[int, dict[int, int]], factor: Optional[_Factor],
    ) -> None:
        self.order = order
        self._index = index
        self._ground = ground
        self._t = t
        self._green = green
        self._factor = factor

    def get(self, p: str, s: str) -> Fraction:
        i, j = self._index[p], self._index[s]
        if i == j:
            return Fraction(0)
        green = self._green
        if i == self._ground:
            return Fraction(green[j][j], self._t)
        if j == self._ground:
            return Fraction(green[i][i], self._t)
        nij = green[i].get(j)
        if nij is None:
            for v, x in self.solve({j: 1}).items():
                green[v][j] = green[j][v] = x
            nij = green[i][j]
        return Fraction(green[i][i] + green[j][j] - 2 * nij, self._t)

    def solve(self, rhs: dict[int, int]) -> dict[int, int]:
        """``T x`` with ``A x = rhs`` for an int ``rhs``, as ints.

        Both are keyed by vertex index; the ground is not an unknown, so a
        ground entry of ``rhs`` is ignored and ``x`` has none.  ``T x`` is
        an int because every ``T Z_ij`` is.  On the dense producer's ``N``
        it is ``N rhs``; otherwise one forward and one back solve with the
        factor, the back solve on ints.
        """
        f, t = self._factor, self._t
        if f is None:
            return {i: sum(row[j] * c for j, c in rhs.items() if j in row)
                    for i, row in self._green.items()}
        y = dict(rhs)
        for v in f.elim:  # forward: only rhs entries and their ancestors fill
            yv = y.get(v)
            if yv:
                for a, l in f.cols[v].items():
                    y[a] = y.get(a, 0) + l * yv
        x: dict[int, int] = {}
        for v in reversed(f.elim):  # back: T x_v = T y_v / d_v + sum_a l_av T x_a
            delta, col = f.scaled[v]
            s = sum(l * x[a] for a, l in col.items())
            yv = y.get(v)
            x[v] = _back(t, f.pivots[v], yv, delta, s) if yv else s // delta
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
    """Effective resistances of a valid graph, from one exact solve.

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
    edges = [(index[e.u], index[e.v], e.length) for e in g.edges if not e.is_loop]
    return ResistanceMatrix(order, index, k, *_green(len(order), k, edges))


# a solve on one integer denominator q: q L_e and the bridge test per edge,
# tau, theta (0 without weights) and ell as numerators over den = 12 q^3, each
# edge's end indices, and theta's solve x = q Z w by vertex index (no ground
# entry)
_Scaled = namedtuple("_Scaled", "q lengths bridges tau theta ell den ends x")


def _scale(
    rm: ResistanceMatrix, ends: list, lengths: list, weights: Optional[dict[int, int]] = None
) -> _Scaled:
    """Put the solve ``rm`` on one integer denominator ``q``, once.

    ``ends`` holds each edge's end indices ``(i, j)`` in ``rm``'s vertex
    order and ``lengths`` its length, a loop included; ``weights`` are
    theta's, by vertex index.  ``q`` is the lcm of the solve's ``T`` and of
    ``num * den`` of each edge length, so ``z = q Z = N (q / T)``,
    ``x = q Z w = T x (q / T)`` for theta's one solve, ``q L`` and ``q / L``
    are all ints.  Tau is read at the vertex ``rm`` is grounded at.  Only
    the lengths enter here, so a caller that knows a topology is valid
    solves and scales new lengths on it without building a graph.
    """
    ground, t = rm._ground, rm._t
    weights = weights or {}
    w = {i: c for i, c in weights.items() if c and i != ground}
    x = rm.solve(w) if w else {}
    q = lcm(t, *(length.numerator * length.denominator for length in lengths))
    r = q // t
    z = {i: {j: v * r for j, v in row.items()} for i, row in rm._green.items()}
    z[ground] = {}
    scaled = [length.numerator * (q // length.denominator) for length in lengths]
    edges = [
        (i, j, l, q // length.numerator * length.denominator)
        for (i, j), length, l in zip(ends, lengths, scaled)
    ]
    x = {i: v * r for i, v in x.items()}
    tau, theta, bridges = _core(edges, z, w, x, sum(weights.values()))
    s = 12 * q * q
    return _Scaled(q, scaled, bridges, tau, s * theta, s * sum(scaled), s * q, ends, x)


def _scale_graph(g: PmGraph, rm: ResistanceMatrix, weights: Optional[dict[str, int]] = None) -> _Scaled:
    # _scale on the edges of g, solved as rm, with the weights by vertex id; a
    # vertex that is not in g must weigh 0
    index = rm._index
    return _scale(
        rm, [(index[e.u], index[e.v]) for e in g.edges], [e.length for e in g.edges],
        {index[p]: c for p, c in weights.items() if c} if weights else None,
    )


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
    s = _scale_graph(g, resistance_matrix(g), canonical_divisor(g))
    return {
        e.id: EdgeClass(e.id, True, min(sides), sides) if sides else EdgeClass(e.id, False, 0)
        for e, sides in zip(g.edges, _sides(genus(g).gbar, s))
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
