"""Exact effective resistance and bridge/type classification.

The graph is viewed as a resistor network: an edge of length ``L`` is a
resistor of ``L`` ohms.  Self-loops carry no current between distinct
vertices and are skipped; parallel edges add their conductances.

One vertex is grounded, and the solve is held as ints: one integer ``T``,
``N = T Z``, with ``Z = A^{-1}`` the grounded Green's function of the
reduced Laplacian ``A``, and theta's ``X = N K`` for the canonical divisor
``K``.  ``r(p, s) = (N_pp + N_ss - 2 N_ps) / T``, one ``Fraction`` per
value.  Two producers give them, chosen by the number of vertices
(``DENSE_VERTICES``):

* up to 4 vertices, the stable bound for total genus 3, the cofactors of
  the integer Laplacian ``M A``, ``M`` the lcm of the length numerators,
  give ``T = det(M A)``, ``N = M adj(M A)`` and ``X`` with ``+``, ``-``
  and ``*`` alone; ``M A`` is filled from the topology's stamp, each
  non-loop edge's slots in the grounded matrix, built on its first solve;
* above, ``A = L D L^T`` is factored over ``Fraction``, always eliminating
  the vertex with the fewest remaining neighbours (ties go to the earlier
  vertex, so the work is deterministic); on the graphs pm-graph invariants
  live on, mostly series paths, pendant trees and bridges, this order makes
  almost no fill.  With ``T = det(A) prod_e num(L_e)``, the recurrence of
  Takahashi, Fagan and Chin (1973) runs on ints and gives ``N`` on the
  diagonal and each edge (every pair for ``resistance_matrix`` alone), and
  ``X`` from ``K`` carried through the factor as one right-hand side.

Every engine entry, in :mod:`pmgraph.invariants` and here, runs one
prologue, ``_reduced``: validate once, smooth away the weight-0 valence-2
vertices the caller does not name (resistances in series add, so ``K``,
the genus, each bridge's side genera and the resistance between kept
vertices stay), and solve what is left once by ``_Topology.solve``, a
validated graph's vertex order, ground, edge ends and ``K`` at one length
per edge.  The topology is built straight from the smoothing walk
(``graph._chains``), with ``K`` read from the given graph: no smoothed
graph, ``Edge`` or edge name is made, and a graph with nothing to smooth
takes the walk too.  The solve reads each length's
``as_integer_ratio()`` once and keeps the pairs, and ``_scale`` puts its
lengths, ``N`` and ``X`` on one integer denominator ``q``, a multiple of
``T``, from those same pairs, so tau and theta run on ints after it.  The
bridge test and each bridge's side genera (``_sides``, see
:func:`classify_edges`) need no ``q``: they run on ``T``, ``N``, ``X`` and
the pairs themselves.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Optional

from .graph import GenusData, PmGraph, PmGraphError, _chains, _removable, require_valid


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


def _factor(adj: dict[int, dict[int, Fraction]], diag: dict[int, Fraction], y: dict) -> tuple:
    """``(elim, pivots, cols)``: the minimum-degree ``A = L D L^T`` of the
    matrix with diagonal ``diag`` and off-diagonal entries ``-adj[i][j]``,
    by vertex index; consumes ``adj`` and ``diag``, and carries the
    right-hand side ``y`` forward in place, ``y_a += l_av y_v``, so that it
    ends as the solution of ``L u = y``.

    ``elim`` is the elimination order and ``pivots[v]`` is ``d_v``.
    ``cols[v]`` is ``(delta_v, {a: delta_v l_av})`` over the neighbours
    ``a`` eliminated after ``v``, with ``l_av = -L[a][v]`` (positive, because
    every off-diagonal entry of a Laplacian is a negated conductance) and
    ``delta_v`` the lcm of the column's denominators, so every entry is an
    int.  Eliminating ``v`` joins its remaining neighbours into a clique
    whose conductances grow by ``w_av * w_bv / d_v``; no entry cancels, so
    the numeric pattern is the symbolic one.
    """
    heap = [(len(row), v) for v, row in adj.items()]
    heapq.heapify(heap)
    elim: list[int] = []
    pivots: dict[int, Fraction] = {}
    cols: dict[int, tuple[int, dict[int, int]]] = {}
    while heap:
        degree, v = heapq.heappop(heap)
        if v in pivots or degree != len(adj[v]):
            continue  # eliminated, or its degree changed since this entry
        d = diag.pop(v)
        neighbours = list(adj.pop(v).items())
        yv = y.get(v, 0)
        col = {}
        for i, (a, w) in enumerate(neighbours):
            row = adj[a]
            del row[v]
            la = w / d
            col[a] = la
            diag[a] -= w * la
            if yv:
                y[a] = y.get(a, 0) + la * yv
            for b, wb in neighbours[i + 1:]:
                row[b] = adj[b][a] = row.get(b, 0) + la * wb
        for a in col:
            heapq.heappush(heap, (len(adj[a]), a))
        elim.append(v)
        pivots[v] = d
        delta = lcm(*(la.denominator for la in col.values()))
        cols[v] = delta, {a: la.numerator * (delta // la.denominator) for a, la in col.items()}
    return elim, pivots, cols


def _green(topology: _Topology, ratios: list, every: bool) -> tuple:
    """``(T, N, X)`` for ``topology``'s Laplacian grounded at its ground:
    one integer ``T``, ``N = T Z`` with ``Z`` the grounded Green's function,
    on the diagonal and on each edge (``every``: on every pair), and
    ``X = N w`` for its ``weights``, by vertex index.

    ``ratios`` holds each edge's length as ``as_integer_ratio()`` pairs, in
    edge order, loops included.  Graphs of at most ``DENSE_VERTICES``
    vertices take the dense producer, which gives every pair, larger ones
    the sparse one.
    """
    if len(topology.order) <= DENSE_VERTICES:
        return _dense_green(topology, ratios)
    return _sparse_green(topology, ratios, every)


# the dense producer's plan for one topology: the unknowns (every vertex
# index but the ground's), the positions of the edges that are not loops,
# their slots in the row-major grounded matrix, the ground's row and column
# left out: ``(position, slot)`` on the diagonal for an edge at the ground,
# ``(position, ii, jj, ij)`` for one between two unknowns, ``ij`` above the
# diagonal, and theta's weight at each unknown, 0 where it has none
_Stamp = namedtuple("_Stamp", "unknowns live grounded free weights")


def _dense_green(topology: _Topology, ratios: list) -> tuple:
    """``T = det(M A)``, ``N = M adj(M A)`` on every pair and ``X = N w``
    from the cofactors of the integer Laplacian ``M A`` grounded at the
    topology's ground.

    ``M`` is the lcm of the length numerators, so every ``M / L`` is an int.
    Each ``M / L`` is added into its edge's slots of the topology's stamp,
    built on its first solve, so the grounded matrix is filled directly,
    with no ``n x n`` Laplacian built and cut down per call, and only on
    and above the diagonal, all that ``_adjugate`` reads.
    """
    unknowns, live, grounded, free, weights = topology.stamp
    size = len(unknowns)
    m = lcm(*[ratios[e][0] for e in live])
    a = [0] * (size * size)
    for e, k in grounded:
        num, den = ratios[e]
        a[k] += m // num * den
    for e, ii, jj, ij in free:
        num, den = ratios[e]
        w = m // num * den
        a[ii] += w
        a[jj] += w
        a[ij] -= w
    t, adj = _adjugate([a[k * size:k * size + size] for k in range(size)])
    green = {v: {u: m * c for u, c in zip(unknowns, row)} for v, row in zip(unknowns, adj)}
    return t, green, {v: m * sum(map(mul, row, weights)) for v, row in zip(unknowns, adj)}


def _adjugate(a: list) -> tuple:
    """``(det a, adj a)`` of a symmetric matrix of size 0 to 3, with ``+``,
    ``-`` and ``*`` alone, so over any commutative ring, reading only the
    upper triangle of ``a``, its diagonal included."""
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


def _sparse_green(topology: _Topology, ratios: list, every: bool) -> tuple:
    """``T = det(A) prod_e num(L_e)``, ``N = T Z`` on the filled pattern
    (``every``: on every pair) and ``X = N w``, by the minimum-degree factor
    and the Takahashi recurrence on ints.

    ``T`` is an integer, a weighted count of spanning trees, and so is every
    ``T Z_ij``, a weighted count of 2-forests (the all-minors matrix-tree
    theorem), and so every ``X_v``.  In reverse elimination order (Takahashi,
    Fagan and Chin, 1973), ``N_vj = sum_a l_av N_aj`` for each later ``j``
    in ``col(v)`` (``every``: each later ``j``) and
    ``N_vv = T / d_v + sum_a l_av N_av``; ``col(v)`` is a clique of later
    vertices, so every ``N_aj`` read is known.  ``X_v = T u_v / d_v +
    sum_a l_av X_a`` with ``u`` the forward solve of ``w`` from ``_factor``.
    With ``l`` on the column's denominator ``delta_v``, each sum is an int
    divided exactly by ``delta_v``; ``T delta_v u_v / d_v`` is an int, being
    ``delta_v X_v - sum_a delta_v l_av X_a``, though ``T u_v`` need not be.
    """
    ground = topology.ground
    adj: dict[int, dict[int, Fraction]] = {i: {} for i in range(len(topology.order)) if i != ground}
    diag = dict.fromkeys(adj, Fraction(0))
    numerators = 1
    for (i, j), (num, den) in zip(topology.ends, ratios):
        if i == j:
            continue
        numerators *= num
        c = Fraction(den, num)
        for a, b in ((i, j), (j, i)):
            if a != ground:
                diag[a] += c
                if b != ground:
                    adj[a][b] = adj[a].get(b, 0) + c
    u = dict(topology.weights)
    elim, pivots, cols = _factor(adj, diag, u)
    t, den = numerators, 1
    for d in pivots.values():
        t *= d.numerator
        den *= d.denominator
    t //= den
    green: dict[int, dict[int, int]] = {}
    x: dict[int, int] = {}
    for v in reversed(elim):
        delta, col = cols[v]
        gv = {}
        for j in green if every else col:
            gj = green[j]
            gv[j] = gj[v] = sum(l * gj[a] for a, l in col.items()) // delta
        d, uv = pivots[v], u.get(v, 0)
        s = sum(l * gv[a] for a, l in col.items())
        gv[v] = (t * d.denominator * delta + s * d.numerator) // (d.numerator * delta)
        green[v] = gv
        tu = t * delta * uv.numerator * d.denominator // (uv.denominator * d.numerator)
        x[v] = (tu + sum(l * x[a] for a, l in col.items())) // delta
    return t, green, x


class ResistanceMatrix:
    """All pairwise effective resistances of a graph, exactly.

    ``order`` fixes the row/column labelling; ``get`` looks up by vertex id
    and ``values`` is the full matrix as a tuple of rows.  Two matrices are
    equal when their orders and values are; neither depends on which vertex
    was grounded during the solve.

    The solve is held as ints: ``T``, ``N = T Z`` and ``X = N K`` by vertex
    index, the ground's row left out.  ``resistance_matrix`` holds ``N`` on
    every pair; an engine solve holds only the diagonal and the edges (see
    ``_Topology.solve``), and ``get`` raises ``KeyError`` on any other pair.
    """

    def __init__(self, topology: _Topology, ratios: list, t: int, green: dict, x: dict) -> None:
        self.order = topology.order
        self._topology = topology
        self._ratios = ratios
        self._t = t
        self._green = green
        self._x = x

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
    edge's ``(i, j)`` in edge order, loops included, ``divisor`` the nonzero
    coefficients of the canonical divisor ``K`` by vertex index, and
    ``weights`` those off the ground, theta's weights.  ``stamp`` is the
    dense producer's plan, built on the first solve that reads it."""

    order: tuple[str, ...]
    index: dict[str, int]
    ground: int
    ends: tuple[tuple[int, int], ...]
    divisor: dict[int, int]
    weights: dict[int, int]

    @classmethod
    def of(cls, g: PmGraph, ground: Optional[str] = None) -> _Topology:
        # g is already validated; the ground defaults to its first vertex
        return cls.of_parts(g.vertex_ids, [(e.u, e.v) for e in g.edges], g._divisor, ground)

    @classmethod
    def of_parts(cls, order, ends: list, divisor: dict, ground: Optional[str] = None) -> _Topology:
        # a validated graph by parts: its vertex ids in order, each edge's ends
        # by vertex id and K by vertex id, at least on every vertex of order
        if ground is None:
            ground = order[0]
        elif ground not in order:
            raise PmGraphError(f"{ground!r} is not a vertex of the graph")
        index = {vid: i for i, vid in enumerate(order)}
        ends = tuple((index[u], index[v]) for u, v in ends)
        divisor = {i: c for i, vid in enumerate(order) if (c := divisor[vid])}
        weights = {i: c for i, c in divisor.items() if i != index[ground]}
        return cls(tuple(order), index, index[ground], ends, divisor, weights)

    @property
    def genus(self) -> GenusData:
        # of takes only validated, so connected, graphs, on which the Betti
        # number is e - v + 1 and deg K = 2 gbar - 2
        betti = len(self.ends) - len(self.order) + 1
        return GenusData(betti, sum(self.divisor.values()) // 2 + 1)

    @cached_property
    def stamp(self) -> _Stamp:
        # vertex v has row v - (v > ground) once the ground's row is left out
        ground, n = self.ground, len(self.order)
        size = n - 1
        live, grounded, free = [], [], []
        for position, (i, j) in enumerate(self.ends):
            if i == j:
                continue
            live.append(position)
            k, l = i - (i > ground), j - (j > ground)
            if i == ground:
                grounded.append((position, l * size + l))
            elif j == ground:
                grounded.append((position, k * size + k))
            else:
                free.append((position, k * size + k, l * size + l, min(k, l) * size + max(k, l)))
        unknowns = (*range(ground), *range(ground + 1, n))
        weights = tuple(self.weights.get(v, 0) for v in unknowns)
        return _Stamp(unknowns, live, grounded, free, weights)

    def solve(self, lengths: list, every: bool = False) -> ResistanceMatrix:
        """The one exact solve, at a positive length per edge in edge order:
        ``N`` on the diagonal and each edge by index (``every``: on every
        pair), and ``X = N K`` over ``weights``.  Each length's
        ``as_integer_ratio()`` is read once, here, for the producer and for
        ``_scale``."""
        ratios = [length.as_integer_ratio() for length in lengths]
        t, green, x = _green(self, ratios, every)
        return ResistanceMatrix(self, ratios, t, green, x)


def resistance_matrix(g: PmGraph) -> ResistanceMatrix:
    """Effective resistances of a valid graph, from one exact solve.

    Validates ``g`` and then solves it as given, grounded at its first
    vertex, so every vertex of ``g`` has its row.
    """
    return _Topology.of(require_valid(g)).solve([e.length for e in g.edges], every=True)


def _reduced(g: PmGraph, keep: tuple[str, ...] = ()) -> tuple[ResistanceMatrix, list]:
    # every engine entry's prologue: validate g once, smooth it keeping the
    # vertices of ``keep``, solve the rest once grounded at the first of them;
    # also the walk's map of g's edges onto the edges solved.  The topology is
    # built straight from the walk: its K is g's, 0 on a removable vertex that
    # carries a cycle, and no smoothed graph is made
    removable = _removable(g, keep)
    kept, chains, where = _chains(require_valid(g), removable)
    ends = [(u, v) for u, v, _, _ in chains]
    topology = _Topology.of_parts([v.id for v in kept], ends, g._divisor, keep[0] if keep else None)
    return topology.solve([length for _, _, length, _ in chains]), where


# a solve on one integer denominator q: the solve itself, q L_e per edge, and
# tau, theta and ell as numerators over den = 12 q^3
_Scaled = namedtuple("_Scaled", "rm q lengths tau theta ell den")


def _scale(rm: ResistanceMatrix) -> _Scaled:
    """Put the solve ``rm`` on one integer denominator ``q``, once.

    The edges' ends and lengths are the ones ``rm`` solved, and theta's
    weights are its topology's ``K``.  ``q`` is the lcm of the solve's ``T``
    and of ``num * den`` of each edge length, so ``r = q / T``,
    ``q Z = r N``, theta's ``q Z K = r X``, ``q L`` and ``q / L`` are all
    ints.  The lengths are the ``as_integer_ratio()`` pairs the solve read,
    so none is read again here.  ``N`` is read on the diagonal and on each
    edge; only the entries read are multiplied by ``r``.  Tau is read at the
    vertex ``rm`` is grounded at.
    """
    topology, ratios, t = rm._topology, rm._ratios, rm._t
    q = lcm(t, *(num * den for num, den in ratios))
    green = {**rm._green, topology.ground: {}}
    scaled = [num * (q // den) for num, den in ratios]
    edges = [
        (i, j, l, q // num * den) for (i, j), (num, den), l in zip(topology.ends, ratios, scaled)
    ]
    total = sum(topology.divisor.values())
    tau, theta = _core(edges, green, q // t, topology.weights, rm._x, total)
    s = 12 * q * q
    return _Scaled(rm, q, scaled, tau, s * theta, s * sum(scaled), s * q)


def _core(edges: list, green: dict, r, w: dict, x: dict, total) -> tuple:
    """``(12 q^3 tau, q theta)`` from a solve scaled by ``q``, with ``+``,
    ``-`` and ``*`` alone.

    ``edges`` holds ``(i, j, l = q L, c = q / L)`` with end indices ``i, j``,
    ``green`` holds ``N`` with a row per vertex (the ground's empty: the
    ground is tau's base, ``r(v, base) = Z_vv``), ``z = r N = q Z``, and
    ``x = N w`` for the weights ``w`` off the ground, which with the
    ground's sum to ``total``.  With ``rho = z_uu + z_vv - 2 z_uv`` (0 on a
    loop), ``12 q^3 tau = sum_e ((l - rho)^2 + 3 (z_vv - z_uu)^2) c`` (Cinkir,
    2011) and ``q theta = 2 r sum_p w_p (total N_pp - x_p)``.
    """
    tau = 0
    for i, j, l, c in edges:
        ni = green[i]
        nii, njj = ni.get(i, 0), green[j].get(j, 0)
        slope, gap = r * (njj - nii), l - r * (nii + njj - 2 * ni.get(j, 0))
        tau += (gap * gap + 3 * slope * slope) * c
    return tau, 2 * r * sum(c * (total * green[i][i] - x[i]) for i, c in w.items())


def effective_resistance(g: PmGraph, p: str, s: str) -> Fraction:
    """Effective resistance between two vertices: ``N_ss / T`` of one solve
    of the reduced model that keeps both, grounded at ``p``."""
    rm = _reduced(g, (p, s))[0]
    if s not in rm._topology.index:
        raise PmGraphError(f"{s!r} is not a vertex of the graph")
    return rm.get(p, s)


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
    bridges.  The solve is of the reduced model: an edge of a smoothed chain
    takes its chain's class, the side genera turned to the edge's direction.
    Across a bridge of length ``L``, ``Z_vj - Z_uj`` is ``L`` for every ``j``
    on the side away from the ground and 0 on the ground's side (Baker and
    Faber, 2006), so theta's ``x = Z K`` changes by ``L`` times the sum of
    ``K`` over the far side, which is ``2 h - 1`` for a side of total genus
    ``h``, the bridge's end included.  Both tests run on the solve's own
    ints, with no ``q`` (see ``_sides``).
    On a graph of total genus ``gbar``, bridge types range over
    ``1 .. gbar // 2`` because a bridge side of total genus 0 would force a
    negative canonical divisor coefficient at its far end.
    """
    rm, where = _reduced(g)
    sides = _sides(rm._topology.genus.gbar, rm)
    sides = [sides[k] if same or not sides[k] else sides[k][::-1] for k, same in where]
    return {
        e.id: EdgeClass(e.id, True, min(side), side) if side else EdgeClass(e.id, False, 0)
        for e, side in zip(g.edges, sides)
    }


def _sides(gbar: int, rm: ResistanceMatrix) -> list:
    # each edge's side genera (h_u, h_v), None off the bridges, from a solve
    # of total genus gbar, on its ints.  An edge of length num/den is a
    # bridge exactly when T r(u, v) = N_uu + N_vv - 2 N_uv is T num / den,
    # and then (X_v - X_u) den = k T num, with k = 2 h - 1 for the far
    # side's genus h, positive when v's side is the far one
    topology, t, x = rm._topology, rm._t, rm._x
    green = {**rm._green, topology.ground: {}}
    sides = []
    for position, ((i, j), (num, den)) in enumerate(zip(topology.ends, rm._ratios)):
        ni, tl = green[i], t * num
        if i == j or (ni.get(i, 0) + green[j].get(j, 0) - 2 * ni.get(j, 0)) * den != tl:
            sides.append(None)
            continue
        k, rest = divmod((x.get(j, 0) - x.get(i, 0)) * den, tl)
        h = (abs(k) + 1) // 2
        if rest or not k % 2 or not h < gbar:
            raise ArithmeticError(
                f"the bridge at edge {position} does not split the total genus "
                "into two positive sides, which cannot occur in a valid pm-graph"
            )
        sides.append((gbar - h, h) if k > 0 else (h, gbar - h))
    return sides
