"""Independent test oracles.

Everything here is deliberately written against different mathematics than
the package implementation uses:

* resistance via weighted spanning-tree / 2-forest enumeration instead of a
  Laplacian solve, and resistance and the grounded Green's function ``Z`` on
  every pair via a dense Gauss-Jordan inverse of the reduced Laplacian
  instead of a sparse factorization;
* ``Z`` on the filled pattern by the ``Fraction`` selected inversion the
  engine ran before it held each solve as one integer ``T`` and
  ``N = T Z``, on the engine's factor;
* the integer ``T`` and ``N = T Z`` of a graph of at most 4 vertices by the
  fraction-free Gauss-Jordan elimination (Bareiss, 1968) the engine ran
  before it took them from cofactors;
* smoothing by the walk the engine ran before it solved straight from
  its chains: a set of visited vertices, a new ``Edge`` per chain named
  with fresh ids, and a second graph, with each given edge's place in it;
* bridges and the total genus of their sides via a combinatorial
  connectivity scan instead of the exact resistance identity and subtree
  sums;
* tau via floating-point quadrature of the defining integral instead of the
  per-edge closed form;
* tau, theta and the Zhang quartet by the ``Fraction`` formulas the engine
  used before it put each solve on one integer denominator: tau per edge
  from any resistance matrix at any base, theta over every ordered pair of
  vertices, and phi, lambda, epsilon and Z from their closed forms in tau,
  theta and ell.  Tau and theta read the dense inverse's resistances and
  the canonical divisor written out here unless given others;
* polynomials as dicts from exponent tuples to ``Fraction`` instead of
  packed integer monomials with ``int`` coefficients;
* the stable weighted graphs of a given total genus by brute force over
  multigraphs, with canonical forms over every vertex permutation, instead
  of the catalog's hand-written topology table.

They are only meant for small graphs; enumeration is exponential in the edge
count and the dense inverse is cubic in the vertex count.  From the package
they take the data model alone (``tests/test_oracle_imports.py`` pins it),
except the selected inversion, which runs on the engine's factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import lcm

from pmgraph import Edge, PmGraph
from pmgraph.polynomials import VARIABLES

from surgery import subdivide


def _forest_components(vertex_ids, end_pairs):
    """Component count if the edge set is a forest, else None (has a cycle)."""
    parent = {v: v for v in vertex_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(parent)
    for u, v in end_pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        parent[ru] = rv
        components -= 1
    return components


def tree_weight(g: PmGraph) -> Fraction:
    """Sum over spanning trees of the product of edge conductances."""
    non_loop = [e for e in g.edges if not e.is_loop]
    n = len(g.vertex_ids)
    total = Fraction(0)
    for subset in combinations(non_loop, n - 1):
        if _forest_components(g.vertex_ids, [(e.u, e.v) for e in subset]) == 1:
            weight = Fraction(1)
            for e in subset:
                weight /= e.length
            total += weight
    return total


def two_forest_weight(g: PmGraph, p: str, s: str) -> Fraction:
    """Spanning 2-forests separating p from s, weighted by conductances."""
    non_loop = [e for e in g.edges if not e.is_loop]
    n = len(g.vertex_ids)
    total = Fraction(0)
    for subset in combinations(non_loop, n - 2):
        pairs = [(e.u, e.v) for e in subset]
        if _forest_components(g.vertex_ids, pairs) != 2:
            continue
        # p and s separated iff adding a p-s edge still leaves a forest
        if _forest_components(g.vertex_ids, pairs + [(p, s)]) == 1:
            weight = Fraction(1)
            for e in subset:
                weight /= e.length
            total += weight
    return total


def resistance_by_enumeration(g: PmGraph, p: str, s: str) -> Fraction:
    """Effective resistance as (2-forest weight) / (spanning-tree weight)."""
    if p == s:
        return Fraction(0)
    return two_forest_weight(g, p, s) / tree_weight(g)


def _dense_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of ``[A | I]`` with partial pivoting over Fraction."""
    n = len(matrix)
    work = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def green_by_dense_inverse(g: PmGraph, ground: int) -> dict[int, dict[int, Fraction]]:
    """``Z`` of ``g`` grounded at vertex index ``ground`` on every pair of
    the other vertices, from the dense inverse of the reduced Laplacian."""
    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    n = len(index)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        if e.is_loop:
            continue
        c = 1 / e.length
        i, j = index[e.u], index[e.v]
        lap[i][i] += c
        lap[j][j] += c
        lap[i][j] -= c
        lap[j][i] -= c
    unknowns = [i for i in range(n) if i != ground]
    inverse = _dense_inverse([[lap[i][j] for j in unknowns] for i in unknowns])
    return {i: dict(zip(unknowns, row)) for i, row in zip(unknowns, inverse)}


def resistance_by_dense_inverse(g: PmGraph) -> tuple[tuple[Fraction, ...], ...]:
    """All pairwise resistances, in vertex order, from the dense inverse of
    the Laplacian grounded at the first vertex."""
    green = green_by_dense_inverse(g, 0)

    def z(i: int, j: int) -> Fraction:
        return Fraction(0) if i == 0 or j == 0 else green[i][j]

    n = len(g.vertices)
    return tuple(
        tuple(z(i, i) + z(j, j) - 2 * z(i, j) for j in range(n)) for i in range(n)
    )


class DenseResistances:
    """:func:`resistance_by_dense_inverse` looked up by vertex id, as
    ``get(p, s)``, the lookup the tau and theta oracles read."""

    def __init__(self, g: PmGraph) -> None:
        self._index = {vid: i for i, vid in enumerate(g.vertex_ids)}
        self._values = resistance_by_dense_inverse(g)

    def get(self, p: str, s: str) -> Fraction:
        return self._values[self._index[p]][self._index[s]]


def canonical_divisor_by_valence(g: PmGraph) -> dict[str, int]:
    """``K(p) = 2 q(p) - 2 + valence(p)``, a loop counting twice at its vertex."""
    valence = dict.fromkeys(g.vertex_ids, 0)
    for e in g.edges:
        valence[e.u] += 1
        valence[e.v] += 1
    return {v.id: 2 * v.q - 2 + valence[v.id] for v in g.vertices}


def smooth_by_edges(g: PmGraph, removable: set[str]) -> tuple[PmGraph, list]:
    """``g`` with exactly the vertices of ``removable`` smoothed away, and
    each edge's ``(position, same direction)`` in the result.

    From each kept vertex a walk follows a chain of removable vertices to
    the next kept vertex and makes it one edge named by its edge ids joined
    with ``+`` (primed until fresh); a chain back to its start is a loop,
    and a cycle of removable vertices keeps its last vertex.
    """
    edges = g.edges
    chain_ends = {v.id: [] for v in g.vertices}
    for i, e in enumerate(edges):
        for end in (e.u, e.v):
            if end in chain_ends:
                chain_ends[end].append(i)
    taken = {e.id for e in edges}
    visited: set[str] = set()
    kept_edges: list[Edge] = []
    where: list = [None] * len(edges)

    def walk(start: str, first: int) -> Edge:
        ids, lengths, here, i, position = [], [], start, first, len(kept_edges)
        while True:
            e = edges[i]
            ids.append(e.id)
            lengths.append(e.length)
            where[i] = position, (same := e.u == here)
            here = e.v if same else e.u
            if here not in removable or here in visited:
                break
            visited.add(here)
            a, b = chain_ends[here]
            i = b if a == i else a
        name = "+".join(ids)
        while name in taken:
            name += "'"
        taken.add(name)
        return Edge(name, start, here, sum(lengths, Fraction(0)))

    for i, e in enumerate(edges):
        inner_u, inner_v = e.u in removable, e.v in removable
        if not (inner_u or inner_v):
            where[i] = len(kept_edges), True
            kept_edges.append(e)
        elif inner_u != inner_v and (e.u if inner_u else e.v) not in visited:
            kept_edges.append(walk(e.v if inner_u else e.u, i))
    survivors = set()
    for v in reversed(g.vertices):
        if v.id in removable and v.id not in visited:
            visited.add(v.id)
            survivors.add(v.id)
            kept_edges.append(walk(v.id, chain_ends[v.id][0]))
    vertices = tuple(v for v in g.vertices if v.id not in removable or v.id in survivors)
    return PmGraph(vertices, tuple(kept_edges)), where


def selected_inverse(factor) -> dict[int, dict[int, Fraction]]:
    """Entries of ``A^{-1}`` on the filled pattern (Takahashi recurrence),
    in ``Fraction``, from the ``(elim, pivots, cols)`` of
    ``resistance._factor``.

    In reverse elimination order, ``Z_vj = sum_a l_av Z_aj`` for each ``j``
    in ``col(v)`` and ``Z_vv = 1/d_v + sum_a l_av Z_av``, with
    ``l_av = -L_av``, read off ``cols[v] = (delta_v, {a: delta_v l_av})``.
    ``col(v)`` is a clique of later vertices, so every ``Z_aj`` read is
    already known.  The result is symmetric.
    """
    elim, pivots, cols = factor
    z: dict[int, dict[int, Fraction]] = {}
    for v in reversed(elim):
        delta, scaled = cols[v]
        col = {a: Fraction(l, delta) for a, l in scaled.items()}
        zv = z[v] = {}
        for j in col:
            zj = z[j]
            zv[j] = zj[v] = sum(l * zj[a] for a, l in col.items())
        zv[v] = 1 / pivots[v] + sum(l * zv[a] for a, l in col.items())
    return z


def green_by_selected_inverse(g: PmGraph, ground: int) -> dict[int, dict[int, Fraction]]:
    """``Z`` of ``g`` grounded at vertex index ``ground`` on the pattern of
    the engine's minimum-degree factor, with no right-hand side, by
    :func:`selected_inverse`."""
    from pmgraph.resistance import _factor

    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    adj = {i: {} for i in index.values() if i != ground}
    diag = dict.fromkeys(adj, Fraction(0))
    for e in g.edges:
        if e.is_loop:
            continue
        i, j = index[e.u], index[e.v]
        for a, b in ((i, j), (j, i)):
            if a != ground:
                diag[a] += 1 / e.length
                if b != ground:
                    adj[a][b] = adj[a].get(b, 0) + 1 / e.length
    return selected_inverse(_factor(adj, diag, {}))


def green_by_bareiss(n: int, ground: int, edges: list) -> tuple:
    """``(T, N)`` with ``T = det(M A)`` and ``N = M adj(M A)`` on every
    pair, by fraction-free Gauss-Jordan elimination of the integer Laplacian
    ``M A`` of ``n`` vertices grounded at ``ground``, with ``edges`` holding
    ``(i, j, length)`` for every edge that is not a loop; the result is the
    ``T`` and ``N`` of ``resistance._dense_green``.

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
    return previous, green


def _reachable(g: PmGraph, start: str, removed: str) -> set[str]:
    """Vertices reachable from ``start`` without crossing edge ``removed``."""
    adjacency = {v: [] for v in g.vertex_ids}
    for other in g.edges:
        if other.id == removed or other.is_loop:
            continue
        adjacency[other.u].append(other.v)
        adjacency[other.v].append(other.u)
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


def bridges_by_removal(g: PmGraph) -> set[str]:
    """Edge ids whose removal disconnects the graph (loops never qualify)."""
    return {
        e.id
        for e in g.edges
        if not e.is_loop and len(_reachable(g, e.u, e.id)) != len(g.vertex_ids)
    }


def bridge_sides_by_removal(g: PmGraph) -> dict[str, tuple[int, int]]:
    """Total genus of the u-side and the v-side of each bridge, found by
    deleting the bridge and counting what each component keeps."""
    result = {}
    for eid in bridges_by_removal(g):
        e = g.edge(eid)
        genera = []
        for end in e.ends:
            side = _reachable(g, end, eid)
            edges = [f for f in g.edges if f.id != eid and f.u in side]
            genera.append(len(edges) - len(side) + 1 + sum(g.q(v) for v in side))
        result[eid] = (genera[0], genera[1])
    return result


def tau_by_quadrature(g: PmGraph, base: str | None = None, intervals: int = 8) -> float:
    """tau = (1/4) * integral of (d/dx r(x, base))^2, computed numerically.

    r(x, base) is sampled by inserting a temporary vertex at rational points
    along each edge; derivatives use second-order finite differences and the
    integral uses composite Simpson.  Since r restricted to an edge is a
    quadratic in arclength, both steps are exact up to float rounding, so the
    result matches the exact tau to ~1e-14 relative error.
    """
    if intervals % 2 or intervals < 4:
        raise ValueError("intervals must be even and >= 4")
    if base is None:
        base = g.vertex_ids[0]
    base_matrix = DenseResistances(g)
    total = 0.0
    for e in g.edges:
        length = float(e.length)
        h = length / intervals
        values = []
        for i in range(intervals + 1):
            t = Fraction(i, intervals)
            if t == 0:
                values.append(float(base_matrix.get(e.u, base)))
            elif t == 1:
                values.append(float(base_matrix.get(e.v, base)))
            else:
                cut = subdivide(g, e.id, t)
                midpoint = (set(cut.vertex_ids) - set(g.vertex_ids)).pop()
                values.append(float(DenseResistances(cut).get(midpoint, base)))
        derivatives = []
        for i in range(intervals + 1):
            if i == 0:
                derivatives.append((-3 * values[0] + 4 * values[1] - values[2]) / (2 * h))
            elif i == intervals:
                derivatives.append(
                    (3 * values[i] - 4 * values[i - 1] + values[i - 2]) / (2 * h)
                )
            else:
                derivatives.append((values[i + 1] - values[i - 1]) / (2 * h))
        squares = [v * v for v in derivatives]
        integral = squares[0] + squares[-1]
        integral += 4 * sum(squares[1:-1:2])
        integral += 2 * sum(squares[2:-2:2])
        total += integral * h / 3
    return total / 4.0


def tau_by_formula(g: PmGraph, matrix=None, base: str | None = None) -> Fraction:
    """tau = sum_e ((L - R_e)^2 / 3 + (r(v, y) - r(u, y))^2) / (4 L), in Fractions.

    ``matrix`` is any resistance matrix of ``g`` (``get(p, s)``), by default
    :class:`DenseResistances`; the base ``y`` defaults to the first vertex.
    """
    matrix = matrix or DenseResistances(g)
    base = base or g.vertex_ids[0]
    total = Fraction(0)
    for e in g.edges:
        c = e.length if e.is_loop else e.length - matrix.get(e.u, e.v)
        d = matrix.get(e.v, base) - matrix.get(e.u, base)
        total += (c * c / 3 + d * d) / e.length
    return total / 4


def theta_by_pairs(g: PmGraph, matrix=None, weights=None) -> Fraction:
    """sum over ordered vertex pairs of w_p w_s r(p, s); ``matrix`` defaults
    to :class:`DenseResistances` and w to K."""
    matrix = matrix or DenseResistances(g)
    weights = weights or canonical_divisor_by_valence(g)
    return sum(
        (weights[p] * weights[s] * matrix.get(p, s) for p in g.vertex_ids for s in g.vertex_ids),
        Fraction(0),
    )


def zhang_by_formula(tau: Fraction, theta: Fraction, ell: Fraction) -> dict[str, Fraction]:
    """phi, lambda, epsilon and Z of a total genus 3 graph from tau, theta, ell."""
    return {
        "phi": Fraction(13, 3) * tau + theta / 12 - ell / 4,
        "lambda": Fraction(3, 7) * tau + theta / 56 + ell / 14,
        "epsilon": Fraction(8, 3) * tau + theta / 6,
        "Z": Fraction(5, 9) * tau + theta / 72,
    }


def _canonical(weights, pairs):
    """Smallest (weights, sorted edge pairs) over every vertex relabelling."""
    return min(
        (
            tuple(weights[i] for i in perm),
            tuple(sorted(tuple(sorted((where[u], where[v]))) for u, v in pairs)),
        )
        for perm in permutations(range(len(weights)))
        for where in [{old: new for new, old in enumerate(perm)}]
    )


def stable_type(g: PmGraph):
    """Isomorphism class of ``g`` as a vertex-weighted multigraph (lengths dropped)."""
    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    return _canonical(
        [v.q for v in g.vertices], [(index[e.u], index[e.v]) for e in g.edges]
    )


def stable_types(total_genus: int, max_vertices: int = 4, max_edges: int = 6) -> set:
    """Every connected stable weighted multigraph of the given total genus.

    Loops are allowed; stability is ``2 q(p) - 2 + val(p) > 0`` at every
    vertex.  The default bounds fit total genus 3, where a stable graph has
    at most 2g - 2 = 4 vertices and 3g - 3 = 6 edges.
    """
    found = set()
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(max_edges + 1):
            cycle_rank = m - n + 1
            if not 0 <= cycle_rank <= total_genus:
                continue
            for pairs in combinations_with_replacement(slots, m):
                reached = {0}
                for _ in range(n):
                    reached |= {w for u, v in pairs if {u, v} & reached for w in (u, v)}
                if len(reached) != n:
                    continue
                valence = [0] * n
                for u, v in pairs:
                    valence[u] += 1
                    valence[v] += 1
                spare = total_genus - cycle_rank
                for weights in product(range(spare + 1), repeat=n):
                    if sum(weights) == spare and all(
                        2 * q - 2 + val > 0 for q, val in zip(weights, valence)
                    ):
                        found.add(_canonical(weights, pairs))
    return found


class RefPolynomial:
    """Reference polynomial: exponent tuples over ``VARIABLES`` to Fractions.

    Term order is the insertion order of each operation, as in the kernel;
    powers multiply one factor at a time.
    """

    def __init__(self, terms=()):
        self.terms = {tuple(e): Fraction(c) for e, c in dict(terms).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return RefPolynomial(out)

    def __neg__(self):
        return RefPolynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return RefPolynomial(out)

    def __pow__(self, power):
        result = RefPolynomial({(0,) * len(VARIABLES): 1})
        for _ in range(power):
            result = result * self
        return result

    def __eq__(self, other):
        return self.terms == other.terms

    def substitute(self, assignment):
        """Simultaneous; ``assignment`` maps names to RefPolynomials."""
        total = RefPolynomial()
        for exps, coeff in self.terms.items():
            factor = RefPolynomial({(0,) * len(VARIABLES): coeff})
            residual = list(exps)
            for i, (name, power) in enumerate(zip(VARIABLES, exps)):
                if power and name in assignment:
                    factor = factor * assignment[name] ** power
                    residual[i] = 0
            total = total + factor * RefPolynomial({tuple(residual): 1})
        return total

    def evaluate(self, point):
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            for name, power in zip(VARIABLES, exps):
                coeff *= Fraction(point[name]) ** power
            total += coeff
        return total

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def support(self):
        return {name for e in self.terms for name, power in zip(VARIABLES, e) if power}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), [-x for x in t[0]])):
            body = "*".join(
                name if power == 1 else f"{name}^{power}"
                for name, power in zip(VARIABLES, exps) if power
            )
            if not body:
                parts.append(str(coeff))
            else:
                parts.append(body if coeff == 1 else f"-{body}" if coeff == -1 else f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")
