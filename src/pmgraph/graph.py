"""Polarized metrized graphs: data model, axioms, and smoothing.

A polarized metrized graph (pm-graph) is a finite connected multigraph whose
edges carry positive rational lengths and whose vertices carry nonnegative
integer polarization weights ``q``, subject to the effectivity condition that
the canonical divisor coefficient ``v(p) - 2 + 2*q(p)`` is nonnegative at
every vertex ``p``.  Self-loops and parallel edges are allowed; a self-loop
contributes 2 to the valence of its vertex.

All lengths are :class:`fractions.Fraction` end to end and every operation is
a pure function returning a new graph, so results are exact and reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]


class PmGraphError(Exception):
    """Base class for errors raised by this package."""


class InvalidGraphError(PmGraphError):
    """The graph violates a pm-graph axiom (see :func:`validate`)."""


class UnsupportedGenusError(PmGraphError):
    """An operation restricted to total genus 3 was called off-domain."""


# Largest decimal exponent a length literal may carry: ``Fraction`` expands
# ``"1e999999999"`` into a billion-digit power of ten.
MAX_DECIMAL_EXPONENT = 1000
# Largest vertex weight ``q`` a valid graph may carry: ``delta`` has a key per
# type ``0 .. gbar // 2``, so a 30-byte file with ``q=200000`` would print
# 100001 of them and a weight near 10**12 would ask for that many entries.
MAX_WEIGHT = 1000
# The length literals every supported Python reads alike: ``Fraction``'s own
# grammar as of 3.10, so no ``_`` separator (read from 3.11 on) and no space
# around ``/`` (read from 3.12 on).  ``\d`` is any Unicode decimal digit,
# as in ``Fraction``.
_LITERAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|(?:\.\d*)?(?:[eE][-+]?(?P<exponent>\d+))?)\s*\Z"
)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce int / str / Fraction to an exact Fraction (never via float).

    Every length literal from outside the program (graph files,
    ``--lengths``) comes through here.  Any other type, ``bool`` and
    ``float`` included, raises ``TypeError``.  A string is an integer,
    ``num/den`` or a decimal literal, optionally signed and surrounded by
    whitespace, on every supported Python; anything else raises
    ``ValueError``, and so does a decimal exponent above
    :data:`MAX_DECIMAL_EXPONENT` in magnitude, in whatever digits it is
    written, before any digit of the value is built.
    """
    if value.__class__ is not str:  # a file's lengths skip the type tests
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise TypeError(f"{value!r} is not an int, str or Fraction")
        if not isinstance(value, str):
            return Fraction(value)
    num, slash, den = value.partition("/")  # ASCII digits n or n/d skip both regexes
    if value.isascii() and num.isdigit() and (not slash or den.isdigit()):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    match = _LITERAL.match(value)
    if match is None:
        raise ValueError(f"Invalid literal for Fraction: {value!r}")
    digits = match["exponent"]
    # past its last four digits, any digit but a zero makes it 10**4 or more
    if digits and (any(map(int, digits[:-4])) or int(digits[-4:]) > MAX_DECIMAL_EXPONENT):
        raise ValueError(
            f"decimal exponent of {value!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
        )
    return Fraction(value)


def as_weight(value: Union[int, str, Fraction]) -> int:
    """Coerce a vertex weight to ``int`` exactly; a non-integer raises, never truncates."""
    weight = as_rational(value)
    if weight.denominator != 1:
        raise ValueError(f"weight {value!r} is not an integer")
    return int(weight)


@dataclass(frozen=True)
class Vertex:
    id: str
    q: int = 0


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    length: Fraction

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    @property
    def ends(self) -> tuple[str, str]:
        return (self.u, self.v)


@dataclass(frozen=True)
class PmGraph:
    """Immutable multigraph with rational edge lengths and vertex weights.

    Construction does not enforce the pm-graph axioms; call
    :func:`validate` or :func:`require_valid` for that.  This keeps
    intentionally broken graphs constructible so that validation itself
    can be exercised.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @classmethod
    def build(
        cls,
        vertices: Iterable[Union[str, tuple[str, int], Vertex]],
        edges: Iterable[Union[tuple[str, str, str, RationalLike], Edge]],
    ) -> "PmGraph":
        """Convenience constructor coercing loose vertex/edge specs.

        Vertices may be given as ``"id"``, ``("id", q)`` or :class:`Vertex`;
        edges as ``("id", u, v, length)`` or :class:`Edge` (lengths go
        through :func:`as_rational`, so ``"5/3"`` and ``"2.5"`` stay exact
        and a float raises; weights go through :func:`as_weight`).
        """
        vs: list[Vertex] = []
        for spec in vertices:
            if isinstance(spec, Vertex):
                vs.append(spec)
            elif isinstance(spec, str):
                vs.append(Vertex(spec, 0))
            else:
                name, q = spec
                vs.append(Vertex(name, as_weight(q)))
        es: list[Edge] = []
        for spec in edges:
            if isinstance(spec, Edge):
                es.append(spec)
            else:
                name, u, v, length = spec
                es.append(Edge(name, u, v, as_rational(length)))
        return cls(tuple(vs), tuple(es))

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def _vertex_map(self) -> dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def _edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    def vertex(self, vid: str) -> Vertex:
        return self._vertex_map[vid]

    def edge(self, eid: str) -> Edge:
        return self._edge_map[eid]

    def q(self, vid: str) -> int:
        return self._vertex_map[vid].q

    @cached_property
    def _incidence(self) -> dict[str, list[int]]:
        # each declared vertex id -> the positions of its edges, a loop twice:
        # the one pass over the edges that valences, components and smoothing read
        index: dict[str, list[int]] = {v.id: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            if e.u in index:
                index[e.u].append(i)
            if e.v in index:
                index[e.v].append(i)
        return index

    @cached_property
    def _divisor(self) -> dict[str, int]:
        # canonical_divisor, computed once per graph: validate reads it and
        # the engine's theta takes it from the same graph
        return {v.id: len(self._incidence[v.id]) - 2 + 2 * v.q for v in self.vertices}

    def valence(self, vid: str) -> int:
        """Number of edge ends at ``vid``; a self-loop counts twice."""
        return len(self._incidence[vid])

    @cached_property
    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges), Fraction(0))


@dataclass(frozen=True)
class GenusData:
    """First Betti number ``g`` and total genus ``gbar = g + sum(q)``."""

    g: int
    gbar: int


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    problems: tuple[str, ...] = field(default_factory=tuple)


def connected_components(g: PmGraph) -> list[set[str]]:
    """Vertex sets of the connected components.

    Deterministic: components are reported in order of their first vertex.
    """
    incidence, edges = g._incidence, g.edges
    seen: set[str] = set()
    components: list[set[str]] = []
    for v in g.vertices:
        if len(seen) == len(incidence):  # every vertex is placed
            break
        root = v.id
        if root in seen:
            continue
        component, stack = {root}, [root]
        while stack:
            current = stack.pop()
            for i in incidence[current]:
                e = edges[i]
                neighbor = e.v if e.u == current else e.u
                if neighbor not in component and neighbor in incidence:
                    component.add(neighbor)
                    stack.append(neighbor)
        seen |= component
        components.append(component)
    return components


def validate(g: PmGraph) -> ValidationReport:
    """Check every pm-graph axiom and report all violations.

    Checks, in order: unique vertex ids, unique edge ids, edge endpoints
    declared, positive lengths, ``0 <= q <= MAX_WEIGHT``, nonempty vertex set,
    connectedness, and effectivity of the canonical divisor.  A length must
    be an ``int`` or ``Fraction`` and a weight an ``int`` (``bool`` is
    neither); a value of another type is reported, and no check that
    compares it or computes with it runs.  A graph that passes the first
    five checks in one pass (``Fraction`` lengths) goes straight to the
    last three.
    """
    problems: list[str] = []
    structural_ok = weights_ok = True
    if not _clean(g):  # the report, every problem in order
        seen_v: set[str] = set()
        for v in g.vertices:
            if v.id in seen_v:
                problems.append(f"duplicate vertex id {v.id!r}")
            seen_v.add(v.id)
        seen_e: set[str] = set()
        for e in g.edges:
            if e.id in seen_e:
                problems.append(f"duplicate edge id {e.id!r}")
            seen_e.add(e.id)
            for end in e.ends:
                if end not in seen_v:
                    problems.append(f"edge {e.id!r} references unknown vertex {end!r}")
                    structural_ok = False
            if isinstance(e.length, bool) or not isinstance(e.length, (int, Fraction)):
                problems.append(f"edge {e.id!r} has length {e.length!r}, not an int or Fraction")
            elif e.length.numerator <= 0:  # a Fraction's denominator is positive
                problems.append(f"edge {e.id!r} has nonpositive length {e.length}")
        for v in g.vertices:
            if isinstance(v.q, bool) or not isinstance(v.q, int):
                problems.append(f"vertex {v.id!r} has weight q={v.q!r}, not an int")
                weights_ok = False
            elif v.q < 0:
                problems.append(f"vertex {v.id!r} has negative weight q={v.q}")
            elif v.q > MAX_WEIGHT:
                problems.append(f"vertex {v.id!r} has weight q={v.q} above {MAX_WEIGHT}")
    if not g.vertices:
        problems.append("vertex set is empty")
        return ValidationReport(False, tuple(problems))
    if structural_ok:
        components = connected_components(g)
        if len(components) > 1:
            labels = ", ".join(
                "{" + ", ".join(sorted(c)) + "}" for c in components
            )
            problems.append(f"graph is not connected: components {labels}")
    if structural_ok and weights_ok and min((divisor := g._divisor).values()) < 0:
        for vid in g.vertex_ids:
            if divisor[vid] < 0:
                v = g.vertex(vid)
                problems.append(
                    f"canonical divisor is negative at vertex {vid!r}: "
                    f"valence {g.valence(vid)} - 2 + 2*q({v.q}) = {divisor[vid]}"
                )
    return ValidationReport(not problems, tuple(problems))


def _clean(g: PmGraph) -> bool:
    # validate's first five checks at once: true when they find no problem.
    # A length that is not a Fraction, an int one included, is left to the
    # report
    index, edges = g._incidence, g.edges
    if len(index) != len(g.vertices) or len({e.id for e in edges}) != len(edges):
        return False  # a repeated vertex or edge id
    if sum(map(len, index.values())) != 2 * len(edges):
        return False  # an undeclared end: the index lists declared ends alone
    for v in g.vertices:
        if (q := v.q).__class__ is not int or q < 0 or q > MAX_WEIGHT:
            return False
    for e in edges:
        if (length := e.length).__class__ is not Fraction or length.numerator <= 0:
            return False
    return True


def require_valid(g: PmGraph) -> PmGraph:
    report = validate(g)
    if not report.passed:
        raise InvalidGraphError("; ".join(report.problems))
    return g


def canonical_divisor(g: PmGraph) -> dict[str, int]:
    """Coefficient ``v(p) - 2 + 2*q(p)`` of the canonical divisor at each vertex."""
    return dict(g._divisor)


def genus(g: PmGraph) -> GenusData:
    """Betti number ``e - v + 1`` and total genus of a valid (connected) graph."""
    betti = len(g.edges) - len(g.vertices) + 1
    return GenusData(betti, betti + sum(v.q for v in g.vertices))


def _fresh_id(taken: set[str], stem: str) -> str:
    candidate = stem
    while candidate in taken:
        candidate += "'"
    return candidate


def normalize(g: PmGraph) -> PmGraph:
    """Smooth away every removable vertex: weight 0, valence 2, no loop.

    One walk in ``O(n + e)`` (``_chains``) goes from each kept vertex through
    a chain of removable vertices to the next kept vertex; each chain
    becomes one edge of the exact summed length, summed over the lcm of the
    chain's denominators into one ``Fraction``, named by joining its edge ids
    with ``+``; a chain back to its start becomes a loop, and a cycle of
    removable vertices keeps its last vertex to carry it.  Kept vertices and
    untouched edges keep their order.  The walk reads the incidence index
    that validation shares, and the engine solves straight from it, with no
    graph built.  The result is the same metric graph with nothing left to
    smooth, and ``g`` itself when it has nothing to smooth.
    """
    removable = _removable(g)
    if not removable:
        return g
    kept, chains, _ = _chains(g, removable)
    edges, taken, smoothed = g.edges, {e.id for e in g.edges}, []
    for u, v, length, path in chains:
        if len(path) == 1:  # an untouched edge: a chain has two edges or more
            smoothed.append(edges[path[0]])
            continue
        name = _fresh_id(taken, "+".join([edges[i].id for i in path]))
        taken.add(name)
        smoothed.append(Edge(name, u, v, length))
    return PmGraph(tuple(kept), tuple(smoothed))


def _removable(g: PmGraph, keep: tuple[str, ...] = ()) -> set[str]:
    # the vertices normalize smooths away, those of ``keep`` excepted; safe to
    # call on a graph that has not been validated.  A loop lists its position
    # twice, so valence 2 without a loop is exactly two distinct positions
    return {
        v.id for v in g.vertices
        if v.q == 0 and v.id not in keep
        and len(ends := g._incidence[v.id]) == 2 and ends[0] != ends[1]
    }


def _chains(g: PmGraph, removable: set[str]) -> tuple[list, list, list]:
    # normalize's walk, smoothing away exactly the vertices in ``removable``:
    # the kept vertices; each edge of the smoothed graph as (its two ends by
    # vertex id, its length, the positions in g of the edges it replaces, in
    # walk order); and each g edge's (position, same direction) among them
    edges, incidence = g.edges, g._incidence
    chains: list = []
    where: list = [None] * len(edges)

    def walk(start: str, first: int) -> None:
        # from ``start`` along edge ``first`` through removable vertices to
        # the next vertex that is not removable, or back to ``start``
        path, here, i, position, num, den = [], start, first, len(chains), 0, 1
        while True:
            e = edges[i]
            path.append(i)
            where[i] = position, (same := e.u == here)
            n, d = e.length.as_integer_ratio()
            m = lcm(den, d)  # the chain's lengths over the lcm of their denominators
            num, den = num * (m // den) + n * (m // d), m
            here = e.v if same else e.u
            if here not in removable or here == start:
                break
            a, b = incidence[here]
            i = b if a == i else a
        chains.append((start, here, Fraction(num, den), path))

    # a chain or an untouched edge starts at a kept vertex, so only the edges
    # there are visited, in order; every edge where an end is undeclared
    kept = [v for v in g.vertices if v.id not in removable]
    starts = range(len(edges))
    if sum(map(len, incidence.values())) == 2 * len(edges):
        starts = sorted({i for v in kept for i in incidence[v.id]})
    for i in starts:
        e = edges[i]
        inner_u, inner_v = e.u in removable, e.v in removable
        if not (inner_u or inner_v):
            where[i] = len(chains), True
            chains.append((e.u, e.v, e.length, (i,)))
        elif inner_u != inner_v and where[i] is None:  # not yet walked from its other end
            walk(e.v if inner_u else e.u, i)
    if None in where:  # what is left are cycles of removable vertices
        survivors = set()
        for v in reversed(g.vertices):
            if v.id in removable and where[incidence[v.id][0]] is None:
                survivors.add(v.id)
                walk(v.id, incidence[v.id][0])
        kept = [v for v in g.vertices if v.id not in removable or v.id in survivors]
    return kept, chains, where
