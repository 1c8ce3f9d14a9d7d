"""The 41 total-genus-3 pm-graph families with closed-form invariants.

The catalog is one table, :data:`_TABLE`, with one row per family: its id,
a description, its vertices with their weights, its edges as ``id:u-v`` and
the parts of its transcribed closed forms.  The edge ids are the parameter
letters, so a family's parameters are its sorted edge ids, and one builder
turns any row and a set of lengths into a graph.  The closed forms are
rational expressions in the edge lengths; the engine in
:mod:`pmgraph.invariants` never sees them, which is what makes
:func:`cross_check` a meaningful test: the two routes share exact arithmetic
and the Z row of ``invariants._LINEAR``, since no source table has a Z
column, so a wrong Z row is caught by the tests' oracles, not here.

Every closed-form row (tau, theta, delta1, phi, lambda, epsilon) is a sum of
five parts with the coefficients of :data:`_COEFFICIENTS`, written once as
the published literals: the total length ``ell``, the bridge length ``s``
(which is delta1), a banana part ``h`` (``uv/(u+v)`` for two arcs in
parallel), a theta part ``t`` (``abc/(ab+ac+bc)`` for three) and a four-arc
part ``x`` (the same for four).  A row's parts function says only which
parts its family has; g3.II, VIII, IX, XIII and XIV build theirs from
spanning-tree polynomials in a function of their own.  The closed forms run
on integers: the lengths are scaled once by the lcm ``D`` of their
denominators, a parts function returns the numerators of ``h``, ``t`` and
``x`` over one denominator ``q`` with ``+``, ``-`` and ``*`` alone, and each
column is one ``Fraction`` over ``252 q D`` (252 clears every coefficient).

Families are grouped by the Betti number ``g`` of the graph (the vertex
weights always top the total genus up to 3): 4 families with ``g = 0``,
9 with ``g = 1``, 14 with ``g = 2`` and 14 with ``g = 3``.  Ids look like
``"g2.XIII"``.  ``g0.I`` is the single point with weight 3; it is flagged
degenerate because it has no edges, so its total length is 0 and ratio
bounds do not apply.

The 41 rows cover 40 of the 42 stable weighted graphs of total genus 3:
``g2.X`` is ``g2.VI`` under the relabelling (a, b, c, d) -> (d, a, b, c),
with the same closed forms after the same relabelling.  Two stable types
have no row: a loop, a bridge and two arcs to a weight-1 vertex (``g = 2``),
and a weight-0 centre with three bridges, each ending in a loop (``g = 3``).

One deliberate deviation from the source tables is documented at
:func:`_g3_IX`.

:func:`check_family` and the bound suite's sampling work on lengths only.
Each family validates its topology once, on first use, and keeps it as the
engine's ``_Topology``, which carries the canonical divisor and the genus; a
sample is solved on it by ``_Topology.solve`` and scaled by ``_scale``, with
no graph built or validated.  ``check_family`` compares the engine's integer
numerators with the closed row by crossed products, stopping at the first
that differs, and builds a :class:`CrossCheckReport`, with its ``Fraction``
values, only for a sample that disagrees.  :func:`build`,
:func:`cross_check` and :func:`closed_form` take lengths from users and
check them on every call.
The samples come from :func:`random_lengths`, which reads a table rather
than make a ``Fraction`` per draw, on the same stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterator, Mapping, Optional, Sequence

from . import resistance
from .graph import (
    Edge,
    GenusData,
    PmGraph,
    PmGraphError,
    RationalLike,
    Vertex,
    _removable,
    as_rational,
    require_valid,
)
from .io import _shown
from .invariants import _LINEAR, _QUARTET, InvariantSet, _delta_sums, _linear, invariant_set

Lengths = dict[str, Fraction]
ClosedRow = tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]
# (tau, theta, delta1, phi, lambda, epsilon)


class CatalogError(PmGraphError):
    """Problem with a catalog request (unknown family, bad parameters)."""


class UnknownFamilyError(CatalogError):
    pass


class ParameterError(CatalogError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """One catalog family: id, topology and closed-form oracle.

    ``edges`` holds ``(id, u, v)`` triples; each edge's length is the
    parameter named by its id.
    """

    id: str
    genus: int
    description: str
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[str, str, str], ...]
    closed: Callable[[Lengths], ClosedRow]

    @cached_property
    def params(self) -> tuple[str, ...]:
        return tuple(sorted(eid for eid, _, _ in self.edges))

    @property
    def degenerate(self) -> bool:
        return not self.edges

    @cached_property
    def _topology(self) -> resistance._Topology:
        # validated once, on first use, and grounded at the first vertex: the
        # sampling passes solve their lengths on it without building or
        # validating a graph per sample
        g = require_valid(_build(self, dict.fromkeys(self.params, Fraction(1))))
        if _removable(g):
            raise CatalogError(f"{self.id}: the topology has a vertex to smooth away")
        return resistance._Topology.of(g)

    def _scaled(self, p: Lengths) -> resistance._Scaled:
        # what invariant_set computes on the family's graph at positive lengths p
        return resistance._scale(self._topology.solve([p[eid] for eid, _, _ in self.edges]))


# ---------------------------------------------------------------------------
# closed forms: every row is one sum of its family's parts


# each part's coefficients in the columns (tau, theta, delta1, phi, lambda,
# epsilon), as published; cleared at import to the ints 252 times them, by
# column, in the order of the parts (ell, s, h, t, x)
_COEFFICIENTS = {
    "ell": ("1/12", "0", "0", "1/9", "3/28", "2/9"),
    "s": ("1/6", "6", "1", "11/9", "5/28", "13/9"),
    "h": ("0", "8", "0", "2/3", "1/7", "4/3"),
    "t": ("-1/6", "6", "0", "-2/9", "1/28", "5/9"),
    "x": ("-1/3", "8", "0", "-7/9", "0", "4/9"),
}
_COLUMNS = tuple(
    zip(*([int(252 * Fraction(c)) for c in row] for row in _COEFFICIENTS.values()))
)


def _parts(q=1, s=0, h=0, t=0, x=0) -> tuple:
    # a family's parts at integer lengths: the bridge length ``s`` itself,
    # and the numerators of ``h``, ``t`` and ``x`` over one denominator ``q``
    return q, s, h, t, x


def _integers(p: Lengths) -> tuple[int, dict[str, int]]:
    # the lengths as ints n over one denominator D, the lcm of theirs
    d = lcm(*(v.denominator for v in p.values()))
    return d, {name: v.numerator * (d // v.denominator) for name, v in p.items()}


class _Sample(dict):
    # lengths, from a mapping or its pairs, carrying their ``_integers`` as
    # ``d`` and ``n``, worked out once
    def __init__(self, p: Lengths | Iterator[tuple[str, Fraction]]):
        super().__init__(p)
        self.d, self.n = _integers(self)


def _closed(parts: Callable[[dict], tuple]) -> Callable[[Lengths], ClosedRow]:
    # a family's closed forms from its parts function: the lengths are scaled
    # once to ints n = D p, and each column is one Fraction over 252 q D
    def closed(p: Lengths) -> ClosedRow:
        d, n = (p.d, p.n) if isinstance(p, _Sample) else _integers(p)
        q, s, *rest = parts(n)
        terms = (q * sum(n.values()), q * s, *rest)
        den = 252 * q * d
        return tuple(Fraction(sum(map(mul, column, terms)), den) for column in _COLUMNS)

    return closed


def _par(u, v, s=0) -> tuple:
    # two arcs in parallel: the banana part uv/(u+v)
    return _parts(u + v, s, h=u * v)


def _par3(a, b, c, s=0) -> tuple:
    # three arcs in parallel: the theta part abc/(ab+ac+bc)
    return _parts(a * b + a * c + b * c, s, t=a * b * c)


def _arcs_path(a, b, c, d, s=0) -> tuple:
    # arcs a and b in parallel with the path c + d through a vertex with
    # K != 0: the theta part and the banana part of that subgraph
    return _parts(a * b + (a + b) * (c + d), s, h=(a + b) * c * d, t=a * b * (c + d))


def _g3_II(p: dict) -> tuple:
    # four arcs in parallel
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    return _parts(b * c * d + a * (c * d + b * (c + d)), x=a * b * c * d)


def _g3_VIII(p: dict) -> tuple:
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    # q = complement spanning-tree polynomial of the topology, a (b + c)(d + e) + u
    u = b * c * (d + e) + (b + c) * d * e  # bcd + bce + bde + cde
    return _parts(a * (b + c) * (d + e) + u, t=a * u, x=b * c * d * e)


def _g3_IX(p: dict) -> tuple:
    # The tau entry printed in the source table for this family, ell/12 + b/6,
    # contradicts both delta_1 = 0 and the family's phi entry; the value below
    # is the one forced by the topology (loop + theta with arcs d, e, b+c) and
    # it reproduces the printed phi exactly.  See the recorded discrepancy
    # probe "g3_IX_tau_as_printed" in pmgraph.identities.
    return _arcs_path(p["d"], p["e"], p["b"], p["c"])


def _g3_XIII(p: dict) -> tuple:
    a, b, c, d, e, f = p["a"], p["b"], p["c"], p["d"], p["e"], p["f"]
    # the spanning-tree polynomials factored over the doubled sides c, d and e, f
    u = c * d * (e + f) + (c + d) * e * f  # cde + cdf + cef + def
    v = (c + d) * (e + f)
    return _parts((a + b) * v + u, h=a * b * v, t=(a + b) * u, x=c * d * e * f)


def _g3_XIV(p: dict) -> tuple:
    a, b, c, d, e, f = p["a"], p["b"], p["c"], p["d"], p["e"], p["f"]
    ca = (
        a * b * c * d + a * b * c * e + a * b * d * e + a * c * d * e
        + a * b * c * f + a * b * d * f + b * c * d * f + a * c * e * f
        + b * c * e * f + a * d * e * f + b * d * e * f + c * d * e * f
    )
    cc = (
        a * b * d + a * c * d + b * c * d + a * b * e + a * c * e + b * c * e
        + b * d * e + c * d * e + a * b * f + a * c * f + b * c * f
        + a * d * f + c * d * f + a * e * f + b * e * f + d * e * f
    )
    return _parts(cc, t=ca, x=b * c * d * e + a * c * d * f + a * b * e * f)


# ---------------------------------------------------------------------------
# the topology table: id, description, vertices (``id`` or ``id:q``, weight 0
# by default), edges as ``id:u-v`` in drawing order, parts

_TABLE: list[tuple[str, str, str, str, Callable[[dict], tuple]]] = [
    ("g0.I", "single vertex of weight 3 (degenerate: zero length)", "X:3", "", lambda p: _parts()),
    ("g0.II", "segment joining weights 1 and 2", "P:1 Q:2", "a:P-Q", lambda p: _parts(s=p["a"])),
    ("g0.III", "path on three weight-1 vertices", "P:1 M:1 Q:1", "a:P-M b:M-Q",
     lambda p: _parts(s=p["a"] + p["b"])),
    ("g0.IV", "3-star with weight-1 leaves", "C L1:1 L2:1 L3:1",
     "a:C-L1 b:C-L2 c:C-L3", lambda p: _parts(s=p["a"] + p["b"] + p["c"])),
    ("g1.I", "one loop at a weight-2 vertex", "X:2", "a:X-X", lambda p: _parts()),
    ("g1.II", "two arcs between weight-1 vertices", "X:1 Y:1", "a:X-Y b:X-Y",
     lambda p: _par(p["a"], p["b"])),
    ("g1.III", "loop at weight 1 plus a pendant weight-1 leaf", "X:1 L:1",
     "b:X-X a:X-L", lambda p: _parts(s=p["a"])),
    ("g1.IV", "loop at weight 0 plus a pendant weight-2 leaf", "X L:2",
     "b:X-X a:X-L", lambda p: _parts(s=p["a"])),
    ("g1.V", "two arcs to a weight-1 vertex plus a pendant leaf", "J P:1 L:1",
     "b:J-P c:J-P a:J-L", lambda p: _par(p["b"], p["c"], s=p["a"])),
    ("g1.VI", "two arcs with a pendant leaf on each side", "J1 J2 L1:1 L2:1",
     "c:J1-J2 d:J1-J2 a:J1-L1 b:J2-L2",
     lambda p: _par(p["c"], p["d"], s=p["a"] + p["b"])),
    ("g1.VII", "loop with two pendant leaves at one vertex", "X L1:1 L2:1",
     "c:X-X a:X-L1 b:X-L2", lambda p: _parts(s=p["a"] + p["b"])),
    ("g1.VIII", "loop, then a path through weight 1 to a leaf", "X Y:1 L:1",
     "c:X-X a:X-Y b:Y-L", lambda p: _parts(s=p["a"] + p["b"])),
    ("g1.IX", "loop, bridge, then two pendant leaves", "X Y L1:1 L2:1",
     "d:X-X a:X-Y b:Y-L1 c:Y-L2", lambda p: _parts(s=p["a"] + p["b"] + p["c"])),
    ("g2.I", "two loops at a weight-1 vertex", "X:1", "a:X-X b:X-X", lambda p: _parts()),
    ("g2.II", "loop plus two arcs to a weight-1 vertex", "X Y:1",
     "a:X-X b:X-Y c:X-Y", lambda p: _par(p["b"], p["c"])),
    ("g2.III", "theta graph with one weight-1 vertex", "X:1 Y",
     "a:X-Y b:X-Y c:X-Y", lambda p: _par3(p["a"], p["b"], p["c"])),
    ("g2.IV", "two arcs plus a path through weight 1", "X Y M:1",
     "a:X-Y b:X-Y c:X-M d:M-Y",
     lambda p: _arcs_path(p["a"], p["b"], p["c"], p["d"])),
    ("g2.V", "loops joined by a bridge, far vertex weight 1", "X Y:1",
     "a:X-X c:X-Y b:Y-Y", lambda p: _parts(s=p["c"])),
    ("g2.VI", "loop, two arcs, pendant weight-1 leaf", "X Y L:1",
     "a:X-X b:X-Y c:X-Y d:Y-L", lambda p: _par(p["b"], p["c"], s=p["d"])),
    ("g2.VII", "theta plus pendant weight-1 leaf", "X Y L:1",
     "a:X-Y b:X-Y c:X-Y d:Y-L",
     lambda p: _par3(p["a"], p["b"], p["c"], s=p["d"])),
    ("g2.VIII", "two arcs plus subdivided arc, leaf at the midpoint", "X Y M L:1",
     "a:X-Y b:X-Y c:X-M d:M-Y e:M-L",
     lambda p: _arcs_path(p["a"], p["b"], p["c"], p["d"], s=p["e"])),
    ("g2.IX", "two loops plus pendant weight-1 leaf", "X L:1",
     "a:X-X c:X-X b:X-L", lambda p: _parts(s=p["b"])),
    # g2.VI relabelled: VI's a, b, c, d are X's d, a, b, c
    ("g2.X", "two arcs, loop on one side, leaf on the other", "X Y L:1",
     "d:X-X a:X-Y b:X-Y c:Y-L", lambda p: _par(p["a"], p["b"], s=p["c"])),
    ("g2.XI", "loops joined by a path through weight 1", "X P:1 Y",
     "a:X-X c:X-P d:P-Y b:Y-Y", lambda p: _parts(s=p["c"] + p["d"])),
    ("g2.XII", "loops joined by a bridge, pendant leaf", "X Y L:1",
     "a:X-X c:X-Y b:Y-Y d:Y-L", lambda p: _parts(s=p["c"] + p["d"])),
    ("g2.XIII", "two arcs, bridge to a loop, bridge to a weight-1 leaf",
     "X Y M L:1", "a:X-Y b:X-Y c:X-M e:M-M d:Y-L",
     lambda p: _par(p["a"], p["b"], s=p["c"] + p["d"])),
    ("g2.XIV", "3-star joining two loops and a weight-1 leaf", "W X Y L:1",
     "c:W-X d:W-Y e:W-L a:X-X b:Y-Y", lambda p: _parts(s=p["c"] + p["d"] + p["e"])),
    ("g3.I", "bouquet of three loops", "X", "a:X-X b:X-X c:X-X", lambda p: _parts()),
    ("g3.II", "4-banana", "X Y", "a:X-Y b:X-Y c:X-Y d:X-Y", _g3_II),
    ("g3.III", "theta graph plus a loop", "X Y", "a:X-Y b:X-Y c:X-Y d:X-X",
     lambda p: _par3(p["a"], p["b"], p["c"])),
    ("g3.IV", "two loops joined by two arcs", "X Y", "a:X-X b:Y-Y c:X-Y d:X-Y",
     lambda p: _par(p["c"], p["d"])),
    ("g3.V", "two loops, bridge, another loop", "X Y", "a:X-X b:X-X d:X-Y c:Y-Y",
     lambda p: _parts(s=p["d"])),
    ("g3.VI", "chain of three loops", "X M Y", "a:X-X d:X-M b:M-M e:M-Y c:Y-Y",
     lambda p: _parts(s=p["d"] + p["e"])),
    ("g3.VII", "loop, bridge, two arcs, loop", "X Y Z",
     "a:X-X c:X-Y d:Y-Z e:Y-Z b:Z-Z",
     lambda p: _par(p["d"], p["e"], s=p["c"])),
    ("g3.VIII", "arc plus two doubled arcs on three vertices", "X Y Z",
     "a:X-Y b:X-Z c:X-Z d:Y-Z e:Y-Z", _g3_VIII),
    ("g3.IX", "loop at the apex of a triangle with one doubled side", "X Y Z",
     "a:Z-Z b:X-Z c:Y-Z d:X-Y e:X-Y", _g3_IX),
    ("g3.X", "theta, bridge, loop", "X Y Z", "a:X-Y b:X-Y c:X-Y d:Y-Z e:Z-Z",
     lambda p: _par3(p["a"], p["b"], p["c"], s=p["d"])),
    ("g3.XI", "loop, bridge, two arcs, bridge, loop", "W Y Z X",
     "a:W-W c:W-Y e:Y-Z f:Y-Z d:Z-X b:X-X",
     lambda p: _par(p["e"], p["f"], s=p["c"] + p["d"])),
    ("g3.XII", "two arcs plus subdivided arc, bridge to a loop", "X Y M Z",
     "a:X-Y b:X-Y c:X-M d:M-Y e:M-Z f:Z-Z",
     lambda p: _arcs_path(p["a"], p["b"], p["c"], p["d"], s=p["e"])),
    # 4-cycle X-Y-W-Z-X with the X-Y and W-Z sides doubled
    ("g3.XIII", "4-cycle with two opposite sides doubled", "X Y W Z",
     "c:X-Y d:X-Y b:Y-W e:W-Z f:W-Z a:Z-X", _g3_XIII),
    # opposite edge pairs (a,f), (b,e), (c,d)
    ("g3.XIV", "complete graph on four vertices", "1 2 3 4",
     "a:1-2 b:1-3 c:1-4 d:2-3 e:2-4 f:3-4", _g3_XIV),
]


def _spec(
    fid: str,
    description: str,
    vertices: str,
    edges: str,
    parts: Callable[[dict], tuple],
) -> FamilySpec:
    weighted = (token.partition(":") for token in vertices.split())
    wired = (token.partition(":") for token in edges.split())
    return FamilySpec(
        id=fid,
        genus=int(fid[1]),
        description=description,
        vertices=tuple(Vertex(vid, int(q or 0)) for vid, _, q in weighted),
        edges=tuple((eid, *ends.split("-")) for eid, _, ends in wired),
        closed=_closed(parts),
    )


FAMILIES: dict[str, FamilySpec] = {row[0]: _spec(*row) for row in _TABLE}


def list_families() -> list[str]:
    return list(FAMILIES)


def family(fid: str) -> FamilySpec:
    try:
        return FAMILIES[fid]
    except KeyError:
        raise UnknownFamilyError(f"unknown family {fid!r}") from None


def _read_lengths(spec: FamilySpec, lengths: Mapping[str, RationalLike]) -> Iterator:
    # once the names are found to be exactly the family's parameters, each
    # parameter in order with its value read through as_rational
    given, expected = set(lengths), set(spec.params)
    if missing := expected - given:
        raise ParameterError(f"{spec.id}: missing parameter(s) {', '.join(sorted(missing))}")
    if extra := given - expected:
        names = ", ".join(sorted(_shown(name, quote=False) for name in extra))
        raise ParameterError(f"{spec.id}: unknown parameter(s) {names}")
    for name in spec.params:
        try:
            value = as_rational(lengths[name])
        except (TypeError, ValueError, ZeroDivisionError):
            raise ParameterError(
                f"{spec.id}: cannot parse parameter {name}={_shown(lengths[name])}"
            ) from None
        yield name, value


def _coerce_lengths(spec: FamilySpec, lengths: Mapping[str, RationalLike]) -> Lengths:
    out: Lengths = {}
    for name, value in _read_lengths(spec, lengths):
        if value.numerator <= 0:  # a Fraction's denominator is positive
            raise ParameterError(f"{spec.id}: parameter {name} must be positive")
        out[name] = value
    return out


def _build(spec: FamilySpec, p: Lengths) -> PmGraph:
    # ``p`` is already checked by ``_coerce_lengths``
    return PmGraph(spec.vertices, tuple(Edge(i, u, v, p[i]) for i, u, v in spec.edges))


def _closed_form(spec: FamilySpec, p: Lengths) -> InvariantSet:
    p = _Sample(p)
    tau_v, theta_v, delta1, phi_v, lam_v, eps_v = spec.closed(p)
    ell = Fraction(sum(p.n.values()), p.d)
    return InvariantSet(
        ell=ell, g=spec.genus, gbar=3, tau=tau_v, theta=theta_v,
        delta={0: ell - delta1, 1: delta1}, phi=phi_v, lam=lam_v, epsilon=eps_v,
        z=Fraction(*_linear("Z", tau_v, theta_v, ell)),
    )


def build(fid: str, lengths: Mapping[str, RationalLike]) -> PmGraph:
    """Construct the family's fixed topology with the given edge lengths."""
    spec = family(fid)
    return _build(spec, _coerce_lengths(spec, lengths))


def closed_form(fid: str, lengths: Mapping[str, RationalLike]) -> InvariantSet:
    """Evaluate the family's tabulated invariants; no graph is built.

    ``Z`` is not tabulated anywhere, so it is filled in through the engine's
    total-genus-3 form ``(40 tau + theta) / 72``, the Z row of
    ``invariants._LINEAR``, applied to the closed-form tau and theta.
    """
    spec = family(fid)
    return _closed_form(spec, _coerce_lengths(spec, lengths))


@dataclass(frozen=True)
class CrossCheckReport:
    family: str
    lengths: Lengths
    engine: InvariantSet
    closed: InvariantSet
    mismatches: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def cross_check(fid: str, lengths: Mapping[str, RationalLike]) -> CrossCheckReport:
    """Engine result vs closed form, field by field, exact equality."""
    spec = family(fid)
    p = _coerce_lengths(spec, lengths)
    engine = invariant_set(_build(spec, p))
    closed = _closed_form(spec, p)
    want = closed.named_values()
    mismatches = [
        f"{name}: engine {got} != closed form {want[name]}"
        for name, got in engine.named_values().items()
        if got != want[name]
    ]
    return CrossCheckReport(fid, p, engine, closed, tuple(mismatches))


def random_lengths(params: Sequence[str], rng: random.Random) -> Lengths:
    """Strictly positive rational lengths, numerator and denominator in 1..64.

    Each value is ``Fraction(rng.randint(1, 64), rng.randint(1, 64))``, on
    the same stream.  On exactly ``random.Random``, ``randint(1, 64)`` is
    ``1 + getrandbits(7)``, drawn again while above 64, so the draw takes
    those bits itself and reads the value from a 64 x 64 table.  Any other
    rng is asked for ``randint``: a subclass that overrides ``random()``
    draws it without ``getrandbits``.
    """
    if type(rng) is not random.Random:
        return {name: Fraction(rng.randint(1, 64), rng.randint(1, 64)) for name in params}
    table = _drawn()
    bits = rng.getrandbits
    lengths = {}
    for name in params:
        p = bits(7)
        while p >= 64:
            p = bits(7)
        q = bits(7)
        while q >= 64:
            q = bits(7)
        lengths[name] = table[p << 6 | q]
    return lengths


@cache
def _drawn() -> tuple[Fraction, ...]:
    # Fraction(p, q) at index 64 (p - 1) + (q - 1) for p, q in 1..64, built
    # on first use; equal values share the object made at the reduced p/q
    drawn = []
    for p in range(1, 65):
        for q in range(1, 65):
            g = gcd(p, q)
            drawn.append(drawn[(p // g - 1) * 64 + q // g - 1] if g > 1 else Fraction(p, q))
    return tuple(drawn)


def _seeded_lengths(fid: str, samples: int, seed: int) -> Iterator[Lengths]:
    # the family's own stream, seeded by its id and ``seed``, so its draws do
    # not depend on which other families are sampled
    params = family(fid).params
    rng = random.Random(f"{fid}:{seed}")
    return (random_lengths(params, rng) for _ in range(samples))


def check_family(
    fid: str, samples: int, seed: int
) -> tuple[int, Optional[CrossCheckReport]]:
    """Cross-check ``samples`` seeded random length tuples for one family.

    Returns (number of passing samples, first failing report or None).
    Deterministic for a given (family, samples, seed).  The family's
    topology is validated once; each sample is solved on it and compared
    with the closed form by crossed integer products, and the first sample
    that disagrees goes through :func:`cross_check` for its report.
    """
    spec = family(fid)
    # g and gbar depend on the topology alone, and _agrees reads a solve of
    # total genus 3
    same_genus = spec._topology.genus == GenusData(spec.genus, 3)
    passed = 0
    for p in map(_Sample, _seeded_lengths(fid, samples, seed)):
        if not (same_genus and _agrees(spec._scaled(p), spec.closed(p), p)):
            return passed, cross_check(fid, p)
        passed += 1
    return passed, None


def _agrees(s: resistance._Scaled, row: ClosedRow, p: _Sample) -> bool:
    # cross_check's comparison of every value of total genus 3 but g and gbar,
    # as crossed int products that stop at the first mismatch: the engine's
    # numerators over s.den (delta1's over s.q) against the closed row at p.
    # delta0 is ell - delta1 and Z is _LINEAR's Z row on both sides, so they
    # agree once ell, delta1, tau and theta do
    den, tau, theta, ell = s.den, s.tau, s.theta, s.ell
    if ell * p.d != sum(p.n.values()) * den:
        return False
    (tn, td), (hn, hd), (an, ad), *quartet = [value.as_integer_ratio() for value in row]
    if tau * td != tn * den or theta * hd != hn * den or _delta_sums(3, s)[1] * ad != an * s.q:
        return False
    # phi, lambda and epsilon: the closed row has no Z, so zip stops before it
    for name, (n, d) in zip(_QUARTET, quartet):
        a, c, b, k = _LINEAR[name]
        if (a * tau + c * theta + b * ell) * d != n * k * den:
            return False
    return True
