"""The 41 total-genus-3 pm-graph families with closed-form invariants.

The catalog is one table, :data:`_TABLE`, with one row per family: its id,
a description, its vertices with their weights, its edges as ``id:u-v`` and
its transcribed closed forms for every invariant.  The edge ids are the
parameter letters, so a family's parameters are its sorted edge ids, and one
builder turns any row and a set of lengths into a graph.  The closed forms
are rational expressions in the edge lengths; the engine in
:mod:`pmgraph.invariants` never sees them, which is what makes
:func:`cross_check` a meaningful test: the two routes share no code beyond
Fraction arithmetic.

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
:func:`_cf_g3_IX`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from .graph import Edge, PmGraph, PmGraphError, RationalLike, Vertex, as_rational
from .invariants import InvariantSet, invariant_set

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


# ---------------------------------------------------------------------------
# closed forms, transcribed row by row; each returns
# (tau, theta, delta1, phi, lambda, epsilon)


def _row_tree(ell: Fraction) -> ClosedRow:
    # every g = 0 family shares one row: tree graphs, all edges of type 1
    return (
        ell / 4,
        6 * ell,
        ell,
        Fraction(4, 3) * ell,
        Fraction(2, 7) * ell,
        Fraction(5, 3) * ell,
    )


def _cf_g0_I(p: Lengths) -> ClosedRow:
    z = Fraction(0)
    return (z, z, z, z, z, z)


def _cf_g0_II(p: Lengths) -> ClosedRow:
    return _row_tree(p["a"])


def _cf_g0_III(p: Lengths) -> ClosedRow:
    return _row_tree(p["a"] + p["b"])


def _cf_g0_IV(p: Lengths) -> ClosedRow:
    return _row_tree(p["a"] + p["b"] + p["c"])


def _cf_g1_I(p: Lengths) -> ClosedRow:
    ell = p["a"]
    return (
        ell / 12,
        Fraction(0),
        Fraction(0),
        ell / 9,
        Fraction(3, 28) * ell,
        Fraction(2, 9) * ell,
    )


def _cf_g1_II(p: Lengths) -> ClosedRow:
    a, b = p["a"], p["b"]
    ell = a + b
    h = a * b / (a + b)
    return (
        ell / 12,
        8 * h,
        Fraction(0),
        ell / 9 + 2 * h / 3,
        Fraction(3, 28) * ell + h / 7,
        Fraction(2, 9) * ell + 4 * h / 3,
    )


def _cf_g1_III(p: Lengths) -> ClosedRow:
    a = p["a"]
    ell = a + p["b"]
    return (
        ell / 12 + a / 6,
        6 * a,
        a,
        ell / 9 + 11 * a / 9,
        Fraction(3, 28) * ell + 5 * a / 28,
        Fraction(2, 9) * ell + 13 * a / 9,
    )


_cf_g1_IV = _cf_g1_III  # identical table row; distinct topology


def _cf_g1_V(p: Lengths) -> ClosedRow:
    a, b, c = p["a"], p["b"], p["c"]
    ell = a + b + c
    return (
        ell / 12 + a / 6,
        6 * a + 8 * b * c / (b + c),
        a,
        ell / 9 + (6 * b * c + 11 * a * (b + c)) / (9 * (b + c)),
        Fraction(3, 28) * ell + (4 * b * c + 5 * a * (b + c)) / (28 * (b + c)),
        Fraction(2, 9) * ell + (12 * b * c + 13 * a * (b + c)) / (9 * (b + c)),
    )


def _cf_g1_VI(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d
    s = a + b
    return (
        ell / 12 + s / 6,
        6 * s + 8 * c * d / (c + d),
        s,
        ell / 9 + (6 * c * d + 11 * s * (c + d)) / (9 * (c + d)),
        Fraction(3, 28) * ell + (4 * c * d + 5 * s * (c + d)) / (28 * (c + d)),
        Fraction(2, 9) * ell + (12 * c * d + 13 * s * (c + d)) / (9 * (c + d)),
    )


def _cf_g1_VII(p: Lengths) -> ClosedRow:
    a, b, c = p["a"], p["b"], p["c"]
    ell = a + b + c
    s = a + b
    return (
        ell / 12 + s / 6,
        6 * s,
        s,
        ell / 9 + 11 * s / 9,
        Fraction(3, 28) * ell + 5 * s / 28,
        Fraction(2, 9) * ell + 13 * s / 9,
    )


_cf_g1_VIII = _cf_g1_VII  # identical table row; distinct topology


def _cf_g1_IX(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d
    s = a + b + c
    return (
        ell / 12 + s / 6,
        6 * s,
        s,
        ell / 9 + 11 * s / 9,
        Fraction(3, 28) * ell + 5 * s / 28,
        Fraction(2, 9) * ell + 13 * s / 9,
    )


def _cf_g2_I(p: Lengths) -> ClosedRow:
    ell = p["a"] + p["b"]
    return (
        ell / 12,
        Fraction(0),
        Fraction(0),
        ell / 9,
        Fraction(3, 28) * ell,
        Fraction(2, 9) * ell,
    )


def _cf_g2_II(p: Lengths) -> ClosedRow:
    a, b, c = p["a"], p["b"], p["c"]
    ell = a + b + c
    h = b * c / (b + c)
    return (
        ell / 12,
        8 * h,
        Fraction(0),
        ell / 9 + 2 * h / 3,
        Fraction(3, 28) * ell + h / 7,
        Fraction(2, 9) * ell + 4 * h / 3,
    )


def _cf_g2_III(p: Lengths) -> ClosedRow:
    a, b, c = p["a"], p["b"], p["c"]
    ell = a + b + c
    s = a * b + a * c + b * c
    return (
        ell / 12 - a * b * c / (6 * s),
        6 * a * b * c / s,
        Fraction(0),
        ell / 9 - 2 * a * b * c / (9 * s),
        Fraction(3, 28) * ell + a * b * c / (28 * s),
        Fraction(2, 9) * ell + 5 * a * b * c / (9 * s),
    )


def _cf_g2_IV(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d
    w = a * b + (a + b) * (c + d)
    return (
        ell / 12 - a * b * (c + d) / (6 * w),
        (6 * a * b * (c + d) + 8 * (a + b) * c * d) / w,
        Fraction(0),
        ell / 9 + (6 * c * d * (a + b) - 2 * a * b * (c + d)) / (9 * w),
        Fraction(3, 28) * ell + (4 * c * d * (a + b) + a * b * (c + d)) / (28 * w),
        Fraction(2, 9) * ell + (12 * c * d * (a + b) + 5 * a * b * (c + d)) / (9 * w),
    )


def _cf_g2_V(p: Lengths) -> ClosedRow:
    c = p["c"]
    ell = p["a"] + p["b"] + c
    return (
        ell / 12 + c / 6,
        6 * c,
        c,
        ell / 9 + 11 * c / 9,
        Fraction(3, 28) * ell + 5 * c / 28,
        Fraction(2, 9) * ell + 13 * c / 9,
    )


def _cf_g2_VI(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d
    return (
        ell / 12 + d / 6,
        6 * d + 8 * b * c / (b + c),
        d,
        ell / 9 + (6 * b * c + 11 * d * (b + c)) / (9 * (b + c)),
        Fraction(3, 28) * ell + (4 * b * c + 5 * d * (b + c)) / (28 * (b + c)),
        Fraction(2, 9) * ell + (12 * b * c + 13 * d * (b + c)) / (9 * (b + c)),
    )


def _cf_g2_VII(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d
    s = a * b + a * c + b * c
    return (
        ell / 12 + d / 6 - a * b * c / (6 * s),
        6 * d + 6 * a * b * c / s,
        d,
        ell / 9 + 11 * d / 9 - 2 * a * b * c / (9 * s),
        Fraction(3, 28) * ell + 5 * d / 28 + a * b * c / (28 * s),
        Fraction(2, 9) * ell + 13 * d / 9 + 5 * a * b * c / (9 * s),
    )


def _cf_g2_VIII(p: Lengths) -> ClosedRow:
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    ell = a + b + c + d + e
    w = a * b + (a + b) * (c + d)
    return (
        ell / 12 + e / 6 - a * b * (c + d) / (6 * w),
        6 * e + (6 * a * b * (c + d) + 8 * (a + b) * c * d) / w,
        e,
        (ell + 11 * e) / 9 + (6 * c * d * (a + b) - 2 * a * b * (c + d)) / (9 * w),
        (3 * ell + 5 * e) / 28 + (4 * c * d * (a + b) + a * b * (c + d)) / (28 * w),
        (2 * ell + 13 * e) / 9 + (12 * c * d * (a + b) + 5 * a * b * (c + d)) / (9 * w),
    )


def _cf_g2_IX(p: Lengths) -> ClosedRow:
    b = p["b"]
    ell = p["a"] + b + p["c"]
    return (
        ell / 12 + b / 6,
        6 * b,
        b,
        ell / 9 + 11 * b / 9,
        Fraction(3, 28) * ell + 5 * b / 28,
        Fraction(2, 9) * ell + 13 * b / 9,
    )


def _cf_g2_X(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d
    return (
        ell / 12 + c / 6,
        6 * c + 8 * a * b / (a + b),
        c,
        ell / 9 + (6 * a * b + 11 * c * (a + b)) / (9 * (a + b)),
        Fraction(3, 28) * ell + (4 * a * b + 5 * c * (a + b)) / (28 * (a + b)),
        Fraction(2, 9) * ell + (12 * a * b + 13 * c * (a + b)) / (9 * (a + b)),
    )


def _cf_g2_XI(p: Lengths) -> ClosedRow:
    c, d = p["c"], p["d"]
    ell = p["a"] + p["b"] + c + d
    s = c + d
    return (
        ell / 12 + s / 6,
        6 * s,
        s,
        ell / 9 + 11 * s / 9,
        Fraction(3, 28) * ell + 5 * s / 28,
        Fraction(2, 9) * ell + 13 * s / 9,
    )


_cf_g2_XII = _cf_g2_XI  # identical table row; distinct topology


def _cf_g2_XIII(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d + p["e"]
    s = c + d
    return (
        ell / 12 + s / 6,
        6 * s + 8 * a * b / (a + b),
        s,
        ell / 9 + (6 * a * b + 11 * (a + b) * s) / (9 * (a + b)),
        Fraction(3, 28) * ell + (4 * a * b + 5 * (a + b) * s) / (28 * (a + b)),
        Fraction(2, 9) * ell + (12 * a * b + 13 * (a + b) * s) / (9 * (a + b)),
    )


def _cf_g2_XIV(p: Lengths) -> ClosedRow:
    c, d, e = p["c"], p["d"], p["e"]
    ell = p["a"] + p["b"] + c + d + e
    s = c + d + e
    return (
        ell / 12 + s / 6,
        6 * s,
        s,
        ell / 9 + 11 * s / 9,
        Fraction(3, 28) * ell + 5 * s / 28,
        Fraction(2, 9) * ell + 13 * s / 9,
    )


def _cf_g3_I(p: Lengths) -> ClosedRow:
    ell = p["a"] + p["b"] + p["c"]
    return (
        ell / 12,
        Fraction(0),
        Fraction(0),
        ell / 9,
        Fraction(3, 28) * ell,
        Fraction(2, 9) * ell,
    )


def _cf_g3_II(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d
    e3 = b * c * d + a * (c * d + b * (c + d))
    prod = a * b * c * d
    return (
        ell / 12 - prod / (3 * e3),
        8 * prod / e3,
        Fraction(0),
        ell / 9 - 7 * prod / (9 * e3),
        Fraction(3, 28) * ell,
        Fraction(2, 9) * ell + 4 * prod / (9 * e3),
    )


def _cf_g3_III(p: Lengths) -> ClosedRow:
    a, b, c = p["a"], p["b"], p["c"]
    ell = a + b + c + p["d"]
    s = a * b + a * c + b * c
    return (
        ell / 12 - a * b * c / (6 * s),
        6 * a * b * c / s,
        Fraction(0),
        ell / 9 - 2 * a * b * c / (9 * s),
        Fraction(3, 28) * ell + a * b * c / (28 * s),
        Fraction(2, 9) * ell + 5 * a * b * c / (9 * s),
    )


def _cf_g3_IV(p: Lengths) -> ClosedRow:
    c, d = p["c"], p["d"]
    ell = p["a"] + p["b"] + c + d
    h = c * d / (c + d)
    return (
        ell / 12,
        8 * h,
        Fraction(0),
        ell / 9 + 2 * h / 3,
        Fraction(3, 28) * ell + h / 7,
        Fraction(2, 9) * ell + 4 * h / 3,
    )


def _cf_g3_V(p: Lengths) -> ClosedRow:
    d = p["d"]
    ell = p["a"] + p["b"] + p["c"] + d
    return (
        ell / 12 + d / 6,
        6 * d,
        d,
        ell / 9 + 11 * d / 9,
        Fraction(3, 28) * ell + 5 * d / 28,
        Fraction(2, 9) * ell + 13 * d / 9,
    )


def _cf_g3_VI(p: Lengths) -> ClosedRow:
    d, e = p["d"], p["e"]
    ell = p["a"] + p["b"] + p["c"] + d + e
    s = d + e
    return (
        ell / 12 + s / 6,
        6 * s,
        s,
        ell / 9 + 11 * s / 9,
        Fraction(3, 28) * ell + 5 * s / 28,
        Fraction(2, 9) * ell + 13 * s / 9,
    )


def _cf_g3_VII(p: Lengths) -> ClosedRow:
    c, d, e = p["c"], p["d"], p["e"]
    ell = p["a"] + p["b"] + c + d + e
    h = d * e / (d + e)
    return (
        ell / 12 + c / 6,
        6 * c + 8 * h,
        c,
        ell / 9 + 11 * c / 9 + 2 * h / 3,
        Fraction(3, 28) * ell + 5 * c / 28 + h / 7,
        Fraction(2, 9) * ell + 13 * c / 9 + 4 * h / 3,
    )


def _cf_g3_VIII(p: Lengths) -> ClosedRow:
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    ell = a + b + c + d + e
    # denominator = complement spanning-tree polynomial of the topology
    den = (
        a * b * d + a * c * d + b * c * d
        + a * b * e + a * c * e + b * c * e
        + b * d * e + c * d * e
    )
    q = a * (b * c * d + b * c * e + b * d * e + c * d * e)
    quad = b * c * d * e
    return (
        ell / 12 - (q + 2 * quad) / (6 * den),
        (6 * q + 8 * quad) / den,
        Fraction(0),
        ell / 9 - (7 * quad + 2 * q) / (9 * den),
        Fraction(3, 28) * ell + q / (28 * den),
        Fraction(2, 9) * ell + (4 * quad + 5 * q) / (9 * den),
    )


def _cf_g3_IX(p: Lengths) -> ClosedRow:
    # The tau entry printed in the source table for this family, ell/12 + b/6,
    # contradicts both delta_1 = 0 and the family's phi entry; the value below
    # is the one forced by the topology (loop + theta with arcs d, e, b+c) and
    # it reproduces the printed phi exactly.  See the recorded discrepancy
    # probe "g3_IX_tau_as_printed" in pmgraph.identities.
    b, c, d, e = p["b"], p["c"], p["d"], p["e"]
    ell = p["a"] + b + c + d + e
    den = d * e + (b + c) * (d + e)
    return (
        ell / 12 - d * e * (b + c) / (6 * den),
        (8 * b * c * d + 8 * b * c * e + 6 * b * d * e + 6 * c * d * e) / den,
        Fraction(0),
        ell / 9 + (-2 * (b + c) * d * e + 6 * b * c * (d + e)) / (9 * den),
        Fraction(3, 28) * ell
        + ((b + c) * d * e + 4 * b * c * (d + e)) / (28 * den),
        Fraction(2, 9) * ell
        + (5 * (b + c) * d * e + 12 * b * c * (d + e)) / (9 * den),
    )


def _cf_g3_X(p: Lengths) -> ClosedRow:
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    ell = a + b + c + d + p["e"]
    s = a * b + a * c + b * c
    return (
        ell / 12 + d / 6 - a * b * c / (6 * s),
        6 * d + 6 * a * b * c / s,
        d,
        ell / 9 + 11 * d / 9 - 2 * a * b * c / (9 * s),
        Fraction(3, 28) * ell + 5 * d / 28 + a * b * c / (28 * s),
        Fraction(2, 9) * ell + 13 * d / 9 + 5 * a * b * c / (9 * s),
    )


def _cf_g3_XI(p: Lengths) -> ClosedRow:
    c, d, e, f = p["c"], p["d"], p["e"], p["f"]
    ell = p["a"] + p["b"] + c + d + e + f
    s = c + d
    h = e * f / (e + f)
    return (
        ell / 12 + s / 6,
        6 * s + 8 * h,
        s,
        ell / 9 + 11 * s / 9 + 2 * h / 3,
        Fraction(3, 28) * ell + 5 * s / 28 + h / 7,
        Fraction(2, 9) * ell + 13 * s / 9 + 4 * h / 3,
    )


def _cf_g3_XII(p: Lengths) -> ClosedRow:
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    ell = a + b + c + d + e + p["f"]
    w = a * b + (a + b) * (c + d)
    return (
        ell / 12 + e / 6 - a * b * (c + d) / (6 * w),
        6 * e
        + (6 * a * b * c + 6 * a * b * d + 8 * a * c * d + 8 * b * c * d) / w,
        e,
        ell / 9 + 11 * e / 9 + (6 * (a + b) * c * d - 2 * a * b * (c + d)) / (9 * w),
        Fraction(3, 28) * ell + 5 * e / 28
        + (4 * (a + b) * c * d + a * b * (c + d)) / (28 * w),
        Fraction(2, 9) * ell + 13 * e / 9
        + (12 * (a + b) * c * d + 5 * a * b * (c + d)) / (9 * w),
    )


def _cf_g3_XIII(p: Lengths) -> ClosedRow:
    a, b, c, d, e, f = p["a"], p["b"], p["c"], p["d"], p["e"], p["f"]
    ell = a + b + c + d + e + f
    ca = (
        a * c * d * e + b * c * d * e + a * c * d * f + b * c * d * f
        + a * c * e * f + b * c * e * f + a * d * e * f + b * d * e * f
    )
    cb = a * b * c * e + a * b * d * e + a * b * c * f + a * b * d * f
    cc = c * d * e * f
    cd = (
        (a + b) * c * e + (a + b) * d * e + c * d * e
        + (a + b) * c * f + (a + b) * d * f + c * d * f
        + c * e * f + d * e * f
    )
    return (
        ell / 12 - (ca + 2 * cc) / (6 * cd),
        (6 * ca + 8 * cb + 8 * cc) / cd,
        Fraction(0),
        ell / 9 - (2 * ca - 6 * cb + 7 * cc) / (9 * cd),
        Fraction(3, 28) * ell + (ca + 4 * cb) / (28 * cd),
        Fraction(2, 9) * ell + (5 * ca + 12 * cb + 4 * cc) / (9 * cd),
    )


def _cf_g3_XIV(p: Lengths) -> ClosedRow:
    a, b, c, d, e, f = p["a"], p["b"], p["c"], p["d"], p["e"], p["f"]
    ell = a + b + c + d + e + f
    ca = (
        a * b * c * d + a * b * c * e + a * b * d * e + a * c * d * e
        + a * b * c * f + a * b * d * f + b * c * d * f + a * c * e * f
        + b * c * e * f + a * d * e * f + b * d * e * f + c * d * e * f
    )
    cb = b * c * d * e + a * c * d * f + a * b * e * f
    cc = (
        a * b * d + a * c * d + b * c * d + a * b * e + a * c * e + b * c * e
        + b * d * e + c * d * e + a * b * f + a * c * f + b * c * f
        + a * d * f + c * d * f + a * e * f + b * e * f + d * e * f
    )
    return (
        ell / 12 - (ca + 2 * cb) / (6 * cc),
        (6 * ca + 8 * cb) / cc,
        Fraction(0),
        ell / 9 - (2 * ca + 7 * cb) / (9 * cc),
        Fraction(3, 28) * ell + ca / (28 * cc),
        Fraction(2, 9) * ell + (5 * ca + 4 * cb) / (9 * cc),
    )


# ---------------------------------------------------------------------------
# the topology table: id, description, vertices (``id`` or ``id:q``, weight 0
# by default), edges as ``id:u-v`` in drawing order, closed forms

_TABLE: list[tuple[str, str, str, str, Callable[[Lengths], ClosedRow]]] = [
    ("g0.I", "single vertex of weight 3 (degenerate: zero length)",
     "X:3", "", _cf_g0_I),
    ("g0.II", "segment joining weights 1 and 2", "P:1 Q:2", "a:P-Q", _cf_g0_II),
    ("g0.III", "path on three weight-1 vertices", "P:1 M:1 Q:1", "a:P-M b:M-Q",
     _cf_g0_III),
    ("g0.IV", "3-star with weight-1 leaves", "C L1:1 L2:1 L3:1",
     "a:C-L1 b:C-L2 c:C-L3", _cf_g0_IV),
    ("g1.I", "one loop at a weight-2 vertex", "X:2", "a:X-X", _cf_g1_I),
    ("g1.II", "two arcs between weight-1 vertices", "X:1 Y:1", "a:X-Y b:X-Y",
     _cf_g1_II),
    ("g1.III", "loop at weight 1 plus a pendant weight-1 leaf", "X:1 L:1",
     "b:X-X a:X-L", _cf_g1_III),
    ("g1.IV", "loop at weight 0 plus a pendant weight-2 leaf", "X L:2",
     "b:X-X a:X-L", _cf_g1_IV),
    ("g1.V", "two arcs to a weight-1 vertex plus a pendant leaf", "J P:1 L:1",
     "b:J-P c:J-P a:J-L", _cf_g1_V),
    ("g1.VI", "two arcs with a pendant leaf on each side", "J1 J2 L1:1 L2:1",
     "c:J1-J2 d:J1-J2 a:J1-L1 b:J2-L2", _cf_g1_VI),
    ("g1.VII", "loop with two pendant leaves at one vertex", "X L1:1 L2:1",
     "c:X-X a:X-L1 b:X-L2", _cf_g1_VII),
    ("g1.VIII", "loop, then a path through weight 1 to a leaf", "X Y:1 L:1",
     "c:X-X a:X-Y b:Y-L", _cf_g1_VIII),
    ("g1.IX", "loop, bridge, then two pendant leaves", "X Y L1:1 L2:1",
     "d:X-X a:X-Y b:Y-L1 c:Y-L2", _cf_g1_IX),
    ("g2.I", "two loops at a weight-1 vertex", "X:1", "a:X-X b:X-X", _cf_g2_I),
    ("g2.II", "loop plus two arcs to a weight-1 vertex", "X Y:1",
     "a:X-X b:X-Y c:X-Y", _cf_g2_II),
    ("g2.III", "theta graph with one weight-1 vertex", "X:1 Y",
     "a:X-Y b:X-Y c:X-Y", _cf_g2_III),
    ("g2.IV", "two arcs plus a path through weight 1", "X Y M:1",
     "a:X-Y b:X-Y c:X-M d:M-Y", _cf_g2_IV),
    ("g2.V", "loops joined by a bridge, far vertex weight 1", "X Y:1",
     "a:X-X c:X-Y b:Y-Y", _cf_g2_V),
    ("g2.VI", "loop, two arcs, pendant weight-1 leaf", "X Y L:1",
     "a:X-X b:X-Y c:X-Y d:Y-L", _cf_g2_VI),
    ("g2.VII", "theta plus pendant weight-1 leaf", "X Y L:1",
     "a:X-Y b:X-Y c:X-Y d:Y-L", _cf_g2_VII),
    ("g2.VIII", "two arcs plus subdivided arc, leaf at the midpoint", "X Y M L:1",
     "a:X-Y b:X-Y c:X-M d:M-Y e:M-L", _cf_g2_VIII),
    ("g2.IX", "two loops plus pendant weight-1 leaf", "X L:1",
     "a:X-X c:X-X b:X-L", _cf_g2_IX),
    # g2.VI relabelled: VI's a, b, c, d are X's d, a, b, c
    ("g2.X", "two arcs, loop on one side, leaf on the other", "X Y L:1",
     "d:X-X a:X-Y b:X-Y c:Y-L", _cf_g2_X),
    ("g2.XI", "loops joined by a path through weight 1", "X P:1 Y",
     "a:X-X c:X-P d:P-Y b:Y-Y", _cf_g2_XI),
    ("g2.XII", "loops joined by a bridge, pendant leaf", "X Y L:1",
     "a:X-X c:X-Y b:Y-Y d:Y-L", _cf_g2_XII),
    ("g2.XIII", "two arcs, bridge to a loop, bridge to a weight-1 leaf",
     "X Y M L:1", "a:X-Y b:X-Y c:X-M e:M-M d:Y-L", _cf_g2_XIII),
    ("g2.XIV", "3-star joining two loops and a weight-1 leaf", "W X Y L:1",
     "c:W-X d:W-Y e:W-L a:X-X b:Y-Y", _cf_g2_XIV),
    ("g3.I", "bouquet of three loops", "X", "a:X-X b:X-X c:X-X", _cf_g3_I),
    ("g3.II", "4-banana", "X Y", "a:X-Y b:X-Y c:X-Y d:X-Y", _cf_g3_II),
    ("g3.III", "theta graph plus a loop", "X Y", "a:X-Y b:X-Y c:X-Y d:X-X",
     _cf_g3_III),
    ("g3.IV", "two loops joined by two arcs", "X Y", "a:X-X b:Y-Y c:X-Y d:X-Y",
     _cf_g3_IV),
    ("g3.V", "two loops, bridge, another loop", "X Y", "a:X-X b:X-X d:X-Y c:Y-Y",
     _cf_g3_V),
    ("g3.VI", "chain of three loops", "X M Y", "a:X-X d:X-M b:M-M e:M-Y c:Y-Y",
     _cf_g3_VI),
    ("g3.VII", "loop, bridge, two arcs, loop", "X Y Z",
     "a:X-X c:X-Y d:Y-Z e:Y-Z b:Z-Z", _cf_g3_VII),
    ("g3.VIII", "arc plus two doubled arcs on three vertices", "X Y Z",
     "a:X-Y b:X-Z c:X-Z d:Y-Z e:Y-Z", _cf_g3_VIII),
    ("g3.IX", "loop at the apex of a triangle with one doubled side", "X Y Z",
     "a:Z-Z b:X-Z c:Y-Z d:X-Y e:X-Y", _cf_g3_IX),
    ("g3.X", "theta, bridge, loop", "X Y Z", "a:X-Y b:X-Y c:X-Y d:Y-Z e:Z-Z",
     _cf_g3_X),
    ("g3.XI", "loop, bridge, two arcs, bridge, loop", "W Y Z X",
     "a:W-W c:W-Y e:Y-Z f:Y-Z d:Z-X b:X-X", _cf_g3_XI),
    ("g3.XII", "two arcs plus subdivided arc, bridge to a loop", "X Y M Z",
     "a:X-Y b:X-Y c:X-M d:M-Y e:M-Z f:Z-Z", _cf_g3_XII),
    # 4-cycle X-Y-W-Z-X with the X-Y and W-Z sides doubled
    ("g3.XIII", "4-cycle with two opposite sides doubled", "X Y W Z",
     "c:X-Y d:X-Y b:Y-W e:W-Z f:W-Z a:Z-X", _cf_g3_XIII),
    # opposite edge pairs (a,f), (b,e), (c,d)
    ("g3.XIV", "complete graph on four vertices", "1 2 3 4",
     "a:1-2 b:1-3 c:1-4 d:2-3 e:2-4 f:3-4", _cf_g3_XIV),
]


def _spec(
    fid: str,
    description: str,
    vertices: str,
    edges: str,
    closed: Callable[[Lengths], ClosedRow],
) -> FamilySpec:
    weighted = (token.partition(":") for token in vertices.split())
    wired = (token.partition(":") for token in edges.split())
    return FamilySpec(
        id=fid,
        genus=int(fid[1]),
        description=description,
        vertices=tuple(Vertex(vid, int(q or 0)) for vid, _, q in weighted),
        edges=tuple((eid, *ends.split("-")) for eid, _, ends in wired),
        closed=closed,
    )


FAMILIES: dict[str, FamilySpec] = {row[0]: _spec(*row) for row in _TABLE}


def list_families() -> list[str]:
    return list(FAMILIES)


def family(fid: str) -> FamilySpec:
    try:
        return FAMILIES[fid]
    except KeyError:
        raise UnknownFamilyError(f"unknown family {fid!r}") from None


def _coerce_lengths(spec: FamilySpec, lengths: Mapping[str, RationalLike]) -> Lengths:
    given = set(lengths)
    expected = set(spec.params)
    missing = expected - given
    if missing:
        raise ParameterError(
            f"{spec.id}: missing parameter(s) {', '.join(sorted(missing))}"
        )
    extra = given - expected
    if extra:
        raise ParameterError(
            f"{spec.id}: unknown parameter(s) {', '.join(sorted(extra))}"
        )
    out: Lengths = {}
    for name in spec.params:
        try:
            value = as_rational(lengths[name])
        except (TypeError, ValueError, ZeroDivisionError):
            raise ParameterError(
                f"{spec.id}: cannot parse parameter {name}={lengths[name]!r}"
            ) from None
        if value <= 0:
            raise ParameterError(f"{spec.id}: parameter {name} must be positive")
        out[name] = value
    return out


def _build(spec: FamilySpec, p: Lengths) -> PmGraph:
    # ``p`` is already checked by ``_coerce_lengths``
    return PmGraph(spec.vertices, tuple(Edge(i, u, v, p[i]) for i, u, v in spec.edges))


def _closed_form(spec: FamilySpec, p: Lengths) -> InvariantSet:
    tau_v, theta_v, delta1, phi_v, lam_v, eps_v = spec.closed(p)
    ell = sum(p.values(), Fraction(0))
    return InvariantSet(
        ell=ell,
        g=spec.genus,
        gbar=3,
        tau=tau_v,
        theta=theta_v,
        delta={0: ell - delta1, 1: delta1},
        phi=phi_v,
        lam=lam_v,
        epsilon=eps_v,
        z=Fraction(5, 9) * tau_v + theta_v / 72,
    )


def build(fid: str, lengths: Mapping[str, RationalLike]) -> PmGraph:
    """Construct the family's fixed topology with the given edge lengths."""
    spec = family(fid)
    return _build(spec, _coerce_lengths(spec, lengths))


def closed_form(fid: str, lengths: Mapping[str, RationalLike]) -> InvariantSet:
    """Evaluate the family's tabulated invariants; no graph is built.

    ``Z`` is not tabulated anywhere, so it is filled in through its
    total-genus-3 expression ``5 tau / 9 + theta / 72`` applied to the
    closed-form tau and theta.
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
    mismatches = []
    for label, got, want in [
        ("ell", engine.ell, closed.ell),
        ("g", engine.g, closed.g),
        ("gbar", engine.gbar, closed.gbar),
        ("tau", engine.tau, closed.tau),
        ("theta", engine.theta, closed.theta),
        ("delta", engine.delta, closed.delta),
        ("phi", engine.phi, closed.phi),
        ("lambda", engine.lam, closed.lam),
        ("epsilon", engine.epsilon, closed.epsilon),
        ("Z", engine.z, closed.z),
    ]:
        if got != want:
            mismatches.append(f"{label}: engine {got} != closed form {want}")
    return CrossCheckReport(fid, p, engine, closed, tuple(mismatches))


def random_lengths(params: Sequence[str], rng: random.Random) -> Lengths:
    """Strictly positive rational lengths, numerator and denominator in 1..64."""
    return {name: Fraction(rng.randint(1, 64), rng.randint(1, 64)) for name in params}


def check_family(
    fid: str, samples: int, seed: int
) -> tuple[int, Optional[CrossCheckReport]]:
    """Cross-check ``samples`` seeded random length tuples for one family.

    Returns (number of passing samples, first failing report or None).
    Deterministic for a given (family, samples, seed).
    """
    spec = family(fid)
    rng = random.Random(f"{fid}:{seed}")
    passed = 0
    for _ in range(samples):
        report = cross_check(fid, random_lengths(spec.params, rng))
        if not report.passed:
            return passed, report
        passed += 1
    return passed, None
