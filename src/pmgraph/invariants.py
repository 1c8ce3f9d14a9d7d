"""Exact admissible invariants of pm-graphs.

``tau``, ``theta`` and the ``delta`` decomposition are defined for every
valid pm-graph.  The four derived invariants ``phi``, ``lambda``,
``epsilon`` and ``Z`` are produced by closed formulas in ``tau``, ``theta``
and the total length that hold on total genus 3, so :func:`zhang_invariants`
refuses any other total genus rather than return something wrong.

Every invariant here is unchanged when a weight-0 vertex of valence 2 is
smoothed away, so every public function evaluates on the reduced model.  It
validates the graph it is given once, smooths it with the linear walk of
:func:`pmgraph.graph.normalize` (``K`` is 0 on every removed vertex, and the
genus and each bridge's side genera are kept), and solves what is left once.
The solve comes as one integer ``T`` and ``N = T Z``: on at most 4 vertices,
the stable bound for total genus 3, from a dense fraction-free elimination
of the integer Laplacian, and above that from the sparse factor and the
integer selected inverse (see :mod:`pmgraph.resistance`).  That solve is then
scaled once to one integer denominator ``q``, a multiple of ``T``, and every
value is built from int numerators, one ``Fraction`` each.  A subdivided
genus-3 graph thus costs a dense solve on at most 4 vertices, and a graph
with nothing to smooth, such as every catalog graph, is solved as given.
:func:`invariant_set` gets every invariant from the one solve, and theta's
weights are the canonical divisor the validation computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import (
    PmGraph,
    UnsupportedGenusError,
    _removable,
    _smooth,
    canonical_divisor,
    genus,
    require_valid,
)
from .resistance import _scale_graph, _Scaled, _sides, _solve, resistance_matrix


def _scaled(g: PmGraph, keep: Optional[str] = None, theta: bool = True) -> tuple[PmGraph, _Scaled]:
    # the prologue of every engine entry: validate g once, smooth it keeping
    # ``keep``, solve the result grounded at ``keep`` and scale that solve once
    given = g
    removable = _removable(g, keep)
    if removable:
        require_valid(g)
        g = _smooth(g, removable)
        rm = _solve(g, keep)
    else:
        rm = resistance_matrix(g, keep)
    # the validation of the graph as given computed its divisor; smoothing
    # keeps K on every kept vertex, and _scale skips the removed ones, where
    # K is 0
    return g, _scale_graph(g, rm, canonical_divisor(given) if theta else None)


def tau(g: PmGraph, base: Optional[str] = None) -> Fraction:
    """Tau constant: ``(1/4) * integral over the graph of (dr(x, y)/dx)^2``.

    On an edge ``e = uv`` of length ``L``, ``x -> r(x, y)`` is a quadratic;
    splitting the integral of its squared slope into a mean and a variance
    part gives the per-edge form (Cinkir, 2011)::

        tau = sum_e (L - R_e)^2 / (12 L) + sum_e (r(v, y) - r(u, y))^2 / (4 L)

    with ``R_e = r(u, v)``, and ``R_e = 0`` on a loop.  The solve is grounded
    at ``y``; the value is independent of it (checked property, not
    assumed), and ``base`` defaults to the first vertex.
    """
    _, s = _scaled(g, base, theta=False)
    return Fraction(s.tau, s.den)


def theta(g: PmGraph) -> Fraction:
    """``sum over ordered vertex pairs (p, s) of K(p) K(s) r(p, s)``.

    ``K`` is the canonical divisor coefficient; each unordered pair therefore
    counts twice.  Vertices with ``K = 0`` contribute nothing, so the value
    does not change under subdivision or smoothing of weight-0 valence-2
    vertices.
    """
    _, s = _scaled(g)
    return Fraction(s.theta, s.den)


def delta(g: PmGraph) -> dict[int, Fraction]:
    """Total edge length by type: ``delta[i]`` sums type-``i`` bridges, and
    ``delta[0]`` sums all non-bridge edges.

    Keys run over ``0 .. gbar // 2`` and always include every possible type,
    with value 0 when no edge of the type is present.
    """
    g, s = _scaled(g)
    return _delta(genus(g).gbar, s)


def _delta(gbar: int, s: _Scaled) -> dict[int, Fraction]:
    return {i: Fraction(total, s.q) for i, total in _delta_sums(gbar, s).items()}


def _delta_sums(gbar: int, s: _Scaled) -> dict[int, int]:
    # delta's values as numerators over s.q, for a solve of total genus gbar
    sums = dict.fromkeys(range(gbar // 2 + 1), 0)
    for sides, length in zip(_sides(gbar, s), s.lengths):
        sums[min(sides) if sides else 0] += length
    return sums


# the invariant vocabulary in output order: each conventional name with its
# InvariantSet field
FIELDS = {
    "ell": "ell", "g": "g", "gbar": "gbar", "tau": "tau", "theta": "theta",
    "delta": "delta", "phi": "phi", "lambda": "lam", "epsilon": "epsilon", "Z": "z",
}


@dataclass(frozen=True, eq=True)
class InvariantSet:
    """Complete exact invariant record of a pm-graph.

    ``phi``, ``lam``, ``epsilon`` and ``z`` are ``None`` unless the total
    genus is 3.  Two records compare equal exactly when every field does,
    which is what catalog cross-checks rely on.  ``delta`` is a dict, so a
    record is deliberately unhashable: ``hash()`` raises ``TypeError``.
    """

    __hash__ = None  # frozen and eq would generate a hash that fails on delta

    ell: Fraction
    g: int
    gbar: int
    tau: Fraction
    theta: Fraction
    delta: dict[int, Fraction]
    phi: Optional[Fraction] = None
    lam: Optional[Fraction] = None
    epsilon: Optional[Fraction] = None
    z: Optional[Fraction] = None

    def named_values(self) -> dict:
        """Every field by its conventional name, in output order."""
        return {name: getattr(self, field) for name, field in FIELDS.items()}

    def to_json_dict(self) -> dict:
        values = self.named_values().items()
        return {name: _json(value) for name, value in values if value is not None}

    def by_name(self, name: str) -> Fraction:
        """Look up a rational invariant by its conventional name (``lambda``, ``Z``...)."""
        if name in ("g", "gbar", "delta") or name not in FIELDS:
            raise KeyError(name)
        value = getattr(self, FIELDS[name])
        if value is None:
            raise UnsupportedGenusError(
                f"{name} is only defined on total genus 3 graphs"
            )
        return value


def _json(value):
    # g and gbar stay ints, delta maps each type to its value, the rest are p/q
    if isinstance(value, int):
        return value
    if isinstance(value, dict):
        return {str(i): str(value[i]) for i in sorted(value)}
    return str(value)


def zhang_invariants(g: PmGraph) -> dict[str, Fraction]:
    """``phi``, ``lambda``, ``epsilon`` and ``Z`` of a total genus 3 graph.

    On total genus 3 these admit closed forms in ``tau``, ``theta`` and the
    total length ``ell``::

        phi     = (52 tau + theta - 3 ell) / 12
        lambda  = (24 tau + theta + 4 ell) / 56
        epsilon = (16 tau + theta) / 6
        Z       = (40 tau + theta) / 72

    Any other total genus raises :class:`UnsupportedGenusError`.
    """
    g, s = _scaled(g)
    gbar = genus(g).gbar
    if gbar != 3:
        raise UnsupportedGenusError(
            f"phi/lambda/epsilon/Z require total genus 3, got {gbar}"
        )
    return _zhang(s, s.den)


# the closed forms of zhang_invariants: name -> (a, b, d) in (a tau + theta + b ell) / d
_QUARTET = {"phi": (52, -3, 12), "lambda": (24, 4, 56), "epsilon": (16, 0, 6), "Z": (40, 0, 72)}


def _zhang(s: _Scaled, den: int) -> dict[str, Fraction]:
    # the quartet from the numerators of s over den: s.den gives the values,
    # s.ell their ratios to ell
    return {
        name: Fraction(a * s.tau + s.theta + b * s.ell, d * den)
        for name, (a, b, d) in _QUARTET.items()
    }


def invariant_set(g: PmGraph) -> InvariantSet:
    """All invariants of a valid graph in one pass (one Laplacian solve)."""
    g, s = _scaled(g)
    data = genus(g)
    quartet = _zhang(s, s.den) if data.gbar == 3 else {}
    return InvariantSet(
        ell=Fraction(s.ell, s.den),
        g=data.g,
        gbar=data.gbar,
        tau=Fraction(s.tau, s.den),
        theta=Fraction(s.theta, s.den),
        delta=_delta(data.gbar, s),
        **{FIELDS[name]: value for name, value in quartet.items()},
    )
