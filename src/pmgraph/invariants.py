"""Exact admissible invariants of pm-graphs.

``tau``, ``theta`` and the ``delta`` decomposition are defined for every
valid pm-graph.  The four derived invariants ``phi``, ``lambda``,
``epsilon`` and ``Z`` are produced by closed formulas in ``tau``, ``theta``
and the total length that hold on total genus 3, so :func:`zhang_invariants`
refuses any other total genus rather than return something wrong.  Those
forms are ``_LINEAR``, which the catalog's ``Z`` and every ratio read too.

Every invariant here is unchanged when a weight-0 vertex of valence 2 is
smoothed away, so every public function evaluates on the reduced model
through the engine prologue of :mod:`pmgraph.resistance`: validate once,
walk the chains as :func:`pmgraph.graph.normalize` does and build the
solve's topology straight from the walk, with no smoothed graph made
(``K`` is 0 on every removed vertex, and the genus and each bridge's side
genera are kept), and solve what is left once, as one integer ``T``,
``N = T Z`` on the diagonal and the edges, and theta's ``X = N K``.  That
solve is scaled once to one integer denominator ``q`` and every value is
one ``Fraction`` of int numerators; :func:`invariant_set` gets every
invariant from it, and :func:`theta`, :func:`delta` and
:func:`zhang_invariants` are views of its record.  :func:`tau` solves on its
own, grounded at its ``base``.  On a subdivided genus-3 graph the linear
front end (parse, validate, walk) costs more than the solve.  Theta's
weights and the genus come off the topology that solve was made on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import PmGraph, UnsupportedGenusError
from .resistance import _reduced, _scale, _Scaled, _sides, _Topology


def _scaled(g: PmGraph, keep: tuple[str, ...] = ()) -> tuple[_Topology, _Scaled]:
    # the engine prologue (one validation, one solve of the reduced model
    # keeping ``keep``, grounded at it) and that solve scaled once
    rm = _reduced(g, keep)[0]
    return rm._topology, _scale(rm)


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
    _, s = _scaled(g, () if base is None else (base,))
    return Fraction(s.tau, s.den)


def theta(g: PmGraph) -> Fraction:
    """``sum over ordered vertex pairs (p, s) of K(p) K(s) r(p, s)``.

    ``K`` is the canonical divisor coefficient; each unordered pair therefore
    counts twice.  Vertices with ``K = 0`` contribute nothing, so the value
    does not change under subdivision or smoothing of weight-0 valence-2
    vertices.
    """
    return invariant_set(g).theta


def delta(g: PmGraph) -> dict[int, Fraction]:
    """Total edge length by type: ``delta[i]`` sums type-``i`` bridges, and
    ``delta[0]`` sums all non-bridge edges.

    Keys run over ``0 .. gbar // 2`` and always include every possible type,
    with value 0 when no edge of the type is present.
    """
    return invariant_set(g).delta


def _delta_sums(gbar: int, s: _Scaled) -> dict[int, int]:
    # delta's values as numerators over s.q, for a solve of total genus gbar
    sums = dict.fromkeys(range(gbar // 2 + 1), 0)
    for sides, length in zip(_sides(gbar, s.rm), s.lengths):
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


# tau and the quartet as linear forms in tau, theta and the total length ell,
# the quartet's on total genus 3: name -> (a, c, b, d) in (a tau + c theta + b ell) / d
_LINEAR = {
    "tau": (1, 0, 0, 1), "phi": (52, 1, -3, 12), "lambda": (24, 1, 4, 56),
    "epsilon": (16, 1, 0, 6), "Z": (40, 1, 0, 72),
}
_QUARTET = ("phi", "lambda", "epsilon", "Z")


def _linear(name: str, tau, theta, ell) -> tuple:
    # the form's numerator a tau + c theta + b ell and its d: on int
    # numerators over one denominator, or on Fractions
    a, c, b, d = _LINEAR[name]
    return a * tau + c * theta + b * ell, d


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
    values = invariant_set(g)
    if values.gbar != 3:
        raise UnsupportedGenusError(
            f"phi/lambda/epsilon/Z require total genus 3, got {values.gbar}"
        )
    return {name: values.by_name(name) for name in _QUARTET}


def invariant_set(g: PmGraph) -> InvariantSet:
    """All invariants of a valid graph in one pass (one Laplacian solve)."""
    topology, s = _scaled(g)
    data = topology.genus
    quartet = {}
    for name in _QUARTET if data.gbar == 3 else ():
        num, d = _linear(name, s.tau, s.theta, s.ell)
        quartet[FIELDS[name]] = Fraction(num, d * s.den)
    return InvariantSet(
        ell=Fraction(s.ell, s.den),
        g=data.g,
        gbar=data.gbar,
        tau=Fraction(s.tau, s.den),
        theta=Fraction(s.theta, s.den),
        delta={i: Fraction(total, s.q) for i, total in _delta_sums(data.gbar, s).items()},
        **quartet,
    )
