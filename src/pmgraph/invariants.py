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
genus and each bridge's side genera are kept), and solves what is left once;
every value is read off that one matrix.  A subdivided genus-3 graph thus
costs a solve on at most 4 vertices, and a graph with nothing to smooth,
such as every catalog graph, is solved as given.  :func:`invariant_set`
gets every invariant from the one solve.
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
from .resistance import ResistanceMatrix, _classify_edges, _solve, resistance_matrix


def _reduced(g: PmGraph, keep: Optional[str] = None) -> tuple[PmGraph, ResistanceMatrix]:
    # the prologue of every engine entry: validate g once, smooth it (keeping
    # ``keep``) and solve the result once; with nothing to smooth that is
    # resistance_matrix(g)
    removable = _removable(g, keep)
    if not removable:
        return g, resistance_matrix(g)
    require_valid(g)
    h = _smooth(g, removable)
    return h, _solve(h)


def tau(g: PmGraph, base: Optional[str] = None) -> Fraction:
    """Tau constant: ``(1/4) * integral over the graph of (dr(x, y)/dx)^2``.

    On an edge ``e = uv`` of length ``L``, ``x -> r(x, y)`` is a quadratic;
    splitting the integral of its squared slope into a mean and a variance
    part gives the per-edge form (Cinkir, 2011)::

        tau = sum_e (L - R_e)^2 / (12 L) + sum_e (r(v, y) - r(u, y))^2 / (4 L)

    with ``R_e = r(u, v)``, and ``R_e = 0`` on a loop.  The value is
    independent of the base vertex ``y`` (checked property, not assumed);
    ``base`` defaults to the first vertex.
    """
    return _tau(*_reduced(g, base), base)


def _tau(g: PmGraph, rm: ResistanceMatrix, base: Optional[str] = None) -> Fraction:
    if base is None:
        base = g.vertex_ids[0]
    total = Fraction(0)
    for e in g.edges:
        L = e.length
        c = L if e.is_loop else L - rm.get(e.u, e.v)
        d = rm.get(e.v, base) - rm.get(e.u, base)
        total += (c * c / 3 + d * d) / L
    return total / 4


def theta(g: PmGraph) -> Fraction:
    """``sum over ordered vertex pairs (p, s) of K(p) K(s) r(p, s)``.

    ``K`` is the canonical divisor coefficient; each unordered pair therefore
    counts twice.  Vertices with ``K = 0`` contribute nothing, so the value
    does not change under subdivision or smoothing of weight-0 valence-2
    vertices.
    """
    return _theta(*_reduced(g))


def _theta(g: PmGraph, rm: ResistanceMatrix) -> Fraction:
    return rm.pair_sum(canonical_divisor(g))


def delta(g: PmGraph) -> dict[int, Fraction]:
    """Total edge length by type: ``delta[i]`` sums type-``i`` bridges, and
    ``delta[0]`` sums all non-bridge edges.

    Keys run over ``0 .. gbar // 2`` and always include every possible type,
    with value 0 when no edge of the type is present.
    """
    return _delta(*_reduced(g))


def _delta(g: PmGraph, rm: ResistanceMatrix) -> dict[int, Fraction]:
    result = {i: Fraction(0) for i in range(genus(g).gbar // 2 + 1)}
    classes = _classify_edges(g, rm)
    for e in g.edges:
        result[classes[e.id].type_index] += e.length
    return result


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

    def to_json_dict(self) -> dict:
        payload: dict = {
            "ell": str(self.ell),
            "g": self.g,
            "gbar": self.gbar,
            "tau": str(self.tau),
            "theta": str(self.theta),
            "delta": {
                str(i): str(self.delta[i]) for i in sorted(self.delta)
            },
        }
        if self.phi is not None:
            payload["phi"] = str(self.phi)
            payload["lambda"] = str(self.lam)
            payload["epsilon"] = str(self.epsilon)
            payload["Z"] = str(self.z)
        return payload

    def by_name(self, name: str) -> Fraction:
        """Look up an invariant by its conventional name (``lambda``, ``Z``...)."""
        aliases = {
            "ell": self.ell,
            "tau": self.tau,
            "theta": self.theta,
            "phi": self.phi,
            "lambda": self.lam,
            "epsilon": self.epsilon,
            "Z": self.z,
        }
        if name not in aliases:
            raise KeyError(name)
        value = aliases[name]
        if value is None:
            raise UnsupportedGenusError(
                f"{name} is only defined on total genus 3 graphs"
            )
        return value


def zhang_invariants(g: PmGraph) -> dict[str, Fraction]:
    """``phi``, ``lambda``, ``epsilon`` and ``Z`` of a total genus 3 graph.

    On total genus 3 these admit closed forms in ``tau``, ``theta`` and the
    total length ``ell``::

        phi     = 13/3 tau + theta/12 - ell/4
        lambda  =  3/7 tau + theta/56 + ell/14
        epsilon =  8/3 tau + theta/6
        Z       =  5/9 tau + theta/72

    Any other total genus raises :class:`UnsupportedGenusError`.
    """
    g, rm = _reduced(g)
    gbar = genus(g).gbar
    if gbar != 3:
        raise UnsupportedGenusError(
            f"phi/lambda/epsilon/Z require total genus 3, got {gbar}"
        )
    return _zhang(_tau(g, rm), _theta(g, rm), g.total_length)


def _zhang(t: Fraction, th: Fraction, ell: Fraction) -> dict[str, Fraction]:
    # the total genus 3 closed forms of zhang_invariants
    return {
        "phi": Fraction(13, 3) * t + th / 12 - ell / 4,
        "lambda": Fraction(3, 7) * t + th / 56 + ell / 14,
        "epsilon": Fraction(8, 3) * t + th / 6,
        "Z": Fraction(5, 9) * t + th / 72,
    }


def invariant_set(g: PmGraph) -> InvariantSet:
    """All invariants of a valid graph in one pass (one Laplacian solve)."""
    g, rm = _reduced(g)
    data = genus(g)
    t = _tau(g, rm)
    th = _theta(g, rm)
    ell = g.total_length
    quartet = _zhang(t, th, ell) if data.gbar == 3 else {}
    return InvariantSet(
        ell=ell,
        g=data.g,
        gbar=data.gbar,
        tau=t,
        theta=th,
        delta=_delta(g, rm),
        phi=quartet.get("phi"),
        lam=quartet.get("lambda"),
        epsilon=quartet.get("epsilon"),
        z=quartet.get("Z"),
    )
