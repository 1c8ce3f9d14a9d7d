"""The engine's integer tail against the Fraction reference formulas.

After the Fraction solve, every engine entry puts the solve on one integer
denominator ``q`` and reads tau, theta and the Zhang quartet off ints; the
bridge test reads the solve's own ints.  These tests compare each engine output, field by field,
with the ``Fraction`` formulas of ``oracles`` evaluated on the matrix of the
graph as given (tau per edge at any base, theta over every ordered pair,
bridge types by edge removal), and run the division-free core on
polynomial constants.
"""

import random
from fractions import Fraction

import pytest

from pmgraph import (
    Polynomial,
    PmGraph,
    build,
    classify_edges,
    delta,
    family,
    genus,
    invariant_set,
    list_families,
    random_lengths,
    resistance_matrix,
    tau,
    theta,
    zhang_invariants,
)
from pmgraph import resistance as solver

from conftest import dense_graph, random_pm_graph, random_subdivided
from oracles import bridge_sides_by_removal, tau_by_formula, theta_by_pairs, zhang_by_formula


def _catalog_graphs():
    rng = random.Random("integer-tail")
    return [(fid, build(fid, random_lengths(family(fid).params, rng))) for fid in list_families()]


def _other_graphs():
    rng = random.Random("integer-tail-random")
    graphs = [(f"random{n}", random_pm_graph(n, rng)) for n in (1, 2, 5, 11, 24)]
    for fid in ("g1.IX", "g2.XIV", "g3.II", "g3.XIV"):
        graphs.append((f"subdivided-{fid}", random_subdivided(fid, rng.randint(8, 30), rng)))
    graphs += [(f"dense{n}", dense_graph(n, random.Random(f"tail:{n}"))) for n in (6, 12, 24, 48)]
    return graphs


GRAPHS = _catalog_graphs() + _other_graphs()


def reference(g: PmGraph) -> dict:
    """Every invariant of ``g`` by the Fraction formulas, from the graph as given."""
    rm = resistance_matrix(g)
    data = genus(g)
    sides = bridge_sides_by_removal(g)
    deltas = {i: Fraction(0) for i in range(data.gbar // 2 + 1)}
    for e in g.edges:
        deltas[min(sides[e.id]) if e.id in sides else 0] += e.length
    values = {
        "ell": g.total_length,
        "g": data.g,
        "gbar": data.gbar,
        "tau": tau_by_formula(g, rm),
        "theta": theta_by_pairs(g, rm),
        "delta": deltas,
    }
    if data.gbar == 3:
        values.update(zhang_by_formula(values["tau"], values["theta"], values["ell"]))
    return values


@pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_engine_equals_the_fraction_formulas(name, g):
    expected = reference(g)
    inv = invariant_set(g)
    got = {
        "ell": inv.ell, "g": inv.g, "gbar": inv.gbar,
        "tau": inv.tau, "theta": inv.theta, "delta": inv.delta,
    }
    if inv.gbar == 3:
        got.update(phi=inv.phi, epsilon=inv.epsilon, Z=inv.z, **{"lambda": inv.lam})
        assert zhang_invariants(g) == {k: expected[k] for k in ("phi", "lambda", "epsilon", "Z")}
    for field, value in expected.items():
        assert got[field] == value, field
    for value in [v for v in got.values() if not isinstance(v, (int, dict))] + list(inv.delta.values()):
        assert type(value) is Fraction
    assert (tau(g), theta(g), delta(g)) == (expected["tau"], expected["theta"], expected["delta"])
    sides = bridge_sides_by_removal(g)
    assert {eid for eid, c in classify_edges(g).items() if c.is_bridge} == set(sides)


@pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_tau_at_every_base(name, g):
    rm = resistance_matrix(g)
    expected = tau_by_formula(g, rm)
    for vid in g.vertex_ids:
        assert tau_by_formula(g, rm, vid) == expected
        assert tau(g, base=vid) == expected


@pytest.mark.parametrize("name, g", GRAPHS[::7], ids=[name for name, _ in GRAPHS[::7]])
def test_core_runs_on_polynomial_constants(name, g, monkeypatch):
    # capture what the engine hands the division-free core, then run the
    # core again on Polynomial constants: Polynomial has no division, so
    # any "/" in the core would raise
    seen = []
    core = solver._core

    def recorded(*args):
        seen.append((args, core(*args)))
        return seen[-1][1]

    monkeypatch.setattr(solver, "_core", recorded)
    invariant_set(g)
    (edges, green, r, w, x, total), (tau_num, theta_num) = seen[0]
    assert type(tau_num) is int and type(theta_num) is int
    p = Polynomial.constant
    lifted = core(
        [(i, j, p(l), p(c)) for i, j, l, c in edges],
        {i: {j: p(v) for j, v in row.items()} for i, row in green.items()},
        p(r),
        {i: p(c) for i, c in w.items()},
        {i: p(v) for i, v in x.items()},
        p(total),
    )
    assert lifted == (p(tau_num), p(theta_num))
