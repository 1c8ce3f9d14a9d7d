"""The engine evaluates on the reduced model; the full-size solve must agree.

Every engine entry smooths away weight-0 vertices of valence 2 before it
solves, so on subdivided inputs the solve it runs is on at most 4 vertices.
These tests solve the same graphs as given, through ``resistance_matrix``
and ``classify_edges``, and read every invariant off that full solve with
the Fraction reference formulas of ``oracles``, pairwise theta and per-edge
delta.  The topology the prologue builds straight from the smoothing walk
is held against the one of the smoothed graph, as the previous walk built
it.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from pmgraph import (
    Edge,
    PmGraph,
    Vertex,
    classify_edges,
    family,
    genus,
    invariant_set,
    list_families,
    normalize,
    resistance_matrix,
    tau,
)
from pmgraph.graph import _removable
from pmgraph.resistance import _reduced, _scale, _Topology

from conftest import dense_graph, random_pm_graph, random_subdivided
from oracles import smooth_by_edges, tau_by_formula, theta_by_pairs, zhang_by_formula

NON_DEGENERATE = [fid for fid in list_families() if not family(fid).degenerate]


def full_solve_invariants(g: PmGraph) -> dict:
    """Every invariant of ``g`` from a solve of ``g`` as given."""
    rm = resistance_matrix(g)
    theta = theta_by_pairs(g, rm)
    data = genus(g)
    delta = {i: Fraction(0) for i in range(data.gbar // 2 + 1)}
    classes = classify_edges(g)
    for e in g.edges:
        delta[classes[e.id].type_index] += e.length
    values = {
        "ell": g.total_length,
        "g": data.g,
        "gbar": data.gbar,
        "tau": tau_by_formula(g, rm),
        "theta": theta,
        "delta": delta,
    }
    if data.gbar == 3:
        values.update(zhang_by_formula(values["tau"], theta, g.total_length))
    return values


def reduced_solve_invariants(g: PmGraph) -> dict:
    inv = invariant_set(g)
    values = {
        "ell": inv.ell,
        "g": inv.g,
        "gbar": inv.gbar,
        "tau": inv.tau,
        "theta": inv.theta,
        "delta": inv.delta,
    }
    if inv.gbar == 3:
        values.update(phi=inv.phi, **{"lambda": inv.lam}, epsilon=inv.epsilon, Z=inv.z)
    return values


def _subdivided_graphs():
    rng = random.Random("reduced-model")
    return [(fid, random_subdivided(fid, rng.randint(8, 48), rng)) for fid in NON_DEGENERATE]


SUBDIVIDED = _subdivided_graphs()


@pytest.mark.parametrize("fid, g", SUBDIVIDED, ids=[fid for fid, _ in SUBDIVIDED])
def test_subdivided_reduced_solve_equals_full_solve(fid, g):
    assert len(normalize(g).vertices) <= 4 < len(g.vertices)
    assert reduced_solve_invariants(g) == full_solve_invariants(g)


@pytest.mark.parametrize("n", [12, 24, 36, 48])
def test_dense_reduced_solve_equals_full_solve(n):
    g = dense_graph(n, random.Random(f"dense:{n}"))
    assert len(normalize(g).vertices) < len(g.vertices)
    assert reduced_solve_invariants(g) == full_solve_invariants(g)


@pytest.mark.parametrize("n", [2, 5, 9, 16, 30])
def test_random_pm_graph_reduced_solve_equals_full_solve(n):
    g = random_pm_graph(n, random.Random(f"reduced:{n}"))
    assert reduced_solve_invariants(g) == full_solve_invariants(g)


def test_scaled_theta_equals_the_pairwise_sum():
    rng = random.Random("pair-sum")
    for n in (1, 2, 7, 20):
        g = random_pm_graph(n, rng)
        rm = resistance_matrix(g)
        weights = {vid: rng.randint(-3, 3) for vid in g.vertex_ids}
        weights[g.vertex_ids[0]] = 2  # the ground carries weight too
        # theta's weights are the topology's divisor off the ground, so
        # replace both
        divisor = {i: weights[vid] for i, vid in enumerate(rm.order)}
        off_ground = {i: c for i, c in divisor.items() if i != rm._topology.ground}
        topology = dataclasses.replace(rm._topology, divisor=divisor, weights=off_ground)
        scaled = _scale(topology.solve([e.length for e in g.edges]))
        assert type(scaled.theta) is int
        assert Fraction(scaled.theta, scaled.den) == theta_by_pairs(g, rm, weights)


@pytest.mark.parametrize("fid, g", SUBDIVIDED[::8], ids=[fid for fid, _ in SUBDIVIDED[::8]])
def test_tau_at_a_removable_base_equals_tau(fid, g):
    kept = set(normalize(g).vertex_ids)
    removable = [vid for vid in g.vertex_ids if vid not in kept]
    assert removable
    expected = tau(g)
    for vid in removable:
        assert tau(g, base=vid) == expected


def _cycle(n: int) -> PmGraph:
    # a cycle of n weight-0 vertices: every vertex is removable
    names = [f"c{i}" for i in range(n)]
    return PmGraph(
        tuple(Vertex(name) for name in names),
        tuple(Edge(f"e{i}", names[i], names[(i + 1) % n], Fraction(i + 1, 3)) for i in range(n)),
    )


GENUS_3 = [(fid, g) for fid, g in SUBDIVIDED if family(fid).genus == 3]
WALKED = GENUS_3 + [("cycle", _cycle(5)), ("pair", _cycle(2))]


def _keeps(g: PmGraph) -> list[tuple[str, ...]]:
    # no vertex kept, a tau base and an effective_resistance pair, both
    # removable where the graph has removable vertices
    removable = [vid for vid in g.vertex_ids if vid in _removable(g)]
    return [(), tuple(removable[:1]), tuple(removable[-2:])]


def test_the_walked_graphs_cover_every_genus_3_family():
    assert len(GENUS_3) == 14
    assert all(len(g.vertices) > 4 for _, g in GENUS_3)


@pytest.mark.parametrize("fid, g", WALKED, ids=[fid for fid, _ in WALKED])
def test_the_walk_gives_the_topology_of_the_smoothed_graph(fid, g):
    for keep in _keeps(g):
        ground = keep[0] if keep else None
        slim, where = smooth_by_edges(g, _removable(g, keep))
        if not keep:
            assert normalize(g) == slim
        rm, walked = _reduced(g, keep)
        expected = _Topology.of(slim, ground)
        topology = rm._topology
        assert (topology.order, topology.ground, topology.ends) == (
            expected.order, expected.ground, expected.ends
        )
        assert (topology.divisor, topology.weights) == (expected.divisor, expected.weights)
        assert rm._ratios == [e.length.as_integer_ratio() for e in slim.edges]
        # None: nothing was smoothed, so every edge keeps its place
        assert (walked or [(i, True) for i in range(len(g.edges))]) == where
