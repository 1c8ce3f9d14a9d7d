"""The engine evaluates on the reduced model; the full-size solve must agree.

Every engine entry smooths away weight-0 vertices of valence 2 before it
solves, so on subdivided inputs the solve it runs is on at most 4 vertices.
These tests solve the same graphs as given, through ``resistance_matrix``
and ``classify_edges``, and read every invariant off that full solve with
the private helpers, pairwise theta and per-edge delta.
"""

import random
from fractions import Fraction

import pytest

from pmgraph import (
    PmGraph,
    canonical_divisor,
    classify_edges,
    family,
    genus,
    invariant_set,
    list_families,
    normalize,
    resistance_matrix,
    tau,
)
from pmgraph.invariants import _tau, _zhang

from conftest import random_pm_graph, random_subdivided

NON_DEGENERATE = [fid for fid in list_families() if not family(fid).degenerate]


def dense_graph(n: int, rng: random.Random) -> PmGraph:
    # a random spanning tree plus n chords, loops and parallel edges allowed;
    # leaves get q = 1 and every other vertex q = 0
    names = [f"v{i}" for i in range(n)]
    ends = [(names[i], names[rng.randrange(i)]) for i in range(1, n)]
    ends += [(rng.choice(names), rng.choice(names)) for _ in range(n)]
    valence = dict.fromkeys(names, 0)
    for u, v in ends:
        valence[u] += 1
        valence[v] += 1
    return PmGraph.build(
        [(name, 1 if valence[name] == 1 else 0) for name in names],
        [
            (f"e{k}", u, v, Fraction(rng.randint(1, 20), rng.randint(1, 20)))
            for k, (u, v) in enumerate(ends)
        ],
    )


def full_solve_invariants(g: PmGraph) -> dict:
    """Every invariant of ``g`` from a solve of ``g`` as given."""
    rm = resistance_matrix(g)
    k = canonical_divisor(g)
    theta = sum(
        (k[p] * k[s] * rm.get(p, s) for p in g.vertex_ids for s in g.vertex_ids),
        Fraction(0),
    )
    data = genus(g)
    delta = {i: Fraction(0) for i in range(data.gbar // 2 + 1)}
    classes = classify_edges(g)
    for e in g.edges:
        delta[classes[e.id].type_index] += e.length
    values = {
        "ell": g.total_length,
        "g": data.g,
        "gbar": data.gbar,
        "tau": _tau(g, rm),
        "theta": theta,
        "delta": delta,
    }
    if data.gbar == 3:
        values.update(_zhang(values["tau"], theta, g.total_length))
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


def test_pair_sum_equals_the_pairwise_sum():
    rng = random.Random("pair-sum")
    for n in (1, 2, 7, 20):
        g = random_pm_graph(n, rng)
        rm = resistance_matrix(g)
        weights = {vid: rng.randint(-3, 3) for vid in g.vertex_ids}
        weights[g.vertex_ids[0]] = 2  # the ground carries weight too
        pairwise = sum(
            (weights[p] * weights[s] * rm.get(p, s) for p in g.vertex_ids for s in g.vertex_ids),
            Fraction(0),
        )
        total = rm.pair_sum(weights)
        assert type(total) is Fraction
        assert total == pairwise


@pytest.mark.parametrize("fid, g", SUBDIVIDED[::8], ids=[fid for fid, _ in SUBDIVIDED[::8]])
def test_tau_at_a_removable_base_equals_tau(fid, g):
    kept = set(normalize(g).vertex_ids)
    removable = [vid for vid in g.vertex_ids if vid not in kept]
    assert removable
    expected = tau(g)
    for vid in removable:
        assert tau(g, base=vid) == expected
