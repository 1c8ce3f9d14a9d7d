"""The solve's two integer producers against the Fraction references.

Every solve is held as one integer ``T`` and ``N = T Z`` on the pattern.
Graphs of at most ``DENSE_VERTICES`` vertices get them from a fraction-free
Gauss-Jordan elimination of ``M A``, larger ones from the minimum-degree
factor and the integer Takahashi recurrence.  These tests compare ``N / T``
with the ``Fraction`` selected inversion at every ground, run both producers
on the same small graphs, and cover the dense producer's edge cases.
"""

import random
from fractions import Fraction

import pytest

from pmgraph import (
    PmGraph,
    build,
    canonical_divisor,
    family,
    invariant_set,
    list_families,
    normalize,
    random_lengths,
    subdivide,
    tau,
)
from pmgraph import resistance as solver

from conftest import build_theta, random_pm_graph
from oracles import (
    green_by_selected_inverse,
    resistance_by_dense_inverse,
    tau_by_formula,
    theta_by_pairs,
)

NON_DEGENERATE = [fid for fid in list_families() if not family(fid).degenerate]


def _graphs():
    rng = random.Random("integer-green")
    graphs = [(fid, build(fid, random_lengths(family(fid).params, rng))) for fid in NON_DEGENERATE]
    graphs += [(f"random{n}", random_pm_graph(n, rng)) for n in range(1, 13)]
    return graphs


GRAPHS = _graphs()


def _edges(g: PmGraph) -> list:
    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    return [(index[e.u], index[e.v], e.length) for e in g.edges if not e.is_loop]


def _matrix(g: PmGraph, ground: int, producer) -> solver.ResistanceMatrix:
    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    return solver.ResistanceMatrix(
        g.vertex_ids, index, ground, *producer(len(index), ground, _edges(g))
    )


@pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_n_over_t_equals_the_selected_inverse_at_every_ground(name, g):
    for ground in range(len(g.vertices)):
        t, green, factor = solver._green(len(g.vertices), ground, _edges(g))
        assert type(t) is int and t > 0
        assert (factor is None) == (len(g.vertices) <= solver.DENSE_VERTICES)
        expected = green_by_selected_inverse(g, ground)
        assert set(green) == set(expected)
        for i, row in expected.items():
            if factor is not None:
                assert set(green[i]) == set(row)
            for j, z in row.items():
                assert type(green[i][j]) is int
                assert Fraction(green[i][j], t) == z, (ground, i, j)


def _scaled_fractions(g: PmGraph, rm) -> tuple:
    s = solver._scale_graph(g, rm, canonical_divisor(g))
    return (
        Fraction(s.tau, s.den), Fraction(s.theta, s.den), Fraction(s.ell, s.den),
        s.bridges, [Fraction(l, s.q) for l in s.lengths], rm.values,
    )


def _small_graphs():
    rng = random.Random("both-producers")
    graphs = [(name, g) for name, g in GRAPHS if 2 <= len(g.vertices) <= 4]
    graphs += [(f"random{n}-{k}", random_pm_graph(n, rng)) for n in (2, 3, 4) for k in range(3)]
    return graphs


SMALL = _small_graphs()


@pytest.mark.parametrize("name, g", SMALL, ids=[name for name, _ in SMALL])
def test_both_producers_give_the_same_scaled_solve(name, g):
    for ground in range(len(g.vertices)):
        dense = _matrix(g, ground, solver._dense_green)
        sparse = _matrix(g, ground, solver._sparse_green)
        assert _scaled_fractions(g, dense) == _scaled_fractions(g, sparse)


# -- the dense producer's edge cases -----------------------------------------


def _engine_equals_references(g: PmGraph) -> None:
    assert len(g.vertices) <= solver.DENSE_VERTICES
    assert solver.resistance_matrix(g).values == resistance_by_dense_inverse(g)
    inv = invariant_set(g)
    assert (inv.tau, inv.theta) == (tau_by_formula(g), theta_by_pairs(g))


def test_a_single_vertex_has_no_unknowns():
    g = PmGraph.build([("A", 2)], [])
    assert solver._dense_green(1, 0, []) == (1, {}, None)
    inv = invariant_set(g)
    assert (inv.ell, inv.tau, inv.theta, inv.gbar) == (0, 0, 0, 2)
    assert solver.resistance_matrix(g).values == ((Fraction(0),),)


def test_a_bouquet_of_loops_scales_by_the_lcm_of_nothing():
    g = PmGraph.build(["A"], [("a", "A", "A", Fraction(3, 7)), ("b", "A", "A", 5), ("c", "A", "A", "2/9")])
    assert solver._dense_green(1, 0, _edges(g)) == (1, {}, None)
    inv = invariant_set(g)
    assert inv.tau == g.total_length / 12
    assert inv.phi == tau_by_formula(g) * Fraction(13, 3) + inv.theta / 12 - inv.ell / 4


def test_parallel_edges_add_their_conductances():
    g = PmGraph.build(
        [("A", 1), ("B", 1)],
        [("a", "A", "B", 2), ("b", "A", "B", Fraction(3, 5)), ("c", "B", "A", 7)],
    )
    _engine_equals_references(g)
    assert solver.resistance_matrix(g).get("A", "B") == 1 / (Fraction(1, 2) + Fraction(5, 3) + Fraction(1, 7))


@pytest.mark.parametrize(
    "lengths",
    [
        (Fraction(1, 10**1000), Fraction(1), Fraction(2, 10**1000)),
        (Fraction(10**1000), Fraction(3), Fraction(10**1000 + 1, 7)),
        (Fraction(10**1000), Fraction(1, 10**1000), Fraction(5, 3)),
        tuple(Fraction(random.Random(k).randrange(10**59, 10**60), random.Random(-k).randrange(1, 10**60))
              for k in range(3)),
    ],
    ids=["1e-1000", "1e1000", "both", "60-digit"],
)
def test_extreme_lengths(lengths):
    g = build_theta(*lengths)
    _engine_equals_references(g)
    for ground in range(2):
        dense = _matrix(g, ground, solver._dense_green)
        sparse = _matrix(g, ground, solver._sparse_green)
        assert _scaled_fractions(g, dense) == _scaled_fractions(g, sparse)
    k4 = PmGraph.build(
        [str(i) for i in range(4)],
        [(f"e{i}{j}", str(i), str(j), lengths[(i + j) % 3]) for i in range(4) for j in range(i + 1, 4)],
    )
    _engine_equals_references(k4)


def test_tau_at_a_removable_base_takes_the_dense_producer(monkeypatch):
    g = subdivide(build_theta(2, Fraction(3, 4), 5), "a", Fraction(1, 3))
    base = next(vid for vid in g.vertex_ids if vid not in normalize(g).vertex_ids)
    expected = tau_by_formula(g)
    sizes = []
    dense = solver._dense_green

    def counted(n, ground, edges):
        sizes.append(n)
        return dense(n, ground, edges)

    monkeypatch.setattr(solver, "_dense_green", counted)
    assert tau(g, base=base) == expected
    assert sizes == [len(normalize(g).vertices) + 1]
