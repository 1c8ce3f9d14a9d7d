"""The solve's two integer producers against the references.

Every solve is held as one integer ``T``, ``N = T Z`` and theta's
``X = N K``.  Graphs of at most ``DENSE_VERTICES`` vertices get ``N`` on
every pair from the cofactors of ``M A``, larger ones from the
minimum-degree factor and the integer Takahashi recurrence, on every pair
or only on the filled pattern, with ``X`` carried through the same
recurrence as one more right-hand side.  These tests compare ``N / T`` on
every pair and ``X / T`` with a dense ``Fraction`` inverse at every ground
(and the ``Fraction`` selected inversion with it on the factor's pattern),
check that a solve on the pattern holds the same ints as the every-pair
solve on what it holds, compare the dense producer's ``T`` and ``N`` with
the same ints from the fraction-free elimination it replaced, run both
producers on the same small graphs, cover the dense producer's edge cases,
and run its stamped kernel directly on every catalog topology and on random
multigraphs of 1 to 4 vertices at every ground.
"""

import random
from fractions import Fraction
from unittest import mock

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
    require_valid,
    tau,
)
from pmgraph import resistance as solver

from conftest import build_theta, random_pm_graph
from oracles import (
    green_by_bareiss,
    green_by_dense_inverse,
    green_by_selected_inverse,
    resistance_by_dense_inverse,
    tau_by_formula,
    theta_by_pairs,
)
from surgery import subdivide

NON_DEGENERATE = [fid for fid in list_families() if not family(fid).degenerate]


def _graphs():
    rng = random.Random("integer-green")
    graphs = [(fid, build(fid, random_lengths(family(fid).params, rng))) for fid in NON_DEGENERATE]
    graphs += [(f"random{n}", random_pm_graph(n, rng)) for n in range(1, 13)]
    return graphs


GRAPHS = _graphs()


def _matrix(g: PmGraph, ground: int, producer, every=True) -> solver.ResistanceMatrix:
    # the engine's solve of g on every pair (``every=False``: on the
    # pattern), grounded at its ground-th vertex, with ``producer`` in the
    # place of ``_green``; the dense producer always gives every pair
    topology = solver._Topology.of(g, g.vertex_ids[ground])

    def green(topology, ratios, every):
        if producer is solver._dense_green:
            return producer(topology, ratios)
        return producer(topology, ratios, every)

    with mock.patch.object(solver, "_green", green):
        return topology.solve([e.length for e in g.edges], every)


def _x_by_dense_inverse(g: PmGraph, ground: int) -> dict:
    # theta's x = Z K off the ground, from the dense inverse
    k = [canonical_divisor(g)[vid] for vid in g.vertex_ids]
    green = green_by_dense_inverse(g, ground)
    return {i: sum(z * k[j] for j, z in row.items()) for i, row in green.items()}


@pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_n_over_t_equals_the_selected_inverse_at_every_ground(name, g):
    for ground in range(len(g.vertices)):
        rm = _matrix(g, ground, solver._green)
        t, green = rm._t, rm._green
        assert type(t) is int and t > 0
        assert len(g.vertices) > solver.DENSE_VERTICES or _equals_bareiss(rm), ground
        unknowns = set(range(len(g.vertices))) - {ground}
        assert set(green) == unknowns
        assert all(set(row) == unknowns for row in green.values())
        expected = green_by_dense_inverse(g, ground)
        for i, row in expected.items():
            for j, z in row.items():
                assert type(green[i][j]) is int
                assert Fraction(green[i][j], t) == z, (ground, i, j)
        for i, row in green_by_selected_inverse(g, ground).items():
            for j, z in row.items():
                assert expected[i][j] == z, (ground, i, j)
        assert set(rm._x) == unknowns and all(type(x) is int for x in rm._x.values())
        assert {i: Fraction(x, t) for i, x in rm._x.items()} == _x_by_dense_inverse(g, ground)


@pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_a_solve_on_the_pattern_holds_the_ints_of_every_pair(name, g):
    n = len(g.vertices)
    for ground in range(n):
        full = _matrix(g, ground, solver._sparse_green)
        part = _matrix(g, ground, solver._sparse_green, every=False)
        green = part._green
        assert (part._t, part._x) == (full._t, full._x)
        assert set(green) == set(range(n)) - {ground}
        for i, row in green.items():
            assert all(full._green[i][j] == v == green[j][i] for j, v in row.items())
            assert i in row
        assert all(j in green[i] for i, j in full._topology.ends if ground not in (i, j))


def _equals_bareiss(rm: solver.ResistanceMatrix) -> bool:
    # the dense solve rm holds the elimination's ints at its ground
    topology = rm._topology
    edges = [(i, j, Fraction(*ratio)) for (i, j), ratio in zip(topology.ends, rm._ratios) if i != j]
    return (rm._t, rm._green) == green_by_bareiss(len(topology.order), topology.ground, edges)


def _scaled_fractions(g: PmGraph, rm) -> tuple:
    s = solver._scale(rm)
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
        assert _equals_bareiss(dense), ground


# -- the dense producer's edge cases -----------------------------------------


def _engine_equals_references(g: PmGraph) -> None:
    assert len(g.vertices) <= solver.DENSE_VERTICES
    assert solver.resistance_matrix(g).values == resistance_by_dense_inverse(g)
    inv = invariant_set(g)
    assert (inv.tau, inv.theta) == (tau_by_formula(g), theta_by_pairs(g))


def test_a_single_vertex_has_no_unknowns():
    g = PmGraph.build([("A", 2)], [])
    assert solver._dense_green(solver._Topology.of(g), []) == (1, {}, {})
    inv = invariant_set(g)
    assert (inv.ell, inv.tau, inv.theta, inv.gbar) == (0, 0, 0, 2)
    assert solver.resistance_matrix(g).values == ((Fraction(0),),)


def test_a_bouquet_of_loops_scales_by_the_lcm_of_nothing():
    g = PmGraph.build(["A"], [("a", "A", "A", Fraction(3, 7)), ("b", "A", "A", 5), ("c", "A", "A", "2/9")])
    rm = _matrix(g, 0, solver._dense_green)
    assert (rm._t, rm._green, rm._x) == (1, {}, {})
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
        assert _equals_bareiss(dense), ground
    k4 = PmGraph.build(
        [str(i) for i in range(4)],
        [(f"e{i}{j}", str(i), str(j), lengths[(i + j) % 3]) for i in range(4) for j in range(i + 1, 4)],
    )
    _engine_equals_references(k4)
    assert all(_equals_bareiss(_matrix(k4, ground, solver._dense_green)) for ground in range(4))


def test_tau_at_a_removable_base_takes_the_dense_producer(monkeypatch):
    g = subdivide(build_theta(2, Fraction(3, 4), 5), "a", Fraction(1, 3))
    base = next(vid for vid in g.vertex_ids if vid not in normalize(g).vertex_ids)
    expected = tau_by_formula(g)
    sizes = []
    dense = solver._dense_green

    def counted(topology, *args):
        sizes.append(len(topology.order))
        return dense(topology, *args)

    monkeypatch.setattr(solver, "_dense_green", counted)
    assert tau(g, base=base) == expected
    assert sizes == [len(normalize(g).vertices) + 1]


# -- the stamped kernel against both references -------------------------------


def _multigraph(n: int, rng: random.Random) -> PmGraph:
    # a valid pm-graph on n vertices: a random spanning tree, one of its edges
    # in a class of 2 to 4 parallel edges, and up to 3 loops or chords; on
    # one vertex, loops only or no edge at all
    names = [f"v{i}" for i in range(n)]
    ends = [(names[i], names[rng.randrange(i)]) for i in range(1, n)]
    if ends:
        ends += [rng.choice(ends)] * rng.randint(1, 3)
    ends += [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(ends)
    valence = dict.fromkeys(names, 0)
    for u, v in ends:
        valence[u] += 1
        valence[v] += 1
    # K = valence - 2 + 2 q must be at least 0
    vertices = [(name, max(rng.randint(0, 2), 1 - valence[name] // 2)) for name in names]
    edges = [
        (f"e{k}", u, v, Fraction(rng.randint(1, 40), rng.randint(1, 40)))
        for k, (u, v) in enumerate(ends)
    ]
    return PmGraph.build(vertices, edges)


def _stamp_cases():
    rng = random.Random("stamped-kernel")
    cases = [(fid, build(fid, random_lengths(family(fid).params, rng))) for fid in list_families()]
    cases += [(f"multi{n}-{k}", _multigraph(n, rng)) for n in range(1, 5) for k in range(6)]
    return cases


STAMPED = _stamp_cases()


def test_the_stamp_cases_cover_the_kernel():
    sizes = {len(g.vertices) for _, g in STAMPED}
    assert sizes == {1, 2, 3, 4}
    assert any(g.edges and all(e.is_loop for e in g.edges) for _, g in STAMPED)
    assert any(len(g.vertices) == 1 and not g.edges for _, g in STAMPED)
    assert all(len(g.edges) > len({frozenset(e.ends) for e in g.edges}) for name, g in STAMPED
               if name.startswith("multi") and len(g.vertices) > 1)


@pytest.mark.parametrize("name, g", STAMPED, ids=[name for name, _ in STAMPED])
def test_the_stamped_kernel_equals_both_references_at_every_ground(name, g):
    g = require_valid(g)
    n = len(g.vertices)
    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    edges = [(index[e.u], index[e.v], e.length) for e in g.edges if not e.is_loop]
    ratios = [e.length.as_integer_ratio() for e in g.edges]
    for ground in range(n):
        topology = solver._Topology.of(g, g.vertex_ids[ground])
        assert "stamp" not in vars(topology)  # built on the first solve
        t, green, x = solver._dense_green(topology, ratios)
        stamp = topology.stamp
        assert len(stamp.unknowns) == n - 1 and len(stamp.live) == len(edges)
        assert (t, green) == green_by_bareiss(n, ground, edges), ground
        unknowns = set(range(n)) - {ground}
        assert set(green) == set(x) == unknowns
        expected = green_by_dense_inverse(g, ground)
        for i, row in expected.items():
            assert set(green[i]) == unknowns
            for j, z in row.items():
                assert type(green[i][j]) is int and Fraction(green[i][j], t) == z, (ground, i, j)
        assert all(type(v) is int for v in x.values())
        assert {i: Fraction(v, t) for i, v in x.items()} == _x_by_dense_inverse(g, ground)
        # a second solve reads the same stamp and gives the same ints
        assert solver._dense_green(topology, ratios) == (t, green, x)
        assert topology.stamp is stamp
