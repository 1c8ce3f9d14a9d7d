import random
from fractions import Fraction
from itertools import combinations

import pytest

from pmgraph import (
    Edge,
    InvalidGraphError,
    PmGraph,
    PmGraphError,
    build,
    canonical_divisor,
    classify_edges,
    delta,
    genus,
    laplacian,
    list_families,
    family,
    random_lengths,
    effective_resistance,
    resistance_matrix,
    tau,
)
from pmgraph.resistance import _Topology

from conftest import (
    build_circle,
    build_k4,
    build_loop,
    build_loop_with_bridge,
    build_path,
    build_theta,
    dense_graph,
    random_pm_graph,
    random_subdivided,
)
from oracles import (
    bridge_sides_by_removal,
    bridges_by_removal,
    resistance_by_dense_inverse,
    resistance_by_enumeration,
)

NON_DEGENERATE = [fid for fid in list_families() if not family(fid).degenerate]


def _solve_at(g: PmGraph, ground: str):
    # resistance_matrix's solve of a valid g, every pair, grounded at ground
    return _Topology.of(g, ground).solve([e.length for e in g.edges], every=True)


def _subdivided_samples(seed, count):
    rng = random.Random(seed)
    return [
        random_subdivided(NON_DEGENERATE[k % len(NON_DEGENERATE)], rng.randint(8, 24), rng)
        for k in range(count)
    ]


class TestLaplacian:
    def test_single_edge(self):
        g = PmGraph.build([("A", 1), ("B", 1)], [("e", "A", "B", 2)])
        order, matrix = laplacian(g)
        assert order == ("A", "B")
        half = Fraction(1, 2)
        assert matrix == [[half, -half], [-half, half]]

    def test_parallel_conductances_add(self):
        g = PmGraph.build(
            ["A", "B"],
            [("e1", "A", "B", 2), ("e2", "A", "B", 3)],
        )
        _, matrix = laplacian(g)
        assert matrix[0][1] == Fraction(-5, 6)

    def test_loop_contributes_zero(self):
        g = build_loop(q=2)
        _, matrix = laplacian(g)
        assert matrix == [[0]]


class TestResistance:
    def test_single_edge(self):
        g = PmGraph.build([("A", 1), ("B", 1)], [("e", "A", "B", 7)])
        assert effective_resistance(g, "A", "B") == 7

    def test_parallel_law(self):
        g = PmGraph.build(
            ["A", "B"],
            [("e1", "A", "B", 2), ("e2", "A", "B", 3)],
        )
        assert effective_resistance(g, "A", "B") == Fraction(6, 5)

    def test_k4_unit(self, k4_unit):
        rm = resistance_matrix(k4_unit)
        for p, s in combinations(k4_unit.vertex_ids, 2):
            assert rm.get(p, s) == Fraction(1, 2)

    def test_symmetry_and_zero_diagonal(self, theta_unit):
        rm = resistance_matrix(theta_unit)
        assert rm.get("P", "P") == 0
        assert rm.get("P", "S") == rm.get("S", "P") == Fraction(1, 3)

    def test_grounding_independence(self, k4_unit):
        rms = [_solve_at(k4_unit, v) for v in k4_unit.vertex_ids]
        assert all(rm == rms[0] for rm in rms[1:])

    @pytest.mark.parametrize(
        "g",
        [build_k4({"a": Fraction(2, 3)}), dense_graph(9, random.Random(9))],
        ids=["k4", "dense9"],
    )
    def test_solves_at_two_grounds_are_equal_hash_and_print_alike(self, g):
        first, last = (_solve_at(g, v) for v in (g.vertex_ids[0], g.vertex_ids[-1]))
        assert first == last and hash(first) == hash(last)
        assert repr(first) == repr(last)
        assert repr(first) == f"ResistanceMatrix(order={g.vertex_ids!r}, values={first.values!r})"

    def test_a_matrix_never_equals_another_type(self, k4_unit):
        rm = resistance_matrix(k4_unit)
        assert rm.__eq__(0) is NotImplemented
        assert (rm == 0) is False

    def test_unknown_ground_is_rejected(self, k4_unit):
        with pytest.raises(PmGraphError, match="'nope'"):
            _solve_at(k4_unit, "nope")

    def test_series_path(self):
        g = build_path((1, 2, 3))
        assert effective_resistance(g, "p0", "p3") == 6

    def test_shortest_path_upper_bound(self, k4_unit):
        rm = resistance_matrix(k4_unit)
        for p, s in combinations(k4_unit.vertex_ids, 2):
            assert rm.get(p, s) <= 1

    def test_matches_enumeration_oracle(self):
        cases = [
            build_k4({"a": Fraction(1, 2), "d": Fraction(5, 3)}),
            build_theta(a=Fraction(2, 7), b=3, c=Fraction(1, 2)),
            build_circle((4, 5, 3)),
            build_loop_with_bridge(),
            build_path((1, 2, 3)),
        ]
        for g in cases:
            rm = resistance_matrix(g)
            for p, s in combinations(g.vertex_ids, 2):
                assert rm.get(p, s) == resistance_by_enumeration(g, p, s)


class TestSparseSolve:
    @pytest.mark.parametrize("n", range(1, 25))
    def test_every_ground_matches_dense_inverse(self, n):
        g = random_pm_graph(n, random.Random(f"solve:{n}"))
        assert len(g.vertices) == n
        expected = resistance_by_dense_inverse(g)
        for v in g.vertex_ids:
            rm = _solve_at(g, v)
            # single lookups first, last vertex first, then the full matrix
            assert all(
                rm.get(p, s) == expected[i][j]
                for i, p in reversed(list(enumerate(g.vertex_ids)))
                for j, s in enumerate(g.vertex_ids)
            ), v
            assert rm.values == expected, v

    @pytest.mark.parametrize("n", (5, 9, 14))
    def test_effective_resistance_solves_one_column_alike(self, n):
        g = random_pm_graph(n, random.Random(f"solve:{n}"))
        expected = resistance_by_dense_inverse(g)
        assert all(
            effective_resistance(g, p, s) == expected[i][j]
            for i, p in enumerate(g.vertex_ids)
            for j, s in enumerate(g.vertex_ids)
        )

    def test_random_graphs_have_every_feature(self):
        graphs = [random_pm_graph(n, random.Random(f"solve:{n}")) for n in range(2, 25)]
        for g in graphs:
            assert any(e.is_loop for e in g.edges)
            assert any(g.valence(v) == 1 for v in g.vertex_ids) or len(g.vertices) == 2
            assert len({frozenset(e.ends) for e in g.edges}) < len(g.edges)
        assert any(v.q > 0 and g.valence(v.id) > 1 for g in graphs for v in g.vertices)

    def test_foster_theorem(self):
        rng = random.Random(31)
        graphs = [
            build(fid, random_lengths(family(fid).params, rng))
            for fid in NON_DEGENERATE
            for _ in range(5)
        ] + _subdivided_samples(32, 40)
        for g in graphs:
            rm = resistance_matrix(g)
            foster = sum(
                (rm.get(e.u, e.v) / e.length for e in g.edges if not e.is_loop),
                Fraction(0),
            )
            assert foster == len(g.vertices) - 1


class TestClassification:
    def test_k4_has_no_bridges(self, k4_unit):
        classes = classify_edges(k4_unit)
        assert all(not c.is_bridge for c in classes.values())
        assert all(c.type_index == 0 for c in classes.values())

    def test_loop_is_type_zero(self):
        classes = classify_edges(build_loop(q=2))
        assert not classes["l"].is_bridge
        assert classes["l"].type_index == 0

    def test_bridge_sides_and_type(self):
        g = build_loop_with_bridge(bridge=2, loop=3)
        classes = classify_edges(g)
        assert classes["a"].is_bridge
        assert classes["a"].type_index == 1
        assert sorted(classes["a"].side_genera) == [1, 2]
        assert not classes["b"].is_bridge

    def test_bridge_resistance_equals_length(self):
        g = build_loop_with_bridge(bridge=Fraction(7, 4), loop=1)
        assert effective_resistance(g, "X", "Y") == Fraction(7, 4)

    def test_matches_removal_oracle_on_catalog(self):
        import random

        rng = random.Random(20240501)
        for fid in list_families():
            spec = family(fid)
            if spec.degenerate:
                continue
            g = build(fid, random_lengths(spec.params, rng))
            classes = classify_edges(g)
            found = {eid for eid, c in classes.items() if c.is_bridge}
            assert found == bridges_by_removal(g), fid

    @pytest.mark.parametrize("fid", list_families())
    def test_types_match_removal_oracle_on_every_family(self, fid):
        rng = random.Random(f"classes:{fid}")
        for _ in range(3):
            g = build(fid, random_lengths(family(fid).params, rng))
            self._assert_matches_removal(g)

    def test_types_match_removal_oracle_on_subdivided_graphs(self):
        for g in _subdivided_samples(33, 60):
            self._assert_matches_removal(g)

    def test_types_above_one_match_removal_oracle(self):
        # the pendant trees of weighted vertices in random_pm_graph give
        # bridges of types up to 9, which the genus-3 graphs above (type 1
        # only) never reach
        types = set()
        for producer in (random_pm_graph, dense_graph):
            for n in (2, 3, 4, 5, 6, 9, 13, 18, 24, 30):
                for k in range(3):
                    g = producer(n, random.Random(f"types:{n}:{k}"))
                    types |= self._assert_matches_removal(g)
        assert max(types) >= 5, types

    @staticmethod
    def _assert_matches_removal(g):
        # the bridge types of g, after checking its classes and delta against
        # bridge removal
        sides = bridge_sides_by_removal(g)
        classes = classify_edges(g)
        assert set(classes) == {e.id for e in g.edges}
        expected = dict.fromkeys(range(genus(g).gbar // 2 + 1), Fraction(0))
        for eid, c in classes.items():
            if eid in sides:
                assert c.is_bridge and c.side_genera == sides[eid], eid
                assert c.type_index == min(sides[eid]), eid
            else:
                assert not c.is_bridge and c.type_index == 0, eid
                assert c.side_genera is None, eid
            expected[min(sides[eid]) if eid in sides else 0] += g.edge(eid).length
        assert delta(g) == expected
        return {min(pair) for pair in sides.values()}


def _flipped(g: PmGraph, rng: random.Random) -> PmGraph:
    # g with a random half of its edges running the other way
    edges = [Edge(e.id, e.v, e.u, e.length) if rng.random() < 0.5 else e for e in g.edges]
    return PmGraph(g.vertices, tuple(edges))


class TestReducedModel:
    """``classify_edges`` and ``effective_resistance`` solve the reduced
    model and map the answer back onto the given graph's edges and vertices;
    the references solve or cut the graph as given."""

    def test_a_chain_that_closes_into_a_loop(self):
        g = PmGraph.build(
            [("A", 1), "r1", "r2", "s1", ("B", 1)],
            [
                ("a1", "A", "r1", 2), ("a2", "r2", "r1", Fraction(1, 3)), ("a3", "r2", "A", 5),
                ("b1", "A", "s1", Fraction(3, 2)), ("b2", "B", "s1", 4),
            ],
        )
        TestClassification._assert_matches_removal(g)
        classes = classify_edges(g)
        assert [classes[eid].side_genera for eid in ("b1", "b2")] == [(2, 1), (1, 2)]
        assert all(not classes[eid].is_bridge for eid in ("a1", "a2", "a3"))
        self._assert_resistances(g)

    def test_a_cycle_of_removable_vertices(self):
        g = build_circle((4, Fraction(5, 2), 3, Fraction(1, 7)))
        classes = classify_edges(g)
        assert all(not c.is_bridge for c in classes.values())
        self._assert_resistances(g)

    def test_bridges_of_chains_running_both_ways(self):
        rng = random.Random("both-ways")
        graphs = [_flipped(g, rng) for g in _subdivided_samples(34, 30)]
        graphs += [_flipped(dense_graph(n, random.Random(f"both-ways:{n}")), rng) for n in (8, 16)]
        for g in graphs:
            TestClassification._assert_matches_removal(g)

    def test_resistances_with_removable_and_adjacent_vertices(self):
        for g in _subdivided_samples(35, 8):
            self._assert_resistances(g)

    @staticmethod
    def _assert_resistances(g: PmGraph) -> None:
        # every pair holding a removable vertex, every adjacent pair and p == s
        expected = resistance_by_dense_inverse(g)
        ids = g.vertex_ids
        index = {vid: i for i, vid in enumerate(ids)}
        removable = {vid for vid in ids if g.q(vid) == 0 and g.valence(vid) == 2}
        pairs = [(p, s) for p in ids for s in ids if p in removable or s in removable]
        pairs += [e.ends for e in g.edges] + [(e.v, e.u) for e in g.edges]
        assert pairs and any(e.u in removable and e.v in removable for e in g.edges)
        for p, s in pairs:
            assert effective_resistance(g, p, s) == expected[index[p]][index[s]], (p, s)

    @pytest.mark.parametrize("size", [4, 30])
    def test_an_unknown_vertex_is_named(self, size):
        g = random_subdivided("g3.XIV", size, random.Random("unknown"))
        known = g.vertex_ids[-1]
        for p, s in ((known, "nope"), ("nope", known), ("nope", "nope")):
            with pytest.raises(PmGraphError, match="'nope'"):
                effective_resistance(g, p, s)
        assert all(effective_resistance(g, vid, vid) == 0 for vid in g.vertex_ids)

    @pytest.mark.parametrize("size", [4, 30])
    def test_every_unknown_vertex_gets_one_message(self, size):
        # 4 vertices: nothing to smooth; 30: the smoothed reduced model
        g = random_subdivided("g3.XIV", size, random.Random("unknown"))
        known = g.vertex_ids[-1]
        calls = [
            lambda: tau(g, base="nope"),
            lambda: effective_resistance(g, known, "nope"),
            lambda: effective_resistance(g, "nope", known),
        ]
        for call in calls:
            with pytest.raises(PmGraphError) as err:
                call()
            assert str(err.value) == "'nope' is not a vertex of the graph"

    def test_an_invalid_graph_is_reported_before_an_unknown_vertex(self):
        g = PmGraph.build(["a", "b"], [("e", "a", "b", 1)])
        with pytest.raises(InvalidGraphError):
            tau(g, base="nope")
        with pytest.raises(InvalidGraphError):
            effective_resistance(g, "a", "nope")


class TestTopology:
    """The topology of a solve carries the canonical divisor and the genus
    of the graph it was taken from."""

    @staticmethod
    def _check(g):
        topology = _Topology.of(g)
        assert topology.genus == genus(g)
        index = topology.index
        assert topology.divisor == {index[p]: c for p, c in canonical_divisor(g).items() if c}

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 30])
    def test_random_graphs(self, n):
        self._check(random_pm_graph(n, random.Random(f"topology:{n}")))

    @pytest.mark.parametrize("fid", list_families())
    def test_families(self, fid):
        self._check(build(fid, {name: 1 for name in family(fid).params}))


def test_submodule_import_binds_the_module():
    # the package exports effective_resistance, so the attribute
    # pmgraph.resistance stays the submodule
    import types

    import pmgraph.resistance as R

    assert isinstance(R, types.ModuleType)
    circle = build_circle()
    assert R.effective_resistance(circle, "v0", "v1") == Fraction(4 * 8, 12)
