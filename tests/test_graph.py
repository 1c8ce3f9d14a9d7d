import time
from decimal import Decimal
from fractions import Fraction

import pytest

from pmgraph import (
    Edge,
    InvalidGraphError,
    PmGraph,
    Vertex,
    canonical_divisor,
    classify_edges,
    connected_components,
    delta,
    genus,
    graph_to_text,
    invariant_set,
    normalize,
    parse_graph,
    require_valid,
    resistance_matrix,
    tau,
    theta,
    validate,
    zhang_invariants,
)
from pmgraph.graph import MAX_WEIGHT

from conftest import build_circle, build_k4, build_loop, build_path, build_theta
from surgery import one_point_union, scaled, subdivide


class TestConstruction:
    def test_build_coerces_lengths(self):
        g = PmGraph.build(["A", "B"], [("e", "A", "B", "1/3")])
        assert g.edge("e").length == Fraction(1, 3)

    def test_vertex_weights(self):
        g = PmGraph.build([("A", 2), "B"], [("e", "A", "B", 1)])
        assert g.q("A") == 2
        assert g.q("B") == 0

    def test_build_keeps_vertex_and_edge_instances(self):
        a, e = Vertex("A", 2), Edge("e", "A", "B", Fraction(1, 3))
        g = PmGraph.build([a, "B"], [e])
        assert g.vertices[0] is a and g.edges[0] is e
        assert g == PmGraph.build([("A", 2), "B"], [("e", "A", "B", "1/3")])

    def test_loop_valence_counts_twice(self):
        g = build_loop(length=5, q=2)
        assert g.valence("X") == 2

    def test_total_length(self):
        g = build_path((1, 2, 3))
        assert g.total_length == 6

    def test_immutable(self):
        g = build_loop()
        with pytest.raises(Exception):
            g.vertices = ()


class TestValidate:
    def test_leaf_with_zero_weight_fails(self):
        g = PmGraph.build(["A", ("B", 1)], [("e", "A", "B", 1)])
        report = validate(g)
        assert not report.passed
        assert any("canonical divisor" in p for p in report.problems)

    def test_isolated_weight3_vertex_passes(self):
        g = PmGraph.build([("A", 3)], [])
        assert validate(g).passed

    def test_disconnected_fails(self):
        g = PmGraph.build(
            [("A", 2), ("B", 2)],
            [("l1", "A", "A", 1), ("l2", "B", "B", 1)],
        )
        report = validate(g)
        assert not report.passed
        assert any("connected" in p for p in report.problems)

    def test_nonpositive_length_fails(self):
        g = PmGraph(
            (PmGraph.build([("A", 3)], []).vertices),
            (),
        )
        assert validate(g).passed
        bad = PmGraph.build([("A", 2)], [("l", "A", "A", 1)])
        hacked = PmGraph(
            bad.vertices,
            tuple(type(e)(e.id, e.u, e.v, Fraction(0)) for e in bad.edges),
        )
        assert not validate(hacked).passed

    def test_require_valid_raises(self):
        g = PmGraph.build(["A", ("B", 1)], [("e", "A", "B", 1)])
        with pytest.raises(InvalidGraphError):
            require_valid(g)

    def test_empty_vertex_set_fails(self):
        assert not validate(PmGraph((), ())).passed

    def test_weight_is_capped(self):
        assert MAX_WEIGHT == 1000
        assert validate(PmGraph.build([("A", MAX_WEIGHT)], [])).passed
        for q in (MAX_WEIGHT + 1, 10**12):
            report = validate(PmGraph((Vertex("A", q),), ()))
            assert report.problems == (f"vertex 'A' has weight q={q} above 1000",)

    @pytest.mark.parametrize(
        "entry",
        [invariant_set, tau, theta, delta, zhang_invariants, classify_edges, resistance_matrix],
        ids=lambda f: f.__name__,
    )
    def test_every_engine_entry_refuses_a_weight_above_the_cap(self, entry):
        built = PmGraph.build([("X", MAX_WEIGHT + 1)], [("a", "X", "X", 1)])
        direct = PmGraph((Vertex("X", 10**12),), (Edge("a", "X", "X", Fraction(1)),))
        parsed = parse_graph(graph_to_text(built))
        for g in (built, direct, parsed):
            with pytest.raises(InvalidGraphError, match="above 1000"):
                entry(g)

    @staticmethod
    def _theta(q, length):
        # two vertices joined by three edges, with P's weight and a's length given
        edges = [Edge("a", "P", "S", length)]
        edges += [Edge(eid, "P", "S", Fraction(1)) for eid in "bc"]
        return PmGraph((Vertex("P", q), Vertex("S", 1)), tuple(edges))

    @pytest.mark.parametrize(
        "q", [1.5, 1.0, Fraction(3, 2), "1", None, True], ids=repr
    )
    def test_a_weight_that_is_not_an_int_is_a_problem(self, q):
        g = self._theta(q, Fraction(1))
        assert validate(g).problems == (f"vertex 'P' has weight q={q!r}, not an int",)
        with pytest.raises(InvalidGraphError):
            invariant_set(g)

    @pytest.mark.parametrize("length", [0.5, "1", None, True, Decimal("1")], ids=repr)
    def test_a_length_that_is_not_an_int_or_fraction_is_a_problem(self, length):
        g = self._theta(1, length)
        assert validate(g).problems == (
            f"edge 'a' has length {length!r}, not an int or Fraction",
        )
        with pytest.raises(InvalidGraphError):
            invariant_set(g)

    # two defects of different kinds on different edges or vertices: the
    # one-pass check that a graph is clean stops at the first, and the report
    # must still list both, in order
    @pytest.mark.parametrize(
        "weights, edges, problems",
        [
            (
                [("P", 1), ("S", 1)],
                [("e0", "P", "S", 1), ("e1", "P", "S", 0), ("e2", "P", "S", 1), ("e0", "P", "S", 1)],
                ["edge 'e1' has nonpositive length 0", "duplicate edge id 'e0'"],
            ),
            (
                [("P", 1), ("S", 1)],
                [("e0", "P", "X", 1), ("e1", "P", "S", 1), ("e2", "P", "S", Fraction(-1, 2))],
                [
                    "edge 'e0' references unknown vertex 'X'",
                    "edge 'e2' has nonpositive length -1/2",
                ],
            ),
            (
                [("P", 1), ("S", MAX_WEIGHT + 1)],
                [("e0", "P", "S", 1), ("e1", "P", "S", 1), ("e2", "P", "S", 1.5)],
                [
                    "edge 'e2' has length 1.5, not an int or Fraction",
                    "vertex 'S' has weight q=1001 above 1000",
                ],
            ),
            (
                [("P", 1), ("S", 1), ("P", 0)],
                [("e0", "P", "S", 1), ("e1", "P", "S", 1), ("e2", "S", "S", 0)],
                ["duplicate vertex id 'P'", "edge 'e2' has nonpositive length 0"],
            ),
            (
                [("P", 1), ("S", 1), ("L", 0)],
                [("e0", "P", "S", 1), ("e1", "P", "S", 0), ("e2", "P", "S", 1), ("e3", "S", "L", 1)],
                [
                    "edge 'e1' has nonpositive length 0",
                    "canonical divisor is negative at vertex 'L': valence 1 - 2 + 2*q(0) = -1",
                ],
            ),
            (
                [("P", 1), ("S", 1), ("L", 0)],
                [("e0", "P", "S", 1), ("e1", "P", "S", 1), ("e2", "P", "S", 1)],
                [
                    "graph is not connected: components {P, S}, {L}",
                    "canonical divisor is negative at vertex 'L': valence 0 - 2 + 2*q(0) = -2",
                ],
            ),
        ],
    )
    def test_two_defects_are_both_reported_in_order(self, weights, edges, problems):
        g = PmGraph(
            tuple(Vertex(vid, q) for vid, q in weights),
            tuple(Edge(eid, u, v, Fraction(x) if type(x) is int else x) for eid, u, v, x in edges),
        )
        assert list(validate(g).problems) == problems

    def test_int_and_fraction_lengths_agree(self):
        assert validate(self._theta(1, 2)).passed
        assert invariant_set(self._theta(1, 2)) == invariant_set(self._theta(1, Fraction(2)))


class TestGenus:
    def test_k4(self, k4_unit):
        data = genus(k4_unit)
        assert (data.g, data.gbar) == (3, 3)

    def test_weighted_path(self):
        g = PmGraph.build(
            [("A", 1), ("B", 1), ("C", 1)],
            [("e1", "A", "B", 1), ("e2", "B", "C", 1)],
        )
        data = genus(g)
        assert (data.g, data.gbar) == (0, 3)

    def test_loop_at_weighted_vertex(self):
        data = genus(build_loop(q=2))
        assert (data.g, data.gbar) == (1, 3)


class TestCanonicalDivisor:
    def test_isolated_vertex(self):
        g = PmGraph.build([("A", 3)], [])
        assert canonical_divisor(g) == {"A": 4}

    def test_degree_three_unweighted(self, theta_unit):
        K = canonical_divisor(theta_unit)
        assert K["S"] == 1  # valence 3, q = 0
        assert K["P"] == 3  # valence 3, q = 1

    def test_weighted_leaf(self):
        g = PmGraph.build(
            [("A", 2), ("B", 2)],
            [("e", "A", "B", 1)],
        )
        assert canonical_divisor(g)["A"] == 3


class TestNormalize:
    def test_removes_flat_vertex(self):
        square = build_circle((1, 2, 3, 4))
        slim = normalize(square)
        # one vertex survives per weight/valence rule: all are q=0 valence 2,
        # but the last survivor cannot be removed (vertex set must stay nonempty)
        assert len(slim.vertices) == 1
        assert slim.total_length == 10
        assert slim.edges[0].is_loop

    def test_weighted_vertex_not_removed(self):
        g = build_loop(q=2)
        assert normalize(g) is g or normalize(g) == g

    def test_triangle_with_split_edge(self):
        g = PmGraph.build(
            [("A", 1), ("B", 1), ("C", 1), "M"],
            [
                ("ab", "A", "B", 2),
                ("bc", "B", "C", 3),
                ("cm", "C", "M", 1),
                ("ma", "M", "A", 1),
            ],
        )
        slim = normalize(g)
        assert len(slim.vertices) == 3
        assert slim.total_length == 7
        lengths = sorted(e.length for e in slim.edges)
        assert lengths == [2, 2, 3]

    def test_idempotent(self):
        g = build_circle((1, 1, 1), q_first=2)
        once = normalize(g)
        twice = normalize(once)
        assert once == twice


class TestSubdivide:
    def test_loop_becomes_parallel_pair(self):
        g = build_loop(length=4, q=2)
        cut = subdivide(g, "l", Fraction(1, 2))
        assert len(cut.vertices) == 2
        assert sorted(e.length for e in cut.edges) == [2, 2]
        assert not any(e.is_loop for e in cut.edges)

    def test_lengths_split_exactly(self):
        g = build_path((5,))
        cut = subdivide(g, "e0", Fraction(2, 5))
        assert sorted(e.length for e in cut.edges) == [2, 3]

    def test_fraction_bounds(self):
        g = build_loop()
        with pytest.raises(ValueError):
            subdivide(g, "l", 0)
        with pytest.raises(ValueError):
            subdivide(g, "l", 1)

    def test_normalize_undoes_subdivide(self):
        g = build_theta()
        cut = subdivide(g, "b", Fraction(1, 3))
        slim = normalize(cut)
        assert len(slim.vertices) == 2
        assert sorted(e.length for e in slim.edges) == sorted(
            e.length for e in g.edges
        )

    def test_genus_invariant(self, k4_unit):
        cut = subdivide(k4_unit, "a", Fraction(1, 2))
        assert genus(cut) == genus(k4_unit)


class TestScaledAndUnion:
    def test_scaled(self):
        g = build_path((1, 2, 3))
        doubled = scaled(g, 2)
        assert doubled.total_length == 12
        with pytest.raises(ValueError):
            scaled(g, 0)

    def test_one_point_union_weights_add(self):
        g1 = build_loop(length=3, q=1)
        g2 = build_loop(length=5, q=1)
        union = one_point_union(g1, g2, "X", "X")
        assert len(union.vertices) == 1
        assert union.q("X") == 2
        assert union.total_length == 8
        data = genus(union)
        assert (data.g, data.gbar) == (2, 4)

    def test_one_point_union_renames_collisions(self):
        g = build_theta()
        union = one_point_union(g, g, "P", "P")
        assert len(union.vertices) == 3
        assert len(union.edges) == 6
        assert len({e.id for e in union.edges}) == 6


class TestComponents:
    def test_components_in_first_vertex_order(self, k4_unit):
        assert len(connected_components(k4_unit)) == 1
        g = PmGraph.build(["1", "2", "3", "4"], [("a", "2", "4", 1), ("l", "3", "3", 1)])
        assert connected_components(g) == [{"1"}, {"2", "4"}, {"3"}]


class TestNormalizeWalk:
    def test_pure_cycle_keeps_its_last_vertex_as_a_loop(self):
        g = build_circle((1, 2, 3, 4))
        slim = normalize(g)
        assert slim.vertices == (g.vertices[-1],)
        (loop,) = slim.edges
        assert loop.u == loop.v == g.vertices[-1].id
        assert loop.length == 10

    def test_parallel_pair_through_removable_vertex_becomes_a_loop(self):
        g = PmGraph.build(
            [("P", 1), "M"], [("x", "P", "M", 2), ("y", "M", "P", 3)]
        )
        slim = normalize(g)
        assert slim.vertex_ids == ("P",)
        (loop,) = slim.edges
        assert (loop.u, loop.v, loop.length) == ("P", "P", 5)
        assert canonical_divisor(slim) == {"P": canonical_divisor(g)["P"]}

    def test_weighted_valence_two_vertex_stays(self):
        triangle = build_circle((1, 2, 3), q_first=1)
        slim = normalize(triangle)
        assert slim.vertex_ids == (triangle.vertices[0].id,)
        all_weighted = PmGraph.build(
            [("A", 1), ("B", 1), ("C", 1)],
            [("ab", "A", "B", 1), ("bc", "B", "C", 2), ("ca", "C", "A", 3)],
        )
        assert normalize(all_weighted) is all_weighted

    def test_loop_vertex_stays(self):
        g = build_loop(q=0)
        assert normalize(g) is g

    def test_nothing_removable_returns_the_graph_itself(self, k4_unit):
        assert normalize(k4_unit) is k4_unit

    def test_chain_becomes_one_edge_of_the_exact_sum(self):
        g = PmGraph.build(
            [("A", 1), "M1", "M2", ("B", 1), "M3"],
            [
                ("p", "A", "M1", Fraction(1, 3)),
                ("q", "M2", "M1", Fraction(1, 5)),
                ("r", "M2", "B", Fraction(1, 7)),
                ("s", "B", "M3", 1),
                ("t", "M3", "A", 2),
            ],
        )
        slim = normalize(g)
        assert slim.vertex_ids == ("A", "B")
        assert slim.edges == (
            Edge("p+q+r", "A", "B", Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7)),
            Edge("s+t", "B", "A", 3),
        )
        assert normalize(slim) is slim

    def test_merged_ids_stay_unique(self):
        g = PmGraph.build(
            [("A", 1), "M", ("B", 1)],
            [("a", "A", "M", 1), ("b", "M", "B", 1), ("a+b", "A", "B", 1)],
        )
        slim = normalize(g)
        ids = [e.id for e in slim.edges]
        assert len(set(ids)) == len(ids) == 2

    def test_long_cycle_normalizes_in_linear_time(self):
        n = 2000
        names = [f"v{i}" for i in range(n)]
        g = PmGraph(
            (Vertex(names[0], 1),) + tuple(Vertex(name, 0) for name in names[1:]),
            tuple(
                Edge(f"e{i}", names[i], names[(i + 1) % n], Fraction(1, 1 + i % 7))
                for i in range(n)
            ),
        )
        start = time.perf_counter()
        slim = normalize(g)
        elapsed = time.perf_counter() - start
        assert slim.vertex_ids == ("v0",)
        assert slim.total_length == g.total_length
        # the walk takes milliseconds here; one rebuild per removed vertex
        # would take minutes
        assert elapsed < 2.0
