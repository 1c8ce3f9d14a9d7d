from fractions import Fraction
from itertools import combinations

import pytest

from pmgraph import (
    PmGraph,
    PmGraphError,
    build,
    classify_edges,
    laplacian,
    list_families,
    family,
    random_lengths,
    resistance,
    resistance_matrix,
)

from conftest import (
    build_circle,
    build_k4,
    build_loop,
    build_loop_with_bridge,
    build_path,
    build_theta,
)
from oracles import bridges_by_removal, resistance_by_enumeration


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
        assert resistance(g, "A", "B") == 7

    def test_parallel_law(self):
        g = PmGraph.build(
            ["A", "B"],
            [("e1", "A", "B", 2), ("e2", "A", "B", 3)],
        )
        assert resistance(g, "A", "B") == Fraction(6, 5)

    def test_k4_unit(self, k4_unit):
        rm = resistance_matrix(k4_unit)
        for p, s in combinations(k4_unit.vertex_ids, 2):
            assert rm.get(p, s) == Fraction(1, 2)

    def test_symmetry_and_zero_diagonal(self, theta_unit):
        rm = resistance_matrix(theta_unit)
        assert rm.get("P", "P") == 0
        assert rm.get("P", "S") == rm.get("S", "P") == Fraction(1, 3)

    def test_grounding_independence(self, k4_unit):
        rms = [
            resistance_matrix(k4_unit, ground=v) for v in k4_unit.vertex_ids
        ]
        assert all(rm == rms[0] for rm in rms[1:])

    def test_unknown_ground_is_rejected(self, k4_unit):
        with pytest.raises(PmGraphError, match="'nope'"):
            resistance_matrix(k4_unit, ground="nope")

    def test_series_path(self):
        g = build_path((1, 2, 3))
        assert resistance(g, "p0", "p3") == 6

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
        assert resistance(g, "X", "Y") == Fraction(7, 4)

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
