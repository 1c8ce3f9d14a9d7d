from fractions import Fraction

import pytest

from pmgraph import (
    PmGraph,
    UnsupportedGenusError,
    delta,
    invariant_set,
    parse_graph,
    subdivide,
    tau,
    theta,
    zhang_invariants,
)

from conftest import (
    build_circle,
    build_k4,
    build_loop,
    build_loop_with_bridge,
    build_path,
    build_theta,
)


class TestTau:
    def test_tree(self):
        assert tau(build_path((1, 2, 3))) == Fraction(3, 2)

    def test_circle_one_loop(self):
        assert tau(build_loop(length=12, q=2)) == 1

    def test_circle_polygon_model(self):
        assert tau(build_circle((4, 5, 3))) == 1

    def test_theta_unit(self, theta_unit):
        assert tau(theta_unit) == Fraction(7, 36)

    def test_k4_unit(self, k4_unit):
        assert tau(k4_unit) == Fraction(5, 16)

    def test_base_independence(self, k4_unit):
        values = {tau(k4_unit, base=v) for v in k4_unit.vertex_ids}
        assert values == {Fraction(5, 16)}


class TestTheta:
    def test_weighted_segment(self):
        g = parse_graph("vertex p q=1\nvertex q q=2\nedge e1 p q 5\n")
        assert theta(g) == 30  # ordered pairs: 2 * (1 * 3 * 5)

    def test_circle_single_vertex(self):
        assert theta(build_loop(length=9, q=2)) == 0

    def test_k4_unit(self, k4_unit):
        assert theta(k4_unit) == 6  # 12 ordered pairs, K = 1, r = 1/2

    def test_nonnegative(self):
        assert theta(build_loop_with_bridge()) >= 0


class TestDelta:
    def test_bridge_and_loop(self):
        g = build_loop_with_bridge(bridge=2, loop=3)
        d = delta(g)
        assert d[0] == 3
        assert d[1] == 2

    def test_k4(self, k4_unit):
        d = delta(k4_unit)
        assert d[0] == 6
        assert d[1] == 0

    def test_tree_is_all_type_one(self):
        g = build_path((1, 2, 3), q_ends=1)
        # path with weight-1 ends has gbar 2: delta has indices 0..1
        d = delta(g)
        assert d[0] == 0
        assert d[1] == 6

    def test_partition_of_total_length(self):
        g = build_loop_with_bridge(bridge=Fraction(5, 2), loop=Fraction(7, 3))
        d = delta(g)
        assert sum(d.values()) == g.total_length


class TestZhang:
    def test_weighted_segment_row(self):
        g = parse_graph("vertex p q=1\nvertex q q=2\nedge e1 p q 1\n")
        values = zhang_invariants(g)
        assert values["phi"] == Fraction(4, 3)
        assert values["lambda"] == Fraction(2, 7)
        assert values["epsilon"] == Fraction(5, 3)

    def test_circle_row(self):
        values = zhang_invariants(build_loop(length=9, q=2))
        assert values["phi"] == 1
        assert values["epsilon"] == 2
        assert values["lambda"] == Fraction(27, 28)

    def test_k4(self, k4_unit):
        values = zhang_invariants(k4_unit)
        assert values["phi"] == Fraction(17, 48)
        assert values["epsilon"] == Fraction(11, 6)
        assert values["lambda"] == Fraction(75, 112)
        assert values["Z"] == Fraction(5, 9) * Fraction(5, 16) + Fraction(6, 72)

    def test_refuses_other_genus(self):
        with pytest.raises(UnsupportedGenusError):
            zhang_invariants(build_loop(length=1, q=1))  # gbar = 2


class TestInvariantSet:
    def test_k4_bundle(self, k4_unit):
        inv = invariant_set(k4_unit)
        assert inv.ell == 6
        assert (inv.g, inv.gbar) == (3, 3)
        assert inv.tau == Fraction(5, 16)
        assert inv.theta == 6
        assert inv.delta == {0: Fraction(6), 1: Fraction(0)}
        assert inv.phi == Fraction(17, 48)
        assert inv.z == Fraction(37, 144)

    def test_unhashable_by_design(self, k4_unit):
        # delta is a dict; equality is field by field, hash() refuses
        inv = invariant_set(k4_unit)
        assert inv == invariant_set(k4_unit)
        with pytest.raises(TypeError, match="unhashable type: 'InvariantSet'"):
            hash(inv)

    def test_gate(self):
        inv = invariant_set(build_loop(length=1, q=1))
        assert inv.phi is None
        data = inv.to_json_dict()
        assert "phi" not in data
        assert data["tau"] == "1/12"

    def test_point_graph(self):
        inv = invariant_set(PmGraph.build([("A", 3)], []))
        assert inv.ell == 0
        assert inv.tau == 0
        assert inv.theta == 0
        assert inv.phi == 0

    def test_json_schema(self, k4_unit):
        data = invariant_set(k4_unit).to_json_dict()
        assert data == {
            "ell": "6",
            "g": 3,
            "gbar": 3,
            "tau": "5/16",
            "theta": "6",
            "delta": {"0": "6", "1": "0"},
            "phi": "17/48",
            "lambda": "75/112",
            "epsilon": "11/6",
            "Z": "37/144",
        }

    def test_by_name_aliases(self, k4_unit):
        inv = invariant_set(k4_unit)
        assert inv.by_name("lambda") == Fraction(75, 112)
        assert inv.by_name("Z") == Fraction(37, 144)
        assert inv.by_name("tau") == Fraction(5, 16)

    def test_by_name_serves_exactly_the_rational_invariants(self, k4_unit):
        inv = invariant_set(k4_unit)
        fields = {"ell": inv.ell, "tau": inv.tau, "theta": inv.theta, "phi": inv.phi,
                  "lambda": inv.lam, "epsilon": inv.epsilon, "Z": inv.z}
        assert {name: inv.by_name(name) for name in fields} == fields
        for name in ("g", "gbar", "delta", "lam", "z", "nope"):
            with pytest.raises(KeyError) as caught:
                inv.by_name(name)
            assert caught.value.args == (name,)
        loop = invariant_set(build_loop())
        assert loop.by_name("tau") == loop.tau
        for name in ("phi", "lambda", "epsilon", "Z"):
            with pytest.raises(UnsupportedGenusError, match=f"^{name} is only defined"):
                loop.by_name(name)

    def test_cross_identities(self, k4_unit):
        inv = invariant_set(k4_unit)
        assert inv.lam == inv.phi / 21 + (inv.epsilon + inv.ell) / 12
        assert inv.phi == 9 * inv.z - (inv.epsilon + inv.ell) / 4

    def test_subdivision_invariance(self, k4_unit):
        cut = subdivide(
            subdivide(k4_unit, "a", Fraction(1, 3)), "f", Fraction(2, 7)
        )
        a, b = invariant_set(k4_unit), invariant_set(cut)
        assert (a.ell, a.tau, a.theta, a.delta) == (b.ell, b.tau, b.theta, b.delta)
        assert (a.phi, a.lam, a.epsilon, a.z) == (b.phi, b.lam, b.epsilon, b.z)
