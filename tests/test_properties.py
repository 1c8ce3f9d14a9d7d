"""Randomized structural properties of the invariant engine.

Each property here is a consequence of the definitions, not of any
particular catalog row, so these tests exercise the engine on inputs the
closed forms never see: random tree shapes, random circle sizes, subdivided
and rescaled catalog graphs, and one-point unions of unrelated pieces.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pmgraph import (
    PmGraph,
    build,
    family,
    invariant_set,
    list_families,
    normalize,
    tau,
    theta,
)

from conftest import build_circle, build_path
from surgery import one_point_union, scaled, subdivide

NON_DEGENERATE = [fid for fid in list_families() if not family(fid).degenerate]

lengths_st = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(12), max_denominator=12
)
family_st = st.sampled_from(NON_DEGENERATE)


@st.composite
def catalog_graphs(draw):
    fid = draw(family_st)
    spec = family(fid)
    lengths = {name: draw(lengths_st) for name in spec.params}
    return fid, lengths, build(fid, lengths)


@st.composite
def random_trees(draw):
    """A random tree shape with q = 1 everywhere, so every vertex is valid."""
    n = draw(st.integers(min_value=2, max_value=7))
    vertices = [(f"t{i}", 1) for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        edges.append((f"e{i}", f"t{parent}", f"t{i}", draw(lengths_st)))
    return PmGraph.build(vertices, edges)


@settings(max_examples=40, deadline=None)
@given(catalog_graphs(), st.data())
def test_tau_is_base_independent(drawn, data):
    _, _, g = drawn
    ids = sorted(g.vertex_ids)
    first = data.draw(st.sampled_from(ids))
    second = data.draw(st.sampled_from(ids))
    assert tau(g, base=first) == tau(g, base=second)


@settings(max_examples=40, deadline=None)
@given(catalog_graphs(), st.data())
def test_subdivision_leaves_invariants_fixed(drawn, data):
    _, _, g = drawn
    edge_id = data.draw(st.sampled_from(sorted(e.id for e in g.edges)))
    t = data.draw(
        st.fractions(
            min_value=Fraction(1, 10),
            max_value=Fraction(9, 10),
            max_denominator=10,
        )
    )
    assert invariant_set(subdivide(g, edge_id, t)) == invariant_set(g)


@settings(max_examples=40, deadline=None)
@given(catalog_graphs())
def test_normalize_leaves_invariants_fixed(drawn):
    _, _, g = drawn
    assert invariant_set(normalize(g)) == invariant_set(g)


@settings(max_examples=40, deadline=None)
@given(catalog_graphs(), lengths_st)
def test_every_invariant_scales_linearly(drawn, factor):
    _, _, g = drawn
    before = invariant_set(g)
    after = invariant_set(scaled(g, factor))
    assert after.ell == factor * before.ell
    assert after.tau == factor * before.tau
    assert after.theta == factor * before.theta
    assert after.phi == factor * before.phi
    assert after.lam == factor * before.lam
    assert after.epsilon == factor * before.epsilon
    assert after.z == factor * before.z
    assert after.delta == {k: factor * v for k, v in before.delta.items()}


@settings(max_examples=30, deadline=None)
@given(random_trees(), st.lists(lengths_st, min_size=3, max_size=7))
def test_tau_additive_over_one_point_union(tree, circle_lengths):
    circle = build_circle(lengths=tuple(circle_lengths))
    joined = one_point_union(tree, circle, "t0", "v0")
    assert tau(joined) == tau(tree) + tau(circle)


@settings(max_examples=40, deadline=None)
@given(catalog_graphs())
def test_theta_is_nonnegative(drawn):
    _, _, g = drawn
    assert theta(g) >= 0


@settings(max_examples=40, deadline=None)
@given(catalog_graphs())
def test_cross_identities(drawn):
    _, _, g = drawn
    inv = invariant_set(g)
    assert inv.lam == inv.phi / 21 + (inv.epsilon + inv.ell) / 12
    assert inv.phi == 9 * inv.z - (inv.epsilon + inv.ell) / 4


@settings(max_examples=30, deadline=None)
@given(random_trees())
def test_tree_tau_is_quarter_length(tree):
    assert tau(tree) == tree.total_length / 4


@settings(max_examples=30, deadline=None)
@given(st.lists(lengths_st, min_size=1, max_size=6))
def test_circle_tau_is_twelfth_of_length(circle_lengths):
    if len(circle_lengths) == 1:
        g = PmGraph.build(["X"], [("l", "X", "X", circle_lengths[0])])
    else:
        g = build_circle(lengths=tuple(circle_lengths))
    assert tau(g) == g.total_length / 12


@settings(max_examples=30, deadline=None)
@given(st.lists(lengths_st, min_size=1, max_size=5))
def test_path_tau_matches_tree_rule(path_lengths):
    g = build_path(lengths=tuple(path_lengths))
    assert tau(g) == g.total_length / 4
