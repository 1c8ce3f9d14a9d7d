"""Each fact is computed once: one validation and one solve per graph, and
one seeded sampling pass per family for the bound suite.  Certificates are
the opposite case: every run expands every identity again.

The counters wrap module globals (``validate``, ``_green``, which runs
either producer of the solve), which callers look up at call time, so every
call inside the package is seen.
"""

import dataclasses
import functools
import importlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from pmgraph import (
    SampleReport,
    bound_table,
    build,
    check_family,
    classify_edges,
    cross_check,
    delta,
    effective_resistance,
    engine_ratios,
    family,
    invariant_set,
    list_families,
    matching_families,
    normalize,
    random_lengths,
    sample_check,
    tau,
    theta,
    verify_all,
    verify_bounds,
    witness_check,
    zhang_invariants,
)
from pmgraph.catalog import FAMILIES


@pytest.fixture
def counts(monkeypatch):
    tally = Counter()
    for module_name, name in (
        ("pmgraph.graph", "validate"),
        ("pmgraph.resistance", "_green"),
    ):
        module = importlib.import_module(module_name)
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            tally[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return tally


@pytest.mark.parametrize(
    "entry",
    [invariant_set, zhang_invariants, tau, theta, delta, classify_edges],
    ids=lambda f: f.__name__,
)
def test_engine_entry_validates_and_solves_once(entry, counts, k4_unit):
    entry(k4_unit)
    assert counts == {"validate": 1, "_green": 1}


def test_effective_resistance_validates_and_solves_once(counts, k4_unit):
    effective_resistance(k4_unit, "2", "4")
    assert counts == {"validate": 1, "_green": 1}


def test_engine_ratios_validates_and_solves_once(counts):
    engine_ratios("g3.XIV", {name: Fraction(1) for name in "abcdef"})
    assert counts == {"validate": 1, "_green": 1}


@pytest.fixture
def unvalidated(monkeypatch):
    # every family's topology as before its first use: validated on demand
    for fid in list_families():
        monkeypatch.setitem(FAMILIES, fid, dataclasses.replace(FAMILIES[fid]))


def test_verify_bounds_draws_each_sample_once(unvalidated, counts):
    results = verify_bounds(family="g3.XIV", samples=4, seed=0)
    assert len(results) == 4
    total = Counter(counts)
    counts.clear()
    for report, _ in results:
        if report.spec.witness is not None:
            witness_check(report.spec)
    # 4 samples shared by the 4 rows and solved on g3.XIV's topology, which
    # is validated once, plus the 2 distinct witnesses (g3.XIV and g3.I at
    # ones), each built, validated and solved once for all the rows that
    # name it; witness_check alone still does that for each row's witness
    assert total == {"validate": 1 + 2, "_green": 4 + 2}
    assert counts == {"validate": 4, "_green": 4}


@pytest.mark.parametrize("fid", list_families())
def test_check_family_validates_once_and_solves_each_sample(fid, unvalidated, counts):
    assert check_family(fid, 5, 11) == (5, None)
    assert counts == {"validate": 1, "_green": 5}
    check_family(fid, 5, 12)
    assert counts == {"validate": 1, "_green": 10}


@pytest.mark.parametrize("fid", ["g1.IX", "g2.VIII", "g3.XIV"])
def test_check_family_scales_each_sample_to_integers_once(fid, monkeypatch):
    # the closed row and the comparison with the engine share one _integers
    catalog = importlib.import_module("pmgraph.catalog")
    original = catalog._integers
    calls = []

    def counted(p):
        calls.append(dict(p))
        return original(p)

    monkeypatch.setattr(catalog, "_integers", counted)
    assert check_family(fid, 5, 11) == (5, None)
    assert calls == _draws(fid, 5, 11)


@pytest.mark.parametrize("entry", [cross_check, engine_ratios], ids=lambda f: f.__name__)
def test_public_catalog_entries_validate_on_every_call(entry, unvalidated, counts):
    # their lengths come from users, so the validated topology is not used
    for _ in range(2):
        entry("g3.XIV", {name: Fraction(1) for name in "abcdef"})
    assert counts == {"validate": 2, "_green": 2}


@pytest.mark.parametrize("entry", [build, cross_check], ids=lambda f: f.__name__)
def test_catalog_entry_checks_lengths_once(entry, monkeypatch):
    catalog = importlib.import_module("pmgraph.catalog")
    calls = []
    original = catalog._coerce_lengths

    def counted(spec, lengths):
        calls.append(spec.id)
        return original(spec, lengths)

    monkeypatch.setattr(catalog, "_coerce_lengths", counted)
    entry("g3.XIV", {name: 1 for name in "abcdef"})
    assert calls == ["g3.XIV"]


def _draws(fid, samples, seed):
    rng = random.Random(f"{fid}:{seed}")
    return [random_lengths(family(fid).params, rng) for _ in range(samples)]


def _one_pass_per_row(spec, samples, seed):
    # the per-row reference: every row draws its families' streams itself
    families = matching_families(spec)
    points = [
        (fid, tuple(sorted(lengths.items())), engine_ratios(fid, lengths)[spec.invariant])
        for fid in families
        for lengths in _draws(fid, samples, seed)
    ]
    min_family, min_lengths, min_ratio = min(points, key=lambda p: p[2])
    bad = [
        p for p in points
        if (p[2] != spec.floor if spec.exact else p[2] < spec.floor)
    ]
    return SampleReport(
        spec, tuple(families), samples, seed,
        min_ratio, min_family, min_lengths, bad[0] if bad else None,
    )


def test_shared_pass_equals_one_pass_per_row():
    results = verify_bounds(samples=6, seed=17)
    assert [report.spec for report, _ in results] == bound_table()
    for report, _ in results:
        assert report == _one_pass_per_row(report.spec, 6, 17)


def _forged(selector, invariant, floor):
    spec = next(s for s in bound_table() if (s.selector, s.invariant) == (selector, invariant))
    return dataclasses.replace(spec, floor=floor(spec))


def _sampled_ratios(spec):
    return [
        engine_ratios(fid, lengths)[spec.invariant]
        for fid in matching_families(spec)
        for lengths in _draws(fid, 6, 17)
    ]


def _median_ratio(spec):
    # a floor that some samples of the row meet exactly and others fall below
    ratios = sorted(_sampled_ratios(spec))
    return ratios[len(ratios) // 2]


def _first_ratio(spec):
    # a floor that the row's first sample meets exactly: no violation there
    return _sampled_ratios(spec)[0]


def _raised(spec):
    return spec.floor + Fraction(1, 1000)


def _lowered(spec):
    return spec.floor - Fraction(1, 1000)


@pytest.mark.parametrize(
    "selector, invariant, floor",
    [
        ("g0.*", "phi", _raised),  # an exact row with a wrong floor
        ("g0.*", "lambda", _lowered),
        ("g2.*", "phi", _first_ratio),  # g2.I meets it, g2.III falls below
        ("g3.*", "epsilon", _median_ratio),
        ("g3.XIV", "tau", _first_ratio),
        ("g3.XIV", "tau", _median_ratio),
    ],
)
def test_violations_equal_one_pass_per_row(selector, invariant, floor):
    # the integer comparisons find the same minimum and first violation as
    # Fraction comparisons, on rows whose floor the samples violate
    spec = _forged(selector, invariant, floor)
    report = sample_check(spec, samples=6, seed=17)
    assert report.violation is not None
    assert report == _one_pass_per_row(spec, 6, 17)


def test_every_certificate_run_expands_again(monkeypatch):
    import pmgraph.polynomials as kernel

    products = []
    original = kernel._product

    def counted(left, right):
        products.append(1)
        return original(left, right)

    monkeypatch.setattr(kernel, "_product", counted)
    verify_all()
    first = len(products)
    verify_all()
    assert first > 0
    assert len(products) == 2 * first


# -- the reduced model --------------------------------------------------------


@pytest.fixture
def factors(monkeypatch):
    """Validations and the pivot count (unknowns) of every solve the engine
    makes, by either producer."""
    graph = importlib.import_module("pmgraph.graph")
    solver = importlib.import_module("pmgraph.resistance")
    seen = {"validate": 0, "pivots": []}
    validate, green = graph.validate, solver._green

    def counted_validate(g):
        seen["validate"] += 1
        return validate(g)

    def counted_green(*args):
        result = green(*args)
        seen["pivots"].append(len(result[1]))
        return result

    monkeypatch.setattr(graph, "validate", counted_validate)
    monkeypatch.setattr(solver, "_green", counted_green)
    return seen


def _subdivided_g3():
    from conftest import random_subdivided

    g = random_subdivided("g3.XI", 30, random.Random("call-counts"))
    assert len(normalize(g).vertices) == 4
    return g


@pytest.mark.parametrize(
    "entry",
    [invariant_set, zhang_invariants, tau, theta, delta],
    ids=lambda f: f.__name__,
)
def test_engine_entry_solves_the_reduced_model_once(entry, factors):
    g = _subdivided_g3()
    entry(g)
    assert factors == {"validate": 1, "pivots": [len(normalize(g).vertices) - 1]}


def test_tau_at_a_removable_base_keeps_it_in_the_solve(factors):
    g = _subdivided_g3()
    base = next(vid for vid in g.vertex_ids if vid not in normalize(g).vertex_ids)
    tau(g, base=base)
    assert factors == {"validate": 1, "pivots": [len(normalize(g).vertices)]}


def test_classify_edges_solves_the_reduced_model_once(factors):
    g = _subdivided_g3()
    classify_edges(g)
    assert factors == {"validate": 1, "pivots": [len(normalize(g).vertices) - 1]}


def test_effective_resistance_keeps_both_vertices_in_one_solve(factors):
    g = _subdivided_g3()
    kept = set(normalize(g).vertex_ids)
    p, s = [vid for vid in g.vertex_ids if vid not in kept][:2]
    effective_resistance(g, p, s)
    assert factors == {"validate": 1, "pivots": [len(kept) + 1]}


def test_engine_ratios_solves_the_catalog_graph_as_given(factors):
    lengths = {name: Fraction(1) for name in "abcdef"}
    engine_ratios("g3.XIV", lengths)
    assert factors == {"validate": 1, "pivots": [len(build("g3.XIV", lengths).vertices) - 1]}


def test_a_graph_with_nothing_to_smooth_takes_the_walk(monkeypatch, k4_unit):
    # one prologue for every graph: each edge is its own chain, the same way
    # round, and the engine never asks resistance_matrix for the solve
    solver = importlib.import_module("pmgraph.resistance")
    assert solver._reduced(k4_unit)[1] == [(k, True) for k in range(6)]
    calls = []
    original = solver.resistance_matrix

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(solver, "resistance_matrix", counted)
    invariant_set(k4_unit)
    assert calls == []


def test_one_incidence_index_serves_the_front_end(monkeypatch):
    # _removable, validation and the smoothing walk _chains each run once and
    # read the given graph's index, which is the only one built
    given = _subdivided_g3()
    graph = importlib.import_module("pmgraph.graph")
    engine = importlib.import_module("pmgraph.resistance")
    built, seen = [], []
    index = graph.PmGraph.__dict__["_incidence"].func

    def counted_index(g):
        built.append(g)
        return index(g)

    counted = functools.cached_property(counted_index)
    counted.__set_name__(graph.PmGraph, "_incidence")
    monkeypatch.setattr(graph.PmGraph, "_incidence", counted)
    for module, name in ((engine, "_removable"), (graph, "validate"), (engine, "_chains")):
        def recorded(g, *args, _name=name, _original=getattr(module, name)):
            seen.append((_name, g))
            return _original(g, *args)

        monkeypatch.setattr(module, name, recorded)
    g = graph.PmGraph(given.vertices, given.edges)  # nothing cached on it yet
    invariant_set(g)
    assert [name for name, _ in seen] == ["_removable", "validate", "_chains"]
    assert all(h is g for _, h in seen)
    assert len(built) == 1 and built[0] is g


@pytest.mark.parametrize("entry", [invariant_set, tau, classify_edges], ids=lambda f: f.__name__)
def test_the_engine_solves_the_walk_without_building_a_graph(entry, monkeypatch):
    # the topology comes straight from the walk: no Edge per chain and no
    # smoothed PmGraph
    graph = importlib.import_module("pmgraph.graph")
    g = _subdivided_g3()
    built = []
    for cls in (graph.Edge, graph.PmGraph):
        def counted(self, *args, _original=cls.__init__):
            built.append(type(self).__name__)
            _original(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    entry(g)
    assert built == []
    normalize(g)  # the counters see what the walk's other reader builds
    assert built.count("PmGraph") == 1 and "Edge" in built


# -- the integer tail ---------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [
        invariant_set, zhang_invariants, tau, theta, delta, classify_edges,
        lambda g: engine_ratios("g3.XIV", {name: Fraction(1) for name in "abcdef"}),
    ],
    ids=["invariant_set", "zhang_invariants", "tau", "theta", "delta", "classify_edges", "engine_ratios"],
)
def test_engine_entry_scales_once(entry, monkeypatch, k4_unit):
    # _scale is imported by name, so count it in every module that holds it
    solver = importlib.import_module("pmgraph.resistance")
    original = solver._scale
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("pmgraph") and getattr(module, "_scale", None) is original:
            monkeypatch.setattr(module, "_scale", counted)
    entry(k4_unit)
    assert len(calls) == 1
