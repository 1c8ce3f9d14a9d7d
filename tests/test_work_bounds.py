"""Work counters, not seconds, gate the asymptotic cost of every engine entry.

Each entry runs at ``n`` and at ``4 n`` vertices on three shapes: a
subdivided genus-3 catalog graph, a path of genus-1 vertices (nothing to
smooth, ``K`` nonzero everywhere) and a ladder (bounded fill under minimum
degree).  Wrapping ``resistance._green``, which runs either producer, and
``resistance._factor`` counts, over the entry's solves, the entries of
``N`` returned, the fill of the factor's columns and the bits of ``T``.
Counts are exact, so a quadratic pass shows here long before it shows in a
timing.  Every entry reads ``N`` on the pattern alone, so entries and fill
grow at most about 4x from ``n`` to ``4 n``; ``resistance_matrix`` returns
every pair and holds ``(n - 1)^2`` entries.  On the subdivided graph the
engine solves the reduced model, whose lengths are the catalog lengths at
both sizes, so the bits of ``T`` do not grow.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

from pmgraph import (
    PmGraph,
    classify_edges,
    delta,
    effective_resistance,
    invariant_set,
    resistance_matrix,
    tau,
    theta,
    zhang_invariants,
)
from pmgraph import resistance as solver

from conftest import random_subdivided

N = 100
GROWTH = 4.5


def _length(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def path(n: int) -> PmGraph:
    rng = random.Random("work-path")
    names = [f"p{i}" for i in range(n)]
    edges = [(f"e{i}", a, b, _length(rng)) for i, (a, b) in enumerate(zip(names, names[1:]))]
    return PmGraph.build([(name, 1) for name in names], edges)


def ladder(n: int) -> PmGraph:
    # two rails of n / 2 weight-0 vertices joined by a rung at every step
    rng = random.Random("work-ladder")
    rails = [[f"{side}{i}" for i in range(n // 2)] for side in "ab"]
    ends = [pair for rail in rails for pair in zip(rail, rail[1:])] + list(zip(*rails))
    edges = [(f"e{k}", u, v, _length(rng)) for k, (u, v) in enumerate(ends)]
    return PmGraph.build(rails[0] + rails[1], edges)


SHAPES = {
    "subdivided": lambda n: random_subdivided("g3.XI", n, random.Random("work-subdivided")),
    "path": path,
    "ladder": ladder,
}


def _far_pair(g: PmGraph) -> Fraction:
    ids = g.vertex_ids
    return effective_resistance(g, ids[-1], ids[len(ids) // 2])


ENTRIES = {
    "tau": tau,
    "theta": theta,
    "delta": delta,
    "invariant_set": invariant_set,
    "zhang_invariants": zhang_invariants,
    "classify_edges": classify_edges,
    "effective_resistance": _far_pair,
    "resistance_matrix": resistance_matrix,
}
CASES = [
    (shape, entry) for shape in SHAPES for entry in ENTRIES
    if entry != "zhang_invariants" or shape == "subdivided"  # genus 3 only
]


def _work(entry, g: PmGraph) -> dict:
    # entries of N, column fill and the largest T's bits over entry(g)'s solves
    work = {"entries": 0, "fill": 0, "bits": 0}
    green, factor = solver._green, solver._factor

    def counted_green(*args):
        result = green(*args)
        work["entries"] += sum(map(len, result[1].values()))
        work["bits"] = max(work["bits"], result[0].bit_length())
        return result

    def counted_factor(*args):
        result = factor(*args)
        work["fill"] += sum(len(col) for _, col in result[2].values())
        return result

    with mock.patch.object(solver, "_green", counted_green):
        with mock.patch.object(solver, "_factor", counted_factor):
            entry(g)
    return work


@pytest.mark.parametrize("shape, entry", CASES, ids=[f"{s}-{e}" for s, e in CASES])
def test_work_grows_with_the_pattern(shape, entry):
    small_graph, big_graph = SHAPES[shape](N), SHAPES[shape](4 * N)
    small, big = _work(ENTRIES[entry], small_graph), _work(ENTRIES[entry], big_graph)
    assert small["entries"] > 0
    assert big["fill"] <= GROWTH * small["fill"], (small, big)
    if entry == "resistance_matrix":
        assert [small["entries"], big["entries"]] == [
            (len(g.vertices) - 1) ** 2 for g in (small_graph, big_graph)
        ]
    else:
        assert big["entries"] <= GROWTH * small["entries"], (small, big)
    if shape == "subdivided" and entry not in ("effective_resistance", "resistance_matrix"):
        assert big["bits"] <= small["bits"], (small, big)
