import dataclasses
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from oracles import stable_type, stable_types

from pmgraph import (
    ParameterError,
    PmGraph,
    UnknownFamilyError,
    bound_table,
    build,
    check_family,
    closed_form,
    cross_check,
    engine_ratios,
    family,
    genus,
    invariant_set,
    list_families,
    random_lengths,
    validate,
)
from pmgraph.catalog import _COLUMNS, _TABLE, FAMILIES, CatalogError, _parts, _spec
from pmgraph.graph import InvalidGraphError
from pmgraph.invariants import _LINEAR, _QUARTET, _delta_sums, _linear, _scaled
from pmgraph.polynomials import Polynomial
from pmgraph.resistance import _sides, _Topology


def _ones(fid):
    return {name: 1 for name in family(fid).params}


# distinct primes near 1e9, one per parameter, as length denominators
_PRIMES = (999999937, 1000000007, 999999929, 1000000009, 999999893, 1000000021)


def _large_points():
    rng = random.Random(31)
    return [
        (fid, {
            name: Fraction(rng.randint(1, 10**12), prime)
            for name, prime in zip(family(fid).params, _PRIMES)
        })
        for fid in list_families()
        if not family(fid).degenerate
    ]


class TestRegistry:
    def test_counts(self):
        fids = list_families()
        assert len(fids) == 41
        by_genus = {}
        for fid in fids:
            by_genus.setdefault(family(fid).genus, []).append(fid)
        assert len(by_genus[0]) == 4
        assert len(by_genus[1]) == 9
        assert len(by_genus[2]) == 14
        assert len(by_genus[3]) == 14

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            family("g5.I")

    def test_only_zero_length_family_is_degenerate(self):
        degenerate = [fid for fid in list_families() if family(fid).degenerate]
        assert degenerate == ["g0.I"]

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            build("g3.XIV", {"a": 1})  # missing
        with pytest.raises(ParameterError):
            build("g1.I", {"a": 1, "zz": 2})  # extra
        with pytest.raises(ParameterError):
            build("g1.I", {"a": 0})  # nonpositive
        with pytest.raises(ParameterError):
            build("g1.I", {"a": "one"})  # unparseable
        for value in (0.1, None, float("inf"), float("nan"), True):
            with pytest.raises(ParameterError):
                build("g1.I", {"a": value})  # not int, str or Fraction

    def test_every_family_is_valid_and_total_genus_3(self):
        rng = random.Random(7)
        for fid in list_families():
            spec = family(fid)
            g = build(fid, random_lengths(spec.params, rng))
            assert validate(g).passed, fid
            data = genus(g)
            assert data.gbar == 3, fid
            assert data.g == spec.genus, fid


def _automorphisms(spec) -> list[dict[str, str]]:
    # the edge-id permutations that the weight-preserving vertex permutations
    # induce, with every bijection among the edges that join the same pair of
    # vertices, loops included
    joining = {}
    for eid, u, v in spec.edges:
        joining.setdefault(frozenset((u, v)), []).append(eid)
    weights = {vertex.id: vertex.q for vertex in spec.vertices}
    sigmas = set()
    for image in itertools.permutations(weights):
        pi = dict(zip(weights, image))
        if any(weights[v] != weights[pi[v]] for v in weights):
            continue
        targets = [joining.get(frozenset(map(pi.get, pair)), []) for pair in joining]
        if list(map(len, targets)) != list(map(len, joining.values())):
            continue
        for choice in itertools.product(*map(itertools.permutations, targets)):
            sigmas.add(tuple(zip(itertools.chain(*joining.values()), itertools.chain(*choice))))
    return [dict(sigma) for sigma in sorted(sigmas)]


def _columns(parts, x) -> tuple:
    # a parts function's denominator q and each column's numerator over
    # 252 q, at the edge variables x
    q, s, *rest = parts(x)
    terms = (q * sum(x.values()), q * s, *rest)
    return q, [sum(map(mul, column, terms)) for column in _COLUMNS]


def _contract(spec, eid) -> tuple[dict[str, int], list]:
    # the topology of spec with edge eid contracted: the two ends merge and
    # their weights add, and a contracted loop adds 1 to its vertex
    weights = {vertex.id: vertex.q for vertex in spec.vertices}
    _, u, v = next(edge for edge in spec.edges if edge[0] == eid)
    weights[u] += weights.pop(v) if v != u else 1
    edges = [(f, u if a == v else a, u if b == v else b) for f, a, b in spec.edges if f != eid]
    return weights, edges


def _joining(edges) -> dict:
    # each pair of ends (one end for a loop) -> the ids of its edges
    pairs = {}
    for eid, u, v in edges:
        pairs.setdefault(frozenset((u, v)), []).append(eid)
    return pairs


def _match(weights, edges):
    # the first catalog row whose topology is (weights, edges), with its parts
    # and a map of its edge ids onto those of edges, by brute force over the
    # weight-preserving vertex bijections; None when no row has it.  Any
    # bijection serves: every row is invariant under its automorphisms.
    ours = _joining(edges)
    for fid, *_, parts in _TABLE:
        spec = family(fid)
        target = {vertex.id: vertex.q for vertex in spec.vertices}
        if sorted(target.values()) != sorted(weights.values()):
            continue
        theirs = _joining(spec.edges)
        for image in itertools.permutations(target):
            pi = dict(zip(weights, image))
            if any(weights[v] != target[pi[v]] for v in weights):
                continue
            mapped = {frozenset(map(pi.get, pair)): ids for pair, ids in ours.items()}
            if {pair: len(ids) for pair, ids in mapped.items()} == {
                pair: len(ids) for pair, ids in theirs.items()
            }:
                sigma = {g: f for pair, ids in mapped.items() for f, g in zip(ids, theirs[pair])}
                return fid, parts, sigma
    return None


class TestClosedForms:
    def test_k4_row(self):
        inv = closed_form("g3.XIV", _ones("g3.XIV"))
        assert inv.tau == Fraction(5, 16)
        assert inv.theta == 6
        assert inv.delta[1] == 0
        assert inv.phi == Fraction(17, 48)
        assert inv.lam == Fraction(75, 112)
        assert inv.epsilon == Fraction(11, 6)
        assert inv.z == Fraction(37, 144)

    def test_single_loop_row_scales_linearly(self):
        for a in (1, Fraction(5, 3), 12):
            inv = closed_form("g1.I", {"a": a})
            assert inv.tau == Fraction(a, 12)
            assert inv.theta == 0
            assert inv.phi == Fraction(a, 9)
            assert inv.lam == Fraction(3, 28) * a
            assert inv.epsilon == Fraction(2, 9) * a

    def test_symmetric_theta_family_attains_phi_floor(self):
        inv = closed_form("g2.III", {"a": 1, "b": 1, "c": 1})
        assert inv.phi == Fraction(7, 81) * inv.ell

    def test_point_family(self):
        inv = closed_form("g0.I", {})
        assert inv.ell == 0
        assert inv.phi == 0

    def test_identical_presentation_pairs(self):
        # three pairs of distinct topologies whose table rows name the same
        # parts: g1.VII is a star and g1.VIII a path, g2.XII has a
        # pendant leaf and g2.XI has none, g1.III and g1.IV differ in weights
        rng = random.Random(99)
        for left, right in (
            ("g1.III", "g1.IV"),
            ("g1.VII", "g1.VIII"),
            ("g2.XI", "g2.XII"),
        ):
            params = family(left).params
            assert params == family(right).params
            for _ in range(5):
                lengths = random_lengths(params, rng)
                a = closed_form(left, lengths)
                b = closed_form(right, lengths)
                assert a == b, (left, right, lengths)

    def test_every_column_is_a_fraction(self):
        # an int or a float column compares equal to the Fraction of the same
        # value (0 / 6 is the float 0.0), so only its type gives it away
        rng = random.Random(17)
        points = [(fid, random_lengths(family(fid).params, rng)) for fid in list_families()]
        points += [
            (spec.witness.family, dict(spec.witness.lengths))
            for spec in bound_table()
            if spec.witness is not None
        ]
        points += _large_points()
        for fid, lengths in points:
            row = family(fid).closed(lengths)
            assert len(row) == 6
            assert [type(v) for v in row] == [Fraction] * 6, (fid, lengths, row)

    def test_large_coprime_denominators(self):
        # D, the lcm of the denominators, is a product of six primes near 1e9
        for fid, lengths in _large_points():
            assert cross_check(fid, lengths).passed, (fid, lengths)

    def test_parts_use_only_ring_operations(self):
        # each parts function runs on polynomials, which have no division,
        # and agrees with its integer parts at a seeded point
        rng = random.Random(29)
        for fid, *_, parts in _TABLE:
            params = family(fid).params
            symbolic = parts({name: Polynomial.variable(name) for name in params})
            point = {name: rng.randint(1, 10**6) for name in params}
            assert len(symbolic) == 5, fid
            for poly, value in zip(symbolic, parts(point)):
                assert (Polynomial.constant(0) + poly).substitute(point) == value, fid

    def test_rows_are_invariant_under_the_topology_automorphisms(self):
        # each column num / q is the same rational function of the edge
        # variables after any automorphism of the family's topology
        orders = {}
        for fid, *_, parts in _TABLE:
            spec = family(fid)
            if spec.degenerate:
                continue
            sigmas = _automorphisms(spec)
            assert dict(zip(spec.params, spec.params)) in sigmas, fid
            orders[fid] = len(sigmas)
            q, nums = _columns(parts, {eid: Polynomial.variable(eid) for eid in spec.params})
            for sigma in sigmas:
                x = {eid: Polynomial.variable(sigma[eid]) for eid in spec.params}
                q_sigma, nums_sigma = _columns(parts, x)
                for num, num_sigma in zip(nums, nums_sigma):
                    assert num_sigma * q == num * q_sigma, (fid, sigma)
        assert (orders["g3.XIV"], orders["g3.II"], orders["g3.I"], orders["g2.II"]) == (24, 24, 6, 2)

    def test_every_facet_is_the_row_it_contracts_to(self):
        # F's row at x_e = 0 is the row of the family G that F / e is, on
        # Polynomial variables: q_F(x_e = 0) != 0 and, for every column,
        # num_F q_G = num_G q_F with G's variables renamed to F's edges
        facets, outside = 0, []
        for fid, *_, parts in _TABLE:
            spec = family(fid)
            if spec.degenerate:
                continue
            for eid, _, _ in spec.edges:
                facets += 1
                found = _match(*_contract(spec, eid))
                if found is None:
                    outside.append((fid, eid))
                    continue
                gid, parts_g, sigma = found
                x = {f: Polynomial.variable(f) for f in spec.params}
                x[eid] = Polynomial.constant(0)
                q, nums = _columns(parts, x)
                q_g, nums_g = _columns(parts_g, {g: Polynomial.variable(f) for g, f in sigma.items()})
                assert q != 0, (fid, eid)
                for num, num_g in zip(nums, nums_g):
                    assert num * q_g == num_g * q, (fid, eid, gid)
        assert facets == 151
        # both on the missing genus-2 type: two arcs joining a weight-1
        # vertex to one that carries a bridge to a loop
        assert outside == [("g2.XIII", "d"), ("g3.VII", "b")]

    def test_delta_partition(self):
        rng = random.Random(3)
        for fid in ("g1.V", "g2.VII", "g3.X", "g3.XIV"):
            lengths = random_lengths(family(fid).params, rng)
            inv = closed_form(fid, lengths)
            assert inv.delta[0] + inv.delta[1] == inv.ell, fid

    def test_g3_ix_tau_consistent_with_engine(self):
        # the corrected tau entry; see the g3_IX_tau_as_printed probe
        lengths = _ones("g3.IX")
        inv = closed_form("g3.IX", lengths)
        assert inv.tau == Fraction(7, 20)
        assert inv.tau == invariant_set(build("g3.IX", lengths)).tau

    def test_g2_x_is_g2_vi_relabelled(self):
        # VI's a, b, c, d are X's d, a, b, c
        vi = build("g2.VI", {"a": 2, "b": 3, "c": 5, "d": 7})
        x = build("g2.X", {"d": 2, "a": 3, "b": 5, "c": 7})
        assert vi.vertices == x.vertices
        assert [(e.u, e.v, e.length) for e in vi.edges] == [
            (e.u, e.v, e.length) for e in x.edges
        ]
        rng = random.Random(61)
        for _ in range(10):
            p = random_lengths("abcd", rng)
            relabelled = {"d": p["a"], "a": p["b"], "b": p["c"], "c": p["d"]}
            assert closed_form("g2.VI", p) == closed_form("g2.X", relabelled)


def _cycle_rank(key):
    weights, pairs = key
    return len(pairs) - len(weights) + 1


class TestStableTypes:
    """The catalog against a brute-force enumeration of stable types."""

    @pytest.fixture(scope="class")
    def genus3(self):
        return stable_types(3)

    @pytest.fixture(scope="class")
    def by_type(self):
        rng = random.Random(11)
        found = {}
        for fid in list_families():
            g = build(fid, random_lengths(family(fid).params, rng))
            found.setdefault(stable_type(g), []).append(fid)
        return found

    def test_known_counts(self, genus3):
        assert len(stable_types(2)) == 7
        assert len(genus3) == 42
        ranks = [_cycle_rank(key) for key in genus3]
        assert [ranks.count(g) for g in range(4)] == [4, 9, 14, 15]

    def test_every_family_is_a_stable_type(self, genus3, by_type):
        assert set(by_type) <= genus3

    def test_g2_vi_and_g2_x_are_the_only_shared_type(self, by_type):
        assert [fids for fids in by_type.values() if len(fids) > 1] == [
            ["g2.VI", "g2.X"]
        ]

    def test_exactly_two_types_are_uncovered(self, genus3, by_type):
        # a loop at X, a bridge X-Y, two arcs Y-Z with q(Z) = 1
        banana_tail = PmGraph.build(
            ["X", "Y", ("Z", 1)],
            [("a", "X", "X", 1), ("b", "X", "Y", 1),
             ("c", "Y", "Z", 1), ("d", "Y", "Z", 1)],
        )
        # a weight-0 centre with three bridges, each ending in a loop
        three_loops = PmGraph.build(
            ["W", "X", "Y", "Z"],
            [("a", "W", "X", 1), ("b", "W", "Y", 1), ("c", "W", "Z", 1),
             ("d", "X", "X", 1), ("e", "Y", "Y", 1), ("f", "Z", "Z", 1)],
        )
        uncovered = genus3 - set(by_type)
        assert uncovered == {stable_type(banana_tail), stable_type(three_loops)}


class TestCrossCheck:
    def test_single_report(self):
        report = cross_check("g3.XIV", _ones("g3.XIV"))
        assert report.passed
        assert report.mismatches == ()

    def test_every_family_small_run(self):
        for fid in list_families():
            if family(fid).degenerate:
                continue
            passed, failure = check_family(fid, samples=4, seed=123)
            assert failure is None, (fid, failure)
            assert passed == 4

    def test_deterministic(self):
        a = check_family("g3.XIII", samples=3, seed=5)
        b = check_family("g3.XIII", samples=3, seed=5)
        assert a == b

    def test_random_lengths_bounds(self):
        rng = random.Random(1)
        lengths = random_lengths(("a", "b", "c"), rng)
        for value in lengths.values():
            assert 0 < value
            assert value.numerator <= 64
            assert value.denominator <= 64


class _OwnRandom(random.Random):
    # overrides random() and not getrandbits(), so its randint draws through
    # random() and takes another stream than a plain Random's
    def random(self):
        return super().random()


class _OnlyRandint:
    # an rng with randint alone, over the stream of a wrapped Random
    def __init__(self, seed):
        self.stream = random.Random(seed)

    def randint(self, a, b):
        return self.stream.randint(a, b)


class TestRandomLengths:
    """Whatever the rng, each value is Fraction(rng.randint(1, 64),
    rng.randint(1, 64)), and the draw leaves the stream where those calls
    leave it."""

    @pytest.mark.parametrize(
        "make", [random.Random, _OwnRandom, _OnlyRandint],
        ids=["Random", "subclass-overriding-random", "randint-only"],
    )
    def test_each_value_is_randint_over_randint_on_the_same_stream(self, make):
        params = tuple("abcdef")
        for seed in range(200):
            rng, twin = make(seed), make(seed)
            for _ in range(50):
                expected = [
                    (name, Fraction(twin.randint(1, 64), twin.randint(1, 64))) for name in params
                ]
                assert list(random_lengths(params, rng).items()) == expected
            rng, twin = (getattr(r, "stream", r) for r in (rng, twin))
            assert rng.random() == twin.random()


def _draws(fid, samples, seed):
    rng = random.Random(f"{fid}:{seed}")
    return [random_lengths(family(fid).params, rng) for _ in range(samples)]


def _one_report_per_sample(fid, samples, seed):
    # the reference for check_family: the public cross_check on every sample
    passed = 0
    for lengths in _draws(fid, samples, seed):
        report = cross_check(fid, lengths)
        if not report.passed:
            return passed, report
        passed += 1
    return passed, None


class TestSamplingRoute:
    """The sampling passes solve each sample on the family's validated
    topology; that route gives what the public entries give on a graph."""

    @pytest.mark.parametrize("fid", list_families())
    def test_topology_solve_equals_the_engine_on_the_built_graph(self, fid):
        for lengths in _draws(fid, 3, 41):
            s = family(fid)._scaled(lengths)
            g = build(fid, lengths)
            _, expected = _scaled(g)
            assert list(s.rm._topology.ends) == list(expected.rm._topology.ends)
            assert (s.rm._t, s.rm._x) == (expected.rm._t, expected.rm._x)
            assert _sides(3, s.rm) == _sides(3, expected.rm)
            assert s._replace(rm=None) == expected._replace(rm=None)
            engine = invariant_set(g)
            values = {
                "ell": Fraction(s.ell, s.den),
                "tau": Fraction(s.tau, s.den),
                "theta": Fraction(s.theta, s.den),
                "delta": {i: Fraction(n, s.q) for i, n in _delta_sums(3, s).items()},
                **{
                    name: Fraction(*_linear(name, s.tau, s.theta, s.ell)) / s.den
                    for name in _QUARTET
                },
            }
            named = engine.named_values()
            assert values == {name: named[name] for name in named if name not in ("g", "gbar")}
            if not family(fid).degenerate:
                ratios = {
                    name: Fraction(*_linear(name, s.tau, s.theta, s.ell)) / s.ell
                    for name in _LINEAR
                }
                assert ratios == engine_ratios(fid, lengths)

    @pytest.mark.parametrize("fid", list_families())
    def test_the_family_topology_is_the_engine_topology_of_its_graph(self, fid):
        assert family(fid)._topology == _Topology.of(build(fid, _ones(fid)))

    @pytest.mark.parametrize(
        "vertices, edges, error",
        [
            ("X:1 Y:1 M", "a:X-M c:M-Y b:X-Y", CatalogError),  # M smooths away
            ("X Y:1", "a:X-Y", InvalidGraphError),  # K(X) = -1
        ],
    )
    def test_a_topology_is_refused_before_its_first_sample(self, vertices, edges, error):
        spec = _spec("g1.II", "a row that is not in the table", vertices, edges, lambda p: _parts())
        with pytest.raises(error):
            spec._topology

    @pytest.mark.parametrize("fid", list_families())
    def test_check_family_equals_one_report_per_sample(self, fid):
        assert check_family(fid, 4, 8) == _one_report_per_sample(fid, 4, 8)

    @pytest.mark.parametrize(
        "column", range(6), ids=["tau", "theta", "delta1", "phi", "lambda", "epsilon"]
    )
    @pytest.mark.parametrize("fid", ["g1.IX", "g2.VIII", "g3.XIV"])
    def test_a_forged_column_fails_where_cross_check_does(self, fid, column, monkeypatch):
        # the column is wrong at the third draw only, so two samples pass first
        spec = family(fid)
        third = _draws(fid, 5, 8)[2]

        def forged(lengths):
            row = list(spec.closed(lengths))
            if lengths == third:
                row[column] += Fraction(1, 10**9)
            return tuple(row)

        monkeypatch.setitem(FAMILIES, fid, dataclasses.replace(spec, closed=forged))
        expected = _one_report_per_sample(fid, 5, 8)
        assert expected[0] == 2 and expected[1] is not None
        assert check_family(fid, 5, 8) == expected

    @pytest.mark.parametrize("fid", ["g0.II", "g1.IX", "g2.VIII", "g3.XIV"])
    def test_a_wrong_genus_fails_the_first_sample(self, fid, monkeypatch):
        spec = family(fid)
        monkeypatch.setitem(FAMILIES, fid, dataclasses.replace(spec, genus=spec.genus + 1))
        passed, report = check_family(fid, 3, 0)
        assert passed == 0
        assert report.mismatches == (f"g: engine {spec.genus} != closed form {spec.genus + 1}",)
