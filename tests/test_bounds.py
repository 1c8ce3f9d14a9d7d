import dataclasses
import tracemalloc
from fractions import Fraction
from math import prod

import pytest

from pmgraph import (
    CatalogError,
    UnknownFamilyError,
    bound_table,
    build,
    check_family,
    engine_ratio,
    engine_ratios,
    family,
    invariant_set,
    list_families,
    matching_families,
    named,
    random_lengths,
    sample_check,
    verify_bounds,
    witness_check,
    zhang_invariants,
)
from pmgraph.bounds import closed_ratios
from pmgraph.catalog import FAMILIES, ParameterError, _closed_form
from pmgraph.invariants import _LINEAR
from pmgraph.polynomials import Polynomial
from pmgraph.resistance import _adjugate


def _row(selector, invariant):
    for spec in bound_table():
        if spec.selector == selector and spec.invariant == invariant:
            return spec
    raise LookupError((selector, invariant))


class TestTable:
    def test_headline_floors_present(self):
        floors = {(s.selector, s.invariant): s.floor for s in bound_table()}
        assert floors[("g3.XIV", "phi")] == Fraction(17, 288)
        assert floors[("g3.XIV", "tau")] == Fraction(5, 96)
        assert floors[("g2.*", "phi")] == Fraction(7, 81)
        assert floors[("g1.*", "lambda")] == Fraction(3, 28)
        assert floors[("g1.*", "epsilon")] == Fraction(2, 9)
        assert floors[("g0.*", "phi")] == Fraction(4, 3)

    def test_g0_rows_are_exact(self):
        for spec in bound_table():
            assert spec.exact == spec.selector.startswith("g0"), spec

    def test_g3_phi_rows_partition_the_genus(self):
        phi_rows = [
            s for s in bound_table()
            if s.invariant == "phi" and s.selector.startswith("g3")
        ]
        covered = []
        for spec in phi_rows:
            covered.extend(matching_families(spec))
        assert sorted(covered) == sorted(
            fid for fid in covered
        )
        assert len(covered) == len(set(covered)) == 14

    def test_selector_matching(self):
        spec = _row("g3.III,g3.IX,g3.X,g3.XII", "phi")
        assert spec.matches("g3.IX")
        assert not spec.matches("g3.II")
        assert matching_families(_row("g0.*", "phi")) == [
            "g0.II", "g0.III", "g0.IV",
        ]


class TestWitnesses:
    def test_all_witnesses_pass(self):
        for spec in bound_table():
            if spec.witness is None:
                continue
            report = witness_check(spec)
            assert report.passed, (spec.selector, spec.invariant, report.checks)

    def test_missing_witness_raises(self):
        spec = _row("g3.III,g3.IX,g3.X,g3.XII", "phi")
        with pytest.raises(ValueError):
            witness_check(spec)

    def test_boundary_witnesses_are_marked(self):
        boundary = {
            s.selector for s in bound_table()
            if s.witness is not None and s.witness.is_boundary
        }
        assert boundary == {"g3.VIII", "g3.XIII"}

    def test_witness_lengths_are_read_only(self):
        witness = _row("g3.XIV", "phi").witness
        with pytest.raises(TypeError):
            witness.lengths["a"] = Fraction(2)
        # a witness built from a dict does not share it
        given = {"a": Fraction(1)}
        built = type(witness)("g1.I", given)
        given["a"] = Fraction(2)
        assert built.lengths == {"a": Fraction(1)}

    def test_bound_table_is_a_new_list_each_call(self):
        before = verify_bounds(family="g3.XIV", samples=2, seed=4)
        table = bound_table()
        rows = list(table)
        assert bound_table() is not table
        table.clear()
        assert bound_table() == rows
        assert verify_bounds(family="g3.XIV", samples=2, seed=4) == before

    def test_k4_equalities(self):
        lengths = {v: Fraction(3, 7) for v in "abcdef"}
        assert engine_ratio("g3.XIV", lengths, "phi") == Fraction(17, 288)
        assert engine_ratio("g3.XIV", lengths, "tau") == Fraction(5, 96)


class TestSampling:
    def test_memory_does_not_grow_with_samples(self):
        # a row keeps its running minimum and first violation, not its samples
        spec = _row("g3.XIV", "phi")
        sample_check(spec, samples=1)  # the family's topology, validated once
        peaks = []
        for samples in (200, 2000):
            tracemalloc.start()
            try:
                sample_check(spec, samples=samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # keeping every sample's solve costs about 2 KB a sample, 3.6 MB here;
        # the bound leaves room for the interpreter's free lists, which keep up
        # to 2000 freed objects of a size for reuse (176 KB of 88-byte blocks)
        assert peaks[1] < peaks[0] + 256 * 1024, peaks

    def test_deterministic(self):
        spec = _row("g3.XIV", "phi")
        a = sample_check(spec, samples=8, seed=3)
        b = sample_check(spec, samples=8, seed=3)
        assert a == b

    def test_small_run_passes(self):
        for spec in bound_table():
            report = sample_check(spec, samples=6, seed=17)
            assert report.passed, (spec.selector, spec.invariant, report)
            assert report.min_ratio >= spec.floor

    def test_exact_rows_pin_ratio(self):
        report = sample_check(_row("g0.*", "phi"), samples=10, seed=2)
        assert report.min_ratio == Fraction(4, 3)

    def test_samples_must_be_positive(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            sample_check(_row("g1.*", "phi"), samples=0)

    def test_bad_selector(self):
        from pmgraph import BoundSpec

        with pytest.raises(UnknownFamilyError):
            sample_check(
                BoundSpec("g7.*", "phi", Fraction(1)), samples=2, seed=0
            )

    def test_ratios_of_the_zero_length_family(self):
        with pytest.raises(CatalogError, match="'g0.I' has total length 0"):
            closed_ratios("g0.I", {})
        with pytest.raises(CatalogError, match="'g0.I' has total length 0"):
            engine_ratios("g0.I", {})

    def test_verify_bounds_evaluates_each_witness_once(self):
        # the g3.XIV rows name two witnesses (g3.XIV and g3.I at ones);
        # the report equals the one witness_check gives row by row
        results = verify_bounds(family="g3.XIV", samples=2, seed=0)
        for report, witness_report in results:
            assert witness_report == witness_check(report.spec)

    def test_verify_bounds_family_filter(self):
        results = verify_bounds(family="g3.XIV", samples=4, seed=0)
        selectors = {report.spec.selector for report, _ in results}
        assert selectors == {"g3.XIV", "g3.*"}
        for report, witness_report in results:
            assert report.passed
            assert report.families == ("g3.XIV",)
            if witness_report is not None:
                assert witness_report.passed


class TestPolynomialAgreement:
    @pytest.mark.parametrize(
        "fid, name, power", [("g3.XIV", "xiv.C", 2), ("g3.VIII", "viii.D", 1), ("g3.XIII", "xiii.D", 2)],
    )
    def test_certificate_denominator_is_the_engine_determinant(self, fid, name, power):
        # the engine's cofactor solve on the weights w_e = M / x_e, M the
        # product of every edge variable, has det(M A) = M^power times the
        # certificates' complement spanning-tree polynomial, as polynomials
        spec = family(fid)
        topology = spec._topology
        x = {eid: Polynomial.variable(eid) for eid, _, _ in spec.edges}
        n = len(topology.order)
        lap = [[0] * n for _ in range(n)]
        for (eid, _, _), (i, j) in zip(spec.edges, topology.ends):
            w = prod(x[other] for other in x if other != eid)
            lap[i][i] += w
            lap[j][j] += w
            lap[i][j] -= w
            lap[j][i] -= w
        unknowns = [v for v in range(n) if v != topology.ground]
        det, _ = _adjugate([[lap[i][j] for j in unknowns] for i in unknowns])
        assert det == prod(x.values()) ** power * named(name)

    def test_xiv_gaps_match_cleared_identities(self):
        # phi - 17 ell/288 = R/(288 C) and tau - 5 ell/96 = S/(96 C),
        # evaluated exactly at sampled points through the engine
        import random

        rng = random.Random(404)
        for _ in range(12):
            lengths = random_lengths(family("g3.XIV").params, rng)
            ratios = engine_ratios("g3.XIV", lengths)
            ell = sum(lengths.values())
            c_val = named("xiv.C").evaluate(lengths)
            r_val = named("xiv.R").evaluate(lengths)
            s_val = named("xiv.S").evaluate(lengths)
            assert r_val >= 0
            assert s_val >= 0
            phi_gap = (ratios["phi"] - Fraction(17, 288)) * ell
            tau_gap = (ratios["tau"] - Fraction(5, 96)) * ell
            assert phi_gap == r_val / (288 * c_val)
            assert tau_gap == s_val / (96 * c_val)

    @staticmethod
    def _engine_phi_points(fid):
        # 20 seeded points with the engine's phi at each; no closed form enters
        import random

        rng = random.Random(7)
        for _ in range(20):
            lengths = random_lengths(family(fid).params, rng)
            ell = sum(lengths.values())
            yield lengths, ell, engine_ratios(fid, lengths)["phi"] * ell

    def test_viii_phi_rewrite_premise_is_the_engine_phi(self):
        # the premise of the viii.phi_rewrite certificate:
        # phi = ell/9 - (7bcde + 2Q)/(9D), Q = a(bcd + bce + bde + cde)
        for p, ell, phi in self._engine_phi_points("g3.VIII"):
            a, b, c, d, e = (p[name] for name in "abcde")
            q = a * (b * c * d + b * c * e + b * d * e + c * d * e)
            assert phi == ell / 9 - (7 * b * c * d * e + 2 * q) / (9 * named("viii.D").evaluate(p))

    def test_xiii_phi_rewrite_premise_is_the_engine_phi(self):
        # the premise of the xiii.phi_rewrite certificate:
        # phi = ell/9 - (2A - 6B + 7C)/(9D)
        for p, ell, phi in self._engine_phi_points("g3.XIII"):
            a_, b_, c_, d_ = (named(f"xiii.{name}").evaluate(p) for name in "ABCD")
            assert phi == ell / 9 - (2 * a_ - 6 * b_ + 7 * c_) / (9 * d_)


class TestClosedRatios:
    def test_equal_to_the_engine_at_seeded_points(self):
        import random

        for fid in list_families():
            if family(fid).degenerate:
                continue
            rng = random.Random(f"closed-ratios:{fid}")
            for _ in range(3):
                lengths = random_lengths(family(fid).params, rng)
                assert closed_ratios(fid, lengths) == engine_ratios(fid, lengths), fid

    @pytest.mark.parametrize("fid, zero", [("g3.VIII", ("a",)), ("g3.XIII", ("a", "b"))])
    def test_boundary_witnesses_evaluate(self, fid, zero):
        lengths = {p: Fraction(0 if p in zero else 1) for p in family(fid).params}
        ratios = closed_ratios(fid, lengths)
        assert ratios["phi"] == Fraction(1, 16)
        assert list(ratios) == ["tau", "phi", "lambda", "epsilon", "Z"]

    ONES = {name: 1 for name in "abcdef"}

    @pytest.mark.parametrize(
        "fid, lengths, message",
        [
            ("g3.XIV", {**ONES, "g": 1}, "g3.XIV: unknown parameter(s) g"),
            ("g3.XIV", {**ONES, 1: 1, "g": 1}, "g3.XIV: unknown parameter(s) 1, g"),
            ("g3.XIV", {"a": 1, "c": 1, "d": 1, "e": 1, "f": 1}, "g3.XIV: missing parameter(s) b"),
            ("g3.XIV", {**ONES, "c": "x"}, "g3.XIV: cannot parse parameter c='x'"),
            ("g3.XIV", {**ONES, "c": 0.5}, "g3.XIV: cannot parse parameter c=0.5"),
        ],
        ids=["unknown", "not-a-str", "missing", "unparsed", "float"],
    )
    def test_names_and_values_are_read_as_build_reads_them(self, fid, lengths, message):
        for evaluate in (closed_ratios, build):
            with pytest.raises(ParameterError) as err:
                evaluate(fid, lengths)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "fid, lengths, message",
        [
            ("g3.XIV", {**ONES, "c": -1}, "g3.XIV: parameter c must be nonnegative"),
            ("g3.II", {"a": 1, "b": 0, "c": 0, "d": 0},
             "g3.II: the ratios are undefined at these lengths"),
            ("g3.XIV", dict.fromkeys(ONES, 0),
             "g3.XIV: the ratios are undefined at these lengths"),
        ],
        ids=["negative", "zero-over-zero", "zero-length"],
    )
    def test_a_point_off_the_closed_form_is_refused(self, fid, lengths, message):
        with pytest.raises(ParameterError) as err:
            closed_ratios(fid, lengths)
        assert str(err.value) == message

    def test_string_lengths_are_read_as_the_engine_reads_them(self):
        lengths = {**self.ONES, "a": "1/2", "b": "0.25"}
        exact = {**self.ONES, "a": Fraction(1, 2), "b": Fraction(1, 4)}
        assert closed_ratios("g3.XIV", lengths) == closed_ratios("g3.XIV", exact)
        assert closed_ratios("g3.XIV", lengths) == engine_ratios("g3.XIV", lengths)

    def test_equal_to_the_closed_form_over_ell_at_every_witness(self):
        # boundary witnesses with zero lengths included, where closed_form
        # itself refuses the lengths
        witnesses = [spec.witness for spec in bound_table() if spec.witness]
        assert any(witness.is_boundary for witness in witnesses)
        for witness in witnesses:
            closed = _closed_form(family(witness.family), dict(witness.lengths))
            expected = {name: closed.by_name(name) / closed.ell for name in _LINEAR}
            assert closed_ratios(witness.family, witness.lengths) == expected

    @pytest.mark.parametrize("fid", ["g1.IX", "g2.VIII", "g3.XIV"])
    def test_a_forged_phi_column_moves_the_closed_ratio_and_not_the_engine(
        self, fid, monkeypatch
    ):
        # the closed route reads the transcribed row, and the engine never does
        spec = family(fid)
        lengths = {name: Fraction(k + 1, 3) for k, name in enumerate(spec.params)}
        closed, engine = closed_ratios(fid, lengths), engine_ratios(fid, lengths)
        assert closed == engine
        shift = Fraction(1, 10**9)

        def forged(p):
            row = list(spec.closed(p))
            row[3] += shift
            return tuple(row)

        monkeypatch.setitem(FAMILIES, fid, dataclasses.replace(spec, closed=forged))
        ell = sum(lengths.values())
        assert closed_ratios(fid, lengths) == {**closed, "phi": closed["phi"] + shift / ell}
        assert engine_ratios(fid, lengths) == engine

    def test_a_forged_linear_row_moves_every_engine_reader_and_not_the_closed_ratio(
        self, monkeypatch
    ):
        # one table feeds the engine's phi everywhere: a + 1 adds tau/d to it
        fid = "g3.XIV"
        lengths = {name: Fraction(k + 1, 3) for k, name in enumerate(self.ONES)}
        g = build(fid, lengths)

        def sampled_phi_min():
            reports = verify_bounds(family=fid, samples=20)
            return next(r.min_ratio for r, _ in reports if r.spec.invariant == "phi")

        before, ratios = invariant_set(g), engine_ratios(fid, lengths)
        closed, sampled = closed_ratios(fid, lengths), sampled_phi_min()
        a, c, b, d = _LINEAR["phi"]
        monkeypatch.setitem(_LINEAR, "phi", (a + 1, c, b, d))
        after = invariant_set(g)
        assert after == dataclasses.replace(before, phi=before.phi + before.tau / d)
        assert zhang_invariants(g)["phi"] == after.phi
        assert engine_ratios(fid, lengths) == {**ratios, "phi": after.phi / after.ell}
        assert sampled_phi_min() > sampled
        passed, report = check_family(fid, 3, 0)
        assert passed == 0
        assert [m.partition(":")[0] for m in report.mismatches] == ["phi"]
        assert closed_ratios(fid, lengths) == closed

    def test_verify_bounds_names_an_unknown_family(self):
        for fid in ("g9.X", "g3.Z"):
            with pytest.raises(UnknownFamilyError, match=f"^unknown family '{fid}'$"):
                verify_bounds(family=fid, samples=1)
