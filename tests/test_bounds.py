import tracemalloc
from fractions import Fraction

import pytest

from pmgraph import (
    CatalogError,
    UnknownFamilyError,
    bound_table,
    build,
    engine_ratio,
    engine_ratios,
    family,
    list_families,
    matching_families,
    named,
    random_lengths,
    sample_check,
    verify_bounds,
    witness_check,
)
from pmgraph.bounds import closed_ratio, closed_ratios


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

    def test_only_restriction(self):
        spec = _row("g3.*", "lambda")
        report = sample_check(spec, samples=4, seed=1, only="g3.XIV")
        assert report.families == ("g3.XIV",)

    def test_bad_selector(self):
        from pmgraph import BoundSpec

        with pytest.raises(UnknownFamilyError):
            sample_check(
                BoundSpec("g7.*", "phi", Fraction(1)), samples=2, seed=0
            )

    def test_only_the_zero_length_family(self):
        with pytest.raises(CatalogError, match="'g0.I' has total length 0") as caught:
            sample_check(_row("g0.*", "phi"), samples=2, seed=0, only="g0.I")
        assert not isinstance(caught.value, UnknownFamilyError)

    def test_ratios_of_the_zero_length_family(self):
        with pytest.raises(CatalogError, match="'g0.I' has total length 0"):
            closed_ratio("g0.I", {}, "phi")
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
        assert ratios["phi"] == closed_ratio(fid, lengths, "phi")

    def test_verify_bounds_names_an_unknown_family(self):
        for fid in ("g9.X", "g3.Z"):
            with pytest.raises(UnknownFamilyError, match=f"^unknown family '{fid}'$"):
                verify_bounds(family=fid, samples=1)
