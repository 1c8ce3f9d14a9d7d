from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from click.testing import CliRunner

import pmgraph.identities as identities_mod
from pmgraph import (
    PROBE_NAMES,
    Polynomial,
    identity_names,
    named,
    variables,
    verify_all,
    verify_identity,
)
from pmgraph.cli import main
from pmgraph.polynomials import _negative_part

ONES = {v: 1 for v in "abcdef"}
RECORDS = Path(__file__).parent / "data" / "identity_records.txt"


def _record(cert) -> str:
    # every field of a certificate, passing components included: the CLI
    # prints only the failing ones
    lines = [f"name: {cert.name}", f"probe: {cert.probe}", f"passed: {cert.passed}"]
    for comp in cert.components:
        lines += [f"  label: {comp.label}", f"    passed: {comp.passed}",
                  f"    detail: {comp.detail!r}"]
    lines.append(f"witness: {cert.witness!r}")
    return "\n".join(lines) + "\n"


class TestNamedPolynomials:
    def test_xiv_b_listing(self):
        p = named("xiv.B")
        assert p.monomial_count() == 3
        assert p.evaluate(ONES) == 3

    def test_monomial_counts_at_ones(self):
        assert named("xiv.A").evaluate(ONES) == 12
        assert named("xiv.C").evaluate(ONES) == 16
        assert named("xiv.D").evaluate(ONES) == 48
        assert named("xiv.M").evaluate(ONES) == 48

    def test_r_and_s_vanish_at_equal_lengths(self):
        assert named("xiv.R").evaluate(ONES) == 0
        assert named("xiv.S").evaluate(ONES) == 0
        diagonal = {v: Fraction(5, 7) for v in "abcdef"}
        assert named("xiv.R").evaluate(diagonal) == 0
        assert named("xiv.S").evaluate(diagonal) == 0

    def test_ell_c_monomial_count(self):
        # expanding ell*C collapses 96 products into 48 + 36 + 12 monomials
        from pmgraph import variables

        va, vb, vc, vd, ve, vf, *_ = variables()
        product = (va + vb + vc + vd + ve + vf) * named("xiv.C")
        assert product.monomial_count() == named("xiv.D").monomial_count() + \
            named("xiv.A").monomial_count() + named("xiv.B").monomial_count()
        # counted with multiplicity: 48*1 + 12*3 + 3*4 = 96 = 6*16 products
        assert sum(product.coefficients()) == 96

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named("xiv.Q")

    def test_viii_d_is_cubic_with_eight_terms(self):
        p = named("viii.D")
        assert p.monomial_count() == 8
        assert p.degree() == 3


class TestCertificates:
    def test_all_non_probes_pass(self):
        for cert in verify_all():
            if cert.name in PROBE_NAMES:
                continue
            assert cert.passed, (cert.name, cert.components)

    def test_probes_fail_with_witnesses(self):
        probes = [cert for cert in verify_all() if cert.probe]
        assert {cert.name for cert in probes} == set(PROBE_NAMES)
        assert len(probes) == 3
        for cert in probes:
            assert not cert.passed, cert.name
            assert cert.witness, cert.name

    def test_registry_contains_required_names(self):
        names = set(identity_names())
        required = {
            "xiv.D_equals_M",
            "xiv.ellC",
            "xiv.tau_rewrite",
            "xiv.phi_rewrite",
            "viii.H_amhm",
            "viii.phi_rewrite",
            "xiii.phi_rewrite",
            "ineq7_equiv",
            "ineq9_line2",
        }
        required |= {f"xiv.case_{label}" for label in
                     ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")}
        required |= {f"xiv.T{i}_sub" for i in range(1, 9)}
        assert required <= names

    def test_unknown_identity(self):
        with pytest.raises(KeyError):
            verify_identity("nope")

    def test_t_sub_expansions_nonnegative(self):
        # coefficient-by-coefficient, not numerically
        for i in range(1, 9):
            cert = verify_identity(f"xiv.T{i}_sub")
            assert cert.passed
            labels = [comp.label for comp in cert.components]
            assert any("negative" in label for label in labels)

    def test_case_decompositions(self):
        for label in ("I", "II", "III", "IV", "V", "VI", "VII", "VIII"):
            assert verify_identity(f"xiv.case_{label}").passed

    def test_s_decomposition(self):
        assert verify_identity("xiv.S_decomposition").passed

    def test_probe_witness_values(self):
        by_name = {cert.name: cert for cert in verify_all()}
        assert "7/20" in by_name["g3_IX_tau_as_printed"].witness
        assert "-480" in by_name["ineq8_as_printed"].witness
        assert "-10/9" in by_name["ineq9_line1_as_printed"].witness

    def test_every_record_is_pinned(self):
        # names, order, labels, details and witnesses of all 29 entries
        text = "".join(_record(cert) for cert in verify_all())
        assert text.encode() == RECORDS.read_bytes()


class TestSignStep:
    """The step of the xiv phi bound that no certificate runs: each case's
    11-weighted cross term is nonnegative because of its orientation."""

    @pytest.mark.parametrize("label", list(identities_mod._CASES))
    def test_cross_term_is_nonnegative_under_its_orientation(self, label):
        oriented = identities_mod._ORIENTED[label]
        assert _negative_part(oriented["eleven"].substitute(oriented["subs"])).is_zero
        # without the substitution it is not, so the orientation carries the step
        assert not _negative_part(oriented["eleven"]).is_zero

    def test_r_alone_has_negative_coefficients(self):
        r = named("xiv.R")
        assert (_negative_part(r).monomial_count(), r.monomial_count()) == (15, 63)

    def test_the_cases_cover_every_orientation(self):
        # one larger letter from each of (a, f), (b, e), (c, d), all 2^3 ways
        larger = {frozenset(oriented["subs"]) for oriented in identities_mod._ORIENTED.values()}
        assert larger == {frozenset(pick) for pick in product("af", "be", "cd")}


class TestFailureBranches:
    """A certificate that fails, made by replacing one registry row, with
    its output text pinned literally."""

    def test_negative_coefficient_fails_the_run(self, monkeypatch):
        a, b, c = variables()[:3]
        poly = a**2 - 2 * a * b + Fraction(-1, 3) * c + 5
        monkeypatch.setitem(
            identities_mod._CERTIFICATES, "xiv.T1_sub",
            lambda: [identities_mod._nonnegative("expansion has no negative coefficient", poly)],
        )
        result = CliRunner().invoke(main, ["verify", "identities"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert (
            "FAIL  xiv.T1_sub\n"
            "      expansion has no negative coefficient: negative coefficients: -2*a*b - 1/3*c\n"
            "PASS  xiv.T2_sub\n"
        ) in result.output

    def test_long_difference_is_cut_to_the_limit(self, monkeypatch):
        monkeypatch.setitem(
            identities_mod._CERTIFICATES, "xiv.D_equals_M",
            lambda: [identities_mod._equal("D = A", named("xiv.D"), named("xiv.A"))],
        )
        cert = verify_identity("xiv.D_equals_M")
        assert not cert.passed
        (component,) = cert.components
        detail = (
            "difference (60 terms): a^2*b*d + a^2*b*e + a^2*b*f + a^2*c*d + a^2*c*e"
            " + a^2*c*f + a^2*d*f + a^2*e*f + a*b^2*d + a*b^2*e + a*b^2*f - a*b*c*d"
            " - a*b*c*e - a*b ..."
        )
        assert len(detail) == identities_mod._DETAIL_LIMIT == 160
        assert component.detail == detail
        result = CliRunner().invoke(main, ["verify", "identities", "--name", "xiv.D_equals_M"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"FAIL  xiv.D_equals_M\n      D = A: {detail}\n"

    def test_zero_polynomial_is_nonnegative(self):
        result = identities_mod._nonnegative("zero", Polynomial())
        assert result == identities_mod.ComponentResult("zero", True)


# -- the registry's parser and a failing value check ----------------------------


def test_compact_monomials_read_signs_and_reject_bad_tokens():
    a, b = Polynomial.variable("a"), Polynomial.variable("b")
    assert identities_mod._poly("-ab +a 3b2") == -a * b + a + 3 * b * b
    with pytest.raises(ValueError, match="'a\\?'"):
        identities_mod._poly("ab a?")


def test_a_wrong_value_fails_with_both_values():
    result = identities_mod._value("probe", Polynomial.variable("a"), {"a": 2}, Fraction(3))
    assert result == identities_mod.ComponentResult("probe", False, "value 2 != 3")
