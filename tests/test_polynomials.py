import random
from decimal import Decimal
from fractions import Fraction

import pytest

from oracles import RefPolynomial
from pmgraph import Polynomial, variables
from pmgraph.polynomials import MAX_EXPONENT, VARIABLES


a, b, c, d, e, f, k, m, n = variables()


class TestArithmetic:
    def test_sum_and_product(self):
        p = (a + b) * (a - b)
        assert p == a * a - b * b

    def test_square_expansion(self):
        p = (a + b) ** 2
        assert p == a**2 + 2 * a * b + b**2

    def test_scalar_coefficients(self):
        p = 3 * a - Fraction(1, 2) * b
        assert p.coefficients() == [3, Fraction(-1, 2)]

    def test_zero_terms_dropped(self):
        p = a - a
        assert p.is_zero
        assert p.monomial_count() == 0

    def test_pow_zero(self):
        assert a**0 == 1

    def test_degree(self):
        assert ((a * b * c) + a).degree() == 3
        assert Polynomial.constant(5).degree() == 0

    def test_rsub(self):
        assert (1 - a) == -(a - 1)

    def test_bool_scalars_become_ints(self):
        # True is the int 1 on either side of a subtraction, as in a sum
        assert str(True - a) == str(1 - a) == "-a + 1"
        assert str(a - True) == "a - 1"
        assert True - a == 1 - a == -(a - 1)
        assert a - True == a - 1
        assert [type(v) for v in (True - a)._terms.values()] == [int, int]


class TestEquality:
    def test_constant_comparison(self):
        assert Polynomial.constant(Fraction(3, 4)) == Fraction(3, 4)
        assert a - a == 0

    def test_hashable(self):
        assert len({a + b, b + a, a - b}) == 2

    def test_constants_hash_like_the_numbers_they_equal(self):
        for value in (0, 3, -1, Fraction(3, 4), Fraction(6, 3)):
            assert Polynomial.constant(value) == value
            assert hash(Polynomial.constant(value)) == hash(value)
        assert len({Polynomial.constant(3), 3, a - a, 0}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            (a + b).new_field = 1


class TestSubstitute:
    def test_simultaneous(self):
        # a and b swap; sequential substitution would collapse them
        p = a - b
        assert p.substitute({"a": b, "b": a}) == b - a

    def test_shift(self):
        p = (a * b).substitute({"a": f + k})
        assert p == f * b + k * b

    def test_into_constants(self):
        p = (a + b).substitute({"a": Polynomial.constant(2)})
        assert p == b + 2


class TestEvaluate:
    def test_point(self):
        p = a * b + c
        value = p.evaluate({"a": Fraction(1, 2), "b": 4, "c": Fraction(1, 3)})
        assert value == Fraction(7, 3)

    def test_missing_variable(self):
        with pytest.raises(KeyError):
            (a + b).evaluate({"a": 1})

    def test_extra_variables_allowed(self):
        assert a.evaluate({"a": 2, "b": 99}) == 2


class TestFormat:
    def test_str(self):
        p = a**2 - 2 * a * b + b**2
        assert str(p) == "a^2 - 2*a*b + b^2"

    def test_support(self):
        assert (a * e - n).support() == {"a", "e", "n"}


class TestScalarTypes:
    """No float (or any scalar other than int and Fraction) enters a polynomial."""

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", Decimal("0.5"), 1j])
    def test_constructor_coefficients(self, bad):
        with pytest.raises(TypeError):
            Polynomial({(1, 0, 0, 0, 0, 0, 0, 0, 0): bad})
        with pytest.raises(TypeError):
            Polynomial.constant(bad)

    @pytest.mark.parametrize("bad", [0.1, Decimal("0.5")])
    def test_arithmetic_operands(self, bad):
        for operation in (
            lambda: bad * a, lambda: a * bad, lambda: a + bad, lambda: bad + a,
            lambda: a - bad, lambda: bad - a,
        ):
            with pytest.raises(TypeError):
                operation()

    def test_substitute_values(self):
        with pytest.raises(TypeError):
            a.substitute({"a": 0.1})

    def test_evaluate_points(self):
        with pytest.raises(TypeError):
            a.evaluate({"a": 0.1})
        with pytest.raises(TypeError):
            a.evaluate({"a": 1, "b": 0.5})

    def test_exact_scalars_still_accepted(self):
        p = Fraction(1, 2) * a + 3
        assert p.evaluate({"a": Fraction(2, 3)}) == Fraction(10, 3)
        assert (a * b).substitute({"a": Fraction(3, 2)}) == Fraction(3, 2) * b
        assert a.evaluate({"a": True}) == 1


class TestExponentRange:
    def test_huge_power_raises_before_any_product(self, monkeypatch):
        import pmgraph.polynomials as kernel

        def no_product(*args):
            raise AssertionError("a product was computed")

        square = a**2 + b
        two = Polynomial.constant(2)
        monkeypatch.setattr(kernel, "_product", no_product)
        with pytest.raises(ValueError):
            a ** 10**9
        with pytest.raises(ValueError):
            square**64
        with pytest.raises(ValueError):
            two ** (MAX_EXPONENT + 1)

    def test_largest_power(self):
        assert (a**MAX_EXPONENT).terms() == {(MAX_EXPONENT,) + (0,) * 8: 1}
        assert (a**63 + b) ** 2 == a**126 + 2 * a**63 * b + b**2

    def test_product_overflow_raises_instead_of_carrying(self):
        # a^128 would otherwise read as b^1 with no a
        with pytest.raises(ValueError):
            a**MAX_EXPONENT * a
        with pytest.raises(ValueError):
            (b**64 + c) * (b**64 - c)
        with pytest.raises(ValueError):
            (a**100 * b**100).substitute({"a": b})

    def test_substitution_overflow_raises_before_it_carries(self):
        # a third factor of d^127 would carry out of d's byte and leave
        # d^125 with its guard bit clear, so only a check after every factor
        # sees the second one overflow
        with pytest.raises(ValueError):
            (d**127 * a * b).substitute({"a": d**127, "b": d**127})

    @pytest.mark.parametrize("exps", [(MAX_EXPONENT + 1,) + (0,) * 8, (-1,) + (0,) * 8, (1, 0)])
    def test_constructor_exponents(self, exps):
        with pytest.raises(ValueError):
            Polynomial({exps: 1})

    def test_pow_zero_and_negative(self):
        for p in (a, a + b, Polynomial(), Polynomial.constant(Fraction(2, 3))):
            assert p**0 == 1
        with pytest.raises(ValueError):
            a**-1
        with pytest.raises(ValueError):
            (a + 1) ** -2


def _random_poly(rng: random.Random, max_terms: int = 5, max_exp: int = 3) -> dict:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.choice((0, 0, 0, 1, 2, max_exp)) for _ in VARIABLES)
        if rng.random() < 0.5:
            coeff = rng.randint(-5, 5)
        else:
            coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        terms[exps] = coeff
    return terms


def _assert_same(p: Polynomial, ref: RefPolynomial, order: bool = True) -> None:
    assert p.terms() == ref.terms
    if order:
        assert list(p.terms()) == list(ref.terms)
        assert p.coefficients() == list(ref.terms.values())
    assert all(type(c) is Fraction for c in p.coefficients())
    # stored coefficients are ints exactly when integral
    assert all((type(c) is int) == (c.denominator == 1) for c in p._terms.values())
    assert str(p) == str(ref)
    assert p.degree() == ref.degree()
    assert p.support() == ref.support()
    assert p.monomial_count() == len(ref.terms)
    assert p.is_zero == (not ref.terms)


class TestAgainstReference:
    """The packed kernel against the tuple-keyed Fraction reference."""

    def test_random_operations(self):
        rng = random.Random(20141)
        for _ in range(150):
            t1, t2, t3 = (_random_poly(rng) for _ in range(3))
            p, q, r = Polynomial(t1), Polynomial(t2), Polynomial(t3)
            rp, rq, rr = RefPolynomial(t1), RefPolynomial(t2), RefPolynomial(t3)
            _assert_same(p, rp)
            _assert_same(p + q, rp + rq)
            _assert_same(p - q, rp - rq)
            _assert_same(-p, -rp)
            _assert_same(p * q, rp * rq)
            _assert_same(p * q + r, rp * rq + rr)
            scalar = rng.choice((0, 1, -3, Fraction(2, 3), Fraction(-5, 2)))
            rs = RefPolynomial({(0,) * 9: scalar})
            _assert_same(scalar * p, rs * rp)
            _assert_same(p * scalar, rp * rs)
            _assert_same(p + scalar, rp + rs)
            _assert_same(scalar - p, rs - rp)
            assert (p == q) == (rp == rq)
            assert (p * q == q * p) and hash(p * q) == hash(q * p)
            assert (p + q) - q == p and hash((p + q) - q) == hash(p)

    def test_random_powers(self):
        rng = random.Random(20142)
        for _ in range(60):
            terms = _random_poly(rng, max_terms=3)
            power = rng.randint(0, 5)
            got, want = Polynomial(terms) ** power, RefPolynomial(terms) ** power
            # repeated squaring orders terms like repeated multiplication up to power 3
            _assert_same(got, want, order=power <= 3)

    def test_random_substitutions(self):
        rng = random.Random(20143)
        for _ in range(80):
            terms = _random_poly(rng)
            assignment, ref_assignment = {}, {}
            for name in rng.sample(VARIABLES, rng.randint(1, 4)):
                if rng.random() < 0.3:  # into a constant
                    value = rng.choice((0, 2, Fraction(-1, 3)))
                    assignment[name] = value
                    ref_assignment[name] = RefPolynomial({(0,) * 9: value})
                else:
                    replacement = _random_poly(rng, max_terms=3, max_exp=2)
                    assignment[name] = Polynomial(replacement)
                    ref_assignment[name] = RefPolynomial(replacement)
            _assert_same(
                Polynomial(terms).substitute(assignment),
                RefPolynomial(terms).substitute(ref_assignment),
            )

    def test_substitution_merges_each_factor_like_the_reference(self):
        # a*d expands to b^2 - b*c + c*b - c^2: merged, the two b*c products
        # cancel before they reach the b*c already in the sum, which keeps
        # its place; added one by one they would move it behind b^2
        terms = (b * c + a * d).terms()
        got = Polynomial(terms).substitute({"a": b + c, "d": b - c})
        want = RefPolynomial(terms).substitute(
            {"a": RefPolynomial((b + c).terms()), "d": RefPolynomial((b - c).terms())}
        )
        _assert_same(got, want)
        assert list(got.terms().values()) == [1, 1, -1]

    def test_random_evaluations(self):
        rng = random.Random(20144)
        for _ in range(100):
            terms = _random_poly(rng)
            point = {
                name: rng.choice((0, 1, -2, 7, Fraction(1, 6), Fraction(-3, 4), Fraction(5, 9)))
                for name in VARIABLES
            }
            value = Polynomial(terms).evaluate(point)
            assert type(value) is Fraction
            assert value == RefPolynomial(terms).evaluate(point)

    def test_integral_fraction_coefficients_normalise(self):
        p = Fraction(1, 2) * a * 2
        assert p == a
        assert hash(p) == hash(a)
        assert p.terms() == a.terms()
        assert p._terms == a._terms and type(next(iter(p._terms.values()))) is int
        assert Polynomial({(1,) + (0,) * 8: Fraction(4, 2)}) == 2 * a
        assert hash(Polynomial.constant(Fraction(6, 3))) == hash(Polynomial.constant(2))


# -- the kernel's guard and display branches ------------------------------------


def test_an_exponent_that_is_not_an_int_is_rejected():
    with pytest.raises(TypeError, match="not an int"):
        Polynomial({(Fraction(1, 2),) + (0,) * (len(VARIABLES) - 1): 1})


def test_an_integral_fraction_sum_is_stored_as_an_int():
    half = Polynomial.variable("a") * Fraction(1, 2)
    total = half + half
    assert total == Polynomial.variable("a")
    assert [type(c) for c in total._terms.values()] == [int]


def test_unknown_variables_are_rejected():
    with pytest.raises(KeyError, match="'z'"):
        Polynomial.variable("z")
    with pytest.raises(KeyError, match="'z'"):
        Polynomial.variable("a").substitute({"z": 1})


def test_foreign_operands_are_not_implemented():
    a = Polynomial.variable("a")
    assert a.__pow__("2") is NotImplemented
    with pytest.raises(TypeError):
        a ** "2"
    assert a.__eq__("a") is NotImplemented
    assert a != "a"


def test_repr_shows_the_text():
    assert repr(Polynomial.variable("a") * 2 + 1) == "Polynomial(2*a + 1)"
