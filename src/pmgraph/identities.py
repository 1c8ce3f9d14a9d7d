"""Named polynomials and symbolic identity certificates.

This module houses the polynomial side of the total-genus-3 sharp bound
derivations: the quartic/cubic polynomials attached to the three "hard"
families (the complete graph ``g3.XIV``, and the doubled-edge families
``g3.VIII`` and ``g3.XIII``), the rewrites that exhibit ``tau - 5 ell/96``
and ``phi - 17 ell/288`` (or ``phi - ell/16``) as manifestly nonnegative
rational functions, and the eight sign-pattern cases that finish the
``g3.XIV`` phi bound.

Every rational-function identity is cleared of denominators first (the
denominators are complement spanning-tree polynomials, strictly positive on
positive lengths), so each certificate is a pure polynomial equality checked
in canonical form.  Three deliberately failing probes record misprints in
circulated forms of these identities; each probe carries a concrete witness
point showing the discrepancy.

The registry is one ordered table: ``_CERTIFICATES`` maps each name to a
function that builds its components, and ``_PROBES`` maps each probe's name
to a function that returns its components and its witness.  The names, their
order and ``PROBE_NAMES`` are read off these two dicts.  Every polynomial
below is expanded once, at import; each certificate's two sides are built
again on every call.  The xiv sums of squares are ``_squares`` rows built
from K4's edges as ``g3.XIV`` draws them: three opposite pairs, and twelve
adjacent pairs that meet in one vertex.  Sign case i assumes the i-th
orientation of those pairs in ``itertools.product`` order, and one loop
derives from it the assumption, the substitution, the 13- and 11-weighted
terms and the names; ``_CASES`` keeps each case's displayed expansion and
the T of cases I-IV, since case 9 - i flips every pair of case i.

Names are prefixed by family (``xiv.``, ``viii.``, ``xiii.``) or by the
summary-inequality number (``ineq7``, ``ineq8``, ``ineq9``) because the same
letters A, B, C, D, H, M, N are reused with different meanings in each
context.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from typing import Callable, Mapping, Optional, Union

from .polynomials import (
    VARIABLES,
    Polynomial,
    _negative_part,
    _text,
    _weighted_sum,
    variables,
)

a, b, c, d, e, f, k, m, n = variables()

_ELL6 = a + b + c + d + e + f
_ELL5 = a + b + c + d + e

_MONOMIAL = re.compile(r"^([+-]?\d*)((?:[a-fkmn]\d?)+)$")


def _poly(text: str) -> Polynomial:
    """Sum of compact monomials: ``"a2bd -2abde 14ace"`` reads a2bd = a^2*b*d."""
    terms: dict[tuple[int, ...], int] = {}
    for token in text.split():
        match = _MONOMIAL.match(token)
        if not match:
            raise ValueError(f"bad monomial token {token!r}")
        sign_num, body = match.groups()
        if sign_num in ("", "+"):
            coeff = 1
        elif sign_num == "-":
            coeff = -1
        else:
            coeff = int(sign_num)
        exps = [0] * len(VARIABLES)
        for letter, power in re.findall(r"([a-fkmn])(\d?)", body):
            exps[VARIABLES.index(letter)] += int(power) if power else 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(terms)


def _sq(p: Polynomial) -> Polynomial:
    return p * p


# -- named polynomials -------------------------------------------------------

_XIV_A = _poly("abcd abce abde acde abcf abdf bcdf acef bcef adef bdef cdef")
_XIV_B = _poly("bcde acdf abef")
_XIV_C = _poly("abd acd bcd abe ace bce bde cde abf acf bcf adf cdf aef bef def")
_XIV_M = _poly(
    "a2bd a2be a2bf a2cd a2ce a2cf a2df a2ef ab2d ab2e ab2f abd2 abe2 abf2"
    " ac2d ac2e ac2f acd2 ace2 acf2 ad2f adf2 ae2f aef2 b2cd b2ce b2cf b2de"
    " b2ef bc2d bc2e bc2f bcd2 bce2 bcf2 bd2e bde2 be2f bef2 c2de c2df cd2e"
    " cd2f cde2 cdf2 d2ef de2f def2"
)
# listed independently of M; the certificate "xiv.D_equals_M" checks they agree
_XIV_D = _poly(
    "a2bd a2be a2bf a2cd a2ce a2cf a2df a2ef ab2d ab2e ab2f abd2 abe2 abf2"
    " ac2d ac2e ac2f acd2 ace2 acf2 ad2f adf2 ae2f aef2 b2cd b2ce b2cf b2de"
    " b2ef bc2d bc2e bc2f bcd2 bce2 bcf2 bd2e bde2 be2f bef2 c2de c2df cd2e"
    " cd2f cde2 cdf2 d2ef de2f def2"
)
_XIV_S = 3 * _XIV_M - 7 * _XIV_A - 20 * _XIV_B
_XIV_R = 15 * _XIV_D - 19 * _XIV_A - 164 * _XIV_B

_VIII_H = _poly(
    "b2cd bc2d bcd2 b2ce bc2e b2de -12bcde c2de bd2e cd2e bce2 bde2 cde2"
)
_VIII_D = _poly("ace abe cbe acd abd cbd ced bed")
_VIII_N = _poly(
    "14ace 3c2e 14abe 3b2e 3ce2 3be2 14acd 3c2d 14abd 3b2d 3cd2 3bd2"
)
_VIII_M = _sq(c - b) * e + _sq(c - b) * d + c * _sq(e - d) + b * _sq(e - d)

_XIII_A = _poly("acde bcde acdf bcdf acef bcef adef bdef")
_XIII_B = _poly("abce abde abcf abdf")
_XIII_C = _poly("cdef")
_XIII_D = (
    (a + b) * c * e + (a + b) * d * e + _poly("cde")
    + (a + b) * c * f + (a + b) * d * f + _poly("cdf cef def")
)
_XIII_H = _poly(
    "c2de cd2e cde2 c2df cd2f c2ef -12cdef d2ef ce2f de2f cdf2 cef2 def2"
)
_XIII_N = (
    14 * (a + b) * c * e + _poly("3c2e")
    + 14 * (a + b) * d * e + _poly("3d2e 3ce2 3de2")
    + 14 * (a + b) * c * f + _poly("3c2f")
    + 14 * (a + b) * d * f + _poly("3d2f 3cf2 3df2")
)
_XIII_M = _sq(c - d) * e + _sq(c - d) * f + c * _sq(e - f) + d * _sq(e - f)

_INEQ7_A = c * d * (b + e) * (a + f) + b * e * (c + d) * (a + f) + a * f * (c + d) * (b + e)
_INEQ7_C = (
    c * d * (a + b + e + f) + a * f * (b + c + d + e) + b * e * (a + c + d + f)
    + _poly("abd ace bcf def")
)

NAMED: dict[str, Polynomial] = {
    "xiv.A": _XIV_A,
    "xiv.B": _XIV_B,
    "xiv.C": _XIV_C,
    "xiv.D": _XIV_D,
    "xiv.M": _XIV_M,
    "xiv.S": _XIV_S,
    "xiv.R": _XIV_R,
    "viii.H": _VIII_H,
    "viii.D": _VIII_D,
    "viii.N": _VIII_N,
    "viii.M": _VIII_M,
    "xiii.A": _XIII_A,
    "xiii.B": _XIII_B,
    "xiii.C": _XIII_C,
    "xiii.D": _XIII_D,
    "xiii.H": _XIII_H,
    "xiii.N": _XIII_N,
    "xiii.M": _XIII_M,
    "ineq7.A": _INEQ7_A,
    "ineq7.C": _INEQ7_C,
}


def named(name: str) -> Polynomial:
    """Look up a registered polynomial (``"xiv.B"``, ``"viii.H"``...)."""
    try:
        return NAMED[name]
    except KeyError:
        raise KeyError(f"unknown polynomial {name!r}") from None


# -- the eight sign cases for the xiv phi bound ------------------------------

# K4 as g3.XIV draws it: each letter's ends.  Two edges with no common end are
# opposite, and the six form three opposite pairs, af, be and cd; any two
# others are adjacent and meet in exactly one vertex.
_ENDS = {edge[0]: edge[2::2] for edge in "a:1-2 b:1-3 c:1-4 d:2-3 e:2-4 f:3-4".split()}
_X = {x: Polynomial.variable(x) for x in _ENDS}


def _meet(*letters: str) -> set[str]:
    return set.intersection(*(set(_ENDS[x]) for x in letters))


_PAIRS = [x + y for x, y in combinations(_ENDS, 2) if not _meet(x, y)]
_ADJACENT = [(x, y) for x, y in combinations(_ENDS, 2) if _meet(x, y)]
_OPPOSITE = {x: y for pair in _PAIRS for x, y in (pair, pair[::-1])}
# each pair p with the other two, q and r, and each pair's product
_SPLITS = [(p, *(q for q in _PAIRS if q != p)) for p in _PAIRS]
_PI = {x + y: _X[x] * _X[y] for x, y in _PAIRS}


def _squares(terms: list) -> Polynomial:
    """Sum of weight * monomial * form^2 over ``(weight, monomial, form)`` rows."""
    return _weighted_sum([(weight, monomial * _sq(form)) for weight, monomial, form in terms])


# Each case writes R = 2*_TWO + 13*thirteen + 15*_FIFTEEN + 11*eleven + 15*T;
# its thirteen and eleven follow from its orientation (``_oriented``).
# _TWO sums pi_p (sigma_q - sigma_r)^2, with sigma a pair's sum, and
# _FIFTEEN sums x y (x' - y')^2 over adjacent x, y, with x' opposite x.
_TWO = _squares([(1, _PI[p], _X[q[0]] + _X[q[1]] - _X[r[0]] - _X[r[1]]) for p, q, r in _SPLITS])
_FIFTEEN = _squares([(1, _X[x] * _X[y], _X[_OPPOSITE[x]] - _X[_OPPOSITE[y]])
                     for x, y in _ADJACENT])
# the displayed sum-of-nonnegatives decomposition of S: each pair's product
# times the other pairs' squared differences, twice; each adjacent x, y times
# the squared differences in the triangle opposite their common vertex, 3/2
# times; and the product of the pair holding neither times (x - y)^2, half
_S_DECOMPOSITION = _squares(
    [(2, _PI[p], _X[q[0]] - _X[q[1]]) for p, *others in _SPLITS for q in others]
    + [(Fraction(3, 2), _X[x] * _X[y], _X[u] - _X[w]) for x, y in _ADJACENT
       for u, w in combinations([z for z in _ENDS if not _meet(x, y, z)], 2)]
    + [(Fraction(1, 2), _PI[next(p for p in _PAIRS if not {x, y} & {*p})], _X[x] - _X[y])
       for x, y in _ADJACENT]
)

# One row per case: T, cases I-IV only, and its displayed expansion under the
# case's substitution, transcribed so that the certificates check them.
_CASES: dict[str, dict] = {
    "I": dict(
        T=_poly("a2bd a2ce ab2d abd2 -2abde -2abdf ac2e -2acde ace2 -2acef b2cf bc2f -2bcdf -2bcef"
                " bcf2 d2ef de2f def2"),
        T_sub=_poly("d2km 2dek2 2dfm2 dk2m dkm2 e2kn 2efn2 ek2n ekn2 f2mn fm2n fmn2"),
    ),
    "II": dict(
        T=_poly("a2bd a2ce ab2d -2abce -2abcf abd2 ac2e -2acde ace2 -2adef b2cf bc2f -2bcdf bcf2"
                " -2bdef d2ef de2f def2"),
        T_sub=_poly("c2km 2cek2 2cfm2 ck2m ckm2 2ckmn e2kn 2efn2 ek2n 2ekmn ekn2 f2mn 2fkmn fm2n"
                    " fmn2 k2mn km2n kmn2"),
    ),
    "III": dict(
        T=_poly("a2bd a2ce ab2d -2abcd -2abcf abd2 -2abde ac2e ace2 -2adef b2cf bc2f -2bcef bcf2"
                " -2cdef d2ef de2f def2"),
        # 2bfn2: the substitution forces n^2 here (from c = d + n), not m^2;
        # either way the term is nonnegative
        T_sub=_poly("b2kn 2bdk2 2bfn2 bk2n 2bkmn bkn2 d2km 2dfm2 dk2m dkm2 2dkmn f2mn 2fkmn fm2n"
                    " fmn2 k2mn km2n kmn2"),
    ),
    "IV": dict(
        T=_poly("a2bd a2ce ab2d -2abcd -2abce abd2 -2abdf ac2e ace2 -2acef b2cf bc2f bcf2 -2bdef"
                " -2cdef d2ef de2f def2"),
        # 2bfn2 for the same reason as in case III (here n comes from d = c + n)
        T_sub=_poly("b2kn 2bck2 2bfn2 bk2n bkn2 c2km 2cfm2 ck2m ckm2 f2mn fm2n fmn2"),
    ),
    "V": dict(T_sub=_poly("a2mn 2adm2 2aen2 2akmn am2n amn2 d2km 2dek2 dk2m dkm2 2dkmn e2kn ek2n"
                          " 2ekmn ekn2 k2mn km2n kmn2")),
    "VI": dict(T_sub=_poly("a2mn 2acm2 2aen2 am2n amn2 c2km 2cek2 ck2m ckm2 e2kn ek2n ekn2")),
    "VII": dict(T_sub=_poly("a2mn 2abn2 2adm2 am2n amn2 b2kn 2bdk2 bk2n bkn2 d2km dk2m dkm2")),
    "VIII": dict(T_sub=_poly("a2mn 2abn2 2acm2 2akmn am2n amn2 b2kn 2bck2 bk2n 2bkmn bkn2 c2km"
                             " ck2m ckm2 2ckmn k2mn km2n kmn2")),
}


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class ComponentResult:
    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class IdentityCertificate:
    name: str
    probe: bool
    passed: bool
    components: tuple[ComponentResult, ...]
    witness: Optional[str] = None


_DETAIL_LIMIT = 160


def _shorten(text: str) -> str:
    return text if len(text) <= _DETAIL_LIMIT else text[: _DETAIL_LIMIT - 4] + " ..."


def _equal(label: str, left: Polynomial, right: Polynomial) -> ComponentResult:
    if left == right:
        return ComponentResult(label, True)
    diff = left - right
    return ComponentResult(
        label, False,
        _shorten(f"difference ({diff.monomial_count()} terms): {_text(diff, _DETAIL_LIMIT)}"),
    )


def _value(
    label: str,
    poly: Polynomial,
    point: Mapping[str, Union[int, Fraction]],
    expected: Fraction,
) -> ComponentResult:
    got = poly.evaluate(point)
    if got == expected:
        return ComponentResult(label, True)
    return ComponentResult(label, False, f"value {got} != {expected}")


def _nonnegative(label: str, poly: Polynomial) -> ComponentResult:
    bad = _negative_part(poly)
    if bad.is_zero:
        return ComponentResult(label, True)
    return ComponentResult(
        label, False, _shorten(f"negative coefficients: {_text(bad, _DETAIL_LIMIT)}")
    )


_Components = list[ComponentResult]


def _case(case: dict, oriented: dict) -> _Components:
    decomposition = _weighted_sum([
        (2, _TWO), (13, oriented["thirteen"]), (15, _FIFTEEN),
        (11, oriented["eleven"]), (15, case["T"]),
    ])
    label = ("R = 2[..] + 13[..] + 15[squares] + 11[cross] + 15*T"
             f" (under {oriented['assumption']})")
    return [_equal(label, _XIV_R, decomposition)]


def _t_sub(index: int, case: dict, oriented: dict) -> _Components:
    return [
        _equal(f"T{index}[{oriented['subs_text']}] matches its displayed expansion",
               case["T"].substitute(oriented["subs"]), case["T_sub"]),
        _nonnegative(f"displayed expansion of T{index} has no negative coefficient",
                     case["T_sub"]),
    ]


def _oriented(pairs: tuple[str, str, str]) -> dict:
    """What one orientation of the pairs (a, f), (b, e), (c, d) gives its case.
    The first letter of each pair is the larger length; ``subs`` writes it as
    the smaller plus k, m or n in pair order.  With s_p = larger - smaller and
    pi_p the pair's product, ``thirteen`` sums pi_p (s_q - s_r)^2 and
    ``eleven`` sums pi_p s_q s_r over the pairs p, q and r being the others."""
    s = {pair: _X[big] - _X[small] for pair, (big, small) in zip(_PAIRS, pairs)}
    thirteen = _squares([(1, _PI[p], s[q] - s[r]) for p, q, r in _SPLITS])
    eleven = _weighted_sum([(1, _PI[p] * s[q] * s[r]) for p, q, r in _SPLITS])
    subs = {big: _X[small] + step for (big, small), step in zip(pairs, (k, m, n))}
    assumption = ", ".join(f"{big} >= {small}" for big, small in pairs)
    subs_text = ", ".join(f"{name} = {value}" for name, value in sorted(subs.items()))
    return dict(assumption=assumption, subs=subs, subs_text=subs_text,
                thirteen=thirteen, eleven=eleven)


# case i assumes the i-th orientation in ``itertools.product`` order
_ORIENTED: dict[str, dict] = {}
_CASE_CERTIFICATES: dict[str, Callable[[], _Components]] = {}
_T_SUB_CERTIFICATES: dict[str, Callable[[], _Components]] = {}
for _index, ((_label, _row), _pairs) in enumerate(
    zip(_CASES.items(), product(*((pair, pair[::-1]) for pair in _PAIRS))), start=1
):
    # case 9 - i flips every pair of case i; that negates every s_p, which
    # leaves thirteen and eleven, and so T, unchanged
    if "T" not in _row:
        _row["T"] = NAMED[f"xiv.T{9 - _index}"]
    _ORIENTED[_label] = _oriented(_pairs)
    NAMED[f"xiv.T{_index}"] = _row["T"]
    _CASE_CERTIFICATES[f"xiv.case_{_label}"] = partial(_case, _row, _ORIENTED[_label])
    _T_SUB_CERTIFICATES[f"xiv.T{_index}_sub"] = partial(_t_sub, _index, _row, _ORIENTED[_label])


def _viii_phi_rewrite() -> _Components:
    # phi = ell/9 - (7bcde + 2Q)/(9D) with Q = a(bcd+bce+bde+cde);
    # claim phi = ell/16 + (a(N+11M) + 14H)/(288D); cleared by 288D
    q = a * _poly("bcd bce bde cde")
    left = 14 * _ELL5 * _VIII_D - 64 * q - 224 * _poly("bcde")
    right = a * (_VIII_N + 11 * _VIII_M) + 14 * _VIII_H
    return [_equal("14*ell*D - 64Q - 224bcde = a(N+11M) + 14H", left, right)]


def _xiii_phi_rewrite() -> _Components:
    # phi = ell/9 - (2A - 6B + 7C)/(9D); claim
    # phi = ell/16 + ((a+b)(N+11M) + 14H + 192ab(c+d)(e+f))/(288D)
    left = 14 * _ELL6 * _XIII_D - 64 * _XIII_A + 192 * _XIII_B - 224 * _XIII_C
    right = (
        (a + b) * (_XIII_N + 11 * _XIII_M)
        + 14 * _XIII_H
        + 192 * a * b * (c + d) * (e + f)
    )
    return [_equal("14*ell*D - 64A + 192B - 224C = (a+b)(N+11M) + 14H + 192ab(c+d)(e+f)",
                   left, right)]


# The certificates in registry order; each entry expands its polynomials anew
# on every call.
_CERTIFICATES: dict[str, Callable[[], _Components]] = {
    "xiv.D_equals_M": lambda: [_equal("D = M", _XIV_D, _XIV_M)],
    "xiv.ellC": lambda: [
        _equal("ell*C = D + 3A + 4B", _ELL6 * _XIV_C, _XIV_D + 3 * _XIV_A + 4 * _XIV_B)
    ],
    # ell/12 - (A+2B)/(6C) = 5 ell/96 + S/(96C), multiplied through by 96C
    "xiv.tau_rewrite": lambda: [
        _equal(
            "8*ell*C - 16A - 32B = 5*ell*C + S",
            8 * _ELL6 * _XIV_C - 16 * _XIV_A - 32 * _XIV_B,
            5 * _ELL6 * _XIV_C + _XIV_S,
        )
    ],
    # ell/9 - (2A+7B)/(9C) = 17 ell/288 + R/(288C), multiplied through by 288C.
    # The 288 in the right-hand denominator is forced by consistency; the
    # variant with denominator C alone is recorded as a failing probe.
    "xiv.phi_rewrite": lambda: [
        _equal(
            "32*ell*C - 64A - 224B = 17*ell*C + R",
            32 * _ELL6 * _XIV_C - 64 * _XIV_A - 224 * _XIV_B,
            17 * _ELL6 * _XIV_C + _XIV_R,
        )
    ],
    **_CASE_CERTIFICATES,
    **_T_SUB_CERTIFICATES,
    "xiv.S_decomposition": lambda: [
        _equal(
            "S = 2[..] + 3/2[..] + 1/2[..] (sum of weighted squares)",
            _XIV_S,
            _S_DECOMPOSITION,
        )
    ],
    "viii.H_amhm": lambda: [
        _equal(
            "H = (b+c+d+e)(bcd+bce+bde+cde) - 16bcde",
            _VIII_H,
            (b + c + d + e) * _poly("bcd bce bde cde") - 16 * _poly("bcde"),
        )
    ],
    "viii.phi_rewrite": _viii_phi_rewrite,
    "xiii.phi_rewrite": _xiii_phi_rewrite,
    # the summary inequality's A and C are the xiv polynomials in disguise,
    # and 32 times its left side clears to exactly R
    "ineq7_equiv": lambda: [
        _equal("ineq7.A expands to xiv.A", _INEQ7_A, _XIV_A),
        _equal("ineq7.C expands to xiv.C", _INEQ7_C, _XIV_C),
        _equal(
            "15*ell*C - 64A - 224B = R (32 times the cleared inequality)",
            15 * _ELL6 * _XIV_C - 64 * _XIV_A - 224 * _XIV_B,
            _XIV_R,
        ),
    ],
    "ineq9_line2": lambda: [
        _equal(
            "3*ell*C - 16A - 32B = S (so line 2 is the ell = 1 form of the tau bound)",
            3 * _ELL6 * _XIV_C - 16 * _XIV_A - 32 * _XIV_B,
            _XIV_S,
        ),
        _value(
            "3C - 16A - 32B vanishes at a = ... = f = 1/6",
            3 * _XIV_C - 16 * _XIV_A - 32 * _XIV_B,
            {v: Fraction(1, 6) for v in "abcdef"},
            Fraction(0),
        ),
    ],
}


def _g3_ix_tau_as_printed() -> tuple[_Components, str]:
    # One circulated form of the g3.IX tau entry reads ell/12 + b/6; it is
    # inconsistent with the family's delta_1 = 0 and with its phi entry.
    # Cleared by 12*(de + (b+c)(d+e)), printed vs topology-derived:
    delta = d * e + (b + c) * (d + e)
    printed = _ELL5 * delta + 2 * b * delta
    derived = _ELL5 * delta - 2 * d * e * (b + c)
    ones = {v: 1 for v in "abcde"}
    witness = (
        "at a=b=c=d=e=1: printed tau = "
        f"{printed.evaluate(ones) / (12 * delta.evaluate(ones))}, "
        f"table-consistent tau = {derived.evaluate(ones) / (12 * delta.evaluate(ones))}"
    )
    label = "printed tau entry matches the topology-derived tau"
    return [_equal(label, printed, derived)], witness


def _ineq8_as_printed() -> tuple[_Components, str]:
    # as printed: ell/32 - (2B + A)/C >= 0; clearing by 32C would have to
    # reproduce S (the tau bound it claims to restate), but it does not,
    # and the printed inequality is itself false at equal lengths
    printed = _ELL6 * _XIV_C - 32 * _XIV_A - 64 * _XIV_B
    ones = {v: 1 for v in "abcdef"}
    witness = (
        f"at a=...=f=1: printed cleared form = {printed.evaluate(ones)} < 0, "
        f"S = {_XIV_S.evaluate(ones)} (the correct rewrite is "
        "3*ell*C - 16A - 32B = S, which vanishes there)"
    )
    return [_equal("ell*C - 32A - 64B = S", printed, _XIV_S)], witness


def _ineq9_line1_as_printed() -> tuple[_Components, str]:
    printed = 15 * _XIV_C - 224 * _XIV_A - 64 * _XIV_B
    corrected = 15 * _XIV_C - 64 * _XIV_A - 224 * _XIV_B
    sixth = {v: Fraction(1, 6) for v in "abcdef"}
    witness = (
        f"at a=...=f=1/6: printed form = {printed.evaluate(sixth)} < 0, "
        f"corrected form (64/224 swapped back) = {corrected.evaluate(sixth)}"
    )
    return [_equal("15C - 224A - 64B = 15C - 64A - 224B", printed, corrected)], witness


# The probes, listed after the certificates; each returns its components and
# the witness point that shows the misprint.
_PROBES: dict[str, Callable[[], tuple[_Components, str]]] = {
    "g3_IX_tau_as_printed": _g3_ix_tau_as_printed,
    "ineq8_as_printed": _ineq8_as_printed,
    "ineq9_line1_as_printed": _ineq9_line1_as_printed,
}

PROBE_NAMES = frozenset(_PROBES)


def identity_names() -> list[str]:
    return [*_CERTIFICATES, *_PROBES]


def verify_identity(name: str) -> IdentityCertificate:
    if name in _CERTIFICATES:
        components, witness = _CERTIFICATES[name](), None
    elif name in _PROBES:
        components, witness = _PROBES[name]()
    else:
        raise KeyError(f"unknown identity {name!r}")
    return IdentityCertificate(
        name=name,
        probe=name in _PROBES,
        passed=all(component.passed for component in components),
        components=tuple(components),
        witness=witness,
    )


def verify_all() -> list[IdentityCertificate]:
    return [verify_identity(name) for name in identity_names()]
