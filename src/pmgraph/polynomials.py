"""Exact sparse multivariate polynomials over a fixed variable set.

Variables are ``a, b, c, d, e, f, k, m, n`` in that order.  A polynomial is
a dict from packed monomials to nonzero coefficients, so equality of
canonical forms is equality of polynomials.

A monomial is one ``int``: byte ``i`` from the top holds the exponent of
variable ``i``, so ``key.to_bytes(9, "big")`` is the exponent vector and
multiplying two monomials is one integer addition.  Each byte keeps its top
bit as a guard: an exponent is at most :data:`MAX_EXPONENT` (127), the sum
of two exponents always fits the byte, and a product that pushes any
exponent past the maximum sets a guard bit and raises ``ValueError``
instead of carrying into the next variable.  Keys compare like exponent
tuples, variable ``a`` most significant.

A coefficient is an ``int`` when it is integral and a ``Fraction`` only
when it is not, so equal polynomials have equal term dicts.  Only ``int``
and ``Fraction`` scalars are accepted; a float raises ``TypeError``.
:meth:`Polynomial.terms` and :meth:`Polynomial.coefficients` still give
tuple keys and ``Fraction`` values.

Each operation normalises as it writes its result, in one pass: ``+`` and
``-`` copy the left terms and touch only the right operand's keys
(:func:`_accumulate`), a product drops zeros, turns integral Fractions into
ints and collects the guard bits in its one output loop, and
:meth:`Polynomial.substitute` expands each term as a list of pairs and
normalises once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Union

VARIABLES: tuple[str, ...] = ("a", "b", "c", "d", "e", "f", "k", "m", "n")
_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)

MAX_EXPONENT = 0x7F
_GUARD = int.from_bytes(b"\x80" * _NVARS, "big")

Scalar = Union[int, Fraction]


def _scalar(value: object) -> Scalar:
    """``value`` as a normalised coefficient: ``int`` if integral."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an int or a Fraction, not {type(value).__name__}")


def _pack(exps) -> int:
    exps = tuple(exps)
    if len(exps) != _NVARS:
        raise ValueError(f"expected {_NVARS} exponents, got {len(exps)}")
    for power in exps:
        if not isinstance(power, int):
            raise TypeError(f"exponent {power!r} is not an int")
        if not 0 <= power <= MAX_EXPONENT:
            raise ValueError(f"exponent {power} outside 0..{MAX_EXPONENT}")
    return int.from_bytes(bytes(exps), "big")


def _exponents(key: int) -> bytes:
    return key.to_bytes(_NVARS, "big")


def _normalised(terms: dict) -> dict:
    """``terms`` without zero coefficients and with integral Fractions as ints."""
    clean = {}
    for key, coeff in terms.items():
        if coeff:
            if coeff.__class__ is Fraction and coeff.denominator == 1:
                coeff = coeff.numerator
            clean[key] = coeff
    return clean


def _accumulate(out: dict, terms: dict, weight: Scalar = 1) -> dict:
    """Add ``weight`` times ``terms`` into ``out`` in place and return it.

    Only the keys of ``terms`` are touched: one that sums to zero is deleted
    and an integral Fraction becomes an ``int``, so a normalised ``out``
    stays normalised and keeps its term order.
    """
    get = out.get
    scaled = weight != 1
    for key, coeff in terms.items():
        coeff = get(key, 0) + (coeff * weight if scaled else coeff)
        if not coeff:
            out.pop(key, None)
        elif coeff.__class__ is Fraction and coeff.denominator == 1:
            out[key] = coeff.numerator
        else:
            out[key] = coeff
    return out


def _expand(left, right) -> dict:
    """Every ``k1 + k2: c1 * c2`` of two sequences of pairs, summed by key in
    order of first appearance; sums of zero are kept."""
    sums: dict = {}
    get = sums.get
    for k1, c1 in left:
        for k2, c2 in right:
            k2 += k1
            sums[k2] = get(k2, 0) + c1 * c2
    return sums


def _product(left: dict, right: dict) -> dict:
    """Normalised term dict of the product; raises if an exponent overflows."""
    out = {}
    used = 0
    for key, coeff in _expand(left.items(), list(right.items())).items():
        if coeff:
            used |= key
            if coeff.__class__ is Fraction and coeff.denominator == 1:
                coeff = coeff.numerator
            out[key] = coeff
    if used & _GUARD:
        raise ValueError(f"exponent above {MAX_EXPONENT} in a product")
    return out


def _top(terms: dict) -> int:
    """The packed key whose byte ``i`` is the largest exponent of variable ``i``."""
    return int.from_bytes(bytes(map(max, zip(*map(_exponents, terms)))), "big") if terms else 0


def _text(poly: "Polynomial", limit: Optional[int] = None) -> str:
    """``str(poly)``, highest degree first, then by key.  Past ``limit``
    characters it stops at a prefix longer than ``limit``, so only the
    leading terms are formatted."""
    terms = poly._terms
    if not terms:
        return "0"
    pieces = []
    size = 0
    for key in sorted(terms, key=lambda key: (-sum(_exponents(key)), -key)):
        coeff = terms[key]
        factors = []
        for name, power in zip(VARIABLES, _exponents(key)):
            if power == 1:
                factors.append(name)
            elif power > 1:
                factors.append(f"{name}^{power}")
        body = "*".join(factors)
        if not body:
            text = str(coeff)
        elif coeff == 1:
            text = body
        elif coeff == -1:
            text = f"-{body}"
        else:
            text = f"{coeff}*{body}"
        if pieces:
            text = f" - {text[1:]}" if text[0] == "-" else f" + {text}"
        pieces.append(text)
        size += len(text)
        if limit is not None and size > limit:
            break
    return "".join(pieces)


def _negative_part(poly: "Polynomial") -> "Polynomial":
    """The terms of ``poly`` with a negative coefficient."""
    return _make({key: coeff for key, coeff in poly._terms.items() if coeff < 0})


def _weighted_sum(parts: list) -> "Polynomial":
    """``sum(weight * poly for weight, poly in parts)`` in one accumulation:
    the same terms in the same order as the left-to-right sum."""
    out: dict = {}
    for weight, poly in parts:
        _accumulate(out, poly._terms, weight)
    return _make(out)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] = ()):
        clean: dict[int, Scalar] = {}
        for exps, coeff in dict(terms).items():
            coeff = _scalar(coeff)
            if coeff:
                clean[_pack(exps)] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        value = _scalar(value)
        return _make({0: value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if name not in _INDEX:
            raise KeyError(f"unknown variable {name!r} (expected one of {VARIABLES})")
        return _make({1 << 8 * (_NVARS - 1 - _INDEX[name]): 1})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {tuple(_exponents(key)): Fraction(coeff) for key, coeff in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def monomial_count(self) -> int:
        return len(self._terms)

    def coefficients(self) -> list[Fraction]:
        return [Fraction(coeff) for coeff in self._terms.values()]

    def degree(self) -> int:
        return max((sum(_exponents(key)) for key in self._terms), default=0)

    def support(self) -> set[str]:
        used = 0
        for key in self._terms:
            used |= key
        return {name for name, power in zip(VARIABLES, _exponents(used)) if power}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            return _make(_accumulate(dict(self._terms), other._terms))
        if isinstance(other, (int, Fraction)):
            return _make(_accumulate(dict(self._terms), {0: other}))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            return _make(_accumulate(dict(self._terms), other._terms, -1))
        if isinstance(other, (int, Fraction)):
            return _make(_accumulate(dict(self._terms), {0: other}, -1))
        return NotImplemented

    def __rsub__(self, other: Scalar) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        out = {0: _scalar(other)}
        get = out.get
        for key, coeff in self._terms.items():
            out[key] = get(key, 0) - coeff
        return _make(_normalised(out))

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            return _make(_product(self._terms, other._terms))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return _make({})
        return _make(_normalised({key: coeff * other for key, coeff in self._terms.items()}))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int):
            return NotImplemented
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        top = max((max(_exponents(key)) for key in self._terms), default=0)
        if power > MAX_EXPONENT or top * power > MAX_EXPONENT:
            raise ValueError(f"power {power} takes an exponent above {MAX_EXPONENT}")
        if power == 0:
            return _make({0: 1})
        # left-to-right binary powering; for power <= 3 the terms come out in
        # the same order as repeated multiplication
        terms = self._terms
        for bit in bin(power)[3:]:
            terms = _product(terms, terms)
            if bit == "1":
                terms = _product(terms, self._terms)
        return _make(terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {0}:  # a constant hashes like the number it equals
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, assignment: Mapping[str, Union["Polynomial", Scalar]]) -> "Polynomial":
        """Simultaneously replace variables by polynomials (or scalars)."""
        replaced: dict[int, dict] = {}
        for name, value in assignment.items():
            if name not in _INDEX:
                raise KeyError(f"unknown variable {name!r}")
            if isinstance(value, Polynomial):
                value = value._terms
            else:
                value = _scalar(value)
                value = {0: value} if value else {}
            replaced[_INDEX[name]] = value
        # per replaced variable, in variable order: the shift of its byte, the
        # terms of its value's powers 0, 1, ... and the _top key of each power
        order = [(8 * (_NVARS - 1 - i), [{0: 1}, value], [0, _top(value)])
                 for i, value in sorted(replaced.items())]
        # Values in pairwise disjoint sets of variables multiply to distinct
        # monomials, so a term's expansion needs no merging; otherwise each
        # factor is merged as a product of dicts would be, for the same order.
        supports = [{i for i, power in enumerate(_exponents(tops[1])) if power}
                    for _, _, tops in order]
        disjoint = sum(map(len, supports)) == len(set().union(*supports))
        kept = sum(0xFF << 8 * (_NVARS - 1 - i) for i in range(_NVARS) if i not in replaced)
        total: dict = {}
        get = total.get
        for key, coeff in self._terms.items():
            top = key & kept
            part = [(top, coeff)]
            overflow = 0
            for shift, powers, tops in order:
                power = key >> shift & 0xFF
                if not power:
                    continue
                while len(powers) <= power:
                    powers.append(_product(powers[-1], powers[1]))
                    tops.append(tops[-1] + tops[1])
                pairs = powers[power].items()
                if disjoint or len(part) == 1:
                    part = [(k1 + k2, c1 * c2) for k1, c1 in part for k2, c2 in pairs]
                else:
                    part = [pair for pair in _expand(part, pairs).items() if pair[1]]
                # a term's largest exponent of each variable is the sum of its
                # factors' largest, so checking that sum after every factor
                # catches an overflow before a later factor can carry it into
                # the next byte; a term that a zero value removes raises nothing
                top += tops[power]
                overflow |= top & _GUARD
            if overflow and part:
                raise ValueError(f"exponent above {MAX_EXPONENT} in a substitution")
            for k, c in part:
                c = get(k, 0) + c
                if c:
                    total[k] = c
                else:
                    del total[k]
        return _make(_normalised(total))

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point; every supporting variable required."""
        values = {name: _scalar(value) for name, value in point.items()}
        support = self.support()
        missing = support - set(values)
        if missing:
            raise KeyError(f"no value for variable(s) {', '.join(sorted(missing))}")
        # A variable whose value is 1 leaves every term as it is.
        if all(values[name] == 1 for name in support):
            return Fraction(sum(self._terms.values()))
        rows = [(_exponents(key), coeff) for key, coeff in self._terms.items()]
        # Scale every other variable by its denominator to its top power, so
        # the sum runs over ints: table[p] = num**p * den**(top - p).
        scale = 1
        used = []  # (variable index, table) for the variables to multiply in
        for i, column in enumerate(zip(*(exps for exps, _ in rows))):
            top = max(column)
            if top and values[VARIABLES[i]] != 1:
                value = Fraction(values[VARIABLES[i]])
                num, den = value.numerator, value.denominator
                scale *= den**top
                table = [den**top]
                for _ in range(top):
                    table.append(table[-1] // den * num)
                used.append((i, table))
        total = 0
        for exps, coeff in rows:
            for i, table in used:
                coeff *= table[exps[i]]
            total += coeff
        return Fraction(total, scale)

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        return _text(self)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_TERMS_SLOT = Polynomial.__dict__["_terms"]


def _make(terms: dict) -> Polynomial:
    """A Polynomial around ``terms``, which must already be normalised."""
    poly = object.__new__(Polynomial)
    _TERMS_SLOT.__set__(poly, terms)
    return poly


def variables() -> tuple[Polynomial, ...]:
    """The nine generators, in declaration order."""
    return tuple(Polynomial.variable(name) for name in VARIABLES)
