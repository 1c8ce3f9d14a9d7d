"""Sharp lower bounds on normalized invariants, certified by exact sampling.

Every bound here is a statement about the scale-free ratio invariant/ell:
for each catalog family (or group of families) a floor is recorded, together
with a witness length assignment attaining it when sharpness is known.  Two
checks accompany each floor:

* :func:`sample_check` draws length tuples as exact rationals and evaluates
  the invariant through the general engine.  A "pass" is therefore a proof
  for the sampled points, not a float approximation; there is no tolerance
  anywhere in this module.  Each family's topology is validated once, and
  each sample is only work on its lengths: the engine's solve and scale on
  that topology, then crossed products of integer numerators against the
  floor and the running minimum.  A row keeps only that minimum and its
  first violation, and only they become ``Fraction`` values.
* :func:`witness_check` confirms equality at the witness.  Witnesses with a
  zero entry mark degenerate limits: the closed form is evaluated at the
  boundary point itself (the graph constructor requires positive lengths),
  and the engine is run along a shrinking-parameter sequence to confirm the
  ratio decreases monotonically toward the floor.  The closed form's ratios
  (:func:`closed_ratios`) are read off the family's transcribed row, but Z,
  which is a row of ``invariants._LINEAR`` as every engine ratio is.

The single zero-length family ``g0.I`` is excluded from every ratio check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from fnmatch import fnmatchcase
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from . import catalog
from .invariants import _LINEAR, _linear
from .resistance import _scale, resistance_matrix


@dataclass(frozen=True)
class Witness:
    """Length assignment attaining a floor, possibly on the boundary."""

    family: str
    lengths: Mapping[str, Fraction]

    def __post_init__(self):
        # the bound table is shared by every call, so its witnesses are read-only
        object.__setattr__(self, "lengths", MappingProxyType(dict(self.lengths)))

    @property
    def is_boundary(self) -> bool:
        return any(value == 0 for value in self.lengths.values())


@dataclass(frozen=True)
class BoundSpec:
    """A floor for invariant/ell over the families matched by ``selector``.

    ``selector`` is a comma-separated list of family ids or glob patterns
    (``"g1.*"``).  ``exact`` marks ratios that are constant rather than
    merely bounded (the tree families).  ``witness`` is optional; groups
    whose floor is approached only in degenerate limits outside the group
    carry none.
    """

    selector: str
    invariant: str
    floor: Fraction
    exact: bool = False
    witness: Optional[Witness] = None

    def matches(self, fid: str) -> bool:
        return any(fnmatchcase(fid, pattern) for pattern in self._patterns)

    @cached_property
    def _patterns(self) -> tuple[str, ...]:
        # the selector split once
        return tuple(pattern.strip() for pattern in self.selector.split(","))


@dataclass(frozen=True)
class SampleReport:
    """Outcome of an exact sampling run for one BoundSpec."""

    spec: BoundSpec
    families: tuple[str, ...]
    samples_per_family: int
    seed: int
    min_ratio: Fraction
    min_family: str
    min_lengths: tuple[tuple[str, Fraction], ...]
    violation: Optional[tuple[str, tuple[tuple[str, Fraction], ...], Fraction]]

    @property
    def passed(self) -> bool:
        return self.violation is None


@dataclass(frozen=True)
class WitnessReport:
    spec: BoundSpec
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _ones(fid: str) -> Witness:
    params = catalog.family(fid).params
    return Witness(fid, {name: Fraction(1) for name in params})


def _boundary(fid: str, zero: tuple[str, ...]) -> Witness:
    params = catalog.family(fid).params
    return Witness(
        fid,
        {name: Fraction(0) if name in zero else Fraction(1) for name in params},
    )


# every certified floor, one row per (family group, invariant); built once
_TABLE = [
    BoundSpec("g0.*", "phi", Fraction(4, 3), exact=True, witness=_ones("g0.II")),
    BoundSpec("g0.*", "lambda", Fraction(2, 7), exact=True, witness=_ones("g0.II")),
    BoundSpec("g0.*", "epsilon", Fraction(5, 3), exact=True, witness=_ones("g0.II")),
    BoundSpec("g1.*", "phi", Fraction(1, 9), witness=_ones("g1.I")),
    BoundSpec("g1.*", "lambda", Fraction(3, 28), witness=_ones("g1.I")),
    BoundSpec("g1.*", "epsilon", Fraction(2, 9), witness=_ones("g1.I")),
    BoundSpec("g2.*", "phi", Fraction(7, 81), witness=_ones("g2.III")),
    BoundSpec("g2.*", "lambda", Fraction(3, 28), witness=_ones("g2.I")),
    BoundSpec("g2.*", "epsilon", Fraction(2, 9), witness=_ones("g2.I")),
    # phi floors vary by family within total genus 3 graphs of genus 3
    BoundSpec("g3.I,g3.IV,g3.V,g3.VI,g3.VII,g3.XI", "phi",
              Fraction(1, 9), witness=_ones("g3.I")),
    BoundSpec("g3.III,g3.IX,g3.X,g3.XII", "phi", Fraction(7, 81)),
    BoundSpec("g3.II", "phi", Fraction(1, 16), witness=_ones("g3.II")),
    BoundSpec("g3.VIII", "phi", Fraction(1, 16), witness=_boundary("g3.VIII", ("a",))),
    BoundSpec("g3.XIII", "phi", Fraction(1, 16), witness=_boundary("g3.XIII", ("a", "b"))),
    BoundSpec("g3.XIV", "phi", Fraction(17, 288), witness=_ones("g3.XIV")),
    BoundSpec("g3.XIV", "tau", Fraction(5, 96), witness=_ones("g3.XIV")),
    BoundSpec("g3.*", "lambda", Fraction(3, 28), witness=_ones("g3.I")),
    BoundSpec("g3.*", "epsilon", Fraction(2, 9), witness=_ones("g3.I")),
]


def bound_table() -> list[BoundSpec]:
    """All certified floors, one row per (family group, invariant), as a new list."""
    return list(_TABLE)


def matching_families(spec: BoundSpec) -> list[str]:
    """Catalog families covered by a spec, zero-length family excluded."""
    return [fid for fid in catalog.list_families() if _covers(spec, fid)]


def _covers(spec: BoundSpec, fid: str) -> bool:
    return spec.matches(fid) and not catalog.family(fid).degenerate


def engine_ratio(fid: str, lengths: Mapping[str, Fraction], invariant: str) -> Fraction:
    """invariant/ell via the general engine (no closed forms involved)."""
    return engine_ratios(fid, lengths)[invariant]


def engine_ratios(fid: str, lengths: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """tau, phi, lambda, epsilon and Z over ell from a single engine pass,
    on the family's graph as given."""
    _require_length(fid)
    s = _scale(resistance_matrix(catalog.build(fid, lengths)))
    ratios = {}
    for name in _LINEAR:
        num, d = _linear(name, s.tau, s.theta, s.ell)
        ratios[name] = Fraction(num, d * s.ell)
    return ratios


def closed_ratios(fid: str, lengths: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """The ratios of :func:`engine_ratios` from the family's closed form.

    The row's tau, phi, lambda and epsilon columns, and Z from its tau and
    theta by the engine's Z row, as in :func:`pmgraph.catalog.closed_form`,
    over ell.  No graph is built, so a boundary witness with zero lengths
    evaluates.  Lengths are read as :func:`pmgraph.catalog.build` reads them,
    but may be 0; a negative one, or a point where a ratio is undefined,
    raises :class:`pmgraph.catalog.ParameterError`.
    """
    _require_length(fid)
    spec = catalog.family(fid)
    p = catalog._Sample(catalog._read_lengths(spec, lengths))
    if negative := [name for name, value in p.items() if value.numerator < 0]:
        raise catalog.ParameterError(f"{fid}: parameter {negative[0]} must be nonnegative")
    try:
        (tn, td), (hn, hd), _, *quartet = (value.as_integer_ratio() for value in spec.closed(p))
        ell, d = sum(p.n.values()), p.d
        # Z from tau, theta and ell as ints over their one denominator td hd d
        z, k = _linear("Z", tn * hd * d, hn * td * d, ell * td * hd)
        ratios = [(tn, td), *quartet, (z, k * td * hd * d)]
        return {name: Fraction(num * d, den * ell) for name, (num, den) in zip(_LINEAR, ratios)}
    except ZeroDivisionError:  # 0/0 in the row, or ell = 0
        raise catalog.ParameterError(f"{fid}: the ratios are undefined at these lengths") from None


def _require_length(fid: str) -> None:
    if catalog.family(fid).degenerate:  # every ratio is over ell, 0 on g0.I
        raise catalog.CatalogError(f"family {fid!r} has total length 0 and no invariant/ell")


def sample_check(spec: BoundSpec, samples: int = 1000, seed: int = 0) -> SampleReport:
    """Draw exact-rational tuples per family and compare ratios to the floor.

    Deterministic for a given (spec, samples, seed): each family uses its own
    stream seeded by family id and seed, so per-family results do not depend
    on which other families the selector matches.
    """
    _require_samples(samples)
    families = matching_families(spec)
    if not families:
        raise catalog.UnknownFamilyError(f"selector {spec.selector!r} matches no family")
    return _sample_reports([(spec, families)], samples, seed)[0]


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")


def _sample_reports(
    rows: list[tuple[BoundSpec, list[str]]], samples: int, seed: int
) -> list[SampleReport]:
    """:func:`sample_check` for several rows at once, one seeded pass per family.

    ``rows`` holds each row with the families it covers.  Each covered
    family draws its stream once; every row covering it is checked on each
    sample, so the reports equal one pass per row.
    """
    # (row index, family) -> (min ratio, its lengths, first violation)
    found: dict[tuple[int, str], tuple] = {}
    for fid in dict.fromkeys(fid for _, families in rows for fid in families):
        # fid has length, so its samples are solved on its validated topology;
        # each row keeps its running minimum and first violation as int pairs
        # over the lengths they were found at, and the samples are not kept
        scaled = catalog.family(fid)._scaled
        checks = [
            (i, *_LINEAR[spec.invariant], *spec.floor.as_integer_ratio(), spec.exact, [None, None])
            for i, (spec, families) in enumerate(rows) if fid in families
        ]
        for x in catalog._seeded_lengths(fid, samples, seed):
            s = scaled(x)
            tau, theta, ell = s.tau, s.theta, s.ell
            for _, a, c, b, d, p, q, exact, kept in checks:
                # each ratio, _LINEAR's (a tau + c theta + b ell) / (d ell),
                # meets the floor and the running minimum as crossed int
                # products; only the reported ones become Fractions
                num, den = a * tau + c * theta + b * ell, d * ell
                least, bad = kept
                if least is None or num * least[1] < least[0] * den:
                    kept[0] = num, den, x
                if bad is None and (num * q != p * den if exact else num * q < p * den):
                    kept[1] = num, den, x
        for i, *_, (least, bad) in checks:
            found[i, fid] = (
                Fraction(*least[:2]), tuple(sorted(least[2].items())),
                bad and (fid, tuple(sorted(bad[2].items())), Fraction(*bad[:2])),
            )
    reports = []
    for i, (spec, families) in enumerate(rows):
        per_family = [(fid, *found[i, fid]) for fid in families]
        # min keeps the first least entry, and families stay in selector
        # order, so this is the minimum a single pass over the row finds
        min_family, min_ratio, min_lengths, _ = min(per_family, key=lambda r: r[1])
        violation = next((r[3] for r in per_family if r[3] is not None), None)
        reports.append(SampleReport(
            spec=spec, families=tuple(families), samples_per_family=samples, seed=seed,
            min_ratio=min_ratio, min_family=min_family, min_lengths=min_lengths,
            violation=violation,
        ))
    return reports


def witness_check(spec: BoundSpec) -> WitnessReport:
    """Confirm the floor is attained at the recorded witness, exactly."""
    return _witness_check(spec, engine_ratios, closed_ratios)


def _witness_check(spec: BoundSpec, engine, closed) -> WitnessReport:
    # with the evaluators passed in, verify_bounds can share them across rows
    witness = spec.witness
    if witness is None:
        raise ValueError(f"bound {spec.selector}/{spec.invariant} has no witness")
    checks: list[tuple[str, bool, str]] = []
    if not witness.is_boundary:
        ratio = engine(witness.family, witness.lengths)[spec.invariant]
        checks.append(
            (
                f"engine {spec.invariant}/ell at {witness.family} witness",
                ratio == spec.floor,
                f"{ratio} vs floor {spec.floor}",
            )
        )
    ratio = closed(witness.family, witness.lengths)[spec.invariant]
    where = " boundary" if witness.is_boundary else ""
    checks.append(
        (
            f"closed-form {spec.invariant}/ell at {witness.family}{where} witness",
            ratio == spec.floor,
            f"{ratio} vs floor {spec.floor}",
        )
    )
    if witness.is_boundary:
        # approach the boundary along 1/n; the engine never sees a zero length
        zero_names = [k for k, v in witness.lengths.items() if v == 0]
        ratios = []
        for denom in (4, 16, 64, 256):
            lengths = dict(witness.lengths)
            for name in zero_names:
                lengths[name] = Fraction(1, denom)
            ratios.append(engine(witness.family, lengths)[spec.invariant])
        above = all(r > spec.floor for r in ratios)
        checks.append(
            (
                "engine ratio stays above the floor along the limit",
                above,
                " > ".join(str(r) for r in ratios) + f" > {spec.floor}",
            )
        )
        monotone = all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
        shrinking = (ratios[-1] - spec.floor) < (ratios[0] - spec.floor) / 4
        checks.append(
            (
                "engine ratio decreases monotonically toward the floor",
                monotone and shrinking,
                f"gaps {[str(r - spec.floor) for r in ratios]}",
            )
        )
    return WitnessReport(spec=spec, checks=tuple(checks))


def verify_bounds(
    family: Optional[str] = None, samples: int = 1000, seed: int = 0
) -> list[tuple[SampleReport, Optional[WitnessReport]]]:
    """Run sample and witness checks for every bound row.

    ``family`` restricts the table to the rows covering that family in the
    sense of :func:`matching_families`, so no row covers ``g0.I``.
    Each covered family is sampled in one seeded pass shared by its rows, and
    each distinct witness point is evaluated once for all its rows.
    """
    if family is None:
        rows = [(spec, matching_families(spec)) for spec in _TABLE]
    else:
        catalog.family(family)  # an unknown family is named before the row filter
        rows = [(spec, [family]) for spec in _TABLE if _covers(spec, family)]
        if not rows:
            raise catalog.UnknownFamilyError(f"no bound row covers family {family!r}")
    _require_samples(samples)
    engine, closed = _once(engine_ratios), _once(closed_ratios)
    return [
        (report, _witness_check(report.spec, engine, closed) if report.spec.witness else None)
        for report in _sample_reports(rows, samples, seed)
    ]


def _once(evaluate):
    # evaluate(fid, lengths) once per distinct point, for one verify_bounds call
    cached = cache(lambda fid, frozen: evaluate(fid, dict(frozen)))
    return lambda fid, lengths: cached(fid, tuple(sorted(lengths.items())))
