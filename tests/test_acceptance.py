"""End-to-end acceptance battery.

Six criteria, one test each.  Every test appends a single pass/fail line to
the terminal summary via ``record_acceptance`` before asserting, so the
outcome of the whole battery is readable at a glance even on failure.
All comparisons are exact rational equalities unless a criterion is
explicitly about a floating-point oracle.
"""

import random
from collections import defaultdict
from fractions import Fraction

from pmgraph import (
    PmGraph,
    build,
    check_family,
    family,
    invariant_set,
    list_families,
    random_lengths,
    tau,
    verify_all,
)
from pmgraph.bounds import (
    bound_table,
    engine_ratios,
    matching_families,
    witness_check,
)
from pmgraph.identities import PROBE_NAMES

from conftest import (
    build_circle,
    build_k4,
    build_loop,
    build_loop_with_bridge,
    build_path,
    build_theta,
    record_acceptance,
)
from oracles import tau_by_quadrature
from surgery import one_point_union, scaled, subdivide

NON_DEGENERATE = [fid for fid in list_families() if not family(fid).degenerate]


def _report(index: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"[{index}] {title}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    record_acceptance(line)


def test_1_catalog_oracle_equivalence():
    """Engine equals the closed forms exactly on 100 seeded tuples per family."""
    samples, seed = 100, 1001
    failure = ""
    for fid in NON_DEGENERATE:
        passed, report = check_family(fid, samples=samples, seed=seed)
        if report is not None:
            failure = f"{fid} sample {passed}: {report.mismatches}"
            break
    ok = failure == "" and len(NON_DEGENERATE) == 40
    _report(1, "catalog closed forms match engine, 100 samples x 40 families", ok, failure)
    assert ok, failure


def test_2_tetrahedron_spot_values():
    inv = invariant_set(build_k4())
    expected = {
        "tau": Fraction(5, 16),
        "theta": Fraction(6),
        "phi": Fraction(17, 48),
        "epsilon": Fraction(11, 6),
        "lambda": Fraction(75, 112),
    }
    mismatches = [
        name for name, want in expected.items() if inv.by_name(name) != want
    ]
    if inv.delta[1] != 0:
        mismatches.append("delta1")
    ok = not mismatches
    _report(2, "tetrahedron spot values exact", ok, ", ".join(mismatches))
    assert ok, mismatches


def test_3_identity_certificates():
    results = verify_all()
    by_name = {r.name: r for r in results}
    bad = []
    for r in results:
        if r.probe:
            if r.passed:
                bad.append(f"{r.name} unexpectedly passed")
            elif not r.witness:
                bad.append(f"{r.name} failed without a witness")
        elif not r.passed:
            bad.append(f"{r.name} failed")
    probes = {r.name for r in results if r.probe}
    if probes != set(PROBE_NAMES) or len(probes) != 3:
        bad.append(f"probe set {sorted(probes)}")
    ok = not bad
    _report(3, "identity certificates pass, 3 as-printed probes fail with witnesses", ok, "; ".join(bad))
    assert ok, bad


def test_4_bound_suite():
    """Sampled ratio floors plus exact verification of every equality witness."""
    seed = 2718
    global_floors = {
        "phi": Fraction(17, 288),
        "lambda": Fraction(3, 28),
        "epsilon": Fraction(2, 9),
    }
    per_family = defaultdict(list)
    table = bound_table()
    for spec in table:
        for fid in matching_families(spec):
            per_family[fid].append(spec)
    assert set(per_family) == set(NON_DEGENERATE)

    failures = []
    for fid in sorted(per_family):
        spec_params = family(fid).params
        rng = random.Random(f"{fid}:{seed}")
        n = 10000 if fid == "g3.XIV" else 1000
        rows = per_family[fid]
        for _ in range(n):
            lengths = random_lengths(spec_params, rng)
            ratios = engine_ratios(fid, lengths)
            for invariant, floor in global_floors.items():
                if ratios[invariant] < floor:
                    failures.append(f"{fid} {invariant} {ratios[invariant]} < {floor}")
            for row in rows:
                value = ratios[row.invariant]
                if value < row.floor or (row.exact and value != row.floor):
                    failures.append(f"{fid} {row.invariant} {value} vs {row.floor}")
            if failures:
                break
        if failures:
            break

    for spec in table:
        if spec.witness is None:
            continue
        report = witness_check(spec)
        if not report.passed:
            broken = [label for label, good, _ in report.checks if not good]
            failures.append(f"witness {spec.selector} {spec.invariant}: {broken}")

    ok = not failures
    _report(4, "sampled ratio floors hold, equality witnesses exact", ok, "; ".join(failures[:3]))
    assert ok, failures[:5]


def test_5_property_battery():
    """Seeded structural properties on graphs the closed forms never see."""
    rng = random.Random(31415)
    failures = []

    def rational():
        return Fraction(rng.randint(1, 48), rng.randint(1, 16))

    for _ in range(20):
        fid = rng.choice(NON_DEGENERATE)
        lengths = random_lengths(family(fid).params, rng)
        g = build(fid, lengths)
        inv = invariant_set(g)

        bases = rng.sample(g.vertex_ids, k=min(2, len(g.vertex_ids)))
        if len({tau(g, base=b) for b in bases}) != 1:
            failures.append(f"{fid}: tau depends on the base vertex")

        edge = rng.choice(g.edges)
        t = Fraction(rng.randint(1, 9), 10)
        if invariant_set(subdivide(g, edge.id, t)) != inv:
            failures.append(f"{fid}: subdivision changed an invariant")

        factor = rational()
        inv_scaled = invariant_set(scaled(g, factor))
        linear = (
            inv_scaled.ell == factor * inv.ell
            and inv_scaled.tau == factor * inv.tau
            and inv_scaled.theta == factor * inv.theta
            and inv_scaled.phi == factor * inv.phi
            and inv_scaled.lam == factor * inv.lam
            and inv_scaled.epsilon == factor * inv.epsilon
            and inv_scaled.z == factor * inv.z
            and inv_scaled.delta == {k: factor * v for k, v in inv.delta.items()}
        )
        if not linear:
            failures.append(f"{fid}: scaling by {factor} is not linear")

        if inv.theta < 0:
            failures.append(f"{fid}: negative theta")
        if inv.lam != inv.phi / 21 + (inv.epsilon + inv.ell) / 12:
            failures.append(f"{fid}: lambda cross identity")
        if inv.phi != 9 * inv.z - (inv.epsilon + inv.ell) / 4:
            failures.append(f"{fid}: phi cross identity")

    for _ in range(8):
        path = build_path(lengths=tuple(rational() for _ in range(rng.randint(1, 5))))
        if tau(path) != path.total_length / 4:
            failures.append("tree tau is not ell/4")
        circle = build_circle(lengths=tuple(rational() for _ in range(rng.randint(2, 6))))
        if tau(circle) != circle.total_length / 12:
            failures.append("circle tau is not ell/12")
        joined = one_point_union(path, circle, "p0", "v0")
        if tau(joined) != tau(path) + tau(circle):
            failures.append("tau is not additive over a one-point union")

    ok = not failures
    _report(5, "property battery (base, subdivision, union, scaling, identities)", ok, "; ".join(failures[:3]))
    assert ok, failures[:5]


def test_6_tau_quadrature_oracle():
    cases = [
        PmGraph.build([("A", 1), ("B", 1)], [("s", "A", "B", Fraction(7, 3))]),
        build_loop(length=Fraction(9, 4)),
        build_theta(a=Fraction(1, 2), b=2, c=Fraction(7, 5)),
        build_loop_with_bridge(bridge=Fraction(5, 3), loop=4),
        build_path(lengths=(Fraction(1, 3), 2, Fraction(5, 7))),
        build_circle(lengths=(1, Fraction(3, 2), 2, Fraction(1, 5))),
    ]
    assert len(cases) >= 5 and all(len(g.edges) <= 4 for g in cases)
    worst = 0.0
    for g in cases:
        exact = float(tau(g))
        approx = tau_by_quadrature(g)
        worst = max(worst, abs(approx - exact) / abs(exact))
    ok = worst <= 1e-9
    _report(6, "tau agrees with numeric quadrature oracle within 1e-9", ok, f"worst {worst:.3g}")
    assert ok, worst
