"""Command-line interface.

Exit codes: 0 on success (all checks passed), 1 when a verification command
finds a violation, 2 on usage or input errors.  Exit 2 is decided in two
places: the ``main`` group turns any :class:`PmGraphError` a command raises
into an :class:`InputError` with the same message, and :func:`_on_file`
does the same for the commands that read a graph file, naming the file.
All rational values are printed exactly as ``p/q`` in lowest terms;
human-readable listings may add a decimal approximation, always prefixed
by ``~``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

import click

from . import bounds as bounds_mod
from . import catalog as catalog_mod
from . import identities as identities_mod
from .graph import PmGraphError, as_rational
from .invariants import FIELDS, invariant_set
from .io import graph_to_text, parse_graph
from .resistance import resistance_matrix


class InputError(click.ClickException):
    """Bad input data (unparseable file, invalid graph, bad parameters)."""

    exit_code = 2


def _on_file(path: str, compute):
    """``compute`` of the graph in PATH; an input error names PATH.

    The engine validates the graph when it solves it.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return compute(parse_graph(handle.read()))
    except (UnicodeDecodeError, PmGraphError) as exc:
        raise InputError(f"{path}: {exc}") from exc


# float's normal range: from the smallest normal double up to the magnitude
# that float() rounds to infinity
_FLOAT_NORMAL = (Fraction(1, 2**1022), 2**1024 - 2**970)


def _approx(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value)
    if _FLOAT_NORMAL[0] <= abs(value) < _FLOAT_NORMAL[1]:
        return f"{value} (~ {float(value):.6g})"
    return f"{value} (~ {_exponent_form(value)})"


def _exponent_form(value: Fraction) -> str:
    """``value`` to 6 significant digits in the exponent form that ``.6g``
    gives a float, worked out from the Fraction's integers: ``3.125e+399``."""
    size = abs(value)
    # log10(2) ~ 30103/100000 guesses the exponent; the loops make it exact
    exponent = (size.numerator.bit_length() - size.denominator.bit_length()) * 30103 // 100000
    while Fraction(10) ** exponent > size:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= size:
        exponent += 1
    digits = round(size / Fraction(10) ** (exponent - 5))
    if digits == 10**6:
        digits, exponent = 10**5, exponent + 1
    text = str(digits)
    mantissa = f"{text[0]}.{text[1:]}".rstrip("0").rstrip(".")
    return f"{'-' if value < 0 else ''}{mantissa}e{exponent:+03d}"


def _parse_lengths(text: str) -> dict[str, str]:
    """``a=1,b=2/3`` (or space separated) into a name -> literal map."""
    assignments: dict[str, str] = {}
    for chunk in text.replace(",", " ").split():
        name, sep, literal = chunk.partition("=")
        if not sep or not name or not literal:
            raise InputError(
                f"cannot parse length assignment {chunk!r}; expected name=value"
            )
        if name in assignments:
            raise InputError(f"duplicate length assignment for {name!r}")
        assignments[name] = literal
    if not assignments:
        raise InputError("no length assignments given")
    return assignments


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2))


class _Group(click.Group):
    """The exit-2 boundary: a package error ends any command with its message."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except PmGraphError as exc:
            raise InputError(str(exc)) from exc


@click.group(cls=_Group)
def main() -> None:
    """Exact invariants of polarized metrized graphs of total genus 3."""


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON schema.")
def invariants(path: str, as_json: bool) -> None:
    """Compute all invariants of the graph in PATH."""
    inv = _on_file(path, invariant_set)
    if as_json:
        _echo_json(inv.to_json_dict())
        return
    for name, value in inv.named_values().items():
        if name == "delta":
            for index in sorted(value):
                click.echo(f"delta{index}  = {_approx(value[index])}")
        elif value is not None:
            click.echo(f"{name:8s}= {_approx(value)}")
    if inv.phi is None:
        click.echo("phi/lambda/epsilon/Z: undefined (total genus is not 3)")


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
def resistance(path: str, as_json: bool) -> None:
    """Print the all-pairs effective resistance matrix of the graph in PATH."""
    rm = _on_file(path, resistance_matrix)
    order = rm.order
    cells = [[str(rm.get(p, s)) for s in order] for p in order]
    if as_json:
        _echo_json({"order": list(order), "matrix": cells})
        return
    width = max(
        [len(v) for v in order] + [len(c) for row in cells for c in row]
    )
    header = " ".join(v.rjust(width) for v in order)
    click.echo(" " * (width + 1) + header)
    for vid, row in zip(order, cells):
        click.echo(vid.rjust(width) + "  " + " ".join(c.rjust(width) for c in row))


@main.group()
def catalog() -> None:
    """The 41 fixed families of total genus 3."""


@catalog.command("list")
def catalog_list() -> None:
    """List family ids, parameters and descriptions."""
    for fid in catalog_mod.list_families():
        spec = catalog_mod.family(fid)
        params = ",".join(spec.params) if spec.params else "-"
        click.echo(f"{fid:8s} g={spec.genus}  params={params:12s} {spec.description}")


@catalog.command("eval")
@click.argument("family_id")
@click.option("--lengths", "lengths_text", default="", help="a=1,b=2/3,...")
def catalog_eval(family_id: str, lengths_text: str) -> None:
    """Build a family at given lengths; print it as a graph file.

    The invariants appear as comments, so the output is itself valid input
    for the ``invariants`` command and reproduces identical numbers.
    """
    assignments = _parse_lengths(lengths_text) if lengths_text else {}
    spec = catalog_mod.family(family_id)
    graph = catalog_mod.build(family_id, assignments)
    closed = catalog_mod.closed_form(family_id, assignments)
    shown = " ".join(f"{k}={assignments[k]}" for k in spec.params)
    click.echo(f"# family {family_id}: {spec.description}")
    click.echo(f"# lengths: {shown if shown else '(none)'}")
    for key, value in closed.to_json_dict().items():
        if key == "delta":
            for index, dv in value.items():
                click.echo(f"# delta{index} = {dv}")
        else:
            click.echo(f"# {key} = {value}")
    click.echo(graph_to_text(graph), nl=False)


@catalog.command("check")
@click.option("--samples", default=20, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--family", "family_id", default=None, help="Restrict to one family.")
def catalog_check(samples: int, seed: int, family_id: Optional[str]) -> None:
    """Cross-check closed forms against the engine on random exact lengths."""
    if family_id is not None:
        fids = [family_id]
    else:
        fids = [
            fid
            for fid in catalog_mod.list_families()
            if not catalog_mod.family(fid).degenerate
        ]
    failures = 0
    for fid in fids:
        passed, failure = catalog_mod.check_family(fid, samples=samples, seed=seed)
        if failure is None:
            click.echo(f"{fid:8s} {passed}/{samples} samples ok")
            continue
        failures += 1
        click.echo(f"{fid:8s} MISMATCH after {passed} passing samples")
        shown = " ".join(f"{k}={v}" for k, v in sorted(failure.lengths.items()))
        click.echo(f"         at {shown}:")
        for mismatch in failure.mismatches:
            click.echo(f"           {mismatch}")
    if failures:
        raise SystemExit(1)


@main.command()
@click.option("--genus", type=click.IntRange(0, 3), required=True)
@click.option("--lengths", "lengths_text", required=True, help="a=1,b=2/3,...")
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True,
)
def table(genus: int, lengths_text: str, fmt: str) -> None:
    """Evaluate every family of GENUS at the given lengths, one row each.

    Families consume the subset of the assignments matching their parameter
    names; every parameter of every listed family must be assigned.
    """
    assignments = _parse_lengths(lengths_text)
    rows = []
    for fid in catalog_mod.list_families():
        spec = catalog_mod.family(fid)
        if spec.genus != genus:
            continue
        missing = [p for p in spec.params if p not in assignments]
        if missing:
            raise InputError(
                f"{fid}: missing length(s) {', '.join(missing)} for --genus {genus}"
            )
        subset = {p: assignments[p] for p in spec.params}
        rows.append((fid, subset, catalog_mod.closed_form(fid, subset)))
    if fmt == "json":
        _echo_json(
            [
                {
                    "family": fid,
                    "lengths": {k: str(as_rational(v)) for k, v in subset.items()},
                    "invariants": inv.to_json_dict(),
                }
                for fid, subset, inv in rows
            ]
        )
        return
    # delta has one column per type: 0 and 1 on total genus 3
    columns = ["family"] + [
        column for name in FIELDS
        for column in (["delta0", "delta1"] if name == "delta" else [name])
    ]
    click.echo(",".join(columns))
    for fid, _subset, inv in rows:
        data = inv.to_json_dict()
        delta = data.pop("delta")
        data["delta0"] = delta.get("0", "0")
        data["delta1"] = delta.get("1", "0")
        click.echo(",".join(str(data.get(c, "")) if c != "family" else fid for c in columns))


@main.group()
def verify() -> None:
    """Verification suites: symbolic certificates and sampled bounds."""


@verify.command("identities")
@click.option("--name", "name", default=None, help="Verify a single certificate.")
def verify_identities(name: Optional[str]) -> None:
    """Check the polynomial identity certificates.

    Three probes document known misprints and fail by design; they do not
    affect the exit code.
    """
    if name is not None:
        try:
            certificates = [identities_mod.verify_identity(name)]
        except KeyError as exc:
            raise InputError(exc.args[0]) from exc
    else:
        certificates = identities_mod.verify_all()
    violation = False
    for cert in certificates:
        status = "PASS" if cert.passed else "FAIL"
        tag = " [probe: expected to fail]" if cert.probe else ""
        click.echo(f"{status}  {cert.name}{tag}")
        if not cert.passed:
            for comp in cert.components:
                if not comp.passed:
                    click.echo(f"      {comp.label}: {comp.detail}")
            if cert.witness:
                click.echo(f"      witness: {cert.witness}")
        if not cert.passed and not cert.probe:
            violation = True
    if violation:
        raise SystemExit(1)


@verify.command("bounds")
@click.option("--family", "family_id", default=None, help="Restrict to one family.")
@click.option("--samples", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
def verify_bounds(
    family_id: Optional[str], samples: int, seed: int, as_json: bool
) -> None:
    """Sample each bound row exactly and confirm sharpness witnesses."""
    results = bounds_mod.verify_bounds(family=family_id, samples=samples, seed=seed)
    violation = False
    payload = []
    for report, witness_report in results:
        spec = report.spec
        ok = report.passed and (witness_report is None or witness_report.passed)
        violation = violation or not ok
        if as_json:
            payload.append(
                {
                    "selector": spec.selector,
                    "invariant": spec.invariant,
                    "floor": str(spec.floor),
                    "exact": spec.exact,
                    "samples_per_family": report.samples_per_family,
                    "seed": report.seed,
                    "min_ratio": str(report.min_ratio),
                    "min_family": report.min_family,
                    "min_lengths": {k: str(v) for k, v in report.min_lengths},
                    "passed": ok,
                    "witness_passed": (
                        None if witness_report is None else witness_report.passed
                    ),
                }
            )
            continue
        relation = "=" if spec.exact else ">="
        status = "PASS" if ok else "FAIL"
        click.echo(
            f"{status}  {spec.invariant}/ell {relation} {spec.floor}"
            f"  [{spec.selector}]  min {report.min_ratio}"
            f" (~ {float(report.min_ratio):.6g}) at {report.min_family}"
        )
        if report.violation is not None:
            fid, lengths, ratio = report.violation
            shown = " ".join(f"{k}={v}" for k, v in lengths)
            click.echo(f"      violated at {fid} with {shown}: ratio {ratio}")
        if witness_report is not None:
            for label, check_ok, detail in witness_report.checks:
                if not check_ok:
                    click.echo(f"      witness check failed: {label} ({detail})")
    if as_json:
        _echo_json(payload)
    if violation:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
