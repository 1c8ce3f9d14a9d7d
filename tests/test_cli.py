import dataclasses
import importlib
import json
import re
import struct
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from click.testing import CliRunner

from pmgraph import build, graph_to_text
from pmgraph.cli import main

DATA = Path(__file__).parent / "data"

K4_TEXT = """\
vertex 1
vertex 2
vertex 3
vertex 4
edge a 1 2 1
edge b 1 3 1
edge c 1 4 1
edge d 2 3 1
edge e 2 4 1
edge f 3 4 1
"""


# distinct lengths, so a parameter wired to the wrong edge changes the output
EVAL_LENGTHS = {"a": 2, "b": 3, "c": 5, "d": 7, "e": 11, "f": 13}

# ``verify identities`` output split into one block per certificate: a
# status line and, for a failing one, its indented detail lines
IDENTITY_BLOCKS = {
    match.group(1): match.group(0)
    for match in re.finditer(
        r"^(?:PASS|FAIL)  (\S+).*\n(?:      .*\n)*",
        (Path(__file__).parent / "data" / "verify_identities.txt").read_text(),
        re.MULTILINE,
    )
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(K4_TEXT)
    return str(path)


class TestInvariants:
    def test_json(self, runner, k4_file):
        result = runner.invoke(main, ["invariants", k4_file, "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["phi"] == "17/48"
        assert data["tau"] == "5/16"
        assert data["delta"] == {"0": "6", "1": "0"}

    def test_text(self, runner, k4_file):
        result = runner.invoke(main, ["invariants", k4_file])
        assert result.exit_code == 0
        assert "tau     = 5/16" in result.output
        assert "lambda  = 75/112" in result.output

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["invariants", "missing.graph"])
        assert result.exit_code == 2

    def test_invalid_graph(self, runner, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("vertex a\nedge e a b 1\n")
        result = runner.invoke(main, ["invariants", str(path)])
        assert result.exit_code == 2
        assert "line 2" in result.output

    def test_engine_validates_once(self, runner, k4_file, monkeypatch):
        graph = importlib.import_module("pmgraph.graph")
        original = graph.validate
        calls = []

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graph, "validate", counted)
        result = runner.invoke(main, ["invariants", k4_file, "--json"])
        assert result.exit_code == 0
        assert len(calls) == 1


@pytest.mark.parametrize("command", ["invariants", "resistance"])
def test_graph_failing_validation_exits_2(runner, tmp_path, command):
    path = tmp_path / "split.graph"
    path.write_text("vertex a q=1\nvertex b q=1\n")
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2
    assert f"{path}: graph is not connected: components {{a}}, {{b}}" in result.output


@pytest.mark.parametrize("command", ["invariants", "resistance"])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_weight_above_the_cap_exits_2(runner, tmp_path, command, flags):
    path = tmp_path / "heavy.graph"
    path.write_text("vertex X q=1001\nedge a X X 1\n")
    result = runner.invoke(main, [command, str(path), *flags])
    assert result.exit_code == 2
    assert f"{path}: vertex 'X' has weight q=1001 above 1000" in result.output
    path.write_text("vertex X q=1000\nedge a X X 1\n")
    result = runner.invoke(main, [command, str(path), *flags])
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "command, flags", [("invariants", []), ("invariants", ["--json"]), ("resistance", [])]
)
def test_a_leading_byte_order_mark_is_ignored(runner, tmp_path, command, flags):
    text = graph_to_text(build("g3.XIV", EVAL_LENGTHS))
    plain, marked = tmp_path / "plain.graph", tmp_path / "marked.graph"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    expected = runner.invoke(main, [command, str(plain), *flags])
    result = runner.invoke(main, [command, str(marked), *flags])
    assert (expected.exit_code, result.exit_code) == (0, 0)
    assert result.stdout_bytes == expected.stdout_bytes
    first, rest = text.split("\n", 1)
    marked.write_text(f"{first}\n\ufeff{rest}", encoding="utf-8")
    result = runner.invoke(main, [command, str(marked), *flags])
    assert result.exit_code == 2
    assert f"{marked}: line 2, column 1: unknown record" in result.output


# exponents above 1000 in ASCII, Arabic-Indic, fullwidth and mixed digits
@pytest.mark.parametrize(
    "token", ["1e1001", "1E-1001", "1e٢٠٠٠", "1E-١٠٠١", "1e１００１", "1e2٠٠٠", "1e1٠٠٠٠"]
)
def test_huge_decimal_exponent_exits_2(runner, tmp_path, token):
    path = tmp_path / "huge.graph"
    path.write_text(f"vertex a q=2\nedge l a a {token}\n")
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert "line 2, column 12" in result.output
    for args in (
        ["catalog", "eval", "g0.II", "--lengths", f"a={token}"],
        ["table", "--genus", "0", "--lengths", f"a=1,b={token},c=1"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert "cannot parse parameter" in result.output, args


@pytest.mark.parametrize(
    "name, approximations",
    [
        ("k4_lengths_1e400.graph", ["3.54167e+399", "6.69643e+399", "1.83333e+400",
                                    "2.56944e+399"]),
        ("k4_lengths_1e-400.graph", ["6e-400", "3.125e-401", "6e-400", "6e-400",
                                     "3.54167e-401", "6.69643e-401", "1.83333e-400",
                                     "2.56944e-401"]),
    ],
)
def test_values_off_the_float_range_keep_their_approximation(runner, name, approximations):
    # the unit K4's values, scaled by 10^400 or 10^-400; integers print alone
    result = runner.invoke(main, ["invariants", str(DATA / name)])
    assert (result.exit_code, result.exception) == (0, None)
    assert re.findall(r"\(~ ([^)]*)\)", result.output) == approximations


# a limit on int-to-str digits since Python 3.10.7 (4300 by default)
_str_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
TWO_ARCS = str(DATA / "two_arcs_2500_digits.graph")
SEVENS = f"a={'7' * 3000},b=1,c=1,d=1,e=1,f=1"
BEYOND_THE_LIMIT = {
    "invariants": ["invariants", TWO_ARCS],
    "invariants --json": ["invariants", TWO_ARCS, "--json"],
    "resistance": ["resistance", TWO_ARCS],
    "catalog eval": ["catalog", "eval", "g3.XIV", "--lengths", SEVENS],
    "table": ["table", "--genus", "3", "--lengths", SEVENS],
}


@pytest.mark.parametrize("args", BEYOND_THE_LIMIT.values(), ids=list(BEYOND_THE_LIMIT))
def test_values_past_the_int_to_str_limit_print_in_full(runner, args):
    limit = _str_limit()
    result = runner.invoke(main, args)
    assert (result.exit_code, result.exception) == (0, None)
    assert max(map(len, re.findall(r"\d+", result.output))) > 4300
    assert _str_limit() == limit


def test_catalog_eval_past_the_limit_reads_back_the_same_values(runner, tmp_path):
    result = runner.invoke(main, BEYOND_THE_LIMIT["catalog eval"])
    assert result.exit_code == 0
    path = tmp_path / "xiv.graph"
    path.write_text(result.output)
    second = runner.invoke(main, ["invariants", str(path), "--json"])
    assert second.exit_code == 0
    data = json.loads(second.output)
    data.update({f"delta{index}": value for index, value in data.pop("delta").items()})
    shown = dict(re.findall(r"^# (\w+) = (\S+)$", result.output, re.M))
    assert shown == {key: str(value) for key, value in data.items()}


@pytest.mark.skipif(_str_limit() is None, reason="no int-to-str limit on this Python")
def test_inputs_are_parsed_under_the_int_to_str_limit(runner, tmp_path):
    from pmgraph.cli import _all_digits

    limit = _str_limit()
    path = tmp_path / "long.graph"
    path.write_text(f"vertex a q=2\nedge l a a {'3' * 5000}\n")
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert "cannot parse length '3333" in result.output
    assert _str_limit() == limit
    with pytest.raises(RuntimeError):
        with _all_digits():
            assert _str_limit() == 0
            raise RuntimeError
    assert _str_limit() == limit


def test_the_exponent_form_is_what_6g_prints_for_a_float():
    from pmgraph.cli import _exponent_form

    rng = Random(7)
    checked = 0
    while checked < 3000:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        text = f"{x:.6g}"
        if "e" in text and "inf" not in text and "nan" not in text:
            assert _exponent_form(Fraction(x)) == text, x
            checked += 1
    # a carry into the next power of ten, and a tie that rounds to even
    assert _exponent_form(Fraction(9999995, 10**406)) == "1e-399"
    assert _exponent_form(Fraction(-1000005, 10**405)) == "-1e-399"


@pytest.mark.parametrize("token", ["1e٢٠٠٠", "1_000", "1e1_0"])
def test_a_length_outside_the_grammar_exits_2(runner, tmp_path, token):
    result = runner.invoke(main, ["catalog", "eval", "g1.I", "--lengths", f"a={token}"])
    assert result.exit_code == 2
    assert f"cannot parse parameter a={token!r}" in result.output
    path = tmp_path / "loop.graph"
    path.write_text(f"vertex X q=1\nedge a X X {token}\n", encoding="utf-8")
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert f"line 2, column 12: cannot parse length {token!r} as a rational" in result.output


# a --lengths token past 40 characters is cut in its error as a file's token
# is, and so is a long family or identity name; a short one is shown whole
# (see the pinned errors in cli_stdout.txt)
_LONG, _KEPT = "x" * 300, "x" * 40


@pytest.mark.parametrize(
    "lengths, message",
    [
        (f"a={_LONG},b=1,c=1",
         f"g3.I: cannot parse parameter a='{_KEPT}'... (300 characters)"),
        (f"a=1,b=1,c=1,{_LONG}=1",
         f"g3.I: unknown parameter(s) {_KEPT}... (300 characters)"),
        (f"a=1,b=1,c=1,{_LONG}",
         f"cannot parse length assignment '{_KEPT}'... (300 characters); expected name=value"),
        (f"a=1,b=1,c=1,{_LONG}=1,{_LONG}=2",
         f"duplicate length assignment for '{_KEPT}'... (300 characters)"),
    ],
    ids=["value", "name", "assignment", "duplicate"],
)
def test_a_long_lengths_token_is_cut_in_its_error(runner, lengths, message):
    result = runner.invoke(main, ["catalog", "eval", "g3.I", "--lengths", lengths])
    assert result.exit_code == 2
    assert result.output == f"Error: {message}\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["catalog", "check", "--family", _LONG], f"unknown family '{_KEPT}'... (300 characters)"),
        (["verify", "identities", "--name", _LONG],
         f"unknown identity '{_KEPT}'... (300 characters)"),
    ],
    ids=["family", "identity"],
)
def test_a_long_name_is_cut_in_its_error(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output == f"Error: {message}\n"


@pytest.mark.parametrize("token", ["1e3", "5/2"])
def test_small_exponents_and_fractions_are_accepted(runner, token):
    result = runner.invoke(main, ["catalog", "eval", "g0.II", "--lengths", f"a={token}"])
    assert result.exit_code == 0
    assert f"# lengths: a={token}" in result.output


class TestResistance:
    def test_json(self, runner, k4_file):
        result = runner.invoke(main, ["resistance", k4_file, "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["order"] == ["1", "2", "3", "4"]
        assert data["matrix"][0][1] == "1/2"
        assert data["matrix"][2][2] == "0"

    def test_text(self, runner, k4_file):
        result = runner.invoke(main, ["resistance", k4_file])
        assert result.exit_code == 0
        assert "1/2" in result.output


class TestCatalog:
    def test_list(self, runner):
        result = runner.invoke(main, ["catalog", "list"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l.strip()]
        assert len(lines) == 41
        assert any(line.startswith("g3.XIV") for line in lines)

    def test_list_and_eval_output_is_pinned(self, runner):
        # vertex order and weights, edge order, endpoints, which parameter
        # goes to which edge, descriptions and the closed-form header
        listed = runner.invoke(main, ["catalog", "list"])
        assert listed.exit_code == 0
        outputs = [listed.stdout_bytes]
        for line in listed.output.splitlines():
            fid, _genus, params = line.split()[:3]
            args = ["catalog", "eval", fid]
            names = params.removeprefix("params=")
            if names != "-":
                shown = ",".join(f"{n}={EVAL_LENGTHS[n]}" for n in names.split(","))
                args += ["--lengths", shown]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, fid
            outputs.append(result.stdout_bytes)
        expected = (Path(__file__).parent / "data" / "catalog_eval.txt").read_bytes()
        assert b"".join(outputs) == expected

    def test_eval_round_trip(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["catalog", "eval", "g3.XIII",
             "--lengths", "a=1/2,b=2,c=1,d=1,e=3,f=1/3"],
        )
        assert result.exit_code == 0
        path = tmp_path / "xiii.graph"
        path.write_text(result.output)
        second = runner.invoke(main, ["invariants", str(path), "--json"])
        assert second.exit_code == 0
        data = json.loads(second.output)
        for line in result.output.splitlines():
            if line.startswith("# tau = "):
                assert data["tau"] == line.split("= ")[1]
            if line.startswith("# phi = "):
                assert data["phi"] == line.split("= ")[1]

    def test_eval_missing_lengths(self, runner):
        result = runner.invoke(main, ["catalog", "eval", "g3.XIV"])
        assert result.exit_code == 2

    def test_eval_unknown_family(self, runner):
        result = runner.invoke(
            main, ["catalog", "eval", "g8.I", "--lengths", "a=1"]
        )
        assert result.exit_code == 2

    def test_check(self, runner):
        result = runner.invoke(
            main, ["catalog", "check", "--samples", "2", "--seed", "9"]
        )
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if "samples ok" in l]
        assert len(lines) == 40

    def test_check_single_family(self, runner):
        result = runner.invoke(
            main,
            ["catalog", "check", "--family", "g2.XIV", "--samples", "2"],
        )
        assert result.exit_code == 0

    def test_check_reports_mismatch(self, runner, monkeypatch):
        catalog = importlib.import_module("pmgraph.catalog")
        spec = catalog.FAMILIES["g1.II"]

        def wrong(lengths):
            tau, *rest = spec.closed(lengths)
            return (tau + Fraction(1, 7), *rest)

        monkeypatch.setitem(
            catalog.FAMILIES, "g1.II", dataclasses.replace(spec, closed=wrong)
        )
        result = runner.invoke(
            main, ["catalog", "check", "--family", "g1.II", "--samples", "2"]
        )
        assert result.exit_code == 1
        # exit 1 comes from the command itself, not from an error in printing
        assert type(result.exception) is SystemExit
        assert "g1.II    MISMATCH after 0 passing samples" in result.output
        assert re.search(
            r"^ +tau: engine \S+ != closed form \S+$", result.output, re.MULTILINE
        )


class TestTable:
    def test_csv(self, runner):
        result = runner.invoke(
            main, ["table", "--genus", "0", "--lengths", "a=1,b=1,c=1"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("family,ell,")
        assert len(lines) == 5  # header + 4 families
        assert lines[1].split(",")[0] == "g0.I"

    def test_json(self, runner):
        result = runner.invoke(
            main,
            ["table", "--genus", "3",
             "--lengths", "a=1,b=1,c=1,d=1,e=1,f=1", "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert len(rows) == 14
        xiv = [r for r in rows if r["family"] == "g3.XIV"][0]
        assert xiv["invariants"]["phi"] == "17/48"

    def test_missing_parameter(self, runner):
        result = runner.invoke(
            main, ["table", "--genus", "3", "--lengths", "a=1,b=1"]
        )
        assert result.exit_code == 2

    def test_identical_runs_are_byte_identical(self, runner):
        args = ["table", "--genus", "2",
                "--lengths", "a=3/2,b=1,c=2,d=1/5,e=1,f=2"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


class TestVerify:
    def test_identities_all(self, runner):
        result = runner.invoke(main, ["verify", "identities"])
        assert result.exit_code == 0
        assert "PASS  xiv.ellC" in result.output
        assert "FAIL  ineq8_as_printed [probe: expected to fail]" in result.output

    def test_identities_all_output_is_pinned(self, runner):
        # every line, the probes' difference and witness lines included
        expected = (Path(__file__).parent / "data" / "verify_identities.txt").read_bytes()
        result = runner.invoke(main, ["verify", "identities"])
        assert result.exit_code == 0
        assert result.stdout_bytes == expected

    def test_identities_single(self, runner):
        result = runner.invoke(
            main, ["verify", "identities", "--name", "xiv.case_V"]
        )
        assert result.exit_code == 0
        assert result.output.startswith("PASS")

    def test_identities_probe_does_not_fail_run(self, runner):
        result = runner.invoke(
            main, ["verify", "identities", "--name", "ineq9_line1_as_printed"]
        )
        assert result.exit_code == 0
        assert "witness" in result.output

    def test_identities_unknown_name(self, runner):
        result = runner.invoke(main, ["verify", "identities", "--name", "x"])
        assert result.exit_code == 2

    def test_identity_blocks_cover_the_registry(self):
        assert len(IDENTITY_BLOCKS) == 29

    @pytest.mark.parametrize("name", IDENTITY_BLOCKS)
    def test_identities_single_output_is_pinned(self, runner, name):
        # probes fail by design, so every name exits 0
        result = runner.invoke(main, ["verify", "identities", "--name", name])
        assert result.exit_code == 0
        assert result.stdout_bytes == IDENTITY_BLOCKS[name].encode()

    def test_identities_unknown_name_output_is_pinned(self, runner):
        result = runner.invoke(main, ["verify", "identities", "--name", "nope"])
        assert result.exit_code == 2
        assert result.stdout_bytes == b""
        assert "unknown identity 'nope'" in result.output

    def test_bounds(self, runner):
        result = runner.invoke(
            main,
            ["verify", "bounds", "--family", "g1.V", "--samples", "5"],
        )
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_bounds_json_deterministic(self, runner):
        args = ["verify", "bounds", "--family", "g2.III",
                "--samples", "4", "--seed", "12", "--json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        rows = json.loads(first.output)
        assert all(row["passed"] for row in rows)

    def test_bounds_unknown_family(self, runner):
        result = runner.invoke(
            main, ["verify", "bounds", "--family", "g9.I"]
        )
        assert result.exit_code == 2

    def test_bounds_family_without_a_row(self, runner):
        # g0.I is in the catalog, but its zero length leaves no ratio to bound
        result = runner.invoke(main, ["verify", "bounds", "--family", "g0.I"])
        assert result.exit_code == 2
        assert result.stdout_bytes == b""
        assert "no bound row covers family 'g0.I'" in result.output

    def test_bounds_reports_a_violated_row(self, runner, monkeypatch):
        # a g1.* phi floor of 1/8 lies above g1.I's constant 1/9, so the
        # sampled row and both witness checks fail
        bounds = importlib.import_module("pmgraph.bounds")
        table = [
            dataclasses.replace(spec, floor=Fraction(1, 8))
            if (spec.selector, spec.invariant) == ("g1.*", "phi") else spec
            for spec in bounds._TABLE
        ]
        monkeypatch.setattr(bounds, "_TABLE", table)
        args = ["verify", "bounds", "--family", "g1.I", "--samples", "3"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert type(result.exception) is SystemExit
        assert result.output.splitlines()[:4] == [
            "FAIL  phi/ell >= 1/8  [g1.*]  min 1/9 (~ 0.111111) at g1.I",
            "      violated at g1.I with a=3/5: ratio 1/9",
            "      witness check failed: engine phi/ell at g1.I witness (1/9 vs floor 1/8)",
            "      witness check failed: closed-form phi/ell at g1.I witness (1/9 vs floor 1/8)",
        ]
        assert result.output.count("PASS") == 2
        result = runner.invoke(main, args + ["--json"])
        assert result.exit_code == 1
        assert type(result.exception) is SystemExit
        rows = json.loads(result.output)
        assert [(row["invariant"], row["passed"], row["witness_passed"]) for row in rows] == [
            ("phi", False, False), ("lambda", True, True), ("epsilon", True, True),
        ]
        assert (rows[0]["floor"], rows[0]["min_ratio"]) == ("1/8", "1/9")
