"""Fuzzing the text parser and the command line.

``parse_graph`` either returns a graph or raises a ``ParseError``, and every
command line ends in exit 0, 1 or 2 with a message, never a traceback.  The
inputs are mostly near misses of valid ones (known ids, lengths that are
zero, negative, huge or not numbers, weights out of range), mixed with
arbitrary text and bytes; example counts stay low to keep tier-1 fast.
Extreme magnitudes get their own strategy: lengths whose values lie far
outside float's range or run past Python's limit on int-to-str digits.
"""

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmgraph import ParseError, PmGraph, family, list_families, parse_graph
from pmgraph.cli import main

FUZZ = settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

ids = st.sampled_from(["A", "B", "C", "x1"])
numbers = st.sampled_from(
    ["1", "3", "2/3", "0", "-1", "0.5", "1e3", "1e-3", "1e5000", "1/0", "abc", "nan", "inf", ""]
)
weights = st.sampled_from(
    ["", "q=0", "q=1", "q=2", "q=-1", "q=x", "q=1.5", "w=1", "q=1001", "q=1000000000000"]
)
line = st.one_of(
    st.builds(lambda v, w: f"vertex {v} {w}", ids, weights),
    st.builds(lambda e, u, v, n: f"edge {e} {u} {v} {n}", ids, ids, ids, numbers),
    st.sampled_from(["", "# comment", "vertex", "edge e A", "vertex A q=1 # note"]),
    st.text(max_size=16),
)
graph_texts = st.lists(line, max_size=8).map("\n".join)
families = st.sampled_from(list_families() + ["g9.I", ""])
assignments = st.lists(
    st.builds(lambda name, n: f"{name}={n}", st.sampled_from("abcdefkz"), numbers), max_size=7
).map(",".join)
# decimal exponents near the cap of +-1000, and integers of 1000 to 2500
# digits in steps of 250, each size drawn as often
extreme = st.one_of(
    st.builds(
        lambda m, e: f"{m}e{e}",
        st.integers(1, 999),
        st.integers(-1000, -990) | st.integers(990, 1000),
    ),
    st.sampled_from(range(1000, 2501, 250))
    .flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))
    .map(str),
)
# connected: the first of 1-3 edges joins A and B
extreme_graphs = st.builds(
    lambda q, first, more: "\n".join(
        [f"vertex A q={q}", "vertex B q=1", f"edge e0 A B {first}"]
        + [f"edge e{i} {ends} {length}" for i, (ends, length) in enumerate(more, 1)]
    ),
    st.integers(0, 2),
    extreme,
    st.lists(st.tuples(st.sampled_from(["A B", "A A", "B B"]), extreme), max_size=2),
)


@FUZZ
@given(st.one_of(graph_texts, st.text(max_size=60)))
def test_parse_graph_gives_a_graph_or_a_parse_error(text):
    try:
        graph = parse_graph(text)
    except ParseError:
        return
    assert isinstance(graph, PmGraph)


def _assert_clean(result):
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert "Traceback" not in result.output


@FUZZ
@given(
    st.one_of(graph_texts.map(str.encode), st.binary(max_size=40)),
    st.sampled_from(["invariants", "resistance"]),
    st.sampled_from([[], ["--json"]]),
)
def test_file_commands_exit_cleanly(tmp_path, content, command, flags):
    path = tmp_path / "graph.txt"
    path.write_bytes(content)
    _assert_clean(CliRunner().invoke(main, [command, str(path), *flags]))


@FUZZ
@given(
    st.one_of(
        st.builds(lambda f, a: ["catalog", "eval", f, "--lengths", a], families, assignments),
        st.builds(
            lambda g, a, fmt: ["table", "--genus", g, "--lengths", a, "--format", fmt],
            st.sampled_from(["0", "1", "2", "3", "4", "-1", "x"]), assignments,
            st.sampled_from(["csv", "json", "xml"]),
        ),
        st.builds(
            lambda f, n, s: ["verify", "bounds", "--family", f, "--samples", n, "--seed", s],
            families, st.sampled_from(["1", "2", "0", "-3", "x"]), st.sampled_from(["0", "7", "-2", "y"]),
        ),
        st.builds(
            lambda f, n: ["catalog", "check", "--family", f, "--samples", n],
            families, st.sampled_from(["1", "2", "0", "x"]),
        ),
        st.lists(
            st.sampled_from(["catalog", "verify", "list", "eval", "--json", "--samples", "1", "g3.I", "--name", "zz"]),
            max_size=4,
        ),
    )
)
def test_command_lines_exit_cleanly(args):
    _assert_clean(CliRunner().invoke(main, args))


def _assert_exit_0_or_2(result):
    _assert_clean(result)
    assert result.exit_code in (0, 2), result.output


@settings(FUZZ, max_examples=60)
@given(
    extreme_graphs,
    st.sampled_from(["invariants", "resistance"]),
    st.sampled_from([[], ["--json"]]),
)
def test_extreme_lengths_in_a_file_exit_0_or_2(tmp_path, text, command, flags):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    _assert_exit_0_or_2(CliRunner().invoke(main, [command, str(path), *flags]))


@settings(FUZZ, max_examples=10)
@given(
    st.sampled_from([fid for fid in list_families() if family(fid).params]),
    st.lists(extreme, min_size=6, max_size=6),
    st.sampled_from(["csv", "json"]),
)
def test_extreme_lengths_on_the_command_line_exit_0_or_2(fid, literals, fmt):
    def lengths(names):
        return ",".join(f"{name}={literal}" for name, literal in zip(names, literals))

    spec = family(fid)
    for args in (
        ["catalog", "eval", fid, "--lengths", lengths(spec.params)],
        ["table", "--genus", str(spec.genus), "--lengths", lengths("abcdef"), "--format", fmt],
    ):
        _assert_exit_0_or_2(CliRunner().invoke(main, args))
