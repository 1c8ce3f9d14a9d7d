"""Fuzzing the text parser and the command line.

``parse_graph`` either returns a graph or raises a ``ParseError``, and every
command line ends in exit 0, 1 or 2 with a message, never a traceback.  The
inputs are mostly near misses of valid ones (known ids, lengths that are
zero, negative, huge or not numbers, weights out of range), mixed with
arbitrary text and bytes; example counts stay low to keep tier-1 fast.
"""

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pmgraph import ParseError, PmGraph, list_families, parse_graph
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
