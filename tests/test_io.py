import random
from fractions import Fraction

import pytest

from pmgraph import (
    ParseError,
    PmGraph,
    as_rational,
    graph_from_json_dict,
    graph_to_json_dict,
    graph_to_text,
    parse_graph,
)


SAMPLE = """\
# a weighted segment
vertex p q=1
vertex q q=2

edge e1 p q 1
"""


def _loop_json(length):
    # one weight-2 vertex carrying one loop of the given length literal
    return {
        "vertices": [{"id": "a", "q": 2}],
        "edges": [{"id": "l", "u": "a", "v": "a", "length": length}],
    }


class TestParse:
    def test_sample(self):
        g = parse_graph(SAMPLE)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1
        assert g.q("p") + g.q("q") == 3

    def test_self_loop(self):
        g = parse_graph("vertex x q=2\nedge l x x 5\n")
        assert g.edge("l").is_loop
        assert g.edge("l").length == 5

    def test_fraction_length(self):
        g = parse_graph("vertex a q=2\nedge l a a 22/7\n")
        assert g.edge("l").length == Fraction(22, 7)

    def test_decimal_length_is_exact(self):
        g = parse_graph("vertex a q=2\nedge l a a 0.1\n")
        assert g.edge("l").length == Fraction(1, 10)

    def test_unknown_endpoint(self):
        with pytest.raises(ParseError) as err:
            parse_graph("edge e a b 1\n")
        assert "line 1" in str(err.value)

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError):
            parse_graph("vertex a\nvertex a\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_graph("vertex a q=2\nedge l a a 1\nedge l a a 2\n")

    def test_nonpositive_length(self):
        with pytest.raises(ParseError):
            parse_graph("vertex a q=2\nedge l a a 0\n")
        with pytest.raises(ParseError):
            parse_graph("vertex a q=2\nedge l a a -3\n")

    def test_bad_record(self):
        with pytest.raises(ParseError):
            parse_graph("vertices a b c\n")

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertex a q=2\nedge l a a zero\n")
        assert err.value.line == 2
        assert err.value.column > 1

    @pytest.mark.parametrize("token", ["1e1001", "1E-1001"])
    def test_decimal_exponent_over_1000_is_rejected(self, token):
        with pytest.raises(ParseError) as err:
            parse_graph(f"vertex a q=2\nedge l a a  {token}\n")
        assert (err.value.line, err.value.column) == (2, 13)
        with pytest.raises(ValueError, match="exponent"):
            as_rational(token)
        with pytest.raises(ValueError, match="exponent"):
            graph_from_json_dict(_loop_json(token))

    @pytest.mark.parametrize("token, value", [("1e3", 1000), ("5/2", Fraction(5, 2))])
    def test_small_exponents_and_fractions_are_accepted(self, token, value):
        assert parse_graph(f"vertex a q=2\nedge l a a {token}\n").edge("l").length == value
        assert as_rational(token) == value
        assert graph_from_json_dict(_loop_json(token)).edge("l").length == value

    @pytest.mark.parametrize("value", [0.1, 2.5, float("inf"), None, True])
    def test_lengths_of_other_types_are_rejected(self, value):
        # a float never enters, not even one that is exactly representable
        with pytest.raises(TypeError):
            as_rational(value)
        with pytest.raises(TypeError):
            graph_from_json_dict(_loop_json(value))
        with pytest.raises(TypeError):
            PmGraph.build([("a", 2)], [("l", "a", "a", value)])

    @pytest.mark.parametrize("weight", [2.9, Fraction(5, 2), "5/2", None])
    def test_non_integer_weight_is_rejected_not_truncated(self, weight):
        with pytest.raises((TypeError, ValueError)):
            graph_from_json_dict({"vertices": [{"id": "a", "q": weight}], "edges": []})
        with pytest.raises((TypeError, ValueError)):
            PmGraph.build([("a", weight)], [])

    @pytest.mark.parametrize("weight", [2, Fraction(4, 2), "2"])
    def test_integral_weight_is_kept(self, weight):
        data = {"vertices": [{"id": "a", "q": weight}], "edges": []}
        assert graph_from_json_dict(data).q("a") == 2
        assert PmGraph.build([("a", weight)], []).q("a") == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("vertex\n", "line 1, column 1: expected 'vertex <id> [q=<int>]'"),
            ("vertex a q=1\n  vertex   a\n", "line 2, column 12: duplicate vertex id 'a'"),
            ("vertex a  w=3\n", "line 1, column 11: expected 'q=<int>', got 'w=3'"),
            ("vertex a\tq=x\n", "line 1, column 10: cannot parse weight 'x' as an integer"),
            ("vertex a q=-2\n", "line 1, column 10: vertex weight must be nonnegative, got -2"),
            (
                "vertex a q=2\nedge l a\n",
                "line 2, column 1: expected 'edge <id> <vertex> <vertex> <length>'",
            ),
            ("vertex a q=2\nedge l a a 1\n edge  l a a 2\n", "line 3, column 8: duplicate edge id 'l'"),
            (
                "vertex a q=2\nedge l a  b 1\n",
                "line 2, column 11: edge 'l' references undeclared vertex 'b'",
            ),
            (
                "vertex a q=2\nedge l a a   zero # note\n",
                "line 2, column 14: cannot parse length 'zero' as a rational",
            ),
            ("vertex a q=2\nedge l a a 0\n", "line 2, column 12: edge length must be positive, got 0"),
            (
                "vertex a q=2\nedge l a a -3/4\n",
                "line 2, column 12: edge length must be positive, got -3/4",
            ),
            ("vertex a q=2\nedge l a a 1/0\n", "line 2, column 12: cannot parse length '1/0' as a rational"),
            (
                "vertex a q=2\n\n  frob a\n",
                "line 3, column 3: unknown record 'frob' (expected 'vertex' or 'edge')",
            ),
        ],
    )
    def test_every_error_message_is_pinned(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"vertex a w={7 * '7'}{4993 * '0'}\n",
             f"line 1, column 10: expected 'q=<int>', got 'w={7 * '7'}{31 * '0'}'... (5002 characters)"),
            (f"vertex a q={4999 * '7'}x\n",
             f"line 1, column 10: cannot parse weight '{40 * '7'}'... (5000 characters) as an integer"),
            (f"vertex a q=-{4000 * '7'}\n",
             f"line 1, column 10: vertex weight must be nonnegative, got -{39 * '7'}... (4001 characters)"),
            (f"vertex a\nedge l a a {4999 * '7'}x\n",
             f"line 2, column 12: cannot parse length '{40 * '7'}'... (5000 characters) as a rational"),
            (f"vertex a\nedge l a a -{4000 * '7'}\n",
             f"line 2, column 12: edge length must be positive, got -{39 * '7'}... (4001 characters)"),
        ],
        ids=["not-a-weight", "weight", "negative-weight", "length", "negative-length"],
    )
    def test_an_over_long_token_is_cut_in_its_message(self, text, message):
        # the 4000-digit values parse, and are then refused for their sign
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert str(err.value) == message

    def test_columns_are_found_only_for_errors(self, monkeypatch):
        import importlib

        io_module = importlib.import_module("pmgraph.io")
        calls = []
        original = io_module._column_of

        def counted(line, token_index):
            calls.append(token_index)
            return original(line, token_index)

        monkeypatch.setattr(io_module, "_column_of", counted)
        parse_graph(SAMPLE + "edge e2 p q 5/2\nedge e3 q q 0.5\n")
        assert calls == []
        with pytest.raises(ParseError):
            parse_graph("vertex a q=2\nedge l a a zero\n")
        assert calls == [4]

    def test_no_normalization(self):
        # a valence-2 weight-0 vertex must survive parsing untouched
        text = "vertex a q=1\nvertex m\nvertex b q=1\nedge e1 a m 1\nedge e2 m b 1\n"
        g = parse_graph(text)
        assert len(g.vertices) == 3


class TestRoundTrip:
    def test_text(self):
        g = parse_graph(SAMPLE)
        again = parse_graph(graph_to_text(g))
        assert again == g

    def test_text_preserves_fractions(self):
        g = parse_graph("vertex a q=2\nedge l a a 7/3\n")
        assert "7/3" in graph_to_text(g)

    def test_json(self):
        g = parse_graph(SAMPLE)
        assert graph_from_json_dict(graph_to_json_dict(g)) == g


def _outcome(function, token):
    # the value, or the exception's type and message
    try:
        return function(token)
    except Exception as err:
        return type(err), str(err)


def _digit_tokens():
    # ASCII ``n`` and ``n/d``: zero, leading zeros, and 300-digit runs
    rng = random.Random("digit-tokens")
    tokens = ["0", "7", "007", "0/7", "000/0003", "12/18", "1/1", "0" * 300]
    def run():
        return str(rng.randrange(10 ** rng.randint(0, 300))).zfill(rng.randint(1, 4))

    for _ in range(40):
        tokens += [run(), f"{run()}/{rng.randrange(1, 10**rng.randint(1, 300))}"]
    tokens += ["9" * 300 + "/" + "7" * 300, "1" + "0" * 299 + "/" + "0" * 299 + "3"]
    return tokens


class TestDigitTokens:
    @pytest.mark.parametrize("token", _digit_tokens())
    def test_digit_tokens_equal_fraction(self, token):
        value = as_rational(token)
        assert type(value) is Fraction
        assert value.as_integer_ratio() == Fraction(token).as_integer_ratio()

    @pytest.mark.parametrize("token", ["1/0", "00/000", "1" * 4400, "1/" + "2" * 4400])
    def test_digit_token_errors_equal_fraction(self, token):
        assert _outcome(as_rational, token) == _outcome(Fraction, token)

    # every token outside the ASCII digit shapes takes the general path, with
    # its value or its exception as before
    @pytest.mark.parametrize(
        "token, outcome",
        [
            ("2.5", Fraction(5, 2)),
            ("1e3", Fraction(1000)),
            ("+3", Fraction(3)),
            ("1_000", Fraction(1000)),
            ("٣", Fraction(3)),  # ARABIC-INDIC DIGIT THREE
            ("²", (ValueError, "Invalid literal for Fraction: '²'")),  # SUPERSCRIPT TWO
            ("4/", (ValueError, "Invalid literal for Fraction: '4/'")),
            ("/4", (ValueError, "Invalid literal for Fraction: '/4'")),
            ("3/4/5", (ValueError, "Invalid literal for Fraction: '3/4/5'")),
            ("1e1001", (ValueError, "decimal exponent of '1e1001' exceeds 1000 in magnitude")),
            ("1/0", (ZeroDivisionError, "Fraction(1, 0)")),
        ],
    )
    def test_other_tokens_keep_their_outcome(self, token, outcome):
        assert _outcome(as_rational, token) == outcome
        text = f"vertex a q=2\nedge l a a {token}\n"
        if isinstance(outcome, Fraction):
            assert parse_graph(text).edge("l").length == outcome
        else:
            with pytest.raises(ParseError) as err:
                parse_graph(text)
            assert (err.value.line, err.value.column) == (2, 12)
            assert str(err.value) == f"line 2, column 12: cannot parse length {token!r} as a rational"


def test_a_column_past_the_last_token_is_the_end_of_the_line():
    from pmgraph.io import _column_of

    assert _column_of("edge  e1 A", 2) == 10
    assert _column_of("edge  e1 A", 4) == len("edge  e1 A") + 1


@pytest.mark.parametrize(
    "sep", ["\t", "\u00a0", "\u001f", "\u3000", "\u00a0\t\u3000"], ids=ascii
)
def test_columns_past_any_whitespace_are_those_of_str_split(sep):
    from pmgraph.io import _column_of

    tokens = ["edge", "e1", "a", "a", "zero"]
    line = sep + sep.join(tokens) + sep
    assert line.split() == tokens
    starts = [len(sep) * (k + 1) + sum(map(len, tokens[:k])) for k in range(5)]
    assert [_column_of(line, k) for k in range(5)] == [s + 1 for s in starts]
    assert _column_of(line, 5) == len(line) + 1
    with pytest.raises(ParseError) as err:
        parse_graph("vertex a q=2\n" + line + "# note\n")
    assert str(err.value) == (
        f"line 2, column {starts[4] + 1}: cannot parse length 'zero' as a rational"
    )
