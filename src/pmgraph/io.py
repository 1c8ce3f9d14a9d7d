"""Plain-text serialization of pm-graphs.

Text format, one record per line::

    # comment (also allowed after a record)
    vertex <id> [q=<nonneg int>]
    edge <id> <vertex-id> <vertex-id> <length>

A weight is an optional sign and decimal digits, with no ``_`` separator.
Lengths are exact rationals written as ``num/den``, an integer, or a decimal
literal (``2.5`` parses to 5/2, not a float; no ``_`` separator; a decimal
exponent such as ``1e3`` may not exceed 1000 in magnitude, in whatever
digits it is written).  Vertices must be declared before any edge that
uses them.  Parsing never normalizes: the graph comes
back exactly as written.
"""

from __future__ import annotations

import re

from .graph import Edge, PmGraph, PmGraphError, Vertex, as_rational


class ParseError(PmGraphError):
    """Malformed graph text; carries 1-based line and column of the offense."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _column_of(line: str, token_index: int) -> int:
    # 1-based starting column of the token at token_index, for error messages
    starts = [m.start() + 1 for m in re.finditer(r"\S+", line)]
    return starts[token_index] if token_index < len(starts) else len(line) + 1


_TOKEN_LIMIT = 40


def _weight(token: str) -> int:
    # an optional sign and decimal digits, any Unicode decimal digit as ``\d``
    # in ``graph._LITERAL``; int() alone would also read a ``_`` separator
    if not (token[1:] if token[:1] in "+-" else token).isdecimal():
        raise ValueError(token)
    return int(token)


def _shown(token: object, quote: bool = True) -> str:
    # a user's token as an error message shows it: an over-long str keeps its
    # first characters and says how long it was, and any other value is whole
    show = repr if quote else str
    if not isinstance(token, str) or len(token) <= _TOKEN_LIMIT:
        return show(token)
    return f"{show(token[:_TOKEN_LIMIT])}... ({len(token)} characters)"


def _error(message: str, lineno: int, line: str, token_index: int) -> ParseError:
    # every parse error names the token at token_index of the comment-stripped
    # line; its column is only worked out here, for the message
    return ParseError(message, lineno, _column_of(line, token_index))


def parse_graph(text: str) -> PmGraph:
    """Parse text in the format above into a :class:`PmGraph`.

    Raises :class:`ParseError` on the first syntax or reference problem.
    The result is not validated against the pm-graph axioms; callers that
    need a valid graph should follow up with :func:`pmgraph.graph.validate`.
    """
    vertices: dict[str, Vertex] = {}  # by id, in file order
    edges: dict[str, Edge] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) < 2 or len(tokens) > 3:
                raise _error("expected 'vertex <id> [q=<int>]'", lineno, line, 0)
            vid = tokens[1]
            if vid in vertices:
                raise _error(f"duplicate vertex id {vid!r}", lineno, line, 1)
            q = 0
            if len(tokens) == 3:
                if not tokens[2].startswith("q="):
                    raise _error(f"expected 'q=<int>', got {_shown(tokens[2])}", lineno, line, 2)
                try:
                    q = _weight(tokens[2][2:])
                except ValueError:
                    raise _error(
                        f"cannot parse weight {_shown(tokens[2][2:])} as an integer",
                        lineno, line, 2,
                    )
                if q < 0:
                    raise _error(
                        f"vertex weight must be nonnegative, got {_shown(str(q), quote=False)}",
                        lineno, line, 2,
                    )
            vertices[vid] = Vertex(vid, q)
        elif kind == "edge":
            if len(tokens) != 5:
                raise _error("expected 'edge <id> <vertex> <vertex> <length>'", lineno, line, 0)
            _, eid, u, v, token = tokens
            if eid in edges:
                raise _error(f"duplicate edge id {eid!r}", lineno, line, 1)
            if u not in vertices or v not in vertices:
                index, end = (2, u) if u not in vertices else (3, v)
                raise _error(
                    f"edge {eid!r} references undeclared vertex {end!r}", lineno, line, index
                )
            try:
                length = as_rational(token)
            except (ValueError, ZeroDivisionError):
                raise _error(f"cannot parse length {_shown(token)} as a rational", lineno, line, 4)
            if length.numerator <= 0:
                raise _error(
                    f"edge length must be positive, got {_shown(token, quote=False)}",
                    lineno, line, 4,
                )
            edges[eid] = Edge(eid, u, v, length)
        else:
            raise _error(
                f"unknown record {kind!r} (expected 'vertex' or 'edge')", lineno, line, 0
            )
    return PmGraph(tuple(vertices.values()), tuple(edges.values()))


def graph_to_text(g: PmGraph) -> str:
    """Serialize to the text format; ``parse_graph`` round-trips exactly."""
    lines = []
    for v in g.vertices:
        lines.append(f"vertex {v.id}" + (f" q={v.q}" if v.q else ""))
    for e in g.edges:
        lines.append(f"edge {e.id} {e.u} {e.v} {e.length}")
    return "\n".join(lines) + "\n"

