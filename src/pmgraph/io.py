"""Plain-text and JSON serialization of pm-graphs.

Text format, one record per line::

    # comment (also allowed after a record)
    vertex <id> [q=<nonneg int>]
    edge <id> <vertex-id> <vertex-id> <length>

Lengths are exact rationals written as ``num/den``, an integer, or a decimal
literal (``2.5`` parses to 5/2, not a float; a decimal exponent such as
``1e3`` may not exceed 1000 in magnitude).  Vertices must be declared
before any edge that uses them.  Parsing never normalizes: the graph comes
back exactly as written.
"""

from __future__ import annotations

import re
from typing import Mapping

from .graph import Edge, PmGraph, PmGraphError, Vertex, as_rational, as_weight


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


def _shown(token: str, quote: bool = True) -> str:
    # a length or weight token as an error message shows it; an over-long one
    # keeps its first characters and says how long it was
    show = repr if quote else str
    if len(token) <= _TOKEN_LIMIT:
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
    vertices: list[Vertex] = []
    edges: list[Edge] = []
    vertex_ids: set[str] = set()
    edge_ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) < 2 or len(tokens) > 3:
                raise _error("expected 'vertex <id> [q=<int>]'", lineno, line, 0)
            vid = tokens[1]
            if vid in vertex_ids:
                raise _error(f"duplicate vertex id {vid!r}", lineno, line, 1)
            q = 0
            if len(tokens) == 3:
                if not tokens[2].startswith("q="):
                    raise _error(f"expected 'q=<int>', got {_shown(tokens[2])}", lineno, line, 2)
                try:
                    q = int(tokens[2][2:])
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
            vertices.append(Vertex(vid, q))
            vertex_ids.add(vid)
        elif kind == "edge":
            if len(tokens) != 5:
                raise _error("expected 'edge <id> <vertex> <vertex> <length>'", lineno, line, 0)
            eid, u, v, token = tokens[1:]
            if eid in edge_ids:
                raise _error(f"duplicate edge id {eid!r}", lineno, line, 1)
            for index, end in ((2, u), (3, v)):
                if end not in vertex_ids:
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
            edges.append(Edge(eid, u, v, length))
            edge_ids.add(eid)
        else:
            raise _error(
                f"unknown record {kind!r} (expected 'vertex' or 'edge')", lineno, line, 0
            )
    return PmGraph(tuple(vertices), tuple(edges))


def graph_to_text(g: PmGraph) -> str:
    """Serialize to the text format; ``parse_graph`` round-trips exactly."""
    lines = []
    for v in g.vertices:
        lines.append(f"vertex {v.id}" + (f" q={v.q}" if v.q else ""))
    for e in g.edges:
        lines.append(f"edge {e.id} {e.u} {e.v} {e.length}")
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: PmGraph) -> dict:
    return {
        "vertices": [{"id": v.id, "q": v.q} for v in g.vertices],
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "length": str(e.length)}
            for e in g.edges
        ],
    }


def graph_from_json_dict(data: Mapping) -> PmGraph:
    vertices = tuple(Vertex(v["id"], as_weight(v.get("q", 0))) for v in data["vertices"])
    edges = tuple(
        Edge(e["id"], e["u"], e["v"], as_rational(e["length"])) for e in data["edges"]
    )
    return PmGraph(vertices, edges)

