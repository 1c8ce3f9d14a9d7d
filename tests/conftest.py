import random
from fractions import Fraction

import pytest

from pmgraph import PmGraph, build, family, random_lengths

from surgery import subdivide

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def build_k4(lengths=None) -> PmGraph:
    lengths = lengths or {}
    value = lambda name: lengths.get(name, Fraction(1))
    return PmGraph.build(
        ["1", "2", "3", "4"],
        [
            ("a", "1", "2", value("a")),
            ("b", "1", "3", value("b")),
            ("c", "1", "4", value("c")),
            ("d", "2", "3", value("d")),
            ("e", "2", "4", value("e")),
            ("f", "3", "4", value("f")),
        ],
    )


def build_theta(a=1, b=1, c=1, qp=1, qs=0) -> PmGraph:
    # two vertices joined by three parallel edges; weights chosen by caller
    return PmGraph.build(
        [("P", qp), ("S", qs)],
        [("a", "P", "S", a), ("b", "P", "S", b), ("c", "P", "S", c)],
    )


def build_circle(lengths=(4, 5, 3), q_first=0) -> PmGraph:
    n = len(lengths)
    names = [f"v{i}" for i in range(n)]
    vertices = [(names[0], q_first)] + [(v, 0) for v in names[1:]]
    edges = [
        (f"e{i}", names[i], names[(i + 1) % n], lengths[i]) for i in range(n)
    ]
    return PmGraph.build(vertices, edges)


def build_loop(length=12, q=0) -> PmGraph:
    return PmGraph.build([("X", q)], [("l", "X", "X", length)])


def build_path(lengths=(1, 2, 3), q_ends=1) -> PmGraph:
    n = len(lengths)
    names = [f"p{i}" for i in range(n + 1)]
    vertices = [(names[0], q_ends)] + [(v, 0) for v in names[1:-1]]
    vertices.append((names[-1], q_ends))
    edges = [(f"e{i}", names[i], names[i + 1], lengths[i]) for i in range(n)]
    return PmGraph.build(vertices, edges)


def build_loop_with_bridge(bridge=2, loop=3) -> PmGraph:
    # loop b at X (weight 1) plus a bridge a out to a weight-1 leaf
    return PmGraph.build(
        [("X", 1), ("Y", 1)],
        [("b", "X", "X", loop), ("a", "X", "Y", bridge)],
    )


def random_pm_graph(n: int, rng: random.Random) -> PmGraph:
    """A valid pm-graph on ``n`` vertices with every feature the solve meets.

    A random tree spans the vertices; chords (loops and parallel edges
    among them) join only the first half, so the rest hang off as pendant
    trees.  Vertex 0 always carries a loop and, from two vertices on, the
    first tree edge has a parallel twin.  Leaves get q = 1, other vertices a
    random q in 0..2.
    """
    names = [f"v{i}" for i in range(n)]
    core = names[: max(1, n // 2)]
    ends = [(names[i], names[rng.randrange(i)]) for i in range(1, n)]
    ends += [(names[0], names[0])] + ends[:1]
    ends += [(rng.choice(core), rng.choice(core)) for _ in range(len(core))]
    edges = [
        (f"e{k}", u, v, Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        for k, (u, v) in enumerate(ends)
    ]
    valence = {name: 0 for name in names}
    for u, v in ends:
        valence[u] += 1
        valence[v] += 1
    vertices = [
        (name, 1 if valence[name] == 1 else rng.randint(0, 2)) for name in names
    ]
    return PmGraph.build(vertices, edges)


def dense_graph(n: int, rng: random.Random) -> PmGraph:
    # a random spanning tree plus n chords, loops and parallel edges allowed;
    # leaves get q = 1 and every other vertex q = 0
    names = [f"v{i}" for i in range(n)]
    ends = [(names[i], names[rng.randrange(i)]) for i in range(1, n)]
    ends += [(rng.choice(names), rng.choice(names)) for _ in range(n)]
    valence = dict.fromkeys(names, 0)
    for u, v in ends:
        valence[u] += 1
        valence[v] += 1
    return PmGraph.build(
        [(name, 1 if valence[name] == 1 else 0) for name in names],
        [
            (f"e{k}", u, v, Fraction(rng.randint(1, 20), rng.randint(1, 20)))
            for k, (u, v) in enumerate(ends)
        ],
    )


def random_subdivided(fid: str, n: int, rng: random.Random) -> PmGraph:
    """Catalog family ``fid`` at random lengths, with random edges split at
    random rational points until it has ``n`` vertices."""
    g = build(fid, random_lengths(family(fid).params, rng))
    while len(g.vertices) < n:
        denominator = rng.randint(2, 16)
        t = Fraction(rng.randint(1, denominator - 1), denominator)
        g = subdivide(g, rng.choice(g.edges).id, t)
    return g


@pytest.fixture
def k4_unit() -> PmGraph:
    return build_k4()


@pytest.fixture
def theta_unit() -> PmGraph:
    return build_theta()
