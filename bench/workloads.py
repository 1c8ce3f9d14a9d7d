"""Seeded inputs and output checks for the four benchmark workloads.

Each workload turns a seed into a list of :class:`Op`.  One op is one or
more ``pmgraph`` command lines run back to back; the benchmark times them
together and then hands every ``(exit code, stdout)`` pair to the op's
check.  A check returns the problems it found, so an empty list means the
op passed.

The seed changes lengths, shapes and order, never the mix: every seed
gives the same families and the same vertex and edge counts, so runs with
different seeds measure the same amount of work.

No check trusts the engine.  Expected answers come from the catalog's
transcribed closed forms, from the bound table copied below, from the
certificate registry, or from identities that any resistance matrix must
satisfy (Foster's theorem, the per-edge tau formula), evaluated here on
the printed output.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

Result = tuple[int, str]  # (exit code, captured stdout) of one command line
Check = Callable[[Sequence[Result]], list[str]]

WORKLOADS = ("catalog-verify", "subdivided-g3", "dense-random", "certificates")

CATALOG_SAMPLES = 10
CATALOG_ROUNDS = 3
SUBDIVIDED_SIZES = (16, 24, 32, 40, 48)  # vertex counts, cycled by position
SUBDIVIDED_OPS = 100
DENSE_SIZES = (12, 17, 22, 27, 32)
DENSE_PER_SIZE = 20
CERTIFICATE_OPS = 100  # identical ops; each is timed once per pass
# Seconds one pass over all ops took when the benchmark was defined.  With
# --seconds it fixes the number of passes, which then does not depend on
# the speed of the commit being measured.
PASS_SECONDS = {"catalog-verify": 4.0, "subdivided-g3": 8.0, "dense-random": 25.0, "certificates": 8.0}
# leading ops that visit the mix evenly: one traced pass
TRACE_PASS = {"catalog-verify": 40, "subdivided-g3": 70, "dense-random": 20, "certificates": 1}
CERTIFICATE_COUNT = 29
PROBES = frozenset(
    {"g3_IX_tau_as_printed", "ineq8_as_printed", "ineq9_line1_as_printed"}
)

# The bound table as published: (selector, invariant) -> (floor, exact).
FLOORS = {
    ("g0.*", "phi"): (Fraction(4, 3), True),
    ("g0.*", "lambda"): (Fraction(2, 7), True),
    ("g0.*", "epsilon"): (Fraction(5, 3), True),
    ("g1.*", "phi"): (Fraction(1, 9), False),
    ("g1.*", "lambda"): (Fraction(3, 28), False),
    ("g1.*", "epsilon"): (Fraction(2, 9), False),
    ("g2.*", "phi"): (Fraction(7, 81), False),
    ("g2.*", "lambda"): (Fraction(3, 28), False),
    ("g2.*", "epsilon"): (Fraction(2, 9), False),
    ("g3.I,g3.IV,g3.V,g3.VI,g3.VII,g3.XI", "phi"): (Fraction(1, 9), False),
    ("g3.III,g3.IX,g3.X,g3.XII", "phi"): (Fraction(7, 81), False),
    ("g3.II", "phi"): (Fraction(1, 16), False),
    ("g3.VIII", "phi"): (Fraction(1, 16), False),
    ("g3.XIII", "phi"): (Fraction(1, 16), False),
    ("g3.XIV", "phi"): (Fraction(17, 288), False),
    ("g3.XIV", "tau"): (Fraction(5, 96), False),
    ("g3.*", "lambda"): (Fraction(3, 28), False),
    ("g3.*", "epsilon"): (Fraction(2, 9), False),
}


@dataclass(frozen=True)
class Op:
    """Command lines run as one timed operation, and how to check them."""

    commands: tuple[tuple[str, ...], ...]
    check: Check
    n: int = 0  # vertices of the input graph, 0 when there is none
    e: int = 0  # edges of the input graph
    path: str = ""  # graph file the commands read, if any


@dataclass
class Graph:
    """Plain vertex and edge lists, kept apart from the package's model."""

    vertices: list[tuple[str, int]] = field(default_factory=list)  # (id, q)
    edges: list[tuple[str, str, str, Fraction]] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"vertex {vid}" + (f" q={q}" if q else "") for vid, q in self.vertices]
        lines += [f"edge {eid} {u} {v} {length}" for eid, u, v, length in self.edges]
        return "\n".join(lines) + "\n"

    def valence(self) -> dict[str, int]:
        count = {vid: 0 for vid, _ in self.vertices}
        for _, u, v, _ in self.edges:
            count[u] += 1
            count[v] += 1
        return count


def make_ops(workload: str, pm, seed: int, workdir: Path) -> list[Op]:
    """The op list of ``workload``; graph files go under ``workdir``.

    ``pm`` is the imported ``pmgraph`` package.  It is used only for the
    catalog topologies, closed forms and certificate names.
    """
    makers = {
        "catalog-verify": _catalog_verify,
        "subdivided-g3": _subdivided_g3,
        "dense-random": _dense_random,
        "certificates": _certificates,
    }
    return makers[workload](pm, random.Random(f"{workload}:{seed}"), workdir)


def _random_length(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 64), rng.randint(1, 64))


def _non_degenerate(catalog) -> list[str]:
    return [f for f in catalog.list_families() if not catalog.family(f).degenerate]


# -- catalog-verify ----------------------------------------------------------


def _catalog_verify(pm, rng: random.Random, workdir: Path) -> list[Op]:
    catalog = pm.catalog
    fids = _non_degenerate(catalog)
    if len(fids) != 40:
        raise RuntimeError(f"expected 40 non-degenerate families, found {len(fids)}")
    ops = []
    for _ in range(CATALOG_ROUNDS):  # each round: every family once, fresh order and seeds
        rng.shuffle(fids)
        for fid in fids:
            sample_seed = str(rng.randrange(2**31))
            graph = catalog.build(fid, {p: 1 for p in catalog.family(fid).params})
            common = ("--family", fid, "--samples", str(CATALOG_SAMPLES), "--seed", sample_seed)
            ops.append(
                Op(
                    commands=(("catalog", "check") + common, ("verify", "bounds") + common + ("--json",)),
                    check=lambda results, fid=fid, s=int(sample_seed): check_catalog_verify(
                        fid, CATALOG_SAMPLES, s, results
                    ),
                    n=len(graph.vertices),
                    e=len(graph.edges),
                )
            )
    return ops


_CHECK_LINE = re.compile(r"^(\S+)\s+(\d+)/(\d+) samples ok$")


def check_catalog_verify(fid: str, samples: int, seed: int, results: Sequence[Result]) -> list[str]:
    (check_code, check_out), (bounds_code, bounds_out) = results
    problems = []
    if check_code != 0:
        problems.append(f"catalog check exited {check_code}")
    lines = check_out.splitlines()
    if len(lines) != 1:
        problems.append(f"catalog check printed {len(lines)} lines, expected 1")
    for line in lines:
        match = _CHECK_LINE.match(line)
        if not match or match.group(1) != fid or int(match.group(2)) != samples or int(match.group(3)) != samples:
            problems.append(f"catalog check line {line!r} is not '{fid} {samples}/{samples} samples ok'")
    if bounds_code != 0:
        problems.append(f"verify bounds exited {bounds_code}")
    rows = json.loads(bounds_out)
    expected = {key for key in FLOORS if any(fnmatchcase(fid, p) for p in key[0].split(","))}
    printed = {(row["selector"], row["invariant"]) for row in rows}
    if printed != expected or len(rows) != len(expected):
        problems.append(f"verify bounds rows {sorted(printed)} != expected {sorted(expected)}")
    for row in rows:
        key = (row["selector"], row["invariant"])
        if key not in FLOORS:
            continue
        floor, exact = FLOORS[key]
        ratio = Fraction(row["min_ratio"])
        if Fraction(row["floor"]) != floor or row["exact"] is not exact:
            problems.append(f"{key}: floor {row['floor']} exact={row['exact']}, expected {floor} exact={exact}")
        if (ratio != floor) if exact else (ratio < floor):
            problems.append(f"{key}: min_ratio {ratio} violates floor {floor}")
        if row["passed"] is not True or row["witness_passed"] not in (True, None):
            problems.append(f"{key}: passed={row['passed']} witness_passed={row['witness_passed']}")
        if row["samples_per_family"] != samples or row["seed"] != seed:
            problems.append(f"{key}: ran {row['samples_per_family']} samples at seed {row['seed']}")
    return problems


# -- subdivided-g3 -----------------------------------------------------------


def _subdivided_g3(pm, rng: random.Random, workdir: Path) -> list[Op]:
    catalog = pm.catalog
    fids = [f for f in _non_degenerate(catalog) if catalog.family(f).genus == 3]
    if len(fids) != 14:
        raise RuntimeError(f"expected 14 genus-3 families, found {len(fids)}")
    rng.shuffle(fids)
    ops = []
    # 5 sizes x 14 families: coprime cycle lengths visit every pair within 70 ops
    for j in range(SUBDIVIDED_OPS):
        fid = fids[j % len(fids)]
        target = SUBDIVIDED_SIZES[j % len(SUBDIVIDED_SIZES)]
        lengths = {p: _random_length(rng) for p in catalog.family(fid).params}
        built = catalog.build(fid, lengths)
        graph = Graph(
            [(v.id, v.q) for v in built.vertices],
            [(e.id, e.u, e.v, e.length) for e in built.edges],
        )
        while len(graph.vertices) < target:
            _subdivide(graph, rng)
        expected = catalog.closed_form(fid, lengths).to_json_dict()
        path = _write(workdir, f"sub{j:03d}.txt", graph)
        ops.append(
            Op(
                commands=(("invariants", "--json", path),),
                check=lambda results, expected=expected: check_invariants_json(expected, results),
                n=len(graph.vertices),
                e=len(graph.edges),
                path=path,
            )
        )
    return ops


def _subdivide(graph: Graph, rng: random.Random) -> None:
    """Split a random edge at a random rational point strictly inside it."""
    index = rng.randrange(len(graph.edges))
    eid, u, v, length = graph.edges[index]
    denominator = rng.randint(2, 16)
    t = Fraction(rng.randint(1, denominator - 1), denominator)
    mid = f"s{len(graph.vertices)}"
    graph.vertices.append((mid, 0))
    graph.edges[index : index + 1] = [
        (f"{eid}.1", u, mid, length * t),
        (f"{eid}.2", mid, v, length * (1 - t)),
    ]


def check_invariants_json(expected: dict, results: Sequence[Result]) -> list[str]:
    ((code, out),) = results
    if code != 0:
        return [f"invariants exited {code}"]
    printed = json.loads(out)
    return [
        f"{key}: printed {printed.get(key)!r}, closed form {expected.get(key)!r}"
        for key in sorted(set(printed) | set(expected))
        if printed.get(key) != expected.get(key)
    ]


# -- dense-random ------------------------------------------------------------


def _dense_random(pm, rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for j in range(len(DENSE_SIZES) * DENSE_PER_SIZE):
        graph = dense_graph(DENSE_SIZES[j % len(DENSE_SIZES)], rng)
        path = _write(workdir, f"dense{j:03d}.txt", graph)
        ops.append(
            Op(
                commands=(("resistance", "--json", path), ("invariants", "--json", path)),
                check=lambda results, graph=graph: check_dense(graph, results),
                n=len(graph.vertices),
                e=len(graph.edges),
                path=path,
            )
        )
    return ops


def dense_graph(n: int, rng: random.Random) -> Graph:
    """A random spanning tree plus ``n`` chords; loops and parallels allowed.

    Leaves get weight 1 so the canonical divisor stays effective.
    """
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    ends = [(names[i], names[rng.randrange(i)]) for i in range(1, n)]
    ends += [(rng.choice(names), rng.choice(names)) for _ in range(n)]
    graph = Graph([(name, 0) for name in names])
    graph.edges = [(f"e{k}", u, v, _random_length(rng)) for k, (u, v) in enumerate(ends)]
    valence = graph.valence()
    graph.vertices = [(name, 1 if valence[name] == 1 else 0) for name in names]
    return graph


def check_dense(graph: Graph, results: Sequence[Result]) -> list[str]:
    """Check both outputs against facts the engine did not supply.

    From the printed resistance matrix alone: Foster's identity.  Joining
    it with the printed invariants: tau by the per-edge mean and variance
    formula, theta as the canonical-divisor sum, and the delta split.
    """
    (r_code, r_out), (i_code, i_out) = results
    if r_code != 0 or i_code != 0:
        return [f"exit codes {r_code}, {i_code}"]
    problems = []
    printed = json.loads(r_out)
    ids = [vid for vid, _ in graph.vertices]
    if printed["order"] != ids:
        return [f"resistance order {printed['order']} != file order"]
    index = {vid: i for i, vid in enumerate(ids)}
    r = [[Fraction(x) for x in row] for row in printed["matrix"]]
    n = len(ids)
    if any(r[i][i] != 0 or r[i][j] != r[j][i] for i in range(n) for j in range(i, n)):
        problems.append("resistance matrix is not symmetric with zero diagonal")

    def res(u: str, v: str) -> Fraction:
        return r[index[u]][index[v]]

    foster = sum((res(u, v) / length for _, u, v, length in graph.edges if u != v), Fraction(0))
    if foster != n - 1:
        problems.append(f"Foster sum {foster} != n - 1 = {n - 1}")

    inv = json.loads(i_out)
    ell = sum((length for *_, length in graph.edges), Fraction(0))
    g = len(graph.edges) - n + 1
    gbar = g + sum(q for _, q in graph.vertices)
    for key, want in (("ell", str(ell)), ("g", g), ("gbar", gbar)):
        if inv.get(key) != want:
            problems.append(f"{key}: printed {inv.get(key)!r}, expected {want!r}")
    y = ids[0]
    tau = sum(
        (
            (length - res(u, v)) ** 2 / (12 * length) + (res(v, y) - res(u, y)) ** 2 / (4 * length)
            for _, u, v, length in graph.edges
        ),
        Fraction(0),
    )
    if Fraction(inv["tau"]) != tau:
        problems.append(f"tau: printed {inv['tau']}, per-edge formula gives {tau}")
    valence = graph.valence()
    k = {vid: valence[vid] - 2 + 2 * q for vid, q in graph.vertices}
    theta = sum((k[p] * k[s] * res(p, s) for p in ids if k[p] for s in ids if k[s]), Fraction(0))
    if Fraction(inv["theta"]) != theta:
        problems.append(f"theta: printed {inv['theta']}, divisor sum gives {theta}")
    if sorted(inv["delta"], key=int) != [str(i) for i in range(gbar // 2 + 1)]:
        problems.append(f"delta keys {sorted(inv['delta'])} != 0..{gbar // 2}")
    if sum((Fraction(x) for x in inv["delta"].values()), Fraction(0)) != ell:
        problems.append("delta values do not sum to ell")
    return problems


# -- certificates ------------------------------------------------------------


def _certificates(pm, rng: random.Random, workdir: Path) -> list[Op]:
    names = list(pm.identities.identity_names())
    if len(names) != CERTIFICATE_COUNT or not PROBES <= set(names):
        raise RuntimeError(f"expected {CERTIFICATE_COUNT} certificates including the probes")
    op = Op(commands=(("verify", "identities"),), check=lambda results: check_certificates(names, results))
    return [op] * CERTIFICATE_OPS


_CERT_LINE = re.compile(r"^(PASS|FAIL)  (\S+)( \[probe: expected to fail\])?$")


def check_certificates(names: Sequence[str], results: Sequence[Result]) -> list[str]:
    ((code, out),) = results
    problems = [] if code == 0 else [f"verify identities exited {code}"]
    seen = []
    for line in out.splitlines():
        if line.startswith(" "):
            continue  # detail under a FAIL line
        match = _CERT_LINE.match(line)
        if not match:
            problems.append(f"unexpected line {line!r}")
            continue
        status, name, tag = match.groups()
        seen.append(name)
        want = ("FAIL", True) if name in PROBES else ("PASS", False)
        if (status, tag is not None) != want:
            problems.append(f"{name}: {status}{tag or ''}")
    if seen != list(names):
        problems.append(f"printed {len(seen)} certificates, expected the {len(names)} registered")
    return problems


def _write(workdir: Path, name: str, graph: Graph) -> str:
    path = workdir / name
    path.write_text(graph.to_text(), encoding="utf-8")
    return str(path)
