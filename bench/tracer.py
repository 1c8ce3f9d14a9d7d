"""Outside-in tracing of pmgraph's layers.

The tracer rebinds the public functions listed in :data:`LAYERS` to timing
wrappers, so the package itself is not edited.  ``from .x import f`` copies
the reference into the importing module, so every ``pmgraph`` module
namespace holding the original function gets the wrapper.  Methods are
rebound on their class, under every name that refers to them (``__radd__``
is ``__add__``, so its calls count as ``__add__`` calls).

Each wrapper opens a span.  A span's self time is its duration minus the
durations of the spans it directly contains.  The benchmark opens one span
per operation (the ``cli`` layer), whose self time is what no listed
function accounts for.  Spans are summed per operation in memory.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# layer name -> (module, attribute path within the module)
LAYERS = {
    "io.parse_graph": ("pmgraph.io", "parse_graph"),
    "graph.validate": ("pmgraph.graph", "validate"),
    "graph.connected_components": ("pmgraph.graph", "connected_components"),
    "graph.canonical_divisor": ("pmgraph.graph", "canonical_divisor"),
    "resistance.laplacian": ("pmgraph.resistance", "laplacian"),
    "resistance.resistance_matrix": ("pmgraph.resistance", "resistance_matrix"),
    "resistance.classify_edges": ("pmgraph.resistance", "classify_edges"),
    "invariants.invariant_set": ("pmgraph.invariants", "invariant_set"),
    "invariants.tau": ("pmgraph.invariants", "tau"),
    "invariants.theta": ("pmgraph.invariants", "theta"),
    "invariants.delta": ("pmgraph.invariants", "delta"),
    "invariants.zhang_invariants": ("pmgraph.invariants", "zhang_invariants"),
    "catalog.build": ("pmgraph.catalog", "build"),
    "catalog.closed_form": ("pmgraph.catalog", "closed_form"),
    "catalog.cross_check": ("pmgraph.catalog", "cross_check"),
    "catalog.random_lengths": ("pmgraph.catalog", "random_lengths"),
    "bounds.sample_check": ("pmgraph.bounds", "sample_check"),
    "bounds.engine_ratio": ("pmgraph.bounds", "engine_ratio"),
    "bounds.witness_check": ("pmgraph.bounds", "witness_check"),
    "polynomials.Polynomial.__init__": ("pmgraph.polynomials", "Polynomial.__init__"),
    "polynomials.Polynomial.__add__": ("pmgraph.polynomials", "Polynomial.__add__"),
    "polynomials.Polynomial.__mul__": ("pmgraph.polynomials", "Polynomial.__mul__"),
    "polynomials.Polynomial.substitute": ("pmgraph.polynomials", "Polynomial.substitute"),
    "polynomials.Polynomial.evaluate": ("pmgraph.polynomials", "Polynomial.evaluate"),
    "identities.verify_identity": ("pmgraph.identities", "verify_identity"),
}
OP_SPAN = "cli"


class Tracer:
    """Rebinds :data:`LAYERS` while active and sums spans per operation."""

    def __init__(self) -> None:
        self.ops: list[dict[str, tuple[int, float]]] = []  # per op: name -> (calls, self s)
        self.missing: list[str] = []  # listed layers the package does not have
        self._calls: Counter = Counter()
        self._self_s: defaultdict = defaultdict(float)
        self._stack: list[float] = [0.0]  # per open span: time spent in child spans
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, stack = self._calls, self._self_s, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for key, m in sys.modules.items() if key == "pmgraph" or key.startswith("pmgraph.")]
        for name, (module_name, attr) in LAYERS.items():
            module = sys.modules.get(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(member) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            # a class holds the method; modules hold the function under any alias
            for namespace in [owner] if owner_name else modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._restore.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def op(self):
        """Span of one operation; its totals are stored when it closes."""
        self._calls.clear()
        self._self_s.clear()
        self._stack[:] = [0.0]
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            record = {name: (self._calls[name], self._self_s[name]) for name in self._calls}
            record[OP_SPAN] = (1, elapsed - self._stack[0])
            self.ops.append(record)

    def per_op(self) -> dict[str, tuple[float, float]]:
        """Mean calls and mean self milliseconds per operation, by layer."""
        count = max(len(self.ops), 1)
        totals = {name: [0, 0.0] for name in [OP_SPAN, *LAYERS]}
        for record in self.ops:
            for name, (calls, seconds) in record.items():
                totals[name][0] += calls
                totals[name][1] += seconds
        return {name: (calls / count, 1000 * seconds / count) for name, (calls, seconds) in totals.items()}
