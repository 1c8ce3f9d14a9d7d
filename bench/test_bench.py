"""Self-tests of the benchmark: checks, failure counting, tracer, inputs.

Run from the root of the checkout::

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import re
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import make_ops  # noqa: E402


class _AlterOneRational:
    """Entry point stand-in: the real CLI, with the first ``p/q`` printed by
    its ``which``-th command line changed."""

    def __init__(self, main, which):
        self._main, self._which, self._calls = main, which, 0

    def main(self, args, **kwargs):
        code, out = run.run_command(self._main, tuple(args))
        if self._calls == self._which:
            match = re.search(r"(\d+)/(\d+)", out)
            out = out[: match.start()] + f"{int(match.group(1)) + 1}/{match.group(2)}" + out[match.end() :]
        self._calls += 1
        sys.stdout.write(out)
        return code


class _Raises:
    def main(self, args, **kwargs):
        raise RuntimeError("engine blew up")


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pm = run.load_program()
        cls.main = cls.pm.cli.main
        cls._tmp = tempfile.TemporaryDirectory()
        cls.workdir = Path(cls._tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def ops(self, workload, seed=1, sub=""):
        workdir = self.workdir / f"{workload}-{seed}{sub}"
        workdir.mkdir(exist_ok=True)
        return make_ops(workload, self.pm, seed, workdir)

    def test_real_outputs_pass(self):
        for workload in ("catalog-verify", "subdivided-g3", "dense-random", "certificates"):
            tally = run.Tally()
            run.execute(self.main, self.ops(workload)[0], tally)
            self.assertEqual((tally.attempted, tally.failed), (1, 0), workload)

    def test_one_altered_rational_fails(self):
        for workload in ("subdivided-g3", "dense-random"):
            op = self.ops(workload)[0]
            for position in range(len(op.commands)):
                tally = run.Tally()
                with contextlib.redirect_stderr(io.StringIO()):
                    run.execute(_AlterOneRational(self.main, position), op, tally)
                self.assertEqual((tally.attempted, tally.failed), (1, 1), (workload, position))

    def test_raising_op_fails(self):
        tally = run.Tally()
        with contextlib.redirect_stderr(io.StringIO()):
            run.execute(_Raises(), self.ops("certificates")[0], tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_catalog_check_crash_on_mismatch_counts_as_failed(self):
        # a wrong closed form makes `catalog check` report a mismatch, and the
        # CLI raises while printing it; that must be one failed op
        catalog = sys.modules["pmgraph.catalog"]
        spec = catalog.FAMILIES["g1.II"]

        def wrong(lengths):
            tau, *rest = spec.closed(lengths)
            return (tau + Fraction(1, 7), *rest)

        op = next(op for op in self.ops("catalog-verify") if "g1.II" in op.commands[0])
        catalog.FAMILIES["g1.II"] = dataclasses.replace(spec, closed=wrong)
        try:
            tally = run.Tally()
            with contextlib.redirect_stderr(io.StringIO()):
                run.execute(self.main, op, tally)
        finally:
            catalog.FAMILIES["g1.II"] = spec
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_unstable_stdout_is_detected(self):
        class Counter:
            calls = 0

            def main(self, args, **kwargs):
                Counter.calls += 1
                print(Counter.calls)

        op = self.ops("certificates")[0]
        self.assertFalse(run.stdout_is_stable(Counter(), op))
        self.assertTrue(run.stdout_is_stable(self.main, op))

    def test_two_traced_runs_give_identical_calls_per_op(self):
        ops = self.ops("catalog-verify", seed=5)
        per_op = []
        for _ in range(2):
            tracer = Tracer()
            run.traced_passes(self.main, ops, 0, run.Tally(), tracer)
            per_op.append({name: calls for name, (calls, _) in tracer.per_op().items()})
        self.assertEqual(per_op[0], per_op[1])
        self.assertGreater(per_op[0]["resistance.resistance_matrix"], 0)
        self.assertEqual(tracer.missing, [])

    def test_tracer_restores_the_package(self):
        modules = [m for k, m in sys.modules.items() if k == "pmgraph" or k.startswith("pmgraph.")]
        before = [dict(vars(m)) for m in modules]
        polynomial = dict(vars(self.pm.Polynomial))
        original = sys.modules["pmgraph.cli"].invariant_set
        with Tracer().active():
            self.assertIsNot(sys.modules["pmgraph.cli"].invariant_set, original)
        self.assertEqual([dict(vars(m)) for m in modules], before)
        self.assertEqual(dict(vars(self.pm.Polynomial)), polynomial)
        self.assertEqual(len(LAYERS), 25)

    def test_same_seed_same_inputs_and_every_seed_same_mix(self):
        def shape(ops):
            return sorted((op.n, op.e, len(op.commands)) for op in ops)

        def inputs(ops):  # command lines without the file path, and file contents
            args = [[tuple(x for x in cmd if x != op.path) for cmd in op.commands] for op in ops]
            return args, [Path(op.path).read_text() for op in ops if op.path]

        for workload in ("catalog-verify", "subdivided-g3", "dense-random"):
            a, b = self.ops(workload, 3, "a"), self.ops(workload, 3, "b")
            c = self.ops(workload, 4)
            self.assertEqual(inputs(a), inputs(b))
            self.assertEqual(shape(a), shape(c), workload)
            self.assertNotEqual(inputs(a), inputs(c))
        families = {op.commands[0][3] for op in self.ops("catalog-verify", 4)}
        self.assertEqual(len(families), 40)


if __name__ == "__main__":
    unittest.main()
