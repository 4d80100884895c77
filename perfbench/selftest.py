"""Quick self-test of the benchmark's own parts, on tiny inputs.

  python3 perfbench/selftest.py

Checks that the correctness gates pass good output and reject a wrong q,
bound, reason, match set, candidate count or checks_run, that the
reference agrees with known spectral radii, and that the tracer counts
deterministically and leaves every patched function as it found it.
"""

import contextlib
import dataclasses
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gates  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from qbounds import (  # noqa: E402
    BoundId,
    RandomCorpusSpec,
    ReconstructionTarget,
    all_bounds,
    cli,
    random_corpus,
    reconstruct,
    spectral_radius,
    sweep,
    verify,
)


def compute_json(n, arcs):
    text = f"n {n}; " + "; ".join(f"{i + 1} {j + 1}" for i, j in arcs)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["compute", "--inline", text, "--format", "json"])
    return code, out.getvalue()


def arrays(arcs):
    return (np.array([i for i, _ in arcs]), np.array([j for _, j in arcs]))


class ComputeGate(unittest.TestCase):
    # 4-cycle plus chords: strongly connected, unequal outdegrees
    N = 4
    ARCS = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0), (1, 3)]

    def setUp(self):
        self.src, self.dst = arrays(self.ARCS)
        self.lo, self.hi, _ = reference.q_enclosure(self.N, self.src, self.dst)
        self.row = reference.bound_row(self.N, self.src, self.dst)
        self.code, self.stdout = compute_json(self.N, self.ARCS)

    def check(self, code=None, stdout=None, lo=None, hi=None):
        return gates.check_compute(
            self.code if code is None else code,
            self.stdout if stdout is None else stdout,
            self.N, len(self.ARCS),
            self.lo if lo is None else lo, self.hi if hi is None else hi,
            self.row,
        )

    def edited(self, edit):
        report = json.loads(self.stdout)
        edit(report)
        return json.dumps(report)

    def test_good_output_passes(self):
        self.assertEqual(self.check(), [])

    def test_wrong_q_is_rejected(self):
        def shift_q(report):
            report["spectral"]["q"] += 1e-6
        self.assertTrue(self.check(stdout=self.edited(shift_q)))
        self.assertTrue(self.check(lo=self.lo + 1e-6, hi=self.hi + 1e-6))

    def test_wrong_bound_or_reason_is_rejected(self):
        def shift_bound(report):
            report["bounds"][0]["value"] *= 1 + 1e-10
        self.assertTrue(self.check(stdout=self.edited(shift_bound)))

        def drop_bound(report):
            report["bounds"][1]["value"] = None
            report["bounds"][1]["reason"] = "made up"
        self.assertTrue(self.check(stdout=self.edited(drop_bound)))

    def test_exit_code_and_bad_json_are_rejected(self):
        self.assertTrue(self.check(code=4))
        self.assertTrue(self.check(stdout="not json"))

    def test_reference_reasons_match_qbounds(self):
        cases = [
            (2, [(0, 1)]),  # not strongly connected, arc head of outdegree 0
            (4, [(i, j) for i in range(4) for j in range(4) if i != j]),
            (3, [(0, 1), (1, 2), (2, 0), (0, 2)]),
        ]
        for n, arcs in cases:
            src, dst = arrays(arcs)
            row = reference.bound_row(n, src, dst)
            q = spectral_radius(verify.Digraph(n, frozenset(arcs))).q
            code, stdout = compute_json(n, arcs)
            self.assertEqual(
                gates.check_compute(code, stdout, n, len(arcs), q, q, row), [],
                msg=f"n={n} arcs={arcs}",
            )


class Reference(unittest.TestCase):
    def test_known_radii(self):
        cycle = arrays([(i, (i + 1) % 5) for i in range(5)])
        lo, hi, _ = reference.q_enclosure(5, *cycle)
        self.assertTrue(lo <= 2.0 <= hi)
        complete = arrays([(i, j) for i in range(4) for j in range(4) if i != j])
        lo, hi, _ = reference.q_enclosure(4, *complete)
        self.assertTrue(lo <= 6.0 <= hi)

    def test_rejects_graph_that_is_not_strongly_connected(self):
        with self.assertRaises(ValueError):
            reference.q_enclosure(3, *arrays([(0, 1), (1, 2)]))


class SweepGate(unittest.TestCase):
    def setUp(self):
        corpus = random_corpus(RandomCorpusSpec(
            count=3, n_min=3, n_max=6, arc_probabilities=(0.3,), seed=5))
        self.report = sweep(corpus)

    def test_good_report_passes(self):
        self.assertEqual(gates.check_sweep(self.report, 3, 9), [])

    def test_wrong_counts_or_failures_are_rejected(self):
        replace = dataclasses.replace
        self.assertTrue(gates.check_sweep(
            replace(self.report, checks_run=self.report.checks_run - 1), 3, 9))
        self.assertTrue(gates.check_sweep(
            replace(self.report, graph_count=2), 3, 9))
        failure = verify.SweepFailure("g", "dominance", "made up", "n 2\n1 2\n")
        self.assertTrue(gates.check_sweep(
            replace(self.report, failures=(failure,)), 3, 9))


class ReconstructGate(unittest.TestCase):
    # no 3-vertex digraph has q = 2.5, so the search ends in a nearest miss
    TARGET = ReconstructionTarget(n=3, q=2.5, row={BoundId.ARC_DEG_SUM: 4.0})

    def setUp(self):
        self.report = reconstruct(self.TARGET)
        self.ceiling = self.report.nearest_miss.max_deviation

    def check(self, report, candidates=63, ceiling=None):
        return gates.check_reconstruct(
            report, candidates, self.ceiling if ceiling is None else ceiling,
            spectral_radius, all_bounds,
        )

    def test_good_report_passes(self):
        self.assertEqual(self.report.candidates_visited, 63)
        self.assertEqual(self.check(self.report), [])

    def test_wrong_match_set_is_rejected(self):
        miss = self.report.nearest_miss
        self.assertTrue(self.check(
            dataclasses.replace(self.report, matches=(miss,), nearest_miss=None)))

    def test_wrong_count_or_nearest_miss_is_rejected(self):
        replace = dataclasses.replace
        self.assertTrue(self.check(self.report, candidates=64))
        self.assertTrue(self.check(replace(self.report, nearest_miss=None)))
        shifted = replace(self.report.nearest_miss,
                          max_deviation=self.ceiling * 0.5)
        self.assertTrue(self.check(replace(self.report, nearest_miss=shifted)))
        self.assertTrue(self.check(self.report, ceiling=self.ceiling * 0.5))


class Tracing(unittest.TestCase):
    def namespaces(self):
        return {module.__name__: dict(vars(module))
                for module in tracer.package_modules()}

    def traced_sweep(self):
        corpus = random_corpus(RandomCorpusSpec(
            count=4, n_min=3, n_max=6, arc_probabilities=(0.4,), seed=9))
        with tracer.Tracer() as t:
            self.assertIsNot(verify.degree_profile,
                             self.before["qbounds.verify"]["degree_profile"])
            verify.sweep(corpus)
        return t.snapshot()

    def setUp(self):
        self.before = self.namespaces()

    def assert_restored(self):
        after = self.namespaces()
        self.assertEqual(after.keys(), self.before.keys())
        for name, attributes in self.before.items():
            for attribute, value in attributes.items():
                self.assertIs(after[name][attribute], value,
                              msg=f"{name}.{attribute} not restored")

    def test_counts_repeat_and_functions_are_restored(self):
        first = self.traced_sweep()
        self.assert_restored()
        second = self.traced_sweep()
        self.assert_restored()
        counts = [{name: stats["calls"] for name, stats in snap["layers"].items()}
                  for snap in (first, second)]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(first["iterations"], second["iterations"])
        self.assertEqual(counts[0]["verify.sweep"], 1)
        self.assertGreater(counts[0]["digraph.adjacency"], 0)
        layers = first["layers"]
        self.assertLessEqual(layers["verify.sweep"]["self_s"],
                             layers["verify.sweep"]["total_s"])

    def test_restored_after_an_exception(self):
        with self.assertRaises(ValueError):
            with tracer.Tracer():
                verify.Digraph(0, frozenset())
        self.assert_restored()


if __name__ == "__main__":
    unittest.main()
