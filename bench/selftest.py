"""Checks of the benchmark's own machinery: oracle, span self time, generator.

Run from the root of a checkout::

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import gen
import oracle
import spans
import workloads


def path_inputs(directory: Path) -> gen.Inputs:
    """Path 0-1-2-3 plus the pendant edge 1-4, one attribute column."""
    edges = np.array([[0, 1], [1, 2], [1, 4], [2, 3]])
    X = np.array([[0.1], [0.5], [0.9], [0.3], [0.7]])
    return gen.Inputs(directory, edges, 5, X, skill_rows=[(3, "s", 4), (4, "t", 1)])


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.oracle = oracle.Oracle(path_inputs(Path(".")))
        nodes = [0, 1, 2]
        edges = [(0, 1), (1, 2)]
        self.tension = oracle.dense_tension(3, edges, self.oracle.inputs.profiles[nodes])

    def answer(self, nodes, seeds=(0, 2), tension=None, edges=2, **extra):
        return workloads.Answer(frozenset(nodes), tuple(seeds),
                                self.tension if tension is None else tension,
                                edges, **extra)

    def test_accepts_a_correct_answer(self):
        self.oracle.check(self.answer({0, 1, 2}))
        self.oracle.check(self.answer({0, 1, 2}, k=3))

    def test_rejects_a_disconnected_answer(self):
        with self.assertRaisesRegex(oracle.OracleError, "not connected"):
            self.oracle.check(self.answer({0, 2}, edges=0))

    def test_rejects_a_misscored_answer(self):
        with self.assertRaisesRegex(oracle.OracleError, "dense solve"):
            self.oracle.check(self.answer({0, 1, 2}, tension=self.tension * (1 + 1e-4)))

    def test_rejects_a_missing_seed(self):
        with self.assertRaisesRegex(oracle.OracleError, "seeds"):
            self.oracle.check(self.answer({0, 1}, seeds=(0, 2), edges=1))

    def test_rejects_wrong_size_and_uncovered_skill(self):
        with self.assertRaisesRegex(oracle.OracleError, "expected 4"):
            self.oracle.check(self.answer({0, 1, 2}, k=4))
        # node 4 carries "t" below the holding threshold
        with self.assertRaisesRegex(oracle.OracleError, "not covered"):
            self.oracle.check(self.answer({0, 1, 2}, skills=("t",)))

    def test_dense_tension_matches_the_single_edge_closed_form(self):
        # two nodes with profiles a, b: tension 4 (a - b)^2 / 9
        self.assertAlmostEqual(oracle.dense_tension(2, [(0, 1)], np.array([[0.2], [0.8]])),
                               4 * 0.36 / 9, places=12)


class SelfTimeTest(unittest.TestCase):
    def test_nested_fake_call_tree(self):
        ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0, 13.0, 13.0])
        tracer = spans.Tracer(clock=lambda: next(ticks))
        root = tracer.begin("op")            # 0 .. 13
        a = tracer.begin("a")                # 1 .. 9
        b1 = tracer.begin("b")               # 2 .. 4
        tracer.end(b1)
        b2 = tracer.begin("b")               # 5 .. 8
        tracer.end(b2)
        tracer.end(a)
        c = tracer.begin("c")                # 10 .. 13, ends with the root
        tracer.end(c)
        tracer.end(root)
        stats = tracer.stats()
        self.assertEqual(stats["op"], {"calls": 1, "s": 13.0, "self_s": 2.0})
        self.assertEqual(stats["a"], {"calls": 1, "s": 8.0, "self_s": 3.0})
        self.assertEqual(stats["b"], {"calls": 2, "s": 5.0, "self_s": 5.0})
        self.assertEqual(stats["c"], {"calls": 1, "s": 3.0, "self_s": 3.0})
        self.assertEqual(tracer.stats(within="a")["b"]["calls"], 2)
        self.assertNotIn("c", tracer.stats(within="a"))

    def test_overlapping_children_are_counted_once(self):
        self.assertEqual(spans.self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (9.0, 12.0)]), 4.0)


class InstallTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        from tensionkit import community, graph
        original = graph.path_distances
        self.assertIs(community.path_distances, original)
        tracer = spans.Tracer()
        tracer.install(spans.TARGETS + (("graph", "no_such_function", None),))
        try:
            self.assertIsNot(graph.path_distances, original)
            self.assertIs(community.path_distances, graph.path_distances)
            g = graph.Graph(3, [(0, 1), (1, 2)])
            community.seed_connector(g, [0, 2])
        finally:
            tracer.uninstall()
        self.assertIs(graph.path_distances, original)
        self.assertIs(community.path_distances, original)
        stats = tracer.stats()
        self.assertEqual(stats["graph.Graph"]["calls"], 1)
        self.assertEqual(stats["graph.path_distances"]["calls"], 2)
        self.assertNotIn("graph.no_such_function", stats)


class GeneratorTest(unittest.TestCase):
    def generate(self, fn, seed):
        with tempfile.TemporaryDirectory() as d:
            return fn(Path(d), seed).digest

    def test_same_seed_same_digest(self):
        for fn in (gen.small, gen.skills):
            self.assertEqual(self.generate(fn, 5), self.generate(fn, 5))
            self.assertNotEqual(self.generate(fn, 5), self.generate(fn, 6))

    def test_seed_streams_match_the_command_line_tool(self):
        from tensionkit.rng import derive_seed
        for name in ("seed-sampling", "peel-random:D2-004", "cardinality-starts"):
            self.assertEqual(workloads.derive_seed(7, name), derive_seed(7, name))


if __name__ == "__main__":
    unittest.main()
