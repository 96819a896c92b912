"""Pins the arithmetic of perfbench/run.py's derived metrics.

    python3 -m unittest discover perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402  (perfbench/run.py)


class NodeRoundsPerSecond(unittest.TestCase):
    def test_excludes_setup_from_the_denominator(self):
        # 10,000 nodes x 10 rounds over (5.25 s - 0.25 s) = 20,000 /s
        self.assertAlmostEqual(run.node_rounds_per_s(10000, 10, 5.25, 0.25),
                               20000.0)

    def test_fewer_events_per_round_reads_faster(self):
        # Same nodes x rounds in less wall: higher, whatever the event count.
        slow = run.node_rounds_per_s(132, 1430, 3.0, 0.001)
        fast = run.node_rounds_per_s(132, 1430, 2.0, 0.001)
        self.assertGreater(fast, slow)

    def test_rejects_wall_not_above_setup(self):
        with self.assertRaises(ValueError):
            run.node_rounds_per_s(10, 10, 0.5, 0.5)


def layers(**spans):
    values = {name: 0.0 for name in run.COVERED_SPANS}
    values.update(spans)
    return values


class Coverage(unittest.TestCase):
    def test_sums_covered_spans_over_the_traced_wall(self):
        split = layers(**{"sim.run_s": 8.0, "core.build_s": 0.5,
                          "trace.capture_s": 0.5, "traced_wall_s": 10.0})
        self.assertAlmostEqual(run.coverage(split), 0.9)

    def test_ignores_values_that_are_not_calling_thread_spans(self):
        # Shard phase times overlap sim.run_s on worker threads.
        split = layers(**{"sim.run_s": 9.0, "par.run_s": 17.0,
                          "traced_wall_s": 10.0})
        self.assertAlmostEqual(run.coverage(split), 0.9)

    def test_covers_every_timed_layer_the_report_names(self):
        timed = {name for name, unit in run.PER_LAYER
                 if unit == "s" and not name.startswith("par.")
                 or name == "par.plan_s"}
        self.assertEqual(timed, set(run.COVERED_SPANS))

    def test_rejects_a_zero_wall(self):
        with self.assertRaises(ValueError):
            run.coverage(layers(traced_wall_s=0.0))


class SpanOverhead(unittest.TestCase):
    def test_is_the_relative_slowdown(self):
        self.assertAlmostEqual(run.span_overhead(10.5, 10.0), 0.05)


if __name__ == "__main__":
    unittest.main()
