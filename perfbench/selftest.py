"""Self-tests of the harness arithmetic (no program under test needed).

Run with ``python3 perfbench/selftest.py``; ``run.py`` also runs them
before every measurement and refuses to measure if one fails.
"""

from __future__ import annotations

import io
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        # p95 of 200 is rank 190: exactly ten samples lie beyond it.
        self.assertEqual(stats.samples_beyond(200, 95.0), 10)
        self.assertEqual(stats.highest_supported_percentile(200), 95.0)
        self.assertEqual(stats.highest_supported_percentile(199), 90.0)
        self.assertEqual(stats.highest_supported_percentile(1000), 99.0)
        self.assertEqual(stats.highest_supported_percentile(10_000), 99.9)
        self.assertEqual(stats.highest_supported_percentile(20), 50.0)
        self.assertIsNone(stats.highest_supported_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 50.0), 50)
        self.assertEqual(stats.nearest_rank(values, 95.0), 95)
        self.assertEqual(stats.nearest_rank([7.0], 95.0), 7.0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50.0)


class FailuresAreInfinitelyLate(unittest.TestCase):
    def test_failures_move_the_tail(self):
        ok = [1.0] * 190
        self.assertEqual(stats.latency_summary(ok + [2.0] * 10, 200)["p95_ms"], 1.0)
        # Eleven failures among 200 push p95 onto a failed operation.
        summary = stats.latency_summary(ok[:189] + [math.inf] * 11, 200)
        self.assertEqual(summary["p95_ms"], stats.INFINITELY_LATE_MS)
        self.assertEqual(summary["p50_ms"], 1.0)
        self.assertEqual(summary["samples"], 200)

    def test_all_failed(self):
        summary = stats.latency_summary([math.inf] * 5, 5)
        self.assertEqual(summary["p50_ms"], stats.INFINITELY_LATE_MS)


class Windows(unittest.TestCase):
    def test_median_over_windows(self):
        calm = [1.0] * 200
        stalled = [1.0] * 100 + [50.0] * 100
        summary = stats.latency_summary(calm + stalled + calm + [9.0] * 7, 200)
        self.assertEqual(summary["windows"], 3)  # the partial window is dropped
        self.assertEqual(summary["samples"], 600)
        self.assertEqual(summary["p95_ms"], 1.0)
        self.assertEqual(summary["supported_percentile"], 95.0)
        with self.assertRaises(ValueError):
            stats.latency_summary([1.0] * 199, 200)

    def test_windowed_rate(self):
        # 10 completions per second, then a 1 s stall, then 10 per second.
        times = [i / 10 for i in range(40)] + [5.0 + i / 10 for i in range(40)]
        self.assertAlmostEqual(stats.windowed_rate(times, 10), 10.0)
        with self.assertRaises(ValueError):
            stats.windowed_rate(times[:10], 10)


class Ledger(unittest.TestCase):
    def test_complete_ledger_balances(self):
        # A run's wall splits into build + engine + scheduler + core.
        wall, build, call, scheduler, deliver = 10.0, 0.1, 9.85, 9.0, 3.0
        layers = {"build": build, "ncc": deliver,
                  "primitives": scheduler - deliver, "core": call - scheduler}
        unaccounted, ok = stats.ledger(wall, layers)
        self.assertAlmostEqual(unaccounted, 0.5)
        self.assertTrue(ok)

    def test_missing_layer_is_caught(self):
        unaccounted, ok = stats.ledger(10.0, {"ncc": 3.0, "primitives": 6.0})
        self.assertAlmostEqual(unaccounted, 10.0)
        self.assertFalse(ok)
        _, ok = stats.ledger(10.0, {"ncc": 3.0, "primitives": 7.5})
        self.assertFalse(ok)  # double counting is caught too

    def test_wall_must_be_positive(self):
        with self.assertRaises(ValueError):
            stats.ledger(0.0, {})


def passes() -> bool:
    """Run the suite quietly; True when every test passes."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(suite)
    if not result.wasSuccessful():
        for _, trace in result.failures + result.errors:
            print(trace, file=sys.stderr)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
