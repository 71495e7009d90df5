"""Self-test of the benchmark's summary code.

    python3 perfbench/test_summary.py

run.py also runs it before every benchmark run and refuses to measure if it
fails."""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import summary  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(summary.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(summary.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            summary.median([])


class TailTest(unittest.TestCase):
    def test_median_below_forty_samples(self):
        for n in (1, 10, 39):
            self.assertEqual(summary.tail_percentile(n), 50.0)
        values = list(range(1, 40))
        self.assertEqual(summary.tail(values), (50.0, 20))

    def test_ten_samples_beyond(self):
        self.assertEqual(summary.tail_percentile(40), 75.0)
        self.assertEqual(summary.tail_percentile(99), 75.0)
        self.assertEqual(summary.tail_percentile(100), 90.0)
        self.assertEqual(summary.tail_percentile(999), 90.0)
        self.assertEqual(summary.tail_percentile(1000), 99.0)
        self.assertEqual(summary.tail_percentile(9999), 99.0)
        self.assertEqual(summary.tail_percentile(100000), 99.0)
        for n in (40, 57, 100, 250, 1000, 4321, 10000, 123456):
            q = summary.tail_percentile(n)
            self.assertGreaterEqual(summary.beyond(n, q), 10, n)

    def test_nearest_rank_value(self):
        values = [float(v) for v in range(1, 1001)]
        q, value = summary.tail(values)
        self.assertEqual(q, 99.0)
        self.assertEqual(value, 990.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertEqual(summary.percentile([5.0, 1.0, 3.0], 50), 3.0)
        self.assertEqual(summary.percentile([5.0, 1.0, 3.0], 100), 5.0)

    def test_round_tail_is_the_median_of_round_tails(self):
        # Three rounds of 100 steps: the same 90 light and 10 heavy steps,
        # the heavy ones 100 ms, except in round 1, where the host stalled
        # them to 500 ms. Each round's tail is its p90 (ten beyond).
        base = [1.0] * 89 + [5.0] + [100.0] * 10
        stalled = [1.0] * 89 + [7.0] + [500.0] * 10
        values = base + stalled + base
        self.assertEqual(summary.round_tail(values, [100, 100, 100]),
                         ([90.0], 5.0))
        # The pooled tail of the same samples reads the stalled round.
        self.assertEqual(summary.tail(values), (90.0, 7.0))

    def test_round_tail_rounds_of_other_sizes(self):
        values = [float(v) for v in range(1, 101)] + [7.0] * 10
        qs, value = summary.round_tail(values, [100, 10])
        self.assertEqual(qs, [50.0, 90.0])
        self.assertEqual(value, (90.0 + 7.0) / 2)

    def test_round_sizes_must_cover_the_samples(self):
        with self.assertRaises(ValueError):
            summary.round_tail([1.0, 2.0, 3.0], [2])


class BoundTest(unittest.TestCase):
    def test_spread_is_interquartile_share(self):
        values = [float(v) for v in range(1, 11)]
        # quantiles (exclusive method): q1 = 2.75, q3 = 8.25, median 5.5
        self.assertAlmostEqual(summary.spread(values), 1.0)

    def test_worsening_direction(self):
        self.assertAlmostEqual(summary.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(summary.worsening(10.0, 9.0, "higher"), 0.1)
        self.assertAlmostEqual(summary.worsening(10.0, 11.0, "higher"), -0.1)
        with self.assertRaises(ValueError):
            summary.worsening(1.0, 1.0, "sideways")

    def test_compare_accepts_and_rejects(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
        same = [v * 1.01 for v in base]
        slower = [v * 1.2 for v in base]
        self.assertTrue(summary.compare(base, same, 0.1, "lower")["ok"])
        self.assertFalse(summary.compare(base, slower, 0.1, "lower")["ok"])
        # A drop in a higher-is-better metric is the same regression.
        self.assertFalse(summary.compare(base, [v / 1.2 for v in base], 0.1,
                                         "higher")["ok"])
        self.assertTrue(summary.compare(base, slower, 0.1, "higher")["ok"])

    def test_compare_gates_the_spread(self):
        wide = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 70.0, 130.0, 90.0, 110.0]
        self.assertFalse(summary.compare(wide, wide, 0.1, "lower")["ok"])
        self.assertTrue(summary.compare(wide, wide, 1.0, "lower")["ok"])


if __name__ == "__main__":
    unittest.main()
