"""Tests for the benchmark's percentile and "ten beyond" rules.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_percentile_interpolates(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(stats.percentile(values, 0.5), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 0.9), 90.1)
        self.assertEqual(stats.percentile(values, 0.0), 1)
        self.assertEqual(stats.percentile(values, 1.0), 100)

    def test_empty_samples_raise(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class TenBeyondTest(unittest.TestCase):
    def test_p90_needs_ninety_two_samples(self):
        # 92 samples put p90 at sorted position 81.9: positions 82..91 (ten)
        # lie beyond it. With 91 it sits at 81.0 and only nine lie beyond.
        self.assertEqual(stats.samples_beyond(92, 0.9), 10)
        self.assertIsNotNone(stats.tail(list(range(92)), 0.9))
        self.assertEqual(stats.samples_beyond(91, 0.9), 9)
        self.assertIsNone(stats.tail(list(range(91)), 0.9))

    def test_median_as_a_tail_needs_twenty_samples(self):
        self.assertIsNone(stats.tail(list(range(19)), 0.5))
        self.assertIsNotNone(stats.tail(list(range(20)), 0.5))

    def test_tail_value_matches_percentile(self):
        values = [float(v) for v in range(1000)]
        self.assertEqual(stats.tail(values, 0.9), stats.percentile(values, 0.9))


if __name__ == "__main__":
    unittest.main()
