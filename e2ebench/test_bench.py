#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 e2ebench/test_bench.py

Covers benchstats (median and quartile spread, the tail-percentile rule,
the pair verdict) and, by building and running checks_test, the result
checkers: each must reject an answer with one element removed or added.
"""

import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


class MedianAndSpread(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 2, 3]), 2.5)

    def test_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchstats.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(benchstats.iqr_share(values), (q3 - q1) / q2)

    def test_constant_runs_have_no_spread(self):
        self.assertEqual(benchstats.iqr_share([2.0] * 10), 0.0)


class TailPercentile(unittest.TestCase):
    def test_fewer_than_forty_samples_have_no_tail(self):
        self.assertIsNone(benchstats.tail_percentile(list(range(39))))

    def test_forty_samples_give_p75_with_ten_beyond(self):
        p, value, beyond = benchstats.tail_percentile(list(range(1, 41)))
        self.assertEqual((p, beyond), (75.0, 10))
        self.assertEqual(value, 30)  # nearest rank: ceil(0.75 * 40) = 30

    def test_ten_beyond_is_the_boundary(self):
        self.assertEqual(benchstats.tail_percentile(range(99))[0], 75.0)
        self.assertEqual(benchstats.tail_percentile(range(100))[0], 90.0)
        self.assertEqual(benchstats.tail_percentile(range(999))[0], 95.0)
        p, _, beyond = benchstats.tail_percentile(range(1000))
        self.assertEqual((p, beyond), (99.0, 10))
        self.assertEqual(benchstats.tail_percentile(range(100000))[0], 99.99)

    def test_value_is_the_nearest_rank(self):
        samples = [float(i) for i in range(200, 0, -1)]  # unsorted input
        p, value, _ = benchstats.tail_percentile(samples)
        self.assertEqual(p, 95.0)
        self.assertEqual(value, 190.0)


class PairVerdict(unittest.TestCase):
    PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]

    def verdict(self, change, better="lower", bound=0.1, parent=None):
        return benchstats.pair_verdict(parent or self.PARENT, change, better,
                                       bound)

    def test_identical_runs_are_the_same(self):
        v = self.verdict(list(self.PARENT))
        self.assertEqual(v["verdict"], "same")
        self.assertEqual(v["win_fraction"], 0.0)  # ties count for neither

    def test_every_pair_won_is_better(self):
        v = self.verdict([x * 0.8 for x in self.PARENT])
        self.assertEqual(v["verdict"], "better")
        self.assertEqual(v["win_fraction"], 1.0)

    def test_better_direction_higher(self):
        v = self.verdict([x * 1.2 for x in self.PARENT], better="higher")
        self.assertEqual(v["verdict"], "better")

    def test_worse_beyond_bound(self):
        v = self.verdict([x * 1.3 for x in self.PARENT])
        self.assertEqual(v["verdict"], "worse")

    def test_worse_within_bound_is_the_same(self):
        v = self.verdict([x * 1.05 for x in self.PARENT])
        self.assertEqual(v["verdict"], "same")

    def test_spread_beyond_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 12.0]
        v = self.verdict([x * 1.01 for x in noisy], parent=noisy)
        self.assertEqual(v["verdict"], "unresolved")

    def test_small_wins_inside_parent_spread_are_not_better(self):
        v = self.verdict([x - 0.001 for x in self.PARENT])
        self.assertEqual(v["win_fraction"], 1.0)
        self.assertEqual(v["verdict"], "same")

    def test_all_runs_better_inside_parent_spread_is_not_better(self):
        parent = [9.0, 9.01, 9.02, 9.03, 9.04, 9.5, 10.0, 10.5, 11.0, 11.5]
        v = self.verdict([8.99] * 10, bound=0.25, parent=parent)
        self.assertEqual(v["win_fraction"], 1.0)
        self.assertEqual(v["verdict"], "same")

    def test_all_runs_better_overrides_a_wide_spread(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 12.0]
        v = self.verdict([x * 0.2 for x in noisy], parent=noisy)
        self.assertEqual(v["verdict"], "better")

    def test_mismatched_pairs_are_rejected(self):
        with self.assertRaises(ValueError):
            self.verdict([1.0])


class Checkers(unittest.TestCase):
    def test_checkers_reject_one_row_removed_or_added(self):
        import run
        run.build()  # configures the build tree
        with open(os.path.join(run.build_dir(), "CMakeCache.txt")) as f:
            if "E2E_HAVE_GTEST:INTERNAL=ON" not in f.read().split("\n"):
                self.skipTest("checks_test needs GoogleTest")
        binary = run.build("checks_test")
        proc = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])


if __name__ == "__main__":
    unittest.main()
