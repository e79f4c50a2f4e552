"""Self-test of the benchmark's statistics on synthetic samples, at the
bounds BENCHMARK.json fixes for the end-to-end metrics.

    python3 perfbench/test_stats.py
"""

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    END_TO_END = json.load(f)["end_to_end"]


def noisy_runs(center, rel_noise, n, seed):
    rng = random.Random(seed)
    return [center * (1.0 + rng.uniform(-rel_noise, rel_noise)) for _ in range(n)]


def shifted(values, metric, shift):
    """``values`` made worse by ``shift`` (a share) in the metric's direction;
    a negative ``shift`` makes them better."""
    factor = 1.0 + shift if metric["better"] == "lower" else 1.0 - shift
    return [v * factor for v in values]


class QuantileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles' default 'exclusive' method on 1..9.
        q1, q2, q3 = stats.quartiles([float(v) for v in range(1, 10)])
        self.assertEqual((q1, q2, q3), (2.5, 5.0, 7.5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([float(v) for v in range(1, 10)]), 1.0)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)
        self.assertEqual(stats.spread([5.0]), 0.0)


class AgreeTest(unittest.TestCase):
    """Ten-run sets with 3% noise, about the spread the benchmark shows,
    compared at every end-to-end metric's own bound."""

    def setUp(self):
        self.base = noisy_runs(1.0, 0.03, 10, seed=1)

    def check(self, new_values, metric):
        return stats.agree(self.base, new_values, metric["bound"], metric["better"])

    def test_identical_set_agrees(self):
        for m in END_TO_END:
            ok, reason = self.check(list(self.base), m)
            self.assertTrue(ok, f"{m['name']}: {reason}")

    def test_rerun_with_fresh_noise_agrees(self):
        rerun = noisy_runs(1.0, 0.03, 10, seed=2)
        for m in END_TO_END:
            ok, reason = self.check(rerun, m)
            self.assertTrue(ok, f"{m['name']}: {reason}")

    def test_twenty_percent_worsening_is_flagged(self):
        # setup_s's bound (0.25) is the only one of 0.2 or more: it flags a
        # shift just past its bound instead.
        for m in END_TO_END:
            shift = 0.2 if m["bound"] < 0.2 else m["bound"] + 0.05
            ok, reason = self.check(shifted(self.base, m, shift), m)
            self.assertFalse(ok, m["name"])
            self.assertIn("worse", reason)

    def test_only_setup_s_misses_a_twenty_percent_shift(self):
        self.assertEqual([m["name"] for m in END_TO_END if m["bound"] >= 0.2], ["setup_s"])

    def test_twenty_percent_improvement_also_disagrees(self):
        for m in END_TO_END:
            if m["bound"] >= 0.2:
                continue
            ok, reason = self.check(shifted(self.base, m, -0.2), m)
            self.assertFalse(ok, m["name"])
            self.assertIn("better", reason)

    def test_wide_spread_is_unresolved(self):
        wide = noisy_runs(1.0, 0.5, 10, seed=4)
        for m in END_TO_END:
            ok, reason = self.check(wide, m)
            self.assertFalse(ok, m["name"])
            self.assertIn("spread", reason)


if __name__ == "__main__":
    unittest.main()
