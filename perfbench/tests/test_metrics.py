"""Tests of the benchmark's own code: the timing rule, the percentile rule,
metric names and the result line.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics as m  # noqa: E402
import run  # noqa: E402


class Fastest(unittest.TestCase):
    def test_keeps_the_fastest_share_of_equal_rounds(self):
        # 64 rounds of 10 ops taking 1..64 s: the fastest 1/32 are 1 s and 2 s.
        secs = [float(x) for x in range(64, 0, -1)]
        self.assertEqual(m.FASTEST_SHARE, 32)
        self.assertAlmostEqual(m.fastest_rate([10] * 64, secs), 20 / 3.0)
        self.assertAlmostEqual(m.fastest_seconds(secs), 1.5)

    def test_slow_rounds_do_not_move_it(self):
        fast = [1.0] * 4
        self.assertEqual(m.fastest_seconds(fast + [2.0] * 124), 1.0)
        self.assertEqual(m.fastest_seconds([50.0] * 124 + fast), 1.0)

    def test_at_least_one_round(self):
        self.assertEqual(m.fastest_seconds([3.0, 2.0, 4.0]), 2.0)
        self.assertEqual(m.fastest_rate([6], [2.0]), 3.0)

    def test_ranks_unequal_rounds_by_time_per_unit_of_work(self):
        # 100 ops in 10 s is slower per op than 30 ops in 1 s.
        rate = m.fastest_rate([100, 30, 50, 40], [10.0, 1.0, 10.0, 8.0])
        self.assertEqual(rate, 30.0)

    def test_ignores_rounds_without_work(self):
        self.assertEqual(m.fastest_rate([0, 8, 0, 0], [0.1, 2.0, 0.1, 0.1]), 4.0)
        with self.assertRaises(ValueError):
            m.fastest_rate([0, 0], [1.0, 1.0])


class Percentiles(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertAlmostEqual(m.percentile(range(1000), 0.99), 989.01)
        with self.assertRaises(m.InsufficientSamples):
            m.percentile(range(999), 0.99)
        self.assertEqual(m.percentile(range(21), 0.5), 10)
        with self.assertRaises(m.InsufficientSamples):
            m.percentile(range(19), 0.5)

    def test_interpolates_between_order_statistics(self):
        self.assertEqual(m.percentile([4, 1, 3, 2] * 5 + [0], 0.5), 2)
        self.assertAlmostEqual(m.percentile([float(x) for x in range(101)], 0.25), 25.0)

    def test_grouped_percentile_of_integer_samples(self):
        # 10 samples at 0, 10 at 1: the median sits at the 0|1 boundary.
        self.assertAlmostEqual(m.grouped_percentile([10, 10], 0.5), 0.5)
        # All mass at 3: the quantile moves through [2.5, 3.5).
        self.assertAlmostEqual(m.grouped_percentile([0, 0, 0, 40], 0.5), 3.0)
        self.assertAlmostEqual(m.grouped_percentile([0, 0, 0, 40], 0.25), 2.75)
        with self.assertRaises(m.InsufficientSamples):
            m.grouped_percentile([0, 500, 499], 0.99)
        self.assertAlmostEqual(m.grouped_percentile([0, 500, 500], 0.99), 2.48)


class Names(unittest.TestCase):
    def test_metric_names(self):
        for good in ("ops_per_s", "core.select_ns.compact.masked.simd", "9lives", "a-b_c.d"):
            m.check_metric(good, 1.0, "s")
        for bad in ("", ".dot", "_under", "has space", "ünïcode", "x" * 65, "a/b"):
            with self.assertRaises(ValueError, msg=bad):
                m.check_metric(bad, 1.0, "s")

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "MiB", "frac"):
            m.check_metric("x", 1.0, good)
        for bad in ("", "m s", "x" * 17):
            with self.assertRaises(ValueError, msg=bad):
                m.check_metric("x", 1.0, bad)

    def test_values_are_finite_numbers(self):
        for bad in (float("nan"), float("inf"), "1", None, True):
            with self.assertRaises(ValueError, msg=repr(bad)):
                m.check_metric("x", bad, "s")

    def test_benchmark_json_matches_the_runner(self):
        for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            m.check_metric(name, 1.0, unit)
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        e2e = {x["name"]: x["unit"] for x in bench["end_to_end"]}
        layer = {x["name"]: x["unit"] for x in bench["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)
        for w in bench["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


class ResultLine(unittest.TestCase):
    def test_round_trip(self):
        metrics = {"ops_per_s": (512345.678901234, "1/s"), "setup_s": (0.8127, "s")}
        line = m.result_line(True, 1000, 0, metrics)
        self.assertNotIn("\n", line)
        obj = m.parse_result_line(line)
        self.assertEqual(obj["correct"], True)
        self.assertEqual((obj["attempted"], obj["failed"]), (1000, 0))
        for name, (value, unit) in metrics.items():
            self.assertEqual(obj["metrics"][name], {"value": value, "unit": unit})

    def test_keeps_every_digit(self):
        value = math.pi * 1e5
        obj = m.parse_result_line(m.result_line(True, 1, 0, {"x": (value, "s")}))
        self.assertEqual(obj["metrics"]["x"]["value"], value)

    def test_rejects_malformed_lines(self):
        good = json.loads(m.result_line(False, 3, 1, {"x": (1.0, "s")}))
        for broken in (
            {**good, "extra": 1},
            {k: v for k, v in good.items() if k != "failed"},
            {**good, "attempted": 1.5},
            {**good, "correct": 1},
            {**good, "metrics": {"x": {"value": 1.0}}},
        ):
            with self.assertRaises(ValueError):
                m.parse_result_line(json.dumps(broken))
        with self.assertRaises(ValueError):
            m.result_line(True, 0, 0, {})


if __name__ == "__main__":
    unittest.main()
