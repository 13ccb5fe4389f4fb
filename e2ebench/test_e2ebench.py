#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The estimator tests are pure Python. The others build e2e_driver (as
run.py does) and run short workloads, so the first run takes about a
minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def raw_run(op_ms, points, window=1, tail_rule=False):
    """A minimal e2e_driver record around the given ops."""
    return {"phases": [{"traced": False, "failed": 0, "op_ms": op_ms,
                        "points": points, "lanes": [1] * len(op_ms),
                        "window_rss_mb": [10.0, 12.0, 11.0]}],
            "setup_s": [0.3, 0.1, 0.2], "window_ops": window, "period": 1,
            "tail_rule": tail_rule, "model_err_pct": 1.5}


def run_py(workload, *extra):
    """Run run.py; return (exit code, parsed result line or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0.2", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class Estimators(unittest.TestCase):
    def test_window_median_uses_whole_windows_only(self):
        # Windows of 2 ops: 10 points in 10 ms, 10 in 20 ms, 10 in
        # 5 ms; the trailing lone op is dropped.
        op_ms = [5, 5, 10, 10, 2.5, 2.5, 1000]
        points = [5, 5, 5, 5, 5, 5, 5]
        self.assertEqual(metrics.window_rates(op_ms, points, 2),
                         [1000.0, 500.0, 2000.0])
        self.assertEqual(metrics.window_median_rate(op_ms, points, 2),
                         1000.0)

    def test_window_median_ignores_one_slow_window(self):
        op_ms = [1.0] * 9 + [50.0]
        rate = metrics.window_median_rate(op_ms, [1] * 10, 1)
        self.assertEqual(rate, 1000.0)

    def test_window_median_needs_a_whole_window(self):
        with self.assertRaises(ValueError):
            metrics.window_median_rate([1.0, 1.0], [1, 1], 3)

    def test_p99_is_nearest_rank_with_count_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        p99, beyond = metrics.tail_percentile(values)
        self.assertEqual(p99, 990)
        self.assertEqual(beyond, 10)
        p99, beyond = metrics.tail_percentile(list(range(1, 101)))
        self.assertEqual((p99, beyond), (99, 1))

    def test_p99_rule_needs_ten_samples_beyond(self):
        ops = [1.0] * 999
        with self.assertRaises(ValueError):
            metrics.end_to_end(raw_run(ops, [1] * 999, tail_rule=True))
        m, notes = metrics.end_to_end(
            raw_run([1.0] * 1000, [1] * 1000, tail_rule=True))
        self.assertEqual(notes["op_p99_ms"], "n=1000, 10 beyond")

    def test_short_runs_report_the_slowest_slot_median(self):
        # Period 2: slot 0 ran 1, 9 (hiccup), 2 ms; slot 1 ran 3, 4, 5.
        raw = raw_run([1.0, 3.0, 9.0, 4.0, 2.0, 5.0], [1] * 6)
        raw["period"] = 2
        m, notes = metrics.end_to_end(raw)
        self.assertEqual(m["op_p99_ms"], 4.0)
        self.assertEqual(notes["op_p99_ms"],
                         "n=6, slowest of 2 slot medians")

    def test_spread_is_iqr_over_median(self):
        values = [9, 10, 10, 10, 11, 10, 10, 9, 11, 10]
        q1, _, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(metrics.spread(values), (q3 - q1) / 10)

    def test_end_to_end_names_match_benchmark_json(self):
        m, _ = metrics.end_to_end(raw_run([1.0, 2.0], [4, 4]))
        self.assertEqual(sorted(m),
                         sorted(x["name"] for x in BENCH["end_to_end"]))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 11.0)


class Driver(unittest.TestCase):
    def test_printed_metric_names_match_benchmark_json(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, result = run_py("predict", "--trace", trace)
            self.assertEqual(code, 0)
            self.assertEqual(sorted(result["metrics"]),
                             sorted(x["name"] for x in BENCH[key]))
            for m in BENCH[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_corrupted_reply_counts_as_failed(self):
        # Op 1 is an all-hit batch (eval_mix), a one-point batch
        # (predict), the second build (paper_loop) or the second refit.
        for workload in ("eval_mix", "predict", "refit", "paper_loop"):
            with self.subTest(workload=workload):
                code, result = run_py(workload, "--corrupt-op", "1")
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_unknown_workload_is_refused(self):
        code, result = run_py("no_such_workload")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
