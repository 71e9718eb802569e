#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py          # builds vgr_perfbench if needed

1. every metric name, in run.py and in BENCHMARK.json, matches
   [A-Za-z0-9_.-]+ and the two lists agree;
2. the tail-percentile rule (p90 with ten samples beyond it, else the
   highest percentile that has ten beyond, else the median);
3. a deliberately wrong expected value is counted as a failure, both by the
   checker and end to end through run.py (non-zero exit, "correct": false);
4. fig9_sweep outputs are identical at 1 and 4 threads.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

METRIC_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
# The benchmark contract's name rule: a letter or digit first, at most 64.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_names_match_pattern(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertRegex(name, METRIC_RE)
            self.assertRegex(name, NAME_RE)

    def test_benchmark_json_agrees_with_run_py(self):
        spec = bench_spec()
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.TABLE_SIZE))


class TailPercentile(unittest.TestCase):
    def test_p90_when_enough_samples(self):
        value, pct, n = run.tail_percentile(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_lower_percentile_keeps_ten_beyond(self):
        xs = list(range(1, 51))
        value, pct, n = run.tail_percentile(xs)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertEqual(pct, 80.0)

    def test_median_when_too_few(self):
        value, pct, n = run.tail_percentile([5.0, 1.0, 3.0])
        self.assertEqual((value, pct, n), (3.0, 50.0, 3))

    def test_at_least_ten_beyond_for_every_size(self):
        for n in range(20, 200):
            xs = list(range(n))
            value, pct, _ = run.tail_percentile(xs)
            self.assertGreaterEqual(sum(1 for x in xs if x > value), 10)
            self.assertLessEqual(pct, 90.0)


class OutputCheck(unittest.TestCase):
    def test_wrong_expected_value_is_a_failure(self):
        table = run.load_expected(run.EXPECTED)["gf_intercept"]
        good = {"seed": 1, "outputs": dict(table["1"])}
        self.assertEqual(run.check_units([good], table, held_out=False)[0], 0)
        doctored = json.loads(json.dumps(table))
        doctored["1"]["none.frames"] += 1
        self.assertEqual(run.check_units([good], doctored, held_out=False)[0], 1)

    def test_watchdog_trip_is_a_failure_even_held_out(self):
        unit = {"seed": 99, "outputs": {"none.timed_out": 1, "none.reception": 0.5}}
        self.assertEqual(run.check_units([unit], {}, held_out=True)[0], 1)

    def test_run_py_exits_non_zero_on_mismatch(self):
        data = run.load_expected(run.EXPECTED)
        for outputs in data["gf_intercept"].values():
            outputs["mN.reception"] = -1.0
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(data, f)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "gf_intercept",
                 "--seed", "1", "--seconds", "1", "--trace", "0", "--expected", f.name],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
        finally:
            os.unlink(f.name)
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class Fig9Threads(unittest.TestCase):
    def test_outputs_identical_at_1_and_4_threads(self):
        self.assertTrue(run.build())
        outputs = {}
        for threads in (1, 4):
            proc = subprocess.run(
                [run.BINARY, "--workload", "fig9_sweep", "--sim-seeds", "1", "--once",
                 "--threads", str(threads)],
                stdout=subprocess.PIPE, text=True, timeout=600, check=True)
            raw = json.loads(proc.stdout)
            self.assertEqual(raw["threads"], threads)
            outputs[threads] = raw["units"][0]["outputs"]
        self.assertEqual(outputs[1], outputs[4])
        self.assertEqual(outputs[4], run.load_expected(run.EXPECTED)["fig9_sweep"]["1"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
