#!/usr/bin/env python3
"""Reduced-scale self-test of perfbench/run.py.

    python3 perfbench/test_run.py

Runs every workload of BENCHMARK.json at 2% of its op counts, untraced and
traced, and asserts that each run prints every declared metric with its
unit, that no operation failed and that the serve traffic has the planned
mix. Also checks that the benchmark refuses an unoptimized build tree and
exits non-zero, printing no result, outside a source checkout.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "selftest")


def run_bench(workload, trace, cwd=ROOT, env=None, script=None):
    argv = [sys.executable, script or os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--ops-scale", "0.02"]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


class ReducedScaleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.declared = json.load(f)

    def check_run(self, workload, trace, declared):
        got = run_bench(workload, trace)
        self.assertEqual(got.returncode, 0, got.stderr)
        lines = got.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], got.stderr)
        self.assertEqual(result["failed"], 0, got.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIn("perfbench: error_rate 0 (0 failed of %d operations)" % result["attempted"],
                      lines)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            got_metric = result["metrics"][metric["name"]]
            self.assertEqual(got_metric["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got_metric["value"], (int, float), metric["name"])
        return result, lines

    def test_end_to_end_metrics_every_workload(self):
        for workload in self.declared["workloads"]:
            with self.subTest(workload=workload["name"]):
                result, lines = self.check_run(workload["name"], 0, self.declared["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                # The plan fixes the serve traffic's mix, whatever the latencies.
                shares = [l for l in lines if l.startswith("perfbench: serve requests=")]
                self.assertEqual(len(shares), 1)
                expected = ("requests=168 cheap=120 (71.4%) heavy=24 (14.3%) cold=24 (14.3%)"
                            if workload["name"] == "serve_mixed" else
                            "requests=260 cheap=240 (92.3%) heavy=0 (0.0%) cold=20 (7.7%)")
                self.assertIn(expected, shares[0])

    def test_per_layer_metrics_every_workload(self):
        for workload in self.declared["workloads"]:
            with self.subTest(workload=workload["name"]):
                _, lines = self.check_run(workload["name"], 1, self.declared["per_layer"])
                # Spans must cover at least 95% of the traced wall time.
                accounting = [l for l in lines if l.startswith("perfbench: traced wall_s=")]
                self.assertEqual(len(accounting), 1)
                share = float(re.search(r"\(([0-9.]+)% of wall\)", accounting[0]).group(1))
                self.assertLess(share, 5.0)

    def test_refuses_unoptimized_build(self):
        target = os.path.join(SCRATCH, "debug")
        os.makedirs(os.path.join(target, "perfbench"), exist_ok=True)
        with open(os.path.join(target, "perfbench", "CMakeCache.txt"), "w") as cache:
            cache.write("CMAKE_BUILD_TYPE:STRING=Debug\n")
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.relpath(target, ROOT))
        env.pop("LOCKDOC_BENCH_ALLOW_DEBUG", None)
        got = run_bench("cli_vfs", 0, env=env)
        shutil.rmtree(target)
        self.assertNotEqual(got.returncode, 0)
        self.assertIn("refusing to benchmark a 'Debug' build tree", got.stderr)
        self.assertEqual(got.stdout.strip(), "")

    def test_fails_outside_a_checkout(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        got = run_bench("cli_vfs", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare)
        self.assertNotEqual(got.returncode, 0)
        self.assertEqual(got.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
