#!/usr/bin/env python3
"""Tests of the repo benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

* Every workload, untraced and traced, in the tiny-size mode: the run is
  correct and its result line names each metric of BENCHMARK.json exactly
  once, with the unit BENCHMARK.json gives it.
* The decorator backend leaves every verdict, question count and SolverStats
  counter of the 11-program suite identical to plain "native".
* Without the library's sources the benchmark fails without a result line.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
WORKLOADS = ["paper_suite", "corpus_triage", "daemon_sessions"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = sorted({k for k in keys if keys.count(k) > 1})
    if dup:
        raise ValueError("duplicate keys: %s" % dup)
    return dict(pairs)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        # Build once up front, so the runs below time only themselves.
        subprocess.run(RUN + ["--check-decorator", "native"], cwd=ROOT,
                       check=True, capture_output=True)
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        cls.program = os.path.join(ROOT, build, "perfbench")

    def run_tiny(self, workload, trace):
        res = subprocess.run(
            RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(res.returncode, 0, res.stderr[-2000:])
        return json.loads(res.stdout.strip().splitlines()[-1],
                          object_pairs_hook=no_duplicates)

    def test_each_metric_once_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_tiny(workload, trace)
                    self.assertEqual(
                        sorted(out), ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertIs(out["correct"], True)
                    self.assertGreaterEqual(out["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[group]}
                    got = out["metrics"]
                    self.assertEqual(sorted(got), sorted(want))
                    for name, m in got.items():
                        self.assertEqual(sorted(m), ["unit", "value"])
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertTrue(math.isfinite(m["value"]), name)
                    if trace == 0:
                        for name, m in got.items():
                            self.assertGreater(m["value"], 0, name)

    def test_decorator_leaves_counters_identical(self):
        # Each backend in a fresh process: the native stack breaks some ties
        # by heap layout, so two runs in one process may differ.
        plain = subprocess.run([self.program, "--check-decorator", "native"],
                               cwd=ROOT, capture_output=True, text=True,
                               check=True)
        traced = subprocess.run([self.program, "--check-decorator", "traced"],
                                cwd=ROOT, capture_output=True, text=True,
                                check=True)
        self.assertIn("p06_chroot_optind", plain.stdout)
        self.assertEqual(plain.stdout, traced.stdout)
        calls = int(traced.stderr.split("decorated calls:")[1].split()[0])
        self.assertGreater(calls, 0)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            res = subprocess.run(
                RUN + ["--workload", "paper_suite", "--seed", "1",
                       "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
