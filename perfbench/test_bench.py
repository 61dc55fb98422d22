#!/usr/bin/env python3
"""The benchmark's own test: short runs through perfbench/run.py.

    python3 perfbench/test_bench.py

Checks that every metric name in BENCHMARK.json is printed with its unit
(end-to-end names untraced, per-layer names traced), that a deliberately
corrupted proof is caught (failed > 0, success_rate < 1, correct false), and
that run.py refuses to report from a tree without program sources.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
WORKLOADS = ("mnist-kzg", "serve-mix")


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_names(self, workload, trace, group):
        doc = result(run(workload, trace))
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(doc["correct"])
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in self.spec[group]}
        printed = {name: m["unit"] for name, m in doc["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, m in doc["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return doc

    def test_end_to_end_names_and_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                doc = self.check_names(w, 0, "end_to_end")
                for name, m in doc["metrics"].items():
                    self.assertNotEqual(m["value"], 0, name)

    def test_per_layer_names_and_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_names(w, 1, "per_layer")

    def test_corrupted_proof_is_an_error(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, "--corrupt")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(doc["correct"])
                self.assertGreater(doc["failed"], 0)
                self.assertLess(doc["metrics"]["success_rate"]["value"], 1.0)

    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("mnist-kzg", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
