#!/usr/bin/env python3
"""Self-tests for the benchmark, built on its smoke mode.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest perfbench/test_perfbench.py
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def smoke(workload, trace, cwd=ROOT, root_run=RUN):
    proc = subprocess.run(
        [sys.executable, root_run, "--workload", workload, "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_result(self, proc, metric_names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual(list(out["metrics"]), metric_names)
        return out["metrics"]

    def test_end_to_end_metrics(self):
        names = [m["name"] for m in self.bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_result(smoke(w, 0), names)
                for name, m in metrics.items():
                    self.assertEqual(m["unit"], units[name])
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        names = [m["name"] for m in self.bench["per_layer"]]
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_result(smoke(w, 1), names)
                ok_ratio = metrics["net.remote_ok_ratio"]["value"]
                if w == "offload":
                    self.assertLessEqual(ok_ratio, 1.0)
                else:  # no fault injection outside offload
                    self.assertEqual(ok_ratio, 1.0)
                self.assertGreater(metrics["sim.energy_j"]["value"], 0)

    def test_reference_mismatch_is_caught(self):
        pinned = run.load_reference()["steady"][str(run.DEFAULT_SEED)]["cells"]
        self.assertTrue(run.check_reference("steady", run.DEFAULT_SEED,
                                            {"0": pinned[0]}))
        self.assertFalse(run.check_reference("steady", run.DEFAULT_SEED,
                                             {"0": "0" * 16}))
        # Seeds without a pinned reference are not compared.
        self.assertTrue(run.check_reference("steady", 12345, {"0": "0" * 16}))

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = smoke("cold", 0, cwd=tmp,
                         root_run=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
