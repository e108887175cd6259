#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a source checkout:

    python3 -m unittest perfbench/test_perfbench.py

They build perfbench/adebench (through run.py) and run every workload for
a few seconds, so they take a couple of minutes.
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
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(workload, trace, seed=0, seconds=2, extra=()):
    """Runs run.py; returns (exit code, last stdout line parsed or None)."""
    out = subprocess.run([sys.executable, RUN, "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)] + list(extra),
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().split("\n")
    try:
        last = json.loads(lines[-1])
    except ValueError:
        last = None
    return out.returncode, last


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        run.build()

    def test_inputs_match_registry(self):
        # The seed-parameterized input recipes reproduce the registry's
        # inputs at its own seeds.
        out = subprocess.run([run.BINARY, "check-inputs"],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_every_metric_is_emitted_with_its_unit(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         run.WORKLOADS)
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, last = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(last), ["attempted", "correct",
                                                    "failed", "metrics"])
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    got = {k: v["unit"] for k, v in last["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in last["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_planted_failure_is_counted_not_fatal(self):
        # A call-depth budget of 1 makes every program that calls a helper
        # throw an interp::InterpError; each throw must count as a failure.
        code, last = bench("suite_translating", 1, seconds=1,
                           extra=["--max-depth", "1"])
        self.assertEqual(code, 0)
        self.assertFalse(last["correct"])
        self.assertGreater(last["failed"], 0)
        self.assertEqual(last["metrics"]["error_rate"]["value"],
                         last["failed"] / last["attempted"])

    def test_counts_repeat_exactly(self):
        # Queue depth and the epoch backlog depend on timing; every other
        # count is deterministic.
        counts = [m["name"] for m in self.spec["per_layer"]
                  if m["unit"] in ("count", "bytes")
                  and not m["name"].startswith(("serve.queue.",
                                                "serve.epoch."))]
        for workload in ["suite_translating", "serve_mixed"]:
            with self.subTest(workload=workload):
                runs = [bench(workload, 1, seed=7)[1] for _ in range(2)]
                for name in counts:
                    self.assertEqual(runs[0]["metrics"][name]["value"],
                                     runs[1]["metrics"][name]["value"], name)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "perfbench/run.py",
                                  "--workload", "serve_mixed", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True,
                                 timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("metrics", out.stdout)


if __name__ == "__main__":
    unittest.main()
