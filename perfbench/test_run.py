#!/usr/bin/env python3
"""Self-test of the benchmark: every workload in smoke mode, untraced and
traced, must print a result that matches BENCHMARK.json and passes every
correctness check.

    python3 perfbench/test_run.py        (from the root of the repository)
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.getcwd()


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (cmd, p.returncode, p.stderr[-3000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        bench = spec()
        result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])


def add_cases():
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            name = "test_%s_trace%d" % (workload.replace("-", "_"), trace)
            setattr(SmokeTest, name, lambda self, w=workload, t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main()
