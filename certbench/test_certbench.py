#!/usr/bin/env python3
"""Tests of the certificate-job benchmark, on its smoke workloads.

    python3 certbench/test_certbench.py

The smoke workloads (seq-d6, po-d6, seq-d6-pool) are the benchmark's
workloads at delta 6: every output check and every span, in about a second
each after the build. The tests check the result line against the metric
lists in BENCHMARK.json, that the set-up's tampered certificate counts as
exactly one failed job, and that the command fails cleanly where the engine
sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("certbench", "run.py")
SMOKE = ["seq-d6", "po-d6", "seq-d6-pool"]


def run_with_output(args, cwd=ROOT):
    """Runs the benchmark command; returns (exit status, result or None,
    standard output)."""
    proc = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def run(args, cwd=ROOT):
    """Runs the benchmark command; returns (exit status, result or None)."""
    return run_with_output(args, cwd)[:2]


def smoke_args(workload, trace):
    return ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace)]


class CertbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_smoke_workloads_pass_every_check(self):
        for workload in SMOKE:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(smoke_args(workload, trace))
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, self.spec[key])

    def test_end_to_end_metrics_are_never_zero(self):
        code, result = run(smoke_args("po-d6", 0))
        self.assertEqual(code, 0)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_serial_trace_splits_every_layer(self):
        code, result = run(smoke_args("seq-d6", 1))
        self.assertEqual(code, 0)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for name in ("adversary.plan_ms", "simulator.ms", "ball_store.p1_ms",
                     "validator.sim_ms", "validator.p1_ms",
                     "certificate_io.write_ms", "certificate_io.read_ms"):
            self.assertGreater(m[name], 0, name)
        self.assertEqual(m["adversary.steps"], 4)
        self.assertEqual(m["validator.levels"], 5)
        self.assertEqual(m["ball_store.collisions"], 0)

    def test_set_up_counts_the_tampered_job_as_failed(self):
        for workload in ("seq-d6", "po-d6"):
            with self.subTest(workload=workload):
                code, result, out = run_with_output(smoke_args(workload, 0))
                self.assertEqual(code, 0)
                self.assertEqual(result["failed"], 0)
                self.assertIn("self-check: 2 attempted, 1 failed", out)

    def test_fails_without_engine_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "certbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in self.spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result = run(smoke_args("seq-d6", 0), cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
