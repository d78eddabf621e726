#!/usr/bin/env python3
"""Self-tests of the repository benchmark, on its small subset mode
(2 apps x 2 configs, 3 generated kernels).

    python3 perfbench/test_perfbench.py

Builds wasp-perfbench through run.py on first use (same build directory
as the benchmark). Takes well under a minute once built.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

WORKLOADS = ("paper-matrix", "fullsize-matrix", "search-compile")


def bench(*extra, seed=7, env=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--subset", "--seconds", "1", "--seed", str(seed)] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=900)


def result_of(res):
    return json.loads(res.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, res, kind):
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        out = result_of(res)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreater(out["attempted"], 0)
        self.assertEqual(out["failed"], 0)
        for m in self.spec[kind]:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
            # Also printed for people: "<name> = <value> <unit>".
            line = re.compile(r"^%s = \S+ %s" % (re.escape(m["name"]),
                                                  re.escape(m["unit"])),
                              re.M)
            self.assertRegex(res.stdout, line)
        self.assertRegex(res.stdout, r"(?m)^error_rate = 0 ratio")
        self.assertRegex(res.stdout, r"(?m)^fingerprint: [0-9a-f]{16}")
        self.assertRegex(res.stdout, r"(?m)^provenance: build=")
        return out

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = bench("--workload", w, "--trace", "0")
                out = self.check_metrics(res, "end_to_end")
                self.assertGreater(out["metrics"]["setup_s"]["value"], 0)
                self.assertGreater(out["metrics"]["wall_s"]["value"], 0)

    def test_traced_metrics_and_replay(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = bench("--workload", w, "--trace", "1")
                out = self.check_metrics(res, "per_layer")
                self.assertGreater(out["metrics"]["trace.coverage"]["value"],
                                   0.5)
                if w != "search-compile":
                    m = re.search(r"(?m)^replay: (\d+)/(\d+) cells reproduce",
                                  res.stdout)
                    self.assertIsNotNone(m, res.stdout)
                    self.assertEqual(m.group(1), m.group(2))
                    self.assertEqual(m.group(2), "4")

    def test_fingerprint_ignores_submission_order(self):
        prints = set()
        for seed in (1, 2):
            res = bench("--workload", "paper-matrix", seed=seed)
            self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
            prints.add(re.search(r"(?m)^fingerprint: (\w+)",
                                 res.stdout).group(1))
        self.assertEqual(len(prints), 1)

    def test_corrupted_expected_word_fails(self):
        res = bench("--workload", "paper-matrix", "--trace", "1",
                    "--corrupt-expected")
        self.assertNotEqual(res.returncode, 0)
        out = result_of(res)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertRegex(res.stdout, r"(?m)^FAIL: .*output mismatch")

    def test_binary_refuses_program_knobs(self):
        binary = os.path.join(run.build_dir(), "wasp-perfbench")
        self.assertTrue(os.path.exists(binary), "run another test first")
        for knob in run.KNOBS:
            env = dict(os.environ, **{knob: "1"})
            res = subprocess.run([binary, "--workload", "search-compile",
                                  "--subset", "--setup-only"],
                                 capture_output=True, text=True, env=env)
            self.assertEqual(res.returncode, 2, knob)
            self.assertIn(knob, res.stderr)

    def test_fails_without_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        res = bench("--workload", "search-compile", env=env, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"metrics"', res.stdout)


if __name__ == "__main__":
    unittest.main()
