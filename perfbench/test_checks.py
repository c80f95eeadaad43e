"""Tests of the benchmark's own checks: doctored reports must be rejected.

  python3 perfbench/test_checks.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import corpus  # noqa: E402


def plan_of(profile, seed=7):
    w = corpus.ModuleWriter(profile, seed)
    w.build()
    return w.plan()


def race(location):
    return {"fingerprint": "0" * 16, "location": location,
            "first": {"stmt": "v1.f0 = t", "function": "step2",
                      "write": True},
            "second": {"stmt": "v2.f0 = t", "function": "step2",
                       "write": True}}


def report(records):
    lines = [json.dumps(r) for r in records]
    lines.append(json.dumps({"aggregate": True, "exit-code": 1}))
    return "\n".join(lines) + "\n"


class DoctoredReports(unittest.TestCase):
    def setUp(self):
        self.plans = {
            "multi": plan_of(corpus.PAPER_PROFILES[0]),  # avrora: 4 threads
            "single": plan_of(corpus.Profile("single", 1, 0, 3, 2)),
        }
        expected = checks.expected_racy_objects(self.plans["multi"])
        self.assertIn(0, expected)
        self.good = {
            "multi": {"module": "multi", "status": "races",
                      "races": [race(checks.racy_location(k))
                                for k in expected]},
            "single": {"module": "single", "status": "clean"},
        }

    def failures(self, records):
        return checks.check_report(report(records), self.plans)[1]

    def test_honest_report_passes(self):
        jobs, failures = checks.check_report(
            report(self.good.values()), self.plans)
        self.assertEqual(jobs, 2)
        self.assertEqual(failures, {})

    def test_dropped_racy_race_is_rejected(self):
        multi = dict(self.good["multi"], races=[
            r for r in self.good["multi"]["races"]
            if r["location"] != checks.racy_location(0)])
        failures = self.failures([multi, self.good["single"]])
        self.assertIn("multi", failures)
        self.assertIn("missing race", failures["multi"][0])

    def test_injected_f1_race_is_rejected(self):
        multi = dict(self.good["multi"], races=self.good["multi"]["races"] +
                     [race("Data@main:d0 = new Data.f1")])
        failures = self.failures([multi, self.good["single"]])
        self.assertEqual(list(failures), ["multi"])
        self.assertIn("main-only field", failures["multi"][0])

    def test_injected_padding_race_is_rejected(self):
        multi = dict(self.good["multi"], races=self.good["multi"]["races"] +
                     [race("PadData@pad3:d = new PadData.p0")])
        self.assertIn("multi", self.failures([multi, self.good["single"]]))

    def test_racy_single_origin_module_is_rejected(self):
        single = {"module": "single", "status": "races",
                  "races": [race(checks.racy_location(0))]}
        failures = self.failures([self.good["multi"], single])
        self.assertIn("single-origin module is not clean",
                      failures["single"])

    def test_failed_status_is_rejected(self):
        for status in ("timeout", "parse-error", "verify-error",
                       "internal-error", "crashed", "oom"):
            single = {"module": "single", "status": status}
            self.assertEqual(self.failures([self.good["multi"], single]),
                             {"single": [f"status {status}"]})

    def test_only_handler_writers_are_exempt(self):
        def plan(*kinds):
            return {"racy": 1, "origins": [
                {"name": f"o{i}", "kind": k, "unprotected": [0]}
                for i, k in enumerate(kinds)]}

        # Two handlers alone are serialized: no race on d0 is required.
        self.assertEqual(checks.expected_racy_objects(
            plan("handler", "handler")), [])
        self.assertEqual(checks.check_job(
            {"status": "clean"}, plan("handler", "handler")), [])
        # A thread and a handler do race: dropping d0 is still rejected.
        both = plan("thread", "handler")
        self.assertEqual(checks.expected_racy_objects(both), [0])
        self.assertIn("missing race",
                      checks.check_job({"status": "clean"}, both)[0])

    def test_missing_job_is_rejected(self):
        self.assertEqual(self.failures([self.good["multi"]]),
                         {"single": ["no job record"]})


class Corpus(unittest.TestCase):
    def generate(self, workload, seed, **kw):
        with tempfile.TemporaryDirectory() as d:
            return corpus.generate(workload, seed, d, **kw)[0]

    def test_same_seed_same_bytes(self):
        self.assertEqual(self.generate("aux-all", 3),
                         self.generate("aux-all", 3))
        self.assertNotEqual(self.generate("aux-all", 3),
                            self.generate("aux-all", 4))

    def test_rerun_edits_a_tenth(self):
        mods = corpus.workload_modules("rerun-isolated", 5)
        self.assertEqual(sum(edited for _, _, edited in mods),
                         len(mods) // 10)
        self.assertEqual(
            self.generate("rerun-isolated", 5, unedited=True),
            self.generate("paper-cold", 5))


if __name__ == "__main__":
    unittest.main()
