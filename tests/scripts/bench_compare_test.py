#!/usr/bin/env python3
"""Tests for scripts/bench_compare.py (registered with ctest).

Covers the gate semantics on synthetic records, plus the two acceptance
properties against the committed baselines in bench/baselines/: a clean
re-run passes, an injected >=10% slowdown fails.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
SCRIPT = os.path.join(REPO, "scripts", "bench_compare.py")
BASELINES = os.path.join(REPO, "bench", "baselines")


def record(bench="micro_test", host="hostA/cpu/4", cases=None):
    return {
        "schema": 1,
        "bench": bench,
        "host": host,
        "git_commit": "deadbeef",
        "warmup": 1,
        "repeats": 5,
        "cases": cases if cases is not None else [case()],
    }


def case(name="des/devices=4", median=1.0, cv=0.01, counters=None):
    return {
        "name": name,
        "wall_s": {"median": median, "mad": cv * median / 1.4826,
                   "cv": cv, "min": median * 0.9, "max": median * 1.1,
                   "mean": median},
        "rounds_s": [median] * 5,
        "counters": counters if counters is not None else {"tasks": 240},
        "rates": {},
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, rec):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)
        return path

    def run_compare(self, current, baseline, *args):
        return subprocess.run(
            [sys.executable, SCRIPT, current, baseline, *args],
            capture_output=True, text=True).returncode

    def test_identical_records_pass(self):
        base = record()
        cur = self.write("cur.json", base)
        ref = self.write("base.json", base)
        self.assertEqual(self.run_compare(cur, ref), 0)

    def test_same_host_slowdown_fails(self):
        base = record()
        slow = copy.deepcopy(base)
        slow["cases"][0]["wall_s"]["median"] *= 1.15
        cur = self.write("cur.json", slow)
        ref = self.write("base.json", base)
        self.assertEqual(self.run_compare(cur, ref), 1)

    def test_noise_widens_the_gate(self):
        base = record(cases=[case(cv=0.05)])
        slow = copy.deepcopy(base)
        # +15% would fail at the base 10% threshold, but cv=0.05 * 3.0
        # widens the gate to 25%.
        slow["cases"][0]["wall_s"]["median"] *= 1.15
        cur = self.write("cur.json", slow)
        ref = self.write("base.json", base)
        self.assertEqual(self.run_compare(cur, ref), 0)
        self.assertEqual(self.run_compare(cur, ref, "--cv-mult", "0"), 1)

    def test_cross_host_skips_wall_but_gates_counters(self):
        base = record(host="hostA/cpu/4")
        other = copy.deepcopy(base)
        other["host"] = "hostB/other-cpu/64"
        other["cases"][0]["wall_s"]["median"] *= 3.0  # ignored: other host
        cur = self.write("cur.json", other)
        ref = self.write("base.json", base)
        self.assertEqual(self.run_compare(cur, ref), 0)
        self.assertEqual(self.run_compare(cur, ref, "--wall", "force"), 1)

        regressed = copy.deepcopy(other)
        regressed["cases"][0]["counters"]["tasks"] = 999  # strict cross-host
        cur2 = self.write("cur2.json", regressed)
        self.assertEqual(self.run_compare(cur2, ref), 1)

    def test_zero_baseline_counter_regression_fails_cleanly(self):
        # A 0 -> N counter increase must produce the normal FAIL list, not
        # a ZeroDivisionError traceback from the percentage formatting.
        base = record(cases=[case(counters={"pruned": 0})])
        worse = record(cases=[case(counters={"pruned": 7})])
        cur = self.write("cur.json", worse)
        ref = self.write("base.json", base)
        proc = subprocess.run(
            [sys.executable, SCRIPT, cur, ref],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("regressed 0 -> 7", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)

    def test_counter_decrease_is_not_a_failure(self):
        base = record(cases=[case(counters={"evaluations": 1953})])
        better = copy.deepcopy(base)
        better["cases"][0]["counters"]["evaluations"] = 1000
        cur = self.write("cur.json", better)
        ref = self.write("base.json", base)
        self.assertEqual(self.run_compare(cur, ref), 0)

    def test_coverage_counter_drop_fails(self):
        # A case that stops covering its work must not read as "improved":
        # every coverage counter is exact, in both directions.
        for counter, value in (("waterfalls", 160107), ("events", 200064),
                               ("tasks", 240), ("hops", 1200)):
            with self.subTest(counter=counter):
                base = record(cases=[case(counters={counter: value})])
                for cur_value in (0, value - 1, value + 1):
                    cur_rec = copy.deepcopy(base)
                    cur_rec["cases"][0]["counters"][counter] = cur_value
                    cur = self.write("cur.json", cur_rec)
                    ref = self.write("base.json", base)
                    proc = subprocess.run(
                        [sys.executable, SCRIPT, cur, ref],
                        capture_output=True, text=True)
                    self.assertEqual(proc.returncode, 1, cur_value)
                    self.assertIn(f"coverage counter '{counter}' changed",
                                  proc.stderr)

    def test_committed_coverage_counters_gate_drops(self):
        """A zeroed coverage counter in a committed baseline fails."""
        for name, counter in (("BENCH_obs_overhead.json", "waterfalls"),
                              ("BENCH_micro_sim.json", "events")):
            with open(os.path.join(BASELINES, name), encoding="utf-8") as fh:
                base = json.load(fh)
            tampered = copy.deepcopy(base)
            hits = 0
            for c in tampered["cases"]:
                if counter in c.get("counters", {}):
                    c["counters"][counter] = 0
                    hits += 1
            self.assertGreater(hits, 0, name)
            cur = self.write(name, tampered)
            self.assertEqual(self.run_compare(cur, BASELINES), 1, name)

    def test_missing_case_fails_new_case_passes(self):
        base = record(cases=[case("a"), case("b")])
        lost = record(cases=[case("a")])
        grew = record(cases=[case("a"), case("b"), case("c")])
        ref = self.write("base.json", base)
        self.assertEqual(self.run_compare(self.write("l.json", lost), ref), 1)
        self.assertEqual(self.run_compare(self.write("g.json", grew), ref), 0)

    def test_directory_baseline_resolves_by_filename(self):
        base = record()
        os.mkdir(os.path.join(self.tmp.name, "baselines"))
        with open(os.path.join(self.tmp.name, "baselines",
                               "BENCH_x.json"), "w", encoding="utf-8") as fh:
            json.dump(base, fh)
        cur = self.write("BENCH_x.json", base)
        self.assertEqual(
            self.run_compare(cur, os.path.join(self.tmp.name, "baselines")),
            0)

    def test_malformed_input_exits_2(self):
        cur = self.write("cur.json", record())
        bad = os.path.join(self.tmp.name, "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("not json")
        self.assertEqual(self.run_compare(cur, bad), 2)
        self.assertEqual(self.run_compare(cur, "/nonexistent.json"), 2)
        mismatched = record(bench="other_bench")
        self.assertEqual(
            self.run_compare(cur, self.write("m.json", mismatched)), 2)

    def test_committed_baselines_gate_themselves(self):
        """Acceptance: clean re-run passes, injected slowdown fails."""
        for name in ("BENCH_micro_sim.json", "BENCH_micro_exit_setting.json"):
            path = os.path.join(BASELINES, name)
            self.assertTrue(os.path.exists(path), f"missing baseline {name}")
            with open(path, encoding="utf-8") as fh:
                base = json.load(fh)
            # Clean "re-run": the baseline compared against itself.
            self.assertEqual(
                self.run_compare(path, BASELINES), 0, name)
            # Injected slowdown: every median +15% on the same host. The
            # committed baselines carry the producing host's real (noisy)
            # CVs, so pin cv-mult to 0 to exercise the bare 10% threshold.
            slow = copy.deepcopy(base)
            for c in slow["cases"]:
                c["wall_s"]["median"] *= 1.15
                c["wall_s"]["cv"] = 0.0
            cur = self.write(name, slow)
            self.assertEqual(
                self.run_compare(cur, BASELINES, "--wall", "force",
                                 "--cv-mult", "0"), 1, name)


if __name__ == "__main__":
    unittest.main()
