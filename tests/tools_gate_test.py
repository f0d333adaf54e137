#!/usr/bin/env python3
"""Unit tests for the CI gate scripts (tools/check_perf_baseline.py and
tools/check_coverage.py): malformed JSON, missing configs, schema
violations, and the pass/fail edges of the ratio and floor comparisons.

Run directly or through ctest (registered in tests/CMakeLists.txt). The
scripts are exercised as subprocesses — exit codes are the contract CI
relies on. For the perf gate: 0 = pass, 1 = regression or a malformed
*current* report, 2 = bad usage or a malformed/missing *baseline* (a
broken gate must fail loudly, not pass vacuously).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF_GATE = os.path.join(REPO_ROOT, "tools", "check_perf_baseline.py")
COVERAGE_GATE = os.path.join(REPO_ROOT, "tools", "check_coverage.py")


def run_gate(script, *args):
    """Runs a gate script; returns (exit_code, stdout+stderr)."""
    proc = subprocess.run(
        [sys.executable, script, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout


def perf_config(name, speedup, **overrides):
    config = {
        "name": name,
        "expanded_refs_per_sec": 1e6,
        "span_refs_per_sec": speedup * 1e6,
        "speedup": speedup,
    }
    config.update(overrides)
    return config


def perf_report(*configs):
    return {"schema": "allocsim-bench-pipeline-v2", "configs": list(configs)}


def engines_config(name, speedup, **overrides):
    config = {
        "name": name,
        "bank_refs_per_sec": 1e6,
        "auto_refs_per_sec": speedup * 1e6,
        "speedup": speedup,
    }
    config.update(overrides)
    return config


def engines_report(*configs):
    return {"schema": "allocsim-bench-engines-v2", "configs": list(configs)}


class GateTestCase(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            if isinstance(payload, str):
                handle.write(payload)
            else:
                json.dump(payload, handle)
        return path


class CheckPerfBaselineTest(GateTestCase):
    def test_identical_reports_pass(self):
        base = self.write("base.json", perf_report(perf_config("cache16", 3.0)))
        cur = self.write("cur.json", perf_report(perf_config("cache16", 3.0)))
        code, out = run_gate(PERF_GATE, base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("within tolerance", out)

    def test_success_reports_measured_over_baseline_ratio(self):
        # The per-config line and the success summary both carry the
        # measured/baseline speedup ratio, so a green CI log still shows
        # how much headroom is left before the floor.
        base = self.write("base.json", perf_report(perf_config("c", 4.0)))
        cur = self.write("cur.json", perf_report(perf_config("c", 3.0)))
        code, out = run_gate(PERF_GATE, base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("ratio 0.750", out)
        self.assertIn("ratio min 0.750, max 0.750", out)

    def test_speedup_exactly_at_floor_passes(self):
        # floor = 4.0 * (1 - 0.30) = 2.8; the comparison is >=, so exactly
        # 2.8 passes and anything below fails.
        base = self.write("base.json", perf_report(perf_config("c", 4.0)))
        at_floor = self.write("at.json", perf_report(perf_config("c", 2.8)))
        code, out = run_gate(PERF_GATE, base, at_floor)
        self.assertEqual(code, 0, out)

    def test_speedup_below_floor_fails(self):
        base = self.write("base.json", perf_report(perf_config("c", 4.0)))
        below = self.write("below.json", perf_report(perf_config("c", 2.79)))
        code, out = run_gate(PERF_GATE, base, below)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)

    def test_tolerance_flag_moves_the_floor(self):
        # floor at 5% tolerance = 4.0 * 0.95 = 3.8: the default 30%
        # tolerance would accept 3.7, the tightened gate must not.
        base = self.write("base.json", perf_report(perf_config("c", 4.0)))
        ok = self.write("ok.json", perf_report(perf_config("c", 3.85)))
        code, out = run_gate(PERF_GATE, base, ok, "--tolerance", "0.05")
        self.assertEqual(code, 0, out)
        tight = self.write("tight.json", perf_report(perf_config("c", 3.7)))
        code, out = run_gate(PERF_GATE, base, tight)
        self.assertEqual(code, 0, out)
        code, out = run_gate(PERF_GATE, base, tight, "--tolerance", "0.05")
        self.assertEqual(code, 1, out)

    def test_tolerance_outside_unit_interval_is_usage_error(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        for bad in ("0", "1", "-0.5", "1.5"):
            code, _ = run_gate(PERF_GATE, base, base, "--tolerance", bad)
            self.assertEqual(code, 2, f"--tolerance {bad}")

    def test_malformed_current_fails(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        broken = self.write("broken.json", "{not json")
        code, out = run_gate(PERF_GATE, base, broken)
        self.assertEqual(code, 1, out)
        self.assertIn("cannot read", out)

    def test_malformed_baseline_is_broken_gate(self):
        # A broken *baseline* means the gate itself cannot gate: that must
        # be exit 2, loudly, never a vacuous pass or a mere exit 1 that a
        # later green pair could mask.
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        broken = self.write("broken.json", "{not json")
        code, out = run_gate(PERF_GATE, broken, base)
        self.assertEqual(code, 2, out)
        self.assertIn("bad baseline", out)

    def test_missing_current_fails(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        code, out = run_gate(PERF_GATE, base, os.path.join(self.dir.name, "nope.json"))
        self.assertEqual(code, 1, out)

    def test_missing_baseline_is_broken_gate(self):
        cur = self.write("cur.json", perf_report(perf_config("c", 2.0)))
        code, out = run_gate(
            PERF_GATE, os.path.join(self.dir.name, "nope.json"), cur
        )
        self.assertEqual(code, 2, out)
        self.assertIn("bad baseline", out)

    def test_wrong_schema_rejected(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        wrong = self.write(
            "wrong.json", {"schema": "allocsim-matrix-v1", "configs": [perf_config("c", 2.0)]}
        )
        code, out = run_gate(PERF_GATE, base, wrong)
        self.assertEqual(code, 1, out)
        self.assertIn("schema", out)

    def test_retired_batched_schema_rejected(self):
        # v1 compared a capacity-1 bus with the default one; that ratio
        # no longer measures anything, and its reports must not pass.
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        retired = self.write(
            "v1.json",
            {
                "schema": "allocsim-bench-pipeline-v1",
                "configs": [
                    {
                        "name": "c",
                        "scalar_refs_per_sec": 1e6,
                        "batched_refs_per_sec": 2e6,
                        "speedup": 2.0,
                    }
                ],
            },
        )
        code, out = run_gate(PERF_GATE, base, retired)
        self.assertEqual(code, 1, out)
        self.assertIn("schema", out)

    def test_empty_or_missing_configs_rejected(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        empty = self.write("empty.json", {"schema": "allocsim-bench-pipeline-v2", "configs": []})
        code, out = run_gate(PERF_GATE, base, empty)
        self.assertEqual(code, 1, out)
        noconfigs = self.write("none.json", {"schema": "allocsim-bench-pipeline-v2"})
        code, out = run_gate(PERF_GATE, base, noconfigs)
        self.assertEqual(code, 1, out)

    def test_config_missing_key_rejected(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        incomplete = self.write(
            "inc.json",
            {
                "schema": "allocsim-bench-pipeline-v2",
                "configs": [{"name": "c", "speedup": 2.0}],
            },
        )
        code, out = run_gate(PERF_GATE, base, incomplete)
        self.assertEqual(code, 1, out)
        self.assertIn("missing", out)

    def test_nonpositive_rates_rejected(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        zero = self.write(
            "zero.json", perf_report(perf_config("c", 2.0, expanded_refs_per_sec=0))
        )
        code, out = run_gate(PERF_GATE, base, zero)
        self.assertEqual(code, 1, out)
        negative = self.write("neg.json", perf_report(perf_config("c", -1.0)))
        code, out = run_gate(PERF_GATE, base, negative)
        self.assertEqual(code, 1, out)

    def test_current_missing_baseline_config_fails(self):
        base = self.write(
            "base.json",
            perf_report(perf_config("cache16", 3.0), perf_config("paging", 2.0)),
        )
        cur = self.write("cur.json", perf_report(perf_config("cache16", 3.0)))
        code, out = run_gate(PERF_GATE, base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("paging", out)

    def test_extra_current_configs_are_fine(self):
        # New configs appear when benches grow; only baseline configs gate.
        base = self.write("base.json", perf_report(perf_config("cache16", 3.0)))
        cur = self.write(
            "cur.json",
            perf_report(perf_config("cache16", 3.0), perf_config("new", 0.5)),
        )
        code, out = run_gate(PERF_GATE, base, cur)
        self.assertEqual(code, 0, out)

    def test_odd_path_count_is_usage_error(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        code, out = run_gate(PERF_GATE, base)
        self.assertEqual(code, 2, out)
        code, out = run_gate(PERF_GATE, base, base, base)
        self.assertEqual(code, 2, out)

    def test_engines_schema_gates_like_pipeline(self):
        base = self.write("base.json", engines_report(engines_config("paperdm", 6.0)))
        good = self.write("good.json", engines_report(engines_config("paperdm", 5.5)))
        code, out = run_gate(PERF_GATE, base, good)
        self.assertEqual(code, 0, out)
        bad = self.write("bad.json", engines_report(engines_config("paperdm", 3.0)))
        code, out = run_gate(PERF_GATE, base, bad)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)

    def test_schema_mismatch_within_pair_fails(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        other = self.write("other.json", engines_report(engines_config("c", 2.0)))
        code, out = run_gate(PERF_GATE, base, other)
        self.assertEqual(code, 1, out)
        self.assertIn("schema mismatch", out)

    def test_multiple_pairs_worst_exit_wins(self):
        base = self.write("base.json", perf_report(perf_config("c", 2.0)))
        good = self.write("good.json", perf_report(perf_config("c", 2.0)))
        bad = self.write("bad.json", perf_report(perf_config("c", 1.0)))
        ebase = self.write("ebase.json", engines_report(engines_config("e", 6.0)))
        egood = self.write("egood.json", engines_report(engines_config("e", 6.0)))
        code, out = run_gate(PERF_GATE, base, good, ebase, egood)
        self.assertEqual(code, 0, out)
        # A failing pair is not masked by a later passing one.
        code, out = run_gate(PERF_GATE, base, bad, ebase, egood)
        self.assertEqual(code, 1, out)
        # A broken baseline dominates a mere regression.
        broken = self.write("broken.json", "{not json")
        code, out = run_gate(PERF_GATE, base, bad, broken, egood)
        self.assertEqual(code, 2, out)

    def test_min_speedup_is_an_absolute_floor(self):
        # min_speedup pins a claim ("one pass is >= 5x on this sweep")
        # that the 30% tolerance would otherwise erode: baseline 8.0 with
        # tolerance floor 5.6 vs min_speedup 5.0 -> the tighter of the two
        # gates (5.6 here); with a baseline of 6.0 the tolerance floor 4.2
        # would pass 4.5, but min_speedup 5.0 must not.
        base = self.write(
            "base.json",
            engines_report(engines_config("dense", 6.0, min_speedup=5.0)),
        )
        ok = self.write("ok.json", engines_report(engines_config("dense", 5.2)))
        code, out = run_gate(PERF_GATE, base, ok)
        self.assertEqual(code, 0, out)
        self.assertIn("min_speedup", out)
        below = self.write("below.json", engines_report(engines_config("dense", 4.5)))
        code, out = run_gate(PERF_GATE, base, below)
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)

    def test_committed_baselines_are_loadable(self):
        # The real baselines at the repo root must stay parseable: a decayed
        # committed baseline must show up here, not as a vacuous CI pass.
        for name in ("BENCH_pipeline.json", "BENCH_cache_engines.json"):
            committed = os.path.join(REPO_ROOT, name)
            self.assertTrue(os.path.exists(committed), committed)
            code, out = run_gate(PERF_GATE, committed, committed)
            self.assertEqual(code, 0, (name, out))


class CheckCoverageTest(GateTestCase):
    def ratchet(self, floor):
        return self.write("ratchet.json", {"line_percent_floor": floor})

    def summary(self, covered, total):
        return self.write(
            "summary.json", {"line_covered": covered, "line_total": total}
        )

    def test_above_floor_passes(self):
        code, out = run_gate(COVERAGE_GATE, self.summary(90, 100), self.ratchet(85.0))
        self.assertEqual(code, 0, out)

    def test_exactly_at_floor_passes(self):
        code, out = run_gate(COVERAGE_GATE, self.summary(85, 100), self.ratchet(85.0))
        self.assertEqual(code, 0, out)

    def test_below_floor_fails(self):
        code, out = run_gate(COVERAGE_GATE, self.summary(80, 100), self.ratchet(85.0))
        self.assertEqual(code, 1, out)
        self.assertIn("below the committed floor", out)

    def test_percent_fallback_when_counts_absent(self):
        summary = self.write("summary.json", {"line_percent": 72.5})
        code, out = run_gate(COVERAGE_GATE, summary, self.ratchet(70.0))
        self.assertEqual(code, 0, out)
        code, out = run_gate(COVERAGE_GATE, summary, self.ratchet(75.0))
        self.assertEqual(code, 1, out)

    def test_malformed_inputs_fail_cleanly(self):
        good_summary = self.summary(90, 100)
        broken = self.write("broken.json", "]")
        code, out = run_gate(COVERAGE_GATE, broken, self.ratchet(50.0))
        self.assertEqual(code, 1, out)
        code, out = run_gate(COVERAGE_GATE, good_summary, broken)
        self.assertEqual(code, 1, out)
        no_floor = self.write("nofloor.json", {})
        code, out = run_gate(COVERAGE_GATE, good_summary, no_floor)
        self.assertEqual(code, 1, out)
        bad_floor = self.write("badfloor.json", {"line_percent_floor": 120})
        code, out = run_gate(COVERAGE_GATE, good_summary, bad_floor)
        self.assertEqual(code, 1, out)
        empty = self.write("empty.json", {"line_covered": 0, "line_total": 0})
        code, out = run_gate(COVERAGE_GATE, empty, self.ratchet(50.0))
        self.assertEqual(code, 1, out)

    def test_suggest_prints_headroom_hint(self):
        code, out = run_gate(
            COVERAGE_GATE, self.summary(95, 100), self.ratchet(80.0), "--suggest"
        )
        self.assertEqual(code, 0, out)
        self.assertIn("raising", out)

    def test_committed_ratchet_is_loadable(self):
        # The real COVERAGE.json at the repo root must stay parseable and
        # consistent with a plausible summary.
        committed = os.path.join(REPO_ROOT, "COVERAGE.json")
        self.assertTrue(os.path.exists(committed), committed)
        code, out = run_gate(COVERAGE_GATE, self.summary(100, 100), committed)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
