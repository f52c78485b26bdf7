#!/usr/bin/env python3
"""Unit tests for compare.py on canned wsg_bench output."""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "op_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "sim.refs_measured", "unit": "count", "better": "lower"},
        {"name": "sim.busy_s", "unit": "s", "better": "lower"},
    ],
}


def run_text(workload, seed, metrics, trace=False, failed=0):
    record = {"run": {"workload": workload, "seed": seed, "seconds": 20,
                      "trace": trace, "smoke": False, "passes": 2,
                      "nproc": 4}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "u"}
                          for k, v in metrics.items()}}
    return "%s ops_per_s 1 1/s\n%s # note\n%s\n%s\n" % (
        workload, workload, json.dumps(record), json.dumps(result))


def runs(workload, ops, ms, failed=0):
    text = "".join(
        run_text(workload, i + 1, {"ops_per_s": o, "op_ms_p50": m},
                 failed=failed if i == 0 else 0)
        for i, (o, m) in enumerate(zip(ops, ms)))
    return compare.parse_runs(text)


def row(rows, workload, metric):
    for r in rows:
        if r["workload"] == workload and r["metric"] == metric:
            return r
    raise AssertionError("no row for %s/%s" % (workload, metric))


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class CompareTest(unittest.TestCase):
    def test_parse_skips_human_lines_and_orphan_results(self):
        text = run_text("serve-hit", 3, {"ops_per_s": 5.0})
        text += json.dumps({"correct": True, "attempted": 1, "failed": 0,
                            "metrics": {}}) + "\n"
        parsed = compare.parse_runs(text)
        self.assertEqual(len(parsed), 1)
        self.assertEqual(parsed[0]["workload"], "serve-hit")
        self.assertEqual(parsed[0]["seed"], 3)
        self.assertEqual(parsed[0]["metrics"], {"ops_per_s": 5.0})

    def test_clear_gain_and_unchanged_metric(self):
        rows = compare.compare(BENCH, runs("a", STEADY, STEADY),
                               runs("a", [x * 1.2 for x in STEADY], STEADY))
        self.assertEqual(row(rows, "a", "ops_per_s")["verdict"], "gain")
        self.assertEqual(row(rows, "a", "ops_per_s")["wins"], 10)
        self.assertEqual(row(rows, "a", "op_ms_p50")["verdict"], "same")

    def test_regression_beyond_bound(self):
        rows = compare.compare(BENCH, runs("a", STEADY, STEADY),
                               runs("a", STEADY, [x * 1.15 for x in STEADY]))
        self.assertEqual(row(rows, "a", "op_ms_p50")["verdict"],
                         "regression")
        self.assertLess(row(rows, "a", "op_ms_p50")["delta"], -0.1)

    def test_worse_within_bound_is_same(self):
        rows = compare.compare(BENCH, runs("a", STEADY, STEADY),
                               runs("a", STEADY, [x * 1.05 for x in STEADY]))
        self.assertEqual(row(rows, "a", "op_ms_p50")["verdict"], "same")

    def test_gain_needs_ten_pairs(self):
        rows = compare.compare(BENCH, runs("a", STEADY[:9], STEADY[:9]),
                               runs("a", [x * 1.2 for x in STEADY[:9]],
                                    STEADY[:9]))
        self.assertEqual(row(rows, "a", "ops_per_s")["verdict"], "same")

    def test_gain_needs_nine_in_ten_wins(self):
        change = [x * 1.2 for x in STEADY]
        change[0] = change[1] = 50.0
        rows = compare.compare(BENCH, runs("a", STEADY, STEADY),
                               runs("a", change, STEADY))
        self.assertEqual(row(rows, "a", "ops_per_s")["wins"], 8)
        self.assertNotEqual(row(rows, "a", "ops_per_s")["verdict"], "gain")

    def test_gain_void_when_change_fails_more(self):
        rows = compare.compare(BENCH, runs("a", STEADY, STEADY),
                               runs("a", [x * 1.2 for x in STEADY], STEADY,
                                    failed=1))
        self.assertNotEqual(row(rows, "a", "ops_per_s")["verdict"], "gain")

    def test_wide_parent_spread_is_unresolved(self):
        noisy = [80.0, 120.0] * 5
        rows = compare.compare(BENCH, runs("a", noisy, STEADY),
                               runs("a", [81.0, 119.0] * 5, STEADY))
        self.assertEqual(row(rows, "a", "ops_per_s")["verdict"],
                         "unresolved")

    def test_wide_spread_resolved_when_every_change_run_is_better(self):
        noisy = [90.0, 110.0, 90.0, 110.0, 90.0]
        rows = compare.compare(BENCH, runs("a", noisy, STEADY[:5]),
                               runs("a", [111.0, 112.0, 113.0, 114.0, 115.0],
                                    STEADY[:5]))
        self.assertEqual(row(rows, "a", "ops_per_s")["verdict"], "same")

    def test_each_workload_gets_its_own_rows(self):
        parent = runs("a", STEADY, STEADY) + runs("b", STEADY, STEADY)
        change = runs("a", [x * 1.2 for x in STEADY], STEADY) + runs(
            "b", [x * 0.8 for x in STEADY], STEADY)
        rows = compare.compare(BENCH, parent, change)
        self.assertEqual(row(rows, "a", "ops_per_s")["verdict"], "gain")
        self.assertEqual(row(rows, "b", "ops_per_s")["verdict"],
                         "regression")
        self.assertEqual(len(rows), 4)

    def test_unpaired_workload_is_reported(self):
        rows = compare.compare(BENCH, runs("a", STEADY, STEADY), [])
        self.assertEqual(rows[0]["verdict"], "unpaired")

    def test_traced_counts_that_move_are_marked(self):
        parent = compare.parse_runs(run_text(
            "a", 1, {"sim.refs_measured": 7, "sim.busy_s": 1.0}, trace=True))
        change = compare.parse_runs(run_text(
            "a", 1, {"sim.refs_measured": 8, "sim.busy_s": 0.9}, trace=True))
        layers = compare.layer_rows(BENCH, parent, change)
        notes = {r["metric"]: r["note"] for r in layers}
        self.assertEqual(notes["sim.refs_measured"], "count changed")
        self.assertEqual(notes["sim.busy_s"], "")
        self.assertEqual(compare.compare(BENCH, parent, change), [])

    def test_report_has_a_row_per_workload_metric(self):
        rows = compare.compare(BENCH, runs("a", STEADY, STEADY),
                               runs("a", STEADY, STEADY))
        text = compare.format_rows(rows, [])
        self.assertEqual(len(text.splitlines()), 3)
        self.assertIn("same", text)


if __name__ == "__main__":
    unittest.main()
