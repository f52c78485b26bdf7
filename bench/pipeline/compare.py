#!/usr/bin/env python3
"""Compare pipeline-benchmark runs of a parent commit and of a change.

    python3 bench/pipeline/compare.py --parent p1.txt p2.txt ... \\
        --change c1.txt c2.txt ...

Each file holds the standard output of one or more wsg_bench runs (what
run.py prints: a {"run": ...} record followed by the result line). The
runs of one workload pair up in order: the i-th parent run with the
i-th change run. Make them alternate between the two builds, use the
same --seeds and --seconds on both sides, and make at least ten pairs.

Every (workload, end-to-end metric) gets its own row with each side's
median and quartiles, the pairs the change won, and a verdict:

  gain        at least ten pairs, the change wins at least nine in ten
              of them (ties count for neither side), the medians differ
              by more than the parent's spread between quartiles, and
              the change failed no more operations than the parent
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  unresolved  not a regression, but the parent's spread between
              quartiles is wider than the bound and not every change
              run beats every parent run
  same        none of the above: no worse than the bound allows

Traced runs add an informational per-layer table; a count that does not
repeat exactly between the two sides is marked. The exit status is 1
when a row is a regression or a run failed its output checks.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def parse_runs(text):
    """Runs in wsg_bench output: dicts with workload, trace, seed,
    correct, failed and metrics (name -> value)."""
    runs = []
    context = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "run" in obj:
            context = obj["run"]
        elif "metrics" in obj and context is not None:
            runs.append({
                "workload": context["workload"],
                "trace": bool(context.get("trace")),
                "seed": context.get("seed"),
                "correct": bool(obj["correct"]),
                "failed": int(obj["failed"]),
                "metrics": {k: v["value"] for k, v in obj["metrics"].items()},
            })
            context = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, parent_failed, change_failed):
    """Verdict for paired value lists; returns (verdict, wins, delta)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    limit = bound * abs(p_med)
    if -gain > limit:
        result = "regression"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and gain > spread and change_failed <= parent_failed):
        result = "gain"
    elif spread > limit and not all(
            sign * (c - p) > 0 for p in parent for c in change):
        result = "unresolved"
    else:
        result = "same"
    delta = gain / abs(p_med) if p_med else 0.0
    return result, wins, delta


def by_workload(runs, traced):
    out = {}
    for run in runs:
        if run["trace"] == traced:
            out.setdefault(run["workload"], []).append(run)
    return out


def compare(bench, parent_runs, change_runs):
    """End-to-end rows: dicts with workload, metric, both sides' median
    and quartiles, wins, pairs, delta (signed share, + is better) and
    verdict."""
    rows = []
    parents = by_workload(parent_runs, False)
    changes = by_workload(change_runs, False)
    for workload in sorted(set(parents) | set(changes)):
        p_runs = parents.get(workload, [])
        c_runs = changes.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            rows.append({"workload": workload, "metric": "-",
                         "verdict": "unpaired"})
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            result, wins, delta = verdict(p, c, spec["better"],
                                          spec["bound"], p_failed, c_failed)
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "parent": (statistics.median(p),) + quartiles(p),
                "change": (statistics.median(c),) + quartiles(c),
                "wins": wins, "pairs": n, "delta": delta,
                "verdict": result,
            })
    return rows


def layer_rows(bench, parent_runs, change_runs):
    """Per-layer medians of traced runs, with counts that moved
    marked."""
    rows = []
    parents = by_workload(parent_runs, True)
    changes = by_workload(change_runs, True)
    for workload in sorted(set(parents) & set(changes)):
        for spec in bench["per_layer"]:
            name = spec["name"]
            p = [r["metrics"][name] for r in parents[workload]]
            c = [r["metrics"][name] for r in changes[workload]]
            moved = spec["unit"] == "count" and set(p) != set(c)
            rows.append({"workload": workload, "metric": name,
                         "parent": statistics.median(p),
                         "change": statistics.median(c),
                         "note": "count changed" if moved else ""})
    return rows


def format_rows(rows, layers):
    lines = ["%-16s %-14s %-34s %-34s %6s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "delta", "verdict")]
    for r in rows:
        if r["metric"] == "-":
            lines.append("%-16s %-14s %s" % (r["workload"], "-",
                                             r["verdict"]))
            continue
        side = "%.6g [%.6g, %.6g]"
        lines.append("%-16s %-14s %-34s %-34s %6s %+7.1f%%  %s" % (
            r["workload"], r["metric"], side % r["parent"],
            side % r["change"], "%d/%d" % (r["wins"], r["pairs"]),
            100.0 * r["delta"], r["verdict"]))
    if layers:
        lines.append("")
        lines.append("per-layer medians (traced runs; no verdicts)")
        for r in layers:
            lines.append("%-16s %-28s %14.6g -> %-14.6g %s" % (
                r["workload"], r["metric"], r["parent"], r["change"],
                r["note"]))
    return "\n".join(lines)


def read_runs(paths):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            runs.extend(parse_runs(f.read()))
    return runs


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bench", default=os.path.join(
        here, "..", "..", "BENCHMARK.json"))
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    parent_runs = read_runs(args.parent)
    change_runs = read_runs(args.change)
    rows = compare(bench, parent_runs, change_runs)
    print(format_rows(rows, layer_rows(bench, parent_runs, change_runs)))
    bad = any(r["verdict"] == "regression" for r in rows) or any(
        not r["correct"] for r in parent_runs + change_runs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
