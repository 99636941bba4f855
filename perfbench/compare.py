#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit against a change.

    python3 perfbench/run.py --workload W --seed S --record parent.jsonl   # on the parent
    python3 perfbench/run.py --workload W --seed S --record change.jsonl   # on the change
    python3 perfbench/compare.py parent.jsonl change.jsonl

Run the two sides alternately, since the host's speed drifts.  Runs are
paired in file order within each workload.  Runs made with different kernel
implementations (``rsl.kernel.IMPL``) are never paired: the command refuses
and exits 2, so a compiled-kernel run cannot count as a gain over pure
Python.  For each workload and end-to-end metric it prints both medians and
quartiles and a verdict, by the rule in BENCHMARK.json's bounds:

- gain: the change wins at least 9 of 10 pairs and the medians differ by
  more than the parent's interquartile distance;
- regression: the change's median is worse by more than the metric's bound;
- unresolved: the parent's own spread is wider than the bound;
- within bound: none of these.

A side with a failed or incorrect run makes the command exit 1.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                runs[run["record"]["workload"]].append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, bound: float, lower_better: bool) -> str:
    sign = 1 if lower_better else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    if wins >= 0.9 * min(len(parent), len(change)) and abs(p_med - c_med) > q3 - q1:
        return f"gain ({wins}/{min(len(parent), len(change))} pairs)"
    if sign * (c_med - p_med) > bound * p_med:
        return "regression"
    if q3 - q1 > bound * p_med:
        return "unresolved"
    return "within bound"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(argv[1]), load(argv[2])
    impls = {json.dumps(r["record"]["impl"]) for side in (parent, change) for runs in side.values() for r in runs}
    if len(impls) != 1:
        print(f"refusing to compare runs made with different kernels: {sorted(impls)}", file=sys.stderr)
        return 2
    bad = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        bad += sum(1 for r in p_runs + c_runs if not r["correct"] or "end_to_end" not in r)
        print(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["end_to_end"][name][0] for r in p_runs if "end_to_end" in r]
            c = [r["end_to_end"][name][0] for r in c_runs if "end_to_end" in r]
            if not p or not c:
                continue
            pq, cq = quartiles(p), quartiles(c)
            print(
                f"  {name:<16} parent {statistics.median(p):.6g} [{pq[0]:.6g}, {pq[1]:.6g}]  "
                f"change {statistics.median(c):.6g} [{cq[0]:.6g}, {cq[1]:.6g}] {m['unit']}  "
                f"{verdict(p, c, m['bound'], m['better'] == 'lower')}"
            )
    for workload in sorted(set(parent) ^ set(change)):
        print(f"== {workload}: runs on one side only, not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
