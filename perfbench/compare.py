#!/usr/bin/env python3
"""Summarises and compares sets of benchmark runs.

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A runs directory holds the result files perfbench writes
(<workload>-seed<n>-trace<0|1>.json, by default under
.bench_build/perfbench/results). Untraced files give the end-to-end
metrics, traced files the per-layer ones.

With one directory: per workload and end-to-end metric, the median,
quartiles and spread (quartile distance over median) of its runs, marked
"steady" when the spread is under a third of the metric's bound in
BENCHMARK.json, "noisy" when it is above the bound (setup_s is exempt from
the spread rule, like in the acceptance check).

With two directories (parent, then change): per workload and metric, both
medians and quartiles and a verdict under the benchmark's bounds:
  better      the change wins at least 9/10 of the seed-paired runs (ties
              count for neither) and the medians differ by more than the
              parent's quartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread is wider than the bound, unless
              every change run reads better than every parent run;
  unchanged   none of the above.
Per-layer metrics (no bounds) are listed with both medians only.
"""

import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_runs(directory):
    """{(workload, trace): {seed: result}} for every result file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        match = NAME.match(os.path.basename(path))
        if not match:
            continue
        with open(path) as handle:
            result = json.load(handle)
        key = (match["workload"], int(match["trace"]))
        runs.setdefault(key, {})[int(match["seed"])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def metric_values(results, section, name):
    return [results[seed][section][name]["value"] for seed in sorted(results)]


def fmt(value):
    return "%.6g" % value


def summarise(runs, benchmark):
    status = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        results = runs.get((workload, 0))
        if not results:
            print("%s: no untraced runs" % workload)
            status = 1
            continue
        print("%s (%d runs, seeds %s)" % (workload, len(results),
                                          ",".join(map(str, sorted(results)))))
        for metric in benchmark["end_to_end"]:
            values = metric_values(results, "end_to_end", metric["name"])
            q1, median, q3 = quartiles(values)
            s = spread(values)
            if metric["name"] == "setup_s":
                mark = "exempt"
            elif s > metric["bound"]:
                mark = "NOISY"
                status = 1
            elif s > metric["bound"] / 3:
                mark = "wide"
            else:
                mark = "steady"
            print("  %-18s median %-12s q1 %-12s q3 %-12s spread %.4f "
                  "(bound %.2f) %s" % (metric["name"], fmt(median), fmt(q1),
                                       fmt(q3), s, metric["bound"], mark))
    return status


def verdict(parent, change, metric):
    lower = metric["better"] == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)

    def better(c, p):
        return c < p if lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    gain = (wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p_q3 - p_q1))
    if gain and better(c_med, p_med):
        return "better"
    worse_by = (c_med - p_med) if lower else (p_med - c_med)
    p_spread = spread(parent)
    if p_spread > metric["bound"] and metric["name"] != "setup_s":
        if all(better(c, p) for c in change for p in parent):
            return "better"
        return "unresolved"
    if worse_by > metric["bound"] * abs(p_med):
        return "worse"
    return "unchanged"


def compare(parent_runs, change_runs, benchmark):
    status = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for kind, section, trace in (("end_to_end", "end_to_end", 0),
                                     ("per_layer", "per_layer", 1)):
            parent = parent_runs.get((workload, trace), {})
            change = change_runs.get((workload, trace), {})
            seeds = sorted(set(parent) & set(change))
            if not seeds:
                if kind == "end_to_end":
                    print("%s: no seed run on both sides" % workload)
                    status = 1
                continue
            p = {s: parent[s] for s in seeds}
            c = {s: change[s] for s in seeds}
            print("%s %s (%d seed pairs)" % (workload, kind, len(seeds)))
            for metric in benchmark[kind]:
                pv = metric_values(p, section, metric["name"])
                cv = metric_values(c, section, metric["name"])
                p_q1, p_med, p_q3 = quartiles(pv)
                c_q1, c_med, c_q3 = quartiles(cv)
                line = ("  %-28s parent %-11s [%s, %s]  change %-11s [%s, %s]"
                        % (metric["name"], fmt(p_med), fmt(p_q1), fmt(p_q3),
                           fmt(c_med), fmt(c_q1), fmt(c_q3)))
                if kind == "end_to_end":
                    result = verdict(pv, cv, metric)
                    if result == "worse":
                        status = 1
                    line += "  " + result
                print(line)
    return status


def main(argv):
    if len(argv) not in (1, 2) or any(not os.path.isdir(d) for d in argv):
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if len(argv) == 1:
        return summarise(load_runs(argv[0]), benchmark)
    return compare(load_runs(argv[0]), load_runs(argv[1]), benchmark)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
