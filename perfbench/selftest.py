#!/usr/bin/env python3
"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload of the program (the BENCHMARK.json ones and
cell-bopds) untraced and traced on one seed, and untraced on a second seed,
with tiny inputs (--size toy), and asserts:
  - each run exits 0 and its last stdout line is the summary object with
    exactly correct/attempted/failed/metrics, correct true, attempted >= 1;
  - untraced runs emit every end-to-end metric of BENCHMARK.json, traced
    runs every per-layer metric, each with its unit and nothing else;
  - the traced re-drives of the cells reproduced MultiplayerGame::Run,
    the planner's PoisonPlan and the CG iteration count, and the traced
    run's game 0 has the untraced run's rbar and HR@3;
  - another seed changes the inputs (input fingerprint) but not the set
    of metrics;
  - unknown workload, dataset or flag values are usage errors (exit 2,
    valid names on stderr, no summary on stdout).
Exits 0 when every assertion holds.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
SEEDS = (11, 12)
WORKLOADS = ("cell-msopds", "cell-bopds", "serve-hotswap", "shards-ooc")

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL: " + message)


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True,
                          check=False)


def run_workload(workload, seed, trace):
    proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "toy", "--out_dir", OUT_DIR])
    label = "%s seed %d trace %d" % (workload, seed, trace)
    expect(proc.returncode == 0, "%s exited %d: %s" % (label, proc.returncode,
                                                       proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed,
                                                             trace))
    result = {}
    if os.path.isfile(path):
        with open(path) as handle:
            result = json.load(handle)
    expect(bool(result), label + ": no result file")
    return label, summary, result


def check_summary(label, summary, specs):
    expect(sorted(summary) == ["attempted", "correct", "failed", "metrics"],
           label + ": summary keys are " + str(sorted(summary)))
    expect(summary.get("correct") is True, label + ": not correct")
    expect(isinstance(summary.get("attempted"), int) and
           summary.get("attempted", 0) >= 1, label + ": attempted < 1")
    expect(isinstance(summary.get("failed"), int), label + ": failed not int")
    metrics = summary.get("metrics", {})
    expected = {spec["name"]: spec["unit"] for spec in specs}
    expect(set(metrics) == set(expected),
           "%s: metric names differ from BENCHMARK.json: %s" %
           (label, sorted(set(metrics) ^ set(expected))))
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        expect(entry.get("unit") == unit,
               "%s: %s has unit %r, not %r" % (label, name, entry.get("unit"),
                                               unit))
        expect(isinstance(entry.get("value"), (int, float)),
               "%s: %s has no numeric value" % (label, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    shutil.rmtree(OUT_DIR, ignore_errors=True)

    listed = [w["name"] for w in benchmark["workloads"]]
    expect(set(listed) <= set(WORKLOADS),
           "BENCHMARK.json names workloads the program lacks: %s" % listed)
    for workload in WORKLOADS:
        label, timed, timed_file = run_workload(workload, SEEDS[0], 0)
        check_summary(label, timed, benchmark["end_to_end"])
        label, traced, traced_file = run_workload(workload, SEEDS[0], 1)
        check_summary(label, traced, benchmark["per_layer"])
        facts = traced_file.get("facts", {})
        if workload.startswith("cell-"):
            for key in ("redrive_game_match", "redrive_plan_match",
                        "redrive_cg_replay_match"):
                expect(facts.get(key) == "true", "%s: %s is %r" %
                       (label, key, facts.get(key)))
            for key in ("game0_rbar", "game0_hr3"):
                expect(facts.get(key) is not None and
                       facts.get(key) == timed_file.get("facts", {}).get(key),
                       "%s: %s differs between the timed and traced runs" %
                       (workload, key))
        expect(bool(traced_file.get("trace_file")) and
               os.path.isfile(traced_file.get("trace_file", "")),
               label + ": no Chrome trace written")
        expect(traced_file.get("machine", {}).get("kernel_threads") == 1,
               label + ": kernel pool is not 1 thread")

        label, other, other_file = run_workload(workload, SEEDS[1], 0)
        check_summary(label, other, benchmark["end_to_end"])
        expect(set(other.get("metrics", {})) == set(timed.get("metrics", {})),
               workload + ": another seed changed the set of metrics")
        first = timed_file.get("facts", {}).get("input_fingerprint")
        second = other_file.get("facts", {}).get("input_fingerprint")
        expect(first is not None and first != second,
               "%s: seeds %d and %d gave the same inputs (%s)" %
               (workload, SEEDS[0], SEEDS[1], first))

    for bad in (["--workload", "no-such-workload"],
                ["--workload", "cell-msopds", "--dataset", "Epinions"],
                ["--workload", "cell-msopds", "--bogus", "1"],
                ["--workload", "cell-msopds", "--seed", "x"]):
        proc = run(bad + ["--size", "toy", "--out_dir", OUT_DIR])
        expect(proc.returncode == 2, "%s exited %d, not 2" % (bad,
                                                              proc.returncode))
        expect("cell-msopds" in proc.stderr and "epinions" in proc.stderr,
               "%s: usage does not list the valid names" % bad)
        expect("{" not in proc.stdout, "%s printed a summary" % bad)

    shutil.rmtree(OUT_DIR, ignore_errors=True)
    if failures:
        print("selftest: %d failure(s)" % len(failures))
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
