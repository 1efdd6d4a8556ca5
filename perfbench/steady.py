#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly and summarise the spread.

    python3 perfbench/steady.py [--workloads lapi_msg,ga_app] [--runs 10]

Every run lasts BENCHMARK.json's run_seconds; run i uses seed 1 + i. For
every end-to-end metric this prints the median, the quartiles
(statistics.quantiles(values, n=4)), and the spread (q3 - q1) / median next
to the metric's bound in BENCHMARK.json; a spread above a third of the bound
is flagged. Two traced runs add the median tracing overhead (traced segments
against untraced ones of the same run). Bounds in BENCHMARK.json are set
from this output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1
TRACED_RUNS = 2


def one_run(workload, seed, seconds, trace):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run.py failed for %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("  seed %d: INCORRECT (%d of %d ops failed)"
              % (seed, result["failed"], result["attempted"]))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    worst = 0.0
    for w in workloads:
        print("== %s: %d untraced runs of %gs" % (w, args.runs, seconds))
        runs = [one_run(w, FIRST_SEED + i, seconds, 0) for i in range(args.runs)]
        print("  %-16s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                                  "spread", "bound"))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3, s = spread(vals)
            flag = "  > bound/3" if s > m["bound"] / 3 else ""
            worst = max(worst, s / m["bound"])
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %6.3f%s"
                  % (m["name"], med, q1, q3, s, m["bound"], flag))
        traced = [one_run(w, FIRST_SEED + i, seconds, 1)
                  for i in range(TRACED_RUNS)]
        over = [r["metrics"]["trace.overhead_pct"]["value"] for r in traced]
        print("  tracing overhead (traced vs untraced segments): median %.2f%% "
              "over %d runs" % (statistics.median(over), len(over)))
    print("worst spread / bound: %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
