#!/usr/bin/env python3
"""Fail if a perfbench workload's peak RSS grows with the length of its run.

    python3 scripts/check_rss.py

Runs lapi_msg and ga_app for seed 1 with one setup, once for one timed
round and once for sixteen, and fails if peak_rss_mb after sixteen rounds
is more than 1.25x its value after one. Per-message state that is never
forgotten (delivered-message records, duplicate-suppression markers,
retired receive postings) grows with the number of operations a run
issues, so it shows here as RSS growth; state bounded by the in-flight
window does not. lapi_bulk is left out: its peak is its 32 KB-2 MB payload
buffers, whatever the run length. Peak RSS depends on the allocator and
the host, so this gate lives in the perf stage of scripts/check.sh, not in
tier-1.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("lapi_msg", "ga_app")
ROUNDS = (1, 16)
MAX_GROWTH = 1.25


def peak_rss_mb(workload, rounds):
    a = run.parse_args(["--workload", workload, "--seed", "1",
                        "--seconds", "1", "--rounds", str(rounds),
                        "--setups", "1"])
    raw = run.run_binary(a, run.RUN_LIMIT_S)
    if raw["failed"] or raw["errors"]:
        raise run.BenchError("failed %d, errors %s"
                             % (raw["failed"], raw["errors"]))
    return raw["metrics"]["peak_rss_mb"]["value"]


def main():
    run.build()
    bad = []
    for w in WORKLOADS:
        try:
            short, long_ = (peak_rss_mb(w, r) for r in ROUNDS)
        except run.BenchError as e:
            bad.append("%s: %s" % (w, e))
            continue
        growth = long_ / short
        print("%-10s peak_rss_mb %.2f after %d round(s), %.2f after %d: "
              "%.2fx (limit %.2fx)"
              % (w, short, ROUNDS[0], long_, ROUNDS[1], growth, MAX_GROWTH),
              flush=True)
        if growth > MAX_GROWTH:
            bad.append("%s: peak RSS grew %.2fx over %d rounds"
                       % (w, growth, ROUNDS[1]))
    for line in bad:
        print("FAIL " + line)
    print("rss: %s" % ("bounded" if not bad else "%d bad workloads" % len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
