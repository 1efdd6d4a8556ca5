#!/usr/bin/env python3
"""Smoke check: pinning to one CPU must not change what is simulated.

    python3 perfbench/tests/pinning_smoke.py

Runs every workload for two rounds of seed 7 once unpinned and once
under `taskset -c 0`, and requires identical virtual fingerprints (first
round and end of run) and no failed operation. Wall-clock numbers differ
between the two, so each run's host record is printed beside its result.
Exits non-zero on any difference.
"""
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

SEED = 7
ROUNDS = 2


def main():
    taskset = shutil.which("taskset")
    if taskset is None:
        print("pinning_smoke: taskset not found; cannot pin")
        return 1
    run.build()
    ok = True
    for w in run.WORKLOADS:
        a = run.parse_args(["--workload", w, "--seed", str(SEED),
                            "--seconds", "1", "--rounds", str(ROUNDS),
                            "--setups", "1"])
        free = run.run_binary(a, run.RUN_LIMIT_S)
        pinned = run.run_binary(a, run.RUN_LIMIT_S, prefix=(taskset, "-c", "0"))
        same = free["fingerprints"] == pinned["fingerprints"]
        clean = not (free["failed"] or pinned["failed"] or free["errors"]
                     or pinned["errors"])
        ok = ok and same and clean
        print("%-10s fingerprints %s, failures %s" %
              (w, "identical" if same else "DIFFER", "none" if clean else "SOME"))
        for label, raw in (("unpinned", free), ("taskset -c 0", pinned)):
            print("  %-13s host %s" % (label, raw["host"]))
            print("  %-13s ops/s %.6g  %s" % (
                label, raw["metrics"]["ops_per_s"]["value"],
                sorted(raw["fingerprints"].items())))
    print("pinning_smoke: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
