#!/usr/bin/env python3
"""Pin the first-round virtual fingerprints of a range of seeds.

    python3 perfbench/pin_fingerprints.py [--seeds 0-63] [--workloads lapi_msg]

For each workload and seed, runs one setup and one timed round and records
the round's fingerprints (final virtual time, events, packets,
retransmits) in perfbench/fingerprints.json, which run.py checks every run
against. Re-pin only after a change that is meant to alter what is
simulated; a pure speed-up must leave every pin intact.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)


def parse_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-63")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args(argv)
    path = os.path.join(run.HERE, "fingerprints.json")
    with open(path) as f:
        pins = json.load(f)
    run.build()
    for w in args.workloads.split(","):
        for seed in parse_range(args.seeds):
            a = run.parse_args(["--workload", w, "--seed", str(seed),
                                "--seconds", "1", "--rounds", "1",
                                "--setups", "1"])
            raw = run.run_binary(a, run.RUN_LIMIT_S)
            if raw["failed"] or raw["errors"]:
                raise SystemExit("%s seed %d failed: %s"
                                 % (w, seed, raw["errors"]))
            pins.setdefault(w, {})[str(seed)] = {
                name: fp for name, fp in raw["fingerprints"].items()
                if name.endswith(".round1")}
        print("pinned %s seeds %s" % (w, args.seeds))
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
