#!/usr/bin/env python3
"""Re-run every pinned perfbench seed and compare its fingerprints.

    python3 scripts/check_pins.py

For each workload, runs every seed pinned in perfbench/fingerprints.json
with one setup and one timed round (the runs pin_fingerprints.py records)
and checks the round's fingerprints (final virtual time, events, packets,
retransmits) against the pins. Exits non-zero on any mismatch, failed op
or error, naming each bad run. It writes no pin and no result file: a pure
speed-up must pass it unchanged.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py)


def main():
    with open(os.path.join(run.HERE, "fingerprints.json")) as f:
        pins = json.load(f)
    run.build()
    bad = []
    for w in run.WORKLOADS:
        seeds = sorted(pins.get(w, {}), key=int)
        if not seeds:
            bad.append("%s: no pinned seeds" % w)
            continue
        for seed in seeds:
            a = run.parse_args(["--workload", w, "--seed", seed,
                                "--seconds", "1", "--rounds", "1",
                                "--setups", "1"])
            try:
                raw = run.run_binary(a, run.RUN_LIMIT_S)
            except run.BenchError as e:
                bad.append("%s seed %s: %s" % (w, seed, e))
                continue
            wrong = [name for name, fp in sorted(pins[w][seed].items())
                     if raw["fingerprints"].get(name) != fp]
            if wrong or raw["failed"] or raw["errors"]:
                bad.append("%s seed %s: mismatch %s, failed %d, errors %s"
                           % (w, seed, ",".join(wrong) or "none",
                              raw["failed"], raw["errors"]))
        print("%-10s %d pinned seeds checked" % (w, len(seeds)), flush=True)
    for line in bad:
        print("FAIL " + line)
    print("pins: %s" % ("all match" if not bad else "%d bad runs" % len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
