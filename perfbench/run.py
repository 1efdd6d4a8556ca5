#!/usr/bin/env python3
"""Run one splap benchmark workload and print its result.

    python3 perfbench/run.py --workload lapi_msg --seed 1 --seconds 10 --trace 0

Builds the workload binary (perfbench/ plus the library from src/) into
.bench_build/perfbench, runs it, checks its result against the fingerprint
pinned for the seed in perfbench/fingerprints.json, and prints the host
record and every metric by name and unit. The last line of stdout is the
result object {"correct", "attempted", "failed", "metrics"}: the
end_to_end metrics of BENCHMARK.json with --trace 0, the per_layer ones
with --trace 1. Exits non-zero without a result when the benchmark itself
cannot run (no sources, build failure, crash).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "splap_perfbench")
WORKLOADS = ("lapi_msg", "lapi_bulk", "ga_app")
RUN_LIMIT_S = 170  # the whole run must end within 180 s


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the binary up to date (a no-op when it is)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("splap sources (src/) not found next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([cmake, "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append([cmake, "--build", BUILD, "-j", jobs,
                  "--target", "splap_perfbench"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_binary(args, timeout, trace_out=None, prefix=()):
    """Run the workload binary; return its raw result object."""
    cmd = list(prefix) + [BINARY, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", repr(float(args.seconds)),
                          "--trace", str(args.trace)]
    if args.rounds:
        cmd += ["--rounds", str(args.rounds)]
    if args.setups:
        cmd += ["--setups", str(args.setups)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError("workload binary timed out")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError("workload binary failed (exit %d)" % p.returncode)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError("workload binary printed no result")


def check_fingerprints(raw):
    """Compare the run's first-round fingerprints with the pinned ones.

    Returns (status, mismatches). The pin means wall-clock time can never be
    bought by changing what is simulated.
    """
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        pins = json.load(f)
    pinned = pins.get(raw["workload"], {}).get(str(raw["seed"]))
    if pinned is None:
        return "unpinned", []
    bad = [name for name, fp in sorted(pinned.items())
           if raw["fingerprints"].get(name) != fp]
    return ("mismatch" if bad else "match"), bad


def fmt(v):
    if v == 0 or 1e-3 <= abs(v) < 1e9:
        return "%.6g" % v
    return "%.4e" % v


def print_report(raw, spec, status, bad):
    host = raw["host"]
    print("splap benchmark: workload=%s seed=%s trace=%s"
          % (raw["workload"], raw["seed"], raw["trace"]))
    print("host: " + json.dumps(host, sort_keys=True))
    if not host["comparable"]:
        print("host: NOT COMPARABLE (instrumented build or SPLAP_* tuning set)")
    print("correctness: attempted=%d failed=%d fingerprint=%s%s"
          % (raw["attempted"], raw["failed"], status,
             (" " + ",".join(bad)) if bad else ""))
    for e in raw["errors"]:
        print("  error: " + e)
    metrics = raw["metrics"]
    e2e = [m["name"] for m in spec["end_to_end"]]
    if raw["trace"] == 0:
        print("end-to-end metrics:")
        names = e2e + ["op_fail_ratio", "op_samples"]
    else:
        print("per-layer metrics (probes: sim.event_ns, sim.handoff_ns, "
              "net.packet_ns, lapi.pkt_ns):")
        names = sorted(n for n in metrics if n not in e2e
                       and n not in ("op_fail_ratio", "op_samples"))
    for n in names:
        if n in metrics:
            print("  %-34s %16s %s" % (n, fmt(metrics[n]["value"]),
                                       metrics[n]["unit"]))
    if raw["trace"] == 1:
        print("tracing overhead: %.2f%% (traced vs untraced segments)"
              % metrics["trace.overhead_pct"]["value"])
        if raw["spans_dropped"]:
            print("spans dropped past the recorder cap: %d"
                  % raw["spans_dropped"])
    for name, fp in sorted(raw["fingerprints"].items()):
        print("fingerprint %-16s %s" % (name, json.dumps(fp, sort_keys=True)))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0,
                    help="timed rounds per segment (default: per workload)")
    ap.add_argument("--setups", type=int, default=0,
                    help="run exactly N segments (default: until --seconds)")
    return ap.parse_args(argv)


def main(argv):
    start = time.monotonic()
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        log("run.py: --seed must be >= 0 and --seconds > 0")
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        trace_out = None
        if args.trace:
            os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
            trace_out = os.path.join(BUILD, "traces", "%s-seed%d.spans.jsonl"
                                     % (args.workload, args.seed))
        raw = run_binary(args, RUN_LIMIT_S - (time.monotonic() - start),
                         trace_out)
    except (BenchError, OSError, ValueError) as e:
        log("run.py: %s" % e)
        return 1
    status, bad = check_fingerprints(raw)
    failed = raw["failed"] + len(bad)
    attempted = max(raw["attempted"], 1)
    want = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in want if m["name"] not in raw["metrics"]]
    if missing:
        log("run.py: workload binary did not report " + ", ".join(missing))
        return 1
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(raw, f, indent=1, sort_keys=True)
    print_report(raw, spec, status, bad)
    if trace_out:
        print("spans: " + os.path.relpath(trace_out, ROOT))
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]]["value"],
                           "unit": m["unit"]} for m in want}
    result = {"correct": failed == 0 and not raw["errors"],
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
