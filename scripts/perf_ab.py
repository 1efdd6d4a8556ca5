#!/usr/bin/env python3
"""A/B the perfbench workloads of this checkout against another revision.

    python3 scripts/perf_ab.py --against HEAD~1 --seed 13 [--pairs 10] \\
        [--seconds 36] [--workloads lapi_msg,lapi_bulk,ga_app] \\
        [--out BENCH_perf.json]

Extracts <rev> with `git archive` into a temporary directory (so .git gets
no worktree) and builds its perfbench binary and this checkout's the way
perfbench/run.py builds them: each side with its own run.py. Then runs
alternating pairs of untraced runs, one workload at a time; the side that
goes first alternates from pair to pair, so slow drift of the host's load
falls on both sides alike. Runs last BENCHMARK.json's run_seconds unless
--seconds says otherwise, and cover run.py's workloads unless --workloads
names some.

It fails (exit 1) on any failed op or error, and on any pair whose two
sides report different round-1 fingerprints (what was simulated must be
the same for a wall-clock comparison to mean anything). For each workload
and end-to-end metric of BENCHMARK.json it prints both medians, both
quartile ranges, the ratio change/base of the medians, the base's
IQR/median, and in how many pairs the change was better. It adds all of
that, the per-pair values, the binary's host block and both revisions (a
checkout with uncommitted changes is named by the SHA-256 of its
`git diff HEAD`) as one entry of --out's "runs" list: entries of earlier
runs against the same base revision are kept, so every reading of a claim
stays next to the last. It gates nothing on the numbers: judging a claim
is the reader's job, with the base's IQR as the noise yardstick.
"""
import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (this checkout's perfbench/run.py)

SCHEMA = "splap-perf-ab-v2"
log = run.log


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def checkout_id():
    """HEAD, plus the SHA-256 of `git diff HEAD` when the tree is dirty."""
    ident = {"rev": git("rev-parse", "HEAD")}
    diff = subprocess.run(["git", "-C", ROOT, "diff", "HEAD", "--binary"],
                          check=True, stdout=subprocess.PIPE).stdout
    if diff:
        ident["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return ident


def extract(rev, dest):
    """Write the tree of `rev` into `dest` (no worktree, no .git)."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit("perf_ab.py: cannot extract %s" % rev)


def load_runner(root, name):
    """Import root/perfbench/run.py under its own module name."""
    path = os.path.join(root, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_once(runner, workload, seed, seconds):
    a = runner.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", repr(float(seconds))])
    return runner.run_binary(a, runner.RUN_LIMIT_S)


def round1(raw):
    return {k: v for k, v in raw["fingerprints"].items()
            if k.endswith("round1")}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec, base_runs, change_runs):
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        lower = m["better"] == "lower"
        wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "base_median": bmed, "base_q1": bq1, "base_q3": bq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "ratio": cmed / bmed if bmed else None,
            "base_iqr_over_median": (bq3 - bq1) / bmed if bmed else None,
            "wins": wins, "pairs": len(b), "base": b, "change": c,
        }
    return out


def fmt(v):
    return "-" if v is None else "%.4g" % v


def print_table(workload, metrics):
    print("== %s ==" % workload)
    print("  %-14s %11s %23s %11s %23s %7s %8s %5s"
          % ("metric", "base med", "base q1..q3", "change med",
             "change q1..q3", "ratio", "iqr/med", "wins"))
    for name, s in metrics.items():
        print("  %-14s %11s %23s %11s %23s %7s %8s %2d/%-2d"
              % (name, fmt(s["base_median"]),
                 "%s..%s" % (fmt(s["base_q1"]), fmt(s["base_q3"])),
                 fmt(s["change_median"]),
                 "%s..%s" % (fmt(s["change_q1"]), fmt(s["change_q3"])),
                 fmt(s["ratio"]), fmt(s["base_iqr_over_median"]),
                 s["wins"], s["pairs"]), flush=True)


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", required=True,
                    help="base revision (anything git archive accepts)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_perf.json"))
    return ap.parse_args(argv)


def earlier_runs(path, base_rev):
    """The runs already in `path` against the same base revision."""
    try:
        with open(path) as f:
            old = json.load(f)
    except (OSError, ValueError):
        return []
    if old.get("schema") != SCHEMA:
        return []
    return [r for r in old["runs"] if r["base"]["rev"] == base_rev]


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args = parse_args(argv, spec)
    workloads = [w for w in args.workloads.split(",") if w]
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0 or not workloads:
        log("perf_ab.py: need --pairs >= 1, --seconds > 0, --seed >= 0 and "
            "at least one workload")
        return 2
    base_rev = git("rev-parse", args.against)
    bad = []
    report = {"base": {"rev": base_rev, "against": args.against},
              "change": checkout_id(),
              "params": {"workloads": workloads, "pairs": args.pairs,
                         "seconds": args.seconds, "seed": args.seed},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="splap-ab-") as tmp:
        extract(base_rev, tmp)
        sides = {"base": load_runner(tmp, "run_base"), "change": run}
        for side, runner in sides.items():
            log("perf_ab.py: building the %s binary" % side)
            try:
                runner.build()
            except runner.BenchError as e:
                raise SystemExit("perf_ab.py: %s build: %s" % (side, e))
        for w in workloads:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runner = sides[side]
                    try:
                        raw = run_once(runner, w, args.seed, args.seconds)
                    except runner.BenchError as e:
                        raise SystemExit("perf_ab.py: %s %s pair %d: %s"
                                         % (w, side, i, e))
                    if raw["failed"] or raw["errors"]:
                        bad.append("%s pair %d %s: failed %d, errors %s"
                                   % (w, i, side, raw["failed"],
                                      raw["errors"]))
                    runs[side].append(raw)
                if round1(runs["base"][-1]) != round1(runs["change"][-1]):
                    bad.append("%s pair %d: round-1 fingerprints differ: "
                               "base %s, change %s"
                               % (w, i, round1(runs["base"][-1]),
                                  round1(runs["change"][-1])))
                log("perf_ab.py: %s pair %d/%d done" % (w, i + 1, args.pairs))
            metrics = summarize(spec, runs["base"], runs["change"])
            print_table(w, metrics)
            report["host"] = runs["change"][-1]["host"]
            report["base"]["host"] = runs["base"][-1]["host"]
            report["workloads"][w] = {"round1": round1(runs["change"][0]),
                                      "metrics": metrics}
    runs = earlier_runs(args.out, base_rev) + [report]
    with open(args.out, "w") as f:
        json.dump({"schema": SCHEMA, "runs": runs}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    print("wrote %s" % os.path.relpath(args.out, os.getcwd()))
    for line in bad:
        print("FAIL " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
