#!/usr/bin/env bash
# Golden-output guard: the refactor-safety net for the deterministic outputs
# the repo's claims rest on. With faults off, these runs are pure virtual
# time — any byte of drift means event ordering changed, which is exactly
# what a transport-stack refactor must not do.
#
#   quickstart   the four-task walkthrough (virtual time + packet count)
#   table2       the paper's Table 2 latency reproduction
#   fig2         the bandwidth sweep of Figure 2
#   rdma         BENCH_rdma.json sweeps the three transfer protocols (and the
#                cold and warm registration cache) and names the crossover
#                points; pure virtual time, so its bytes are pinned like the
#                text outputs. A change to an rdma cost constant moves it and
#                must re-baseline tests/golden/rdma.json
#   detector     BENCH_detector.json sweeps legacy-vs-accrual detection over
#                crash and straggler scenarios (probes, suspicion, heal, both
#                kinds of death verdict); pure virtual time, so its bytes are
#                pinned like the text outputs
#   scale        BENCH_scale.json carries wall-clock packet rates, so the
#                guard pins schema + run-name set only; its actor-cost
#                ceiling is a timing and lives in `scripts/check.sh perf`
#
# Usage: scripts/golden_check.sh <build-dir>
# Re-baselining (only after an intentional behavior change): re-run the
# binaries and overwrite tests/golden/*.txt, rdma.json and detector.json
# with their output.
set -euo pipefail
BUILD_DIR="${1:?usage: golden_check.sh <build-dir>}"
cd "$(dirname "$0")/.."
GOLD=tests/golden
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "-- quickstart"
"$BUILD_DIR"/examples/quickstart > "$TMP/quickstart.txt"
diff -u "$GOLD/quickstart.txt" "$TMP/quickstart.txt"

echo "-- table2"
"$BUILD_DIR"/bench/bench_table2_latency > "$TMP/table2.txt"
diff -u "$GOLD/table2.txt" "$TMP/table2.txt"

echo "-- fig2"
"$BUILD_DIR"/bench/bench_fig2_bandwidth > "$TMP/fig2.txt"
diff -u "$GOLD/fig2.txt" "$TMP/fig2.txt"

echo "-- rdma"
"$BUILD_DIR"/bench/bench_fig2_bandwidth --json_out="$TMP/rdma.json" > /dev/null
diff -u "$GOLD/rdma.json" "$TMP/rdma.json"

echo "-- detector"
"$BUILD_DIR"/bench/bench_detector --json_out="$TMP/detector.json" > /dev/null
diff -u "$GOLD/detector.json" "$TMP/detector.json"

echo "-- scale schema"
"$BUILD_DIR"/bench/bench_scale --json_out="$TMP/BENCH_scale.json" > /dev/null
grep -q '"schema": "splap-scale-v3"' "$TMP/BENCH_scale.json"
for name in actor_64 event_64 actor_256 event_256 actor_1024 event_1024; do
  grep -q "\"name\": \"$name\"" "$TMP/BENCH_scale.json" \
    || { echo "missing run $name in BENCH_scale.json"; exit 1; }
done

echo "golden outputs identical"
