#!/usr/bin/env bash
# Golden-output guard: the refactor-safety net for the deterministic outputs
# the repo's claims rest on. With faults off, these runs are pure virtual
# time — any byte of drift means event ordering changed, which is exactly
# what a transport-stack refactor must not do.
#
#   quickstart   the four-task walkthrough (virtual time + packet count)
#   table2       the paper's Table 2 latency reproduction
#   fig2         the bandwidth sweep of Figure 2 (also exercised with
#                SPLAP_SWEEP_THREADS elsewhere; the output is thread-count
#                invariant)
#   rdma         BENCH_rdma.json sweeps the three transfer protocols; its
#                bandwidths depend on the rdma cost constants, so the guard
#                pins schema, series-name set, and crossover keys, not bytes
#   detector     BENCH_detector.json sweeps legacy-vs-accrual detection over
#                crash and straggler scenarios; latencies depend on detector
#                tuning, so the guard pins schema and series names, not bytes
#   engine perf  BENCH_engine.json carries wall-clock timings that legitimately
#                vary run to run, so the guard pins its schema and benchmark
#                name set, not its bytes
#   scale        BENCH_scale.json likewise: schema + run-name set pinned, plus
#                the one number that is a hard claim rather than a timing —
#                the 1024-node stackless-vs-threaded speedup floor (>= 10x).
#                The floor is skipped in sanitized/audit builds: instrumentation
#                taxes the inline stackless path far more than the
#                thread-creation-bound baseline, so the ratio only means
#                something on an optimized build.
#
# Usage: scripts/golden_check.sh <build-dir>
# Re-baselining (only after an intentional behavior change): re-run the three
# binaries and overwrite tests/golden/*.txt with their output.
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

echo "-- rdma schema"
"$BUILD_DIR"/bench/bench_fig2_bandwidth --json_out="$TMP/BENCH_rdma.json" \
  > /dev/null
grep -q '"schema": "splap-rdma-v1"' "$TMP/BENCH_rdma.json"
for name in eager rendezvous zero_copy_cold zero_copy_warm; do
  grep -q "\"name\": \"$name\"" "$TMP/BENCH_rdma.json" \
    || { echo "missing series $name in BENCH_rdma.json"; exit 1; }
done
for key in crossover_eager_to_rendezvous_bytes \
           crossover_rendezvous_to_zero_copy_cold_bytes \
           crossover_rendezvous_to_zero_copy_warm_bytes; do
  grep -q "\"$key\"" "$TMP/BENCH_rdma.json" \
    || { echo "missing key $key in BENCH_rdma.json"; exit 1; }
done

echo "-- detector schema"
"$BUILD_DIR"/bench/bench_detector --json_out="$TMP/BENCH_detector.json" \
  > /dev/null
grep -q '"schema": "splap-detector-v1"' "$TMP/BENCH_detector.json"
for name in legacy_crash accrual_crash \
            legacy_straggler_x1 accrual_straggler_x1 \
            legacy_straggler_x8 accrual_straggler_x8 \
            legacy_straggler_x30 accrual_straggler_x30 \
            legacy_straggler_x120 accrual_straggler_x120; do
  grep -q "\"name\": \"$name\"" "$TMP/BENCH_detector.json" \
    || { echo "missing series $name in BENCH_detector.json"; exit 1; }
done

echo "-- engine perf schema"
"$BUILD_DIR"/bench/bench_engine_perf --json_out="$TMP/BENCH_engine.json" \
  > /dev/null
grep -q '"schema": "splap-bench-v1"' "$TMP/BENCH_engine.json"
for name in BM_EngineEventThroughput BM_ActorHandoff BM_FabricPacketRate \
            BM_LapiPutMessageRate; do
  grep -q "\"$name" "$TMP/BENCH_engine.json" \
    || { echo "missing benchmark $name in BENCH_engine.json"; exit 1; }
done

echo "-- scale schema"
"$BUILD_DIR"/bench/bench_scale --json_out="$TMP/BENCH_scale.json" > /dev/null
grep -q '"schema": "splap-scale-v2"' "$TMP/BENCH_scale.json"
for name in threaded_64 stackless_64 threaded_256 stackless_256 \
            threaded_1024 stackless_1024; do
  grep -q "\"name\": \"$name\"" "$TMP/BENCH_scale.json" \
    || { echo "missing run $name in BENCH_scale.json"; exit 1; }
done
# The PR's headline claim, re-proven on every run: at 1024 nodes the
# stackless driver moves packets at >= 10x the thread-per-actor rate.
# Sanitizer/audit instrumentation slows the inline stackless path far more
# than the thread-creation-bound baseline, so the ratio is only meaningful
# (and only enforced) on an uninstrumented build.
if grep -qE 'SPLAP_SANITIZE:[A-Z]+=(ON|thread)|SPLAP_AUDIT:[A-Z]+=ON' \
    "$BUILD_DIR/CMakeCache.txt" 2>/dev/null; then
  echo "   (instrumented build: schema+names pinned, speedup floor skipped)"
else
  speedup=$(grep -o '"speedup_1024": [0-9.]*' "$TMP/BENCH_scale.json" |
    grep -o '[0-9.]*$')
  awk -v s="$speedup" 'BEGIN { exit !(s >= 10.0) }' \
    || { echo "1024-node stackless speedup ${speedup}x < 10x"; exit 1; }
fi

echo "golden outputs identical"
