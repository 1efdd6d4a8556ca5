#!/usr/bin/env bash
# Full local gate, in escalating order of what each stage can catch:
#
#   optimized  build + full ctest (the tier-1 contract)
#   pinned     the optimized ctest again under `taskset -c 0`: tier-1 must
#              stay green when the process may use only one CPU (skipped
#              with a notice when the host has no taskset)
#   lint       splap-lint determinism rules over src/ and tests/, plus the
#              rule-by-rule fixture self-tests
#   graph      splap-graph call-graph/include-graph proofs over src/:
#              blocking-reachability (no handler-context path may reach a
#              suspension primitive), include-closure layering, and
#              Status-discard — plus the analyzer's own fixture self-tests
#   tidy       clang-tidy over src/ (skipped with a notice when the host has
#              no clang-tidy; the curated check set lives in .clang-tidy)
#   asan       ASan+UBSan build + full ctest
#   chaos      the fault-injection harness under ASan+UBSan (the code most
#              likely to touch freed records or stale buffers)
#   overload   the flow-control overload harness (bounded-RX incast,
#              partial-table sheds, credit loss, the MPL unexpected cap)
#              under both ASan+UBSan and SPLAP_AUDIT
#   recovery   the crash-stop recovery harness (tests labelled `recovery`:
#              kill/restart scenarios plus the crash chaos cases) run
#              optimized, under ASan+UBSan, and under SPLAP_AUDIT — a
#              crashed node's teardown must leak zero records and credits
#              beyond the forgiven crashed-epoch residue
#   scale      the engine scale-out harness (tests labelled `scale`): the
#              1024-node smoke and the spawn-exhaustion regression, run
#              optimized, under ASan+UBSan, and under SPLAP_AUDIT
#   partition  the partition / gray-failure harness (tests labelled
#              `partition`): asymmetric blackholes, split/merge of partition
#              groups, stragglers under legacy-vs-accrual detection, the
#              detector math units and the flap-leak test — run optimized,
#              under ASan+UBSan, and under SPLAP_AUDIT
#   rdma       the zero-copy transfer path (tests labelled `rdma`): protocol
#              selection, registration-cache lifecycle (LRU, epoch bumps),
#              scatter-direct assembly, FakeWire exactly-once under loss and
#              corruption, and the GA putv/getv wiring — run optimized,
#              under ASan+UBSan, and under SPLAP_AUDIT
#   tsan       ThreadSanitizer over the engine's TSan fiber hooks
#              (sim_engine_test) and the only genuinely-concurrent code, the
#              parallel sweep driver (bench_fig2_bandwidth with
#              SPLAP_SWEEP_THREADS=4, machines and their fibers on four OS
#              threads)
#   audit      SPLAP_AUDIT build + full ctest: shadow-state lifecycle and
#              virtual-time race auditing across every suite, chaos included
#
# Stages can be selected by name: `scripts/check.sh lint audit` runs just
# those two; no arguments runs everything.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES="$*"
want() {
  [ -z "${STAGES}" ] && return 0
  case " ${STAGES} " in
    *" $1 "*) return 0 ;;
    *) return 1 ;;
  esac
}

# build_regime <optimized|asan|audit>: configure and build that
# instrumentation regime's tree; BUILD_DIR names the tree afterwards.
build_regime() {
  case "$1" in
    optimized) BUILD_DIR=build; set -- ;;
    asan) BUILD_DIR=build-asan; set -- -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug ;;
    audit) BUILD_DIR=build-audit; set -- -DSPLAP_AUDIT=ON ;;
  esac
  cmake -B "${BUILD_DIR}" -S . "$@" >/dev/null
  cmake --build "${BUILD_DIR}" -j"$(nproc)"
}

# label_stage <label> <regime>...: run the suites carrying ctest label
# <label> under each listed regime in turn. --no-tests=error keeps the stage
# failing loudly if the label set ever becomes empty.
label_stage() {
  local label=$1 regime
  shift
  for regime in "$@"; do
    echo "== ${label} harness (${regime}) =="
    build_regime "${regime}"
    ctest --test-dir "${BUILD_DIR}" -L "${label}" --no-tests=error \
      --output-on-failure
  done
}

if want optimized; then
  echo "== optimized build =="
  build_regime optimized
  ctest --test-dir build --output-on-failure
fi

if want pinned; then
  echo "== optimized build, pinned to one CPU =="
  if command -v taskset >/dev/null 2>&1; then
    build_regime optimized
    taskset -c 0 ctest --test-dir build --output-on-failure
  else
    echo "SKIP: taskset not installed on this host"
  fi
fi

if want lint; then
  echo "== determinism lint =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)" --target splap_lint lint_selftest
  ctest --test-dir build -L lint --no-tests=error --output-on-failure
fi

if want graph; then
  echo "== call-graph contract proofs =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)" --target splap_graph graph_selftest
  ctest --test-dir build -R 'graph_selftest|graph_tree' --no-tests=error \
    --output-on-failure
fi

if want tidy; then
  echo "== clang-tidy =="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build -S . >/dev/null  # refreshes compile_commands.json
    # Headers are pulled in via the translation units that include them.
    find src -name '*.cpp' -print0 |
      xargs -0 -n 4 clang-tidy -p build --quiet
  else
    echo "SKIP: clang-tidy not installed on this host (config: .clang-tidy)"
  fi
fi

if want asan; then
  echo "== sanitized build (ASan+UBSan) =="
  build_regime asan
  ctest --test-dir build-asan --output-on-failure
fi

# The fault harness touches freed records and stale buffers first, so it
# gets an explicit sanitized pass even though the asan stage includes it.
want chaos && label_stage chaos asan
# Overload drives credit/NACK recovery through its worst cases: a leaked
# credit or a send record touched after reclamation fails here first.
want overload && label_stage overload asan audit
# Crash-stop, scale-out, partition and zero-copy suites: the behavioural
# contract optimized first, then the memory sanitizers, then the
# SPLAP_AUDIT lifecycle ledger (which forgives only a crashed incarnation's
# own residue).
want recovery && label_stage recovery optimized asan audit
want scale && label_stage scale optimized asan audit
want partition && label_stage partition optimized asan audit
want rdma && label_stage rdma optimized asan audit

if want tsan; then
  echo "== thread-sanitized build (TSan) =="
  cmake -B build-tsan -S . -DSPLAP_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target sim_engine_test bench_fig2_bandwidth
  ./build-tsan/tests/sim_engine_test
  SPLAP_SWEEP_THREADS=4 ./build-tsan/bench/bench_fig2_bandwidth
fi

if want audit; then
  echo "== audit build (SPLAP_AUDIT) =="
  build_regime audit
  ctest --test-dir build-audit --output-on-failure
fi

echo "All checks passed."
