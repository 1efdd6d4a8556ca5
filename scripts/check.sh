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
#   asan       ASan+UBSan build + full ctest, compiled with warnings as
#              errors
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
#              detector math units, the flap-leak test and the transport
#              suite's corroboration cases — run optimized, under
#              ASan+UBSan, and under SPLAP_AUDIT
#   rdma       the zero-copy transfer path (tests labelled `rdma`): protocol
#              selection, registration-cache lifecycle (LRU, epoch bumps),
#              scatter-direct assembly, FakeWire exactly-once under loss and
#              corruption, and the GA putv/getv wiring — run optimized,
#              under ASan+UBSan, and under SPLAP_AUDIT
#   audit      SPLAP_AUDIT build + full ctest: shadow-state lifecycle and
#              virtual-time race auditing across every suite, chaos included;
#              compiled with warnings as errors
#   perf       wall-clock and benchmark checks kept out of tier-1: every
#              seed pinned in perfbench/fingerprints.json re-run and matched
#              (scripts/check_pins.py); the RSS-growth gate — lapi_msg and
#              ga_app peak RSS after 16 rounds at most 1.25x that after one
#              (scripts/check_rss.py; per-message state must be forgotten,
#              and RSS depends on the allocator, so not tier-1); one traced
#              3 s run of each workload, which must report "correct": true
#              (a traced run adds the spans and the self-checked layer
#              probes, which no untraced gate exercises); and the
#              bench_scale actor-cost ceiling on the optimized build — at
#              1024 nodes a bare event chain may move packets at most 25x
#              faster than one actor per node (event_over_actor_1024 <= 25);
#              it fails if an actor ever costs an OS thread again
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
# instrumentation regime's tree; BUILD_DIR names the tree afterwards. The
# asan and audit trees belong to this script alone, so they compile with
# warnings as errors (CMAKE_COMPILE_WARNING_AS_ERROR, CMake 3.24 or later);
# the tier-1 tree build/ keeps its plain configuration.
build_regime() {
  local werror=-DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  case "$1" in
    optimized) BUILD_DIR=build; set -- ;;
    asan) BUILD_DIR=build-asan
      set -- -DSPLAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug "${werror}" ;;
    audit) BUILD_DIR=build-audit; set -- -DSPLAP_AUDIT=ON "${werror}" ;;
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
  # By name: the graph tests share the label but only the graph stage
  # builds them.
  ctest --test-dir build -R 'lint_selftest|lint_tree' --no-tests=error \
    --output-on-failure
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

if want audit; then
  echo "== audit build (SPLAP_AUDIT) =="
  build_regime audit
  ctest --test-dir build-audit --output-on-failure
fi

if want perf; then
  echo "== perf: pinned fingerprints, RSS growth, traced runs and the actor-cost ceiling =="
  python3 scripts/check_pins.py
  python3 scripts/check_rss.py
  for w in $(python3 -c 'import sys; sys.path.insert(0, "perfbench")
import run; print(" ".join(run.WORKLOADS))'); do
    result=$(python3 perfbench/run.py --workload "${w}" --seed 1 --seconds 3 \
      --trace 1 | tail -n 1)
    case "${result}" in
      *'"correct": true'*) echo "traced ${w}: correct" ;;
      *) echo "traced ${w} run is not correct: ${result}"; exit 1 ;;
    esac
  done
  cmake -B build -S . >/dev/null
  cmake --build build -j"$(nproc)" --target bench_scale
  scale_json=$(mktemp)
  ./build/bench/bench_scale --json_out="${scale_json}" >/dev/null
  ratio=$(grep -o '"event_over_actor_1024": [0-9.]*' "${scale_json}" |
    grep -o '[0-9.]*$')
  rm -f "${scale_json}"
  echo "event_over_actor_1024 = ${ratio} (ceiling 25)"
  awk -v r="${ratio}" 'BEGIN { exit !(r != "" && r <= 25.0) }' \
    || { echo "1024-node event/actor packet-rate ratio ${ratio}x > 25x"; exit 1; }
fi

echo "All checks passed."
