// Failure-detector benchmark: detection latency and false-positive behaviour
// of the legacy fixed-miss keepalive versus the adaptive accrual detector.
//
// Two scenario families, each run once per detector mode:
//
//   crash       the peer really dies (kill_node) mid-conversation; we report
//               the virtual time from the crash instant to the observer's
//               error handler firing. Both detectors must converge; the
//               interesting number is how fast.
//
//   straggler   the peer's adapter slows down by a multiplier for a 2.2 ms
//               window but never dies. A kill verdict here is by definition
//               a false positive. The sweep over severities (x1 control,
//               x8, x30, x120) traces out each detector's false-positive
//               curve: the fixed-miss rule kills anything slower than its
//               miss budget, while the accrual estimator widens its silence
//               tolerance with observed jitter and only escalates when the
//               peer leaves its own historical envelope.
//
// All numbers are virtual-time deterministic (fixed seeds, no wall clock in
// the measured path), so runs are reproducible byte-for-byte. Emits
// BENCH_detector.json (override with --json_out=PATH); scripts/
// golden_check.sh diffs it against tests/golden/detector.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lapi/context.hpp"
#include "net/machine.hpp"
#include "sim/sync.hpp"

namespace {

using namespace splap;

struct RunResult {
  std::string name;
  const char* mode = "";       // "legacy" | "accrual"
  const char* scenario = "";   // "crash" | "straggler"
  int multiplier = 1;          // straggler severity (1 = control)
  double detection_latency_us = -1;  // crash runs only
  std::int64_t false_kills = 0;      // straggler runs: handler calls
  std::int64_t suspected = 0;
  std::int64_t healed = 0;
  std::int64_t probes = 0;
  std::int64_t completed_puts = 0;
};

lapi::Config detector_config(bool legacy) {
  lapi::Config cfg;
  cfg.keepalive_interval = microseconds(25);
  cfg.keepalive_legacy = legacy;
  // A generous retry ladder so the keepalive path, not retransmit
  // exhaustion, is the detector under test — but still bounded: the ladder
  // doubles, so the cumulative ladder is ~2^retries * rto and a false kill
  // of a peer that then never answers must not stretch virtual time (and
  // the 25 us keepalive tick count) into the stratosphere.
  cfg.retransmit_timeout = microseconds(100);
  cfg.max_retries = 12;
  return cfg;
}

/// The peer crashes at t=300us while the observer has a put in flight.
/// Reported latency: crash instant -> error handler.
RunResult run_crash(bool legacy) {
  constexpr Time kCrashAt = microseconds(300);
  RunResult r;
  r.mode = legacy ? "legacy" : "accrual";
  r.scenario = "crash";
  r.name = std::string(r.mode) + "_crash";

  net::Machine::Config mc;
  mc.tasks = 2;
  mc.fabric.seed = 977;
  net::Machine m(mc);
  m.kill_node(1, kCrashAt);

  Time detected = -1;
  std::vector<std::byte> tgt(512);
  (void)m.run_spmd([&](net::Node& n) {
    lapi::Config cfg;
    if (n.id() == 0) {
      cfg = detector_config(legacy);
      cfg.error_handler = [&](lapi::Context& c, int, Status) {
        if (detected < 0) detected = c.engine().now();
      };
    }
    lapi::Context ctx(n, cfg);
    if (n.id() == 0) {
      std::vector<std::byte> src(512, std::byte{0x2B});
      // Warm the estimator with a steady rhythm before the crash.
      for (int i = 0; i < 8; ++i) {
        lapi::Counter cmpl;
        (void)ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl);
        (void)ctx.waitcntr(cmpl, 1);
        sim::Actor::current()->compute(microseconds(15));
      }
      // One put straddling the crash keeps the keepalive armed.
      lapi::Counter cmpl;
      (void)ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl);
      while (!ctx.peer_failed(1)) {
        sim::Actor::current()->compute(microseconds(10));
      }
      (void)ctx.waitcntr(cmpl, 1);
    } else {
      sim::Actor::current()->compute(milliseconds(20.0));
    }
  });

  r.detection_latency_us =
      detected < 0 ? -1 : static_cast<double>(detected - kCrashAt) / 1000.0;
  r.probes = m.engine().counters().get("lapi.keepalive_probes");
  r.suspected = m.engine().counters().get("lapi.peer_suspected");
  r.healed = m.engine().counters().get("lapi.peer_healed");
  return r;
}

/// The peer's adapter runs `multiplier`x slow for [400us, 2600us) but stays
/// alive; every kill verdict is a false positive.
RunResult run_straggler(bool legacy, int multiplier) {
  constexpr int kPuts = 40;
  RunResult r;
  r.mode = legacy ? "legacy" : "accrual";
  r.scenario = "straggler";
  r.multiplier = multiplier;
  r.name = std::string(r.mode) + "_straggler_x" + std::to_string(multiplier);

  net::Machine::Config mc;
  mc.tasks = 2;
  mc.fabric.seed = 977;
  if (multiplier > 1) {
    net::Straggler slow;
    slow.node = 1;
    slow.multiplier = multiplier;
    slow.from = microseconds(400);
    slow.until = microseconds(2600);
    mc.fabric.fault.stragglers.push_back(slow);
  }
  net::Machine m(mc);

  std::int64_t kills = 0;
  std::int64_t completed = 0;
  std::vector<std::byte> tgt(512);
  (void)m.run_spmd([&](net::Node& n) {
    lapi::Config cfg;
    if (n.id() == 0) {
      cfg = detector_config(legacy);
      cfg.error_handler = [&](lapi::Context&, int, Status) { ++kills; };
    }
    lapi::Context ctx(n, cfg);
    if (n.id() == 0) {
      std::vector<std::byte> src(512, std::byte{0x6C});
      for (int i = 0; i < kPuts; ++i) {
        lapi::Counter cmpl;
        if (ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl) != Status::kOk)
          continue;
        if (ctx.waitcntr(cmpl, 1) == Status::kOk) ++completed;
        sim::Actor::current()->compute(microseconds(10));
      }
      sim::Actor::current()->compute(milliseconds(3.0));
    } else {
      // The subject must outlive the observer's whole loop (the straggle
      // window leaves an adapter backlog that stretches the put pace long
      // after it closes); if it terms with a put in flight the observer
      // detects a real death and the false-positive count is polluted.
      sim::Actor::current()->compute(milliseconds(100.0));
    }
  });

  r.false_kills = kills;
  r.completed_puts = completed;
  r.suspected = m.engine().counters().get("lapi.peer_suspected");
  r.healed = m.engine().counters().get("lapi.peer_healed");
  r.probes = m.engine().counters().get("lapi.keepalive_probes");
  return r;
}

bool write_json(const std::string& path, const std::vector<RunResult>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"splap-detector-v1\",\n");
  std::fprintf(f, "  \"binary\": \"bench_detector\",\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"mode\": \"%s\", \"scenario\": \"%s\", "
        "\"multiplier\": %d, \"detection_latency_us\": %.1f, "
        "\"false_kills\": %lld, \"suspected\": %lld, \"healed\": %lld, "
        "\"probes\": %lld, \"completed_puts\": %lld}%s\n",
        r.name.c_str(), r.mode, r.scenario, r.multiplier,
        r.detection_latency_us, static_cast<long long>(r.false_kills),
        static_cast<long long>(r.suspected), static_cast<long long>(r.healed),
        static_cast<long long>(r.probes),
        static_cast<long long>(r.completed_puts),
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_detector.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) json_path = argv[i] + 11;
  }

  std::vector<RunResult> runs;
  for (const bool legacy : {true, false}) {
    RunResult r = run_crash(legacy);
    std::printf("%-24s detection latency %8.1f us  (%lld probes)\n",
                r.name.c_str(), r.detection_latency_us,
                static_cast<long long>(r.probes));
    runs.push_back(std::move(r));
  }
  for (const int mult : {1, 8, 30, 120}) {
    for (const bool legacy : {true, false}) {
      RunResult r = run_straggler(legacy, mult);
      std::printf(
          "%-24s false kills %3lld  suspected %3lld  healed %3lld  "
          "completed %2lld/40\n",
          r.name.c_str(), static_cast<long long>(r.false_kills),
          static_cast<long long>(r.suspected),
          static_cast<long long>(r.healed),
          static_cast<long long>(r.completed_puts));
      runs.push_back(std::move(r));
    }
  }

  if (!write_json(json_path, runs)) {
    std::fprintf(stderr, "bench_detector: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}
