// splap_perfbench: runs one benchmark workload and prints its raw result as
// one JSON object on the last line of stdout. perfbench/run.py builds this
// binary, checks the result against the pinned fingerprints and prints the
// benchmark's result line; see perfbench/NOTES.md.
//
//   splap_perfbench --workload lapi_msg|lapi_bulk|ga_app --seed N
//                   --seconds S --trace 0|1 [--rounds N] [--setups N]
//                   [--trace-out PATH]
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace perfbench {
namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

/// Where and how this result was measured. The engine's handoff spin policy
/// reads hardware_concurrency(), not the affinity mask, so both are kept:
/// together they explain a pinned host's numbers.
std::string host_record() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
#ifdef SPLAP_AUDIT
  const bool audit = true;
#else
  const bool audit = false;
#endif
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPLAP_", 6) == 0) env.emplace_back(*e);
  }
  const bool optimized = build == "Release" || build == "RelWithDebInfo";
  const bool comparable = optimized && std::strcmp(sanitizer(), "none") == 0 &&
                          !audit && env.empty();
  std::string s = "{\"hardware_threads\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"affinity_cpus\": " + std::to_string(affinity) +
                  ", \"build_type\": " + json_str(build) +
                  ", \"sanitizer\": " + json_str(sanitizer()) +
                  ", \"splap_audit\": " + (audit ? "true" : "false") +
                  ", \"splap_env\": [";
  for (std::size_t i = 0; i < env.size(); ++i) {
    s += (i > 0 ? ", " : "") + json_str(env[i]);
  }
  return s + "], \"comparable\": " + (comparable ? "true" : "false") + "}";
}

std::string result_json(const Options& o, const Result& r) {
  std::string s = "{\"workload\": " + json_str(o.workload) +
                  ", \"seed\": " + std::to_string(o.seed) +
                  ", \"trace\": " + (o.trace ? "1" : "0") +
                  ", \"host\": " + host_record() +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"spans_dropped\": " + std::to_string(r.spans_dropped) +
                  ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    s += (i > 0 ? ", " : "") + json_str(r.errors[i]);
  }
  s += "], \"fingerprints\": {";
  for (std::size_t i = 0; i < r.fingerprints.size(); ++i) {
    const auto& [name, f] = r.fingerprints[i];
    s += (i > 0 ? ", " : "") + json_str(name) +
         ": {\"vt_ns\": " + std::to_string(f.vt_ns) +
         ", \"events\": " + std::to_string(f.events) +
         ", \"packets\": " + std::to_string(f.packets) +
         ", \"retransmits\": " + std::to_string(f.retransmits) + "}";
  }
  s += "}, \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, m] = r.metrics[i];
    s += (i > 0 ? ", " : "") + json_str(name) +
         ": {\"value\": " + json_num(m.value) +
         ", \"unit\": " + json_str(m.unit) + "}";
  }
  return s + "}}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "splap_perfbench: %s\nusage: splap_perfbench --workload "
               "lapi_msg|lapi_bulk|ga_app --seed N --seconds S --trace 0|1 "
               "[--rounds N] [--setups N] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      o.trace = std::strtol(v, &end, 10) != 0;
    } else if (flag == "--rounds") {
      o.rounds = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--setups") {
      o.setups = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0) || o.rounds < 0 || o.setups < 0) usage("bad run length");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  Result r;
  if (o.workload == "lapi_msg") {
    r = run_lapi_msg(o);
  } else if (o.workload == "lapi_bulk") {
    r = run_lapi_bulk(o);
  } else if (o.workload == "ga_app") {
    r = run_ga_app(o);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  if (o.trace) run_probes(r);
  std::printf("%s\n", result_json(o, r).c_str());
  return 0;
}
