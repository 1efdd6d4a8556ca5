// Engine scale-out benchmark: events/sec and packets/sec versus node count,
// thread-per-actor driver versus stackless (handler-mode) driver, with the
// identical virtual traffic pattern in both. These are meta-benchmarks of
// the simulator (like bench_engine_perf), answering the ROADMAP item-4
// question: how many simulated SP nodes can one process drive?
//
// Traffic: every node sends `kPacketsPerNode` full packets to its right
// neighbour, one per simulated microsecond. The threaded driver paces with
// Actor::compute (two OS-thread handoffs per packet — the cost this PR's
// stackless actors eliminate); the stackless driver paces with a
// self-rescheduling event chain that transmits under the node's stackless
// identity actor. Virtual timelines are identical; the wall-clock gap is
// pure actor-machinery overhead.
//
// Emits BENCH_scale.json (override with --json_out=PATH), pinned by
// scripts/golden_check.sh: run names, the schema tag, and the 1024-node
// stackless-vs-threaded speedup floor are all checked there.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/machine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace splap;

constexpr int kPacketsPerNode = 50;

struct RunResult {
  std::string name;
  int nodes = 0;
  const char* driver = "";
  std::int64_t packets = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
  double events_per_second = 0;
  double packets_per_second = 0;
};

void send_one(net::Machine& m, int src, int nodes) {
  net::Packet p = m.fabric().make_packet();
  p.src = src;
  p.dst = (src + 1) % nodes;
  p.client = net::Client::kLapi;
  p.header_bytes = 48;
  p.data.resize(976);
  m.fabric().transmit(std::move(p));
}

struct StacklessDrv {
  sim::Actor* actor = nullptr;
  int id = 0;
  int left = kPacketsPerNode;
};

void stackless_step(net::Machine& m, StacklessDrv* d, int nodes) {
  d->actor->run_inline(
      [&m, d, nodes](sim::Actor&) { send_one(m, d->id, nodes); });
  if (--d->left > 0) {
    m.engine().schedule_at_on(m.engine().now() + microseconds(1), d->id,
                              [&m, d, nodes] { stackless_step(m, d, nodes); });
  }
}

/// One full scenario: construct drivers, run to completion, report rates.
/// The timed region includes driver setup — thread creation is part of what
/// the thread-per-actor model costs at scale.
RunResult run_scenario(int nodes, bool stackless) {
  RunResult r;
  r.nodes = nodes;
  r.driver = stackless ? "stackless" : "threaded";
  r.name = std::string(r.driver) + "_" + std::to_string(nodes);

  net::Machine::Config mc;
  mc.tasks = nodes;
  net::Machine m(mc);

  std::int64_t delivered = 0;
  for (int i = 0; i < nodes; ++i) {
    m.node(i).adapter().register_client(net::Client::kLapi,
                                        [&](net::Packet&&) { ++delivered; });
  }

  std::vector<StacklessDrv> drvs;
  const auto t0 = std::chrono::steady_clock::now();
  if (stackless) {
    drvs.resize(static_cast<std::size_t>(nodes));
    for (int i = 0; i < nodes; ++i) {
      StacklessDrv* d = &drvs[static_cast<std::size_t>(i)];
      d->id = i;
      d->actor = &m.engine().spawn_stackless(
          i, "drv" + std::to_string(i), nullptr);
      m.engine().schedule_at_on(microseconds(1), i,
                                [&m, d, nodes] { stackless_step(m, d, nodes); });
    }
  } else {
    for (int i = 0; i < nodes; ++i) {
      m.engine().spawn_on(i, "drv" + std::to_string(i),
                          [&m, i, nodes](sim::Actor& self) {
                            for (int k = 0; k < kPacketsPerNode; ++k) {
                              self.compute(microseconds(1));
                              send_one(m, i, nodes);
                            }
                          });
    }
  }
  (void)m.engine().run();
  const auto t1 = std::chrono::steady_clock::now();

  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  r.packets = m.fabric().packets_sent();
  r.events = m.engine().events_executed();
  r.wall_ms = wall_s * 1e3;
  r.events_per_second = static_cast<double>(r.events) / wall_s;
  r.packets_per_second = static_cast<double>(r.packets) / wall_s;
  SPLAP_REQUIRE(delivered == static_cast<std::int64_t>(nodes) * kPacketsPerNode,
                "scale bench lost packets");
  return r;
}

bool write_json(const std::string& path, const std::vector<RunResult>& runs,
                double speedup_1024) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"splap-scale-v2\",\n");
  std::fprintf(f, "  \"binary\": \"bench_scale\",\n");
  std::fprintf(f, "  \"packets_per_node\": %d,\n", kPacketsPerNode);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"nodes\": %d, \"driver\": \"%s\", "
                 "\"packets\": %lld, "
                 "\"events\": %llu, \"wall_ms\": %.3f, "
                 "\"events_per_second\": %.1f, "
                 "\"packets_per_second\": %.1f}%s\n",
                 r.name.c_str(), r.nodes, r.driver,
                 static_cast<long long>(r.packets),
                 static_cast<unsigned long long>(r.events), r.wall_ms,
                 r.events_per_second, r.packets_per_second,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_1024\": %.2f\n}\n", speedup_1024);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) json_path = argv[i] + 11;
  }

  std::vector<RunResult> runs;
  double threaded_1024 = 0;
  double stackless_1024 = 0;
  for (const int nodes : {64, 256, 1024}) {
    for (const bool stackless : {false, true}) {
      RunResult r = run_scenario(nodes, stackless);
      std::printf("%-20s %5d nodes  %8.1f ms  %12.0f events/s  %12.0f pkts/s\n",
                  r.name.c_str(), r.nodes, r.wall_ms, r.events_per_second,
                  r.packets_per_second);
      if (nodes == 1024) {
        (stackless ? stackless_1024 : threaded_1024) = r.packets_per_second;
      }
      runs.push_back(std::move(r));
    }
  }
  const double speedup = stackless_1024 / threaded_1024;
  std::printf("1024-node stackless vs threaded packet throughput: %.1fx\n",
              speedup);
  if (!write_json(json_path, runs, speedup)) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}
