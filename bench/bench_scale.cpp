// Engine scale-out benchmark: events/sec and packets/sec versus node count,
// actor driver versus event driver, with the identical virtual traffic
// pattern in both. These are meta-benchmarks of the simulator, answering
// the question: how many simulated SP nodes can one process drive, and what
// does an actor cost over a bare event?
//
// Traffic: every node sends `kPacketsPerNode` full packets to its right
// neighbour, one per simulated microsecond. The actor driver runs one actor
// per node that paces with Actor::compute (two fiber switches per packet);
// the event driver paces with a self-rescheduling event chain per node.
// Virtual timelines are identical; the wall-clock gap is pure
// actor-machinery overhead.
//
// Emits BENCH_scale.json (override with --json_out=PATH).
// scripts/golden_check.sh pins its run names and schema tag; the 1024-node
// event-over-actor ceiling is checked by `scripts/check.sh perf`.
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

struct EventDrv {
  int id = 0;
  int left = kPacketsPerNode;
};

void event_step(net::Machine& m, EventDrv* d, int nodes) {
  send_one(m, d->id, nodes);
  if (--d->left > 0) {
    m.engine().schedule_at_on(m.engine().now() + microseconds(1), d->id,
                              [&m, d, nodes] { event_step(m, d, nodes); });
  }
}

/// One full scenario: construct drivers, run to completion, report rates.
/// The timed region includes driver setup — stack mapping is part of what
/// an actor per node costs at scale.
RunResult run_scenario(int nodes, bool actors) {
  RunResult r;
  r.nodes = nodes;
  r.driver = actors ? "actor" : "event";
  r.name = std::string(r.driver) + "_" + std::to_string(nodes);

  net::Machine::Config mc;
  mc.tasks = nodes;
  net::Machine m(mc);

  std::int64_t delivered = 0;
  for (int i = 0; i < nodes; ++i) {
    m.node(i).adapter().register_client(net::Client::kLapi,
                                        [&](net::Packet&&) { ++delivered; });
  }

  std::vector<EventDrv> drvs;
  const auto t0 = std::chrono::steady_clock::now();
  if (actors) {
    for (int i = 0; i < nodes; ++i) {
      m.engine().spawn_on(i, "drv" + std::to_string(i),
                          [&m, i, nodes](sim::Actor& self) {
                            for (int k = 0; k < kPacketsPerNode; ++k) {
                              self.compute(microseconds(1));
                              send_one(m, i, nodes);
                            }
                          });
    }
  } else {
    drvs.resize(static_cast<std::size_t>(nodes));
    for (int i = 0; i < nodes; ++i) {
      EventDrv* d = &drvs[static_cast<std::size_t>(i)];
      d->id = i;
      m.engine().schedule_at_on(microseconds(1), i,
                                [&m, d, nodes] { event_step(m, d, nodes); });
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
                double event_over_actor_1024) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"splap-scale-v3\",\n");
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
  std::fprintf(f, "  \"event_over_actor_1024\": %.2f\n}\n",
               event_over_actor_1024);
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
  double actor_1024 = 0;
  double event_1024 = 0;
  for (const int nodes : {64, 256, 1024}) {
    for (const bool actors : {true, false}) {
      RunResult r = run_scenario(nodes, actors);
      std::printf("%-20s %5d nodes  %8.1f ms  %12.0f events/s  %12.0f pkts/s\n",
                  r.name.c_str(), r.nodes, r.wall_ms, r.events_per_second,
                  r.packets_per_second);
      if (nodes == 1024) {
        (actors ? actor_1024 : event_1024) = r.packets_per_second;
      }
      runs.push_back(std::move(r));
    }
  }
  const double ratio = event_1024 / actor_1024;
  std::printf("1024-node event vs actor packet throughput: %.1fx\n", ratio);
  if (!write_json(json_path, runs, ratio)) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}
