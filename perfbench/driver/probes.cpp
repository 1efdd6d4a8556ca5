// Layer probes. Each drives one layer alone through its public functions,
// so the per-unit cost of adjacent layers can be compared: an engine event,
// an actor handoff, a fabric packet, and a packet through the LAPI transport
// stack (SendEngine/ReliableChannel + AssemblyEngine) on a wire local to
// this file, with no fabric, Context or actor underneath.
#include <array>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/cost_model.hpp"
#include "base/pool.hpp"
#include "common.hpp"
#include "lapi/assembly.hpp"
#include "lapi/progress.hpp"
#include "lapi/protocol.hpp"
#include "lapi/reliable.hpp"
#include "net/delivery.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using namespace splap;

constexpr int kReps = 5;

/// Attempted/failed bookkeeping for probe self-checks.
void expect(Result& r, bool ok, const char* what) {
  ++r.attempted;
  if (!ok) {
    ++r.failed;
    if (r.errors.size() < 16) r.errors.push_back(std::string("probe: ") + what);
  }
}

double event_ns(Result& r) {
  constexpr int kEvents = 200000;
  sim::Engine eng;
  std::int64_t fired = 0;
  const std::int64_t t = wall_ns();
  for (int i = 0; i < kEvents; ++i) eng.schedule_at(i, [&fired] { ++fired; });
  const Status st = eng.run();
  const std::int64_t dt = wall_ns() - t;
  expect(r, st == Status::kOk && fired == kEvents, "engine events");
  return static_cast<double>(dt) / kEvents;
}

double handoff_ns(Result& r) {
  constexpr int kSwitches = 20000;
  sim::Engine eng;
  int done = 0;
  eng.spawn("probe", [&done](sim::Actor& self) {
    for (int i = 0; i < kSwitches; ++i) {
      self.compute(microseconds(1));
      ++done;
    }
  });
  const std::int64_t t = wall_ns();
  const Status st = eng.run();
  const std::int64_t dt = wall_ns() - t;
  expect(r, st == Status::kOk && done == kSwitches, "actor handoffs");
  return static_cast<double>(dt) / kSwitches;
}

double packet_ns(Result& r) {
  constexpr int kPackets = 20000;
  net::Machine::Config mc;
  mc.tasks = 2;
  net::Machine m(mc);
  std::int64_t delivered = 0;  // node 1's
  m.node(1).adapter().register_client(
      net::Client::kLapi, [&delivered](net::Packet&&) { ++delivered; });
  m.engine().schedule_at(0, [&m] {
    for (int i = 0; i < kPackets; ++i) {
      net::Packet p = m.fabric().make_packet();
      p.src = 0;
      p.dst = 1;
      p.client = net::Client::kLapi;
      p.header_bytes = 48;
      p.data.resize(976);
      m.fabric().transmit(std::move(p));
    }
  });
  const std::int64_t t = wall_ns();
  const Status st = m.engine().run();
  const std::int64_t dt = wall_ns() - t;
  expect(r, st == Status::kOk && delivered == kPackets, "fabric packets");
  return static_cast<double>(dt) / kPackets;
}

/// Two-endpoint wire with a fixed latency: packets arrive in transmit order,
/// so one FIFO and a capture-free thunk per packet carry them.
class ProbeWire final : public net::Delivery {
 public:
  ProbeWire(sim::Engine& eng, const CostModel& cm)
      : eng_(eng), pool_(static_cast<std::size_t>(cm.packet_bytes), 256) {}

  void connect(int id, lapi::ProgressEngine* p) {
    eps_[static_cast<std::size_t>(id)] = p;
  }
  std::int64_t packets() const { return packets_; }

  net::Packet make_packet() override {
    net::Packet p;
    p.data = net::Payload(&pool_);
    return p;
  }
  Time link_free(int /*src*/) const override { return eng_.now(); }
  void transmit(net::Packet&& pkt) override {
    ++packets_;
    inflight_.push_back(std::move(pkt));
    eng_.schedule_thunk(eng_.now() + microseconds(1), &ProbeWire::arrive, this);
  }

 private:
  static void arrive(void* self) {
    auto* w = static_cast<ProbeWire*>(self);
    net::Packet p = std::move(w->inflight_.front());
    w->inflight_.pop_front();
    w->eps_[static_cast<std::size_t>(p.dst)]->on_delivery(std::move(p));
  }

  sim::Engine& eng_;
  SlabBufferPool pool_;  // outlives inflight_ (declared first)
  std::deque<net::Packet> inflight_;
  std::array<lapi::ProgressEngine*, 2> eps_{};
  std::int64_t packets_ = 0;
};

/// One task's transport stack without the Context facade: the demux of
/// Context::process_packet and an Env that only Put traffic never calls.
class ProbeEndpoint final : public lapi::ProgressEngine::Sink,
                            public lapi::AssemblyEngine::Env {
 public:
  ProbeEndpoint(sim::Engine& eng, const CostModel& cm, ProbeWire& wire, int id,
                const lapi::Config& cfg)
      : progress_(eng, cm, *this, /*interrupt_mode=*/true),
        send_(wire, progress_, id, cfg, /*checksums=*/false),
        assembly_(wire, progress_, *this, id, cfg, /*verify_checksums=*/false) {
    wire.connect(id, &progress_);
  }

  lapi::SendEngine& send() { return send_; }
  std::int64_t unexpected() const { return unexpected_; }

 private:
  Time process_packet(net::Packet& pkt) override {
    const lapi::WireMeta& m = pkt.meta_as<lapi::WireMeta>();
    send_.note_heard(pkt.src);
    switch (m.kind) {
      case lapi::PktKind::kAck: return send_.on_ack(pkt);
      case lapi::PktKind::kRmwResp: return send_.on_rmw_resp(pkt);
      case lapi::PktKind::kNack: return send_.on_nack(pkt);
      case lapi::PktKind::kCredit: return send_.on_credit(pkt);
      default: return assembly_.process(pkt);
    }
  }
  lapi::AmReply run_handler(lapi::AmHandlerId, const lapi::AmDelivery&) override {
    ++unexpected_;
    return {};
  }
  void run_completion(const std::function<void(lapi::Context&, sim::Actor&)>&,
                      sim::Actor&) override {
    ++unexpected_;
  }
  void submit_completion(std::function<void(sim::Actor&)>) override {
    ++unexpected_;
  }
  Status send_get_reply(int, std::shared_ptr<lapi::WireMeta>,
                        std::shared_ptr<std::vector<std::byte>>) override {
    ++unexpected_;
    return Status::kOk;
  }
  void note_get_reply() override {}

  lapi::ProgressEngine progress_;
  lapi::SendEngine send_;
  lapi::AssemblyEngine assembly_;
  std::int64_t unexpected_ = 0;
};

double lapi_pkt_ns(Result& r) {
  constexpr int kPuts = 64;
  constexpr std::size_t kLen = 64 << 10;
  sim::Engine eng;
  const CostModel cm;
  ProbeWire wire(eng, cm);
  const lapi::Config cfg;
  ProbeEndpoint origin(eng, cm, wire, 0, cfg);
  ProbeEndpoint target(eng, cm, wire, 1, cfg);
  auto payload = std::make_shared<std::vector<std::byte>>(kLen);
  fill_bytes(payload->data(), kLen, 0x9b0be);
  std::vector<std::byte> dst(kLen * kPuts);
  eng.schedule_at(0, [&] {
    for (int i = 0; i < kPuts; ++i) {
      auto hdr = std::make_shared<lapi::WireMeta>();
      hdr->tgt_addr = dst.data() + static_cast<std::size_t>(i) * kLen;
      hdr->total_len = static_cast<std::int64_t>(kLen);
      origin.send().submit(lapi::PktKind::kPutHdr, 1, hdr, payload, 0);
    }
  });
  const std::int64_t t = wall_ns();
  const Status st = eng.run();
  const std::int64_t dt = wall_ns() - t;
  bool ok = st == Status::kOk && origin.send().pending_sends() == 0 &&
            origin.unexpected() == 0 && target.unexpected() == 0;
  for (int i = 0; ok && i < kPuts; ++i) {
    ok = std::memcmp(dst.data() + static_cast<std::size_t>(i) * kLen,
                     payload->data(), kLen) == 0;
  }
  expect(r, ok, "transport stack puts");
  return static_cast<double>(dt) / static_cast<double>(wire.packets());
}

double median_of_reps(Result& r, double (*probe)(Result&)) {
  std::vector<double> v;
  for (int k = 0; k < kReps; ++k) v.push_back(probe(r));
  return median(std::move(v));
}

}  // namespace

void run_probes(Result& r) {
  r.metric("sim.event_ns", median_of_reps(r, event_ns), "ns");
  r.metric("sim.handoff_ns", median_of_reps(r, handoff_ns), "ns");
  r.metric("net.packet_ns", median_of_reps(r, packet_ns), "ns");
  r.metric("lapi.pkt_ns", median_of_reps(r, lapi_pkt_ns), "ns");
}

}  // namespace perfbench
