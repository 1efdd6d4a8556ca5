// Transport-layer unit tests: the reliable-delivery core and the assembly
// engine exercised in isolation, below the Context facade.
//
// Part A drives lapi::ReliableChannel against a mock Sender on a bare
// sim::Engine: backoff doubling, the rto_max clamp, stale-timer suppression
// (reclaimed records and generation invalidation), settled-record silence,
// and the Jacobson/Karn RTO estimator arithmetic.
//
// Part B wires ProgressEngine + SendEngine + AssemblyEngine to a scripted
// fake wire (net::Delivery) that injects loss, reordering, duplication and
// payload corruption — proving the layers deliver exactly-once without a
// net::Machine, a Context, or any actor, which is the point of the layering.
// The same stack checks the corroboration rule for gossiped accrual
// verdicts.
//
// Part C checks the ProgressEngine contract both libraries run on: deferred
// effects and the lifetime token, the term() quiesce, and the two packet
// entries (LAPI's arrival rule against MPL's rule-free enqueue).
//
// Deliberately does NOT include lapi/context.hpp: the layering lint forbids
// the transport layers (and their tests) from seeing the facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "base/cost_model.hpp"
#include "base/time.hpp"
#include "lapi/assembly.hpp"
#include "lapi/progress.hpp"
#include "lapi/protocol.hpp"
#include "lapi/reliable.hpp"
#include "lapi/types.hpp"
#include "net/delivery.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace splap::lapi {
namespace {

// ===========================================================================
// Part A: ReliableChannel against a mock sender
// ===========================================================================

class MockSender : public ReliableChannel::Sender {
 public:
  std::map<std::int64_t, RetryState> records;
  std::set<std::int64_t> settled_ids;
  std::vector<std::pair<Time, std::int64_t>> resends;  // (virtual time, id)
  std::vector<std::int64_t> gave_up;

  explicit MockSender(sim::Engine& eng) : eng_(eng) {}

  RetryState* retry_state(std::int64_t id) override {
    auto it = records.find(id);
    return it == records.end() ? nullptr : &it->second;
  }
  bool settled(std::int64_t id) override {
    return settled_ids.count(id) != 0;
  }
  void retransmit(std::int64_t id) override {
    resends.emplace_back(eng_.now(), id);
  }
  void give_up(std::int64_t id) override { gave_up.push_back(id); }

 private:
  sim::Engine& eng_;
};

struct ChannelFixture {
  sim::Engine eng;
  MockSender sender{eng};
  std::shared_ptr<char> alive = std::make_shared<char>();

  ReliableChannel make(RetryPolicy policy) {
    return ReliableChannel(eng, sender, policy, "test", /*jitter_seed=*/0,
                           alive);
  }
};

TEST(ReliableChannelTest, BackoffDoublesThenGivesUp) {
  ChannelFixture f;
  RetryPolicy p;
  p.base_rto = microseconds(100);
  p.max_retries = 3;
  ReliableChannel ch = f.make(p);
  f.sender.records[7];  // one armed record, never acked
  ch.arm(7, p.base_rto);
  ASSERT_EQ(f.eng.run(), Status::kOk);
  // Unclamped doubling: fires at 100, 300 (100+200), 700 (+400) us; the
  // fourth timer at 1500 us finds the budget exhausted and gives up.
  ASSERT_EQ(f.sender.resends.size(), 3u);
  EXPECT_EQ(f.sender.resends[0].first, microseconds(100));
  EXPECT_EQ(f.sender.resends[1].first, microseconds(300));
  EXPECT_EQ(f.sender.resends[2].first, microseconds(700));
  ASSERT_EQ(f.sender.gave_up, std::vector<std::int64_t>{7});
  EXPECT_EQ(f.eng.counters().get("test.retransmits"), 3);
  EXPECT_EQ(f.eng.counters().get("test.retransmit_giveup"), 1);
}

TEST(ReliableChannelTest, ClampCapsTheDoubling) {
  ChannelFixture f;
  RetryPolicy p;
  p.base_rto = microseconds(100);
  p.max_retries = 3;
  p.clamp_backoff = true;
  p.rto_max = microseconds(150);
  ReliableChannel ch = f.make(p);
  f.sender.records[1];
  ch.arm(1, p.base_rto);
  ASSERT_EQ(f.eng.run(), Status::kOk);
  // Every post-retry delay is min(2 * delay, 150us): 100, 250, 400 us.
  ASSERT_EQ(f.sender.resends.size(), 3u);
  EXPECT_EQ(f.sender.resends[0].first, microseconds(100));
  EXPECT_EQ(f.sender.resends[1].first, microseconds(250));
  EXPECT_EQ(f.sender.resends[2].first, microseconds(400));
}

TEST(ReliableChannelTest, SettledRecordIsSilent) {
  ChannelFixture f;
  ReliableChannel ch = f.make(RetryPolicy{});
  f.sender.records[3];
  f.sender.settled_ids.insert(3);
  ch.arm(3, microseconds(100));
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_TRUE(f.sender.resends.empty());
  EXPECT_TRUE(f.sender.gave_up.empty());
  EXPECT_EQ(f.eng.counters().get("test.retransmits"), 0);
  EXPECT_EQ(f.eng.counters().get("test.stale_timeouts"), 0);
}

TEST(ReliableChannelTest, ReclaimedRecordCountsStale) {
  ChannelFixture f;
  ReliableChannel ch = f.make(RetryPolicy{});
  f.sender.records[5];
  ch.arm(5, microseconds(100));
  f.sender.records.erase(5);  // acked-and-erased before the timer fires
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_TRUE(f.sender.resends.empty());
  EXPECT_EQ(f.eng.counters().get("test.stale_timeouts"), 1);
}

TEST(ReliableChannelTest, ReArmInvalidatesTheOlderTimer) {
  ChannelFixture f;
  RetryPolicy p;
  p.base_rto = microseconds(100);
  p.max_retries = 0;  // the live timer goes straight to give-up
  ReliableChannel ch = f.make(p);
  f.sender.records[9];
  ch.arm(9, microseconds(100));
  ch.arm(9, microseconds(500));  // newer generation owns the record now
  ASSERT_EQ(f.eng.run(), Status::kOk);
  // The 100us timer sees a generation mismatch and must not act; only the
  // 500us timer reaches the retry logic (which immediately gives up).
  EXPECT_TRUE(f.sender.resends.empty());
  EXPECT_EQ(f.eng.counters().get("test.stale_timeouts"), 1);
  ASSERT_EQ(f.sender.gave_up, std::vector<std::int64_t>{9});
}

TEST(ReliableChannelTest, ExpiredLifetimeTokenCancelsTimers) {
  ChannelFixture f;
  ReliableChannel ch = f.make(RetryPolicy{});
  f.sender.records[2];
  ch.arm(2, microseconds(100));
  f.alive.reset();  // owner tore down; the pending timer must be inert
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_TRUE(f.sender.resends.empty());
  EXPECT_EQ(f.eng.counters().get("test.stale_timeouts"), 0);
}

TEST(ReliableChannelTest, JacobsonEstimatorArithmetic) {
  ChannelFixture f;
  RetryPolicy p;
  p.base_rto = milliseconds(4.0);
  p.adaptive = true;
  p.rto_min = microseconds(150);
  p.rto_max = milliseconds(250.0);
  ReliableChannel ch = f.make(p);
  // No samples yet: the pre-estimate timeout is the configured base.
  EXPECT_EQ(ch.initial_rto(), milliseconds(4.0));
  ch.on_rtt_sample(milliseconds(1.0));
  // First sample: SRTT = sample, RTTVAR = sample/2 -> RTO = 1ms + 4*0.5ms.
  EXPECT_EQ(ch.srtt(), milliseconds(1.0));
  EXPECT_EQ(ch.initial_rto(), milliseconds(3.0));
  ch.on_rtt_sample(milliseconds(1.0));
  // Identical sample: SRTT unchanged, RTTVAR decays 3/4 -> RTO = 2.5ms.
  EXPECT_EQ(ch.initial_rto(), microseconds(2500));
  // A non-adaptive channel ignores samples entirely.
  RetryPolicy fixed;
  fixed.base_rto = milliseconds(4.0);
  ReliableChannel fx = f.make(fixed);
  fx.on_rtt_sample(microseconds(10));
  EXPECT_EQ(fx.initial_rto(), milliseconds(4.0));
}

// ===========================================================================
// Part B: the LAPI transport stack on a scripted fake wire
// ===========================================================================

/// A two-endpoint "fabric" with per-scenario fault scripting. Delivers each
/// transmitted packet to the destination's progress engine after a fixed
/// latency; data packets can be dropped, corrupted or duplicated, and header
/// packets can be delayed past their data (reordering).
class FakeWire final : public net::Delivery {
 public:
  explicit FakeWire(sim::Engine& eng) : eng_(eng) {}

  void connect(int id, ProgressEngine* p) { eps_[id] = p; }

  int drop_first_n_data = 0;
  int corrupt_first_n_data = 0;
  bool duplicate_data = false;
  bool drop_credits = false;       // standalone kCredit updates never arrive
  bool duplicate_credits = false;  // every kCredit delivered twice
  bool drop_cancels = false;       // the best-effort kCancel is lost
  Time header_extra_latency = 0;
  Time latency = microseconds(1);

  /// Malformed-header injection: rewrite the wire copy of the first N data
  /// packets' offset to `mangled_offset`, and/or the first Put header's
  /// total_len to -1 — modeling in-flight descriptor corruption that slips
  /// past the link CRC. The target must drop these (lapi.malformed_drop),
  /// never scribble outside the landing buffer.
  int mangle_first_n_data_offsets = 0;
  std::int64_t mangled_offset = std::int64_t{1} << 40;
  bool mangle_header_len = false;

  /// Bounded-RX emulation: when rx_depth > 0 and the destination is in
  /// overflow_to, at most rx_depth packets may be in flight toward it; the
  /// excess is dropped and reported to that endpoint's assembly engine,
  /// exactly as the adapter's overflow hook would.
  int rx_depth = 0;
  std::map<int, AssemblyEngine*> overflow_to;
  int rx_overflows = 0;
  int rx_high_water = 0;

  /// Every packet handed to the wire, by kind (before any fault applies).
  std::map<PktKind, int> sent;
  /// While set, a copy of every transmitted packet is kept in `recorded`,
  /// for replay() to deliver again later as a stale duplicate.
  bool record = false;
  std::vector<net::Packet> recorded;

  net::Packet make_packet() override { return net::Packet{}; }
  Time link_free(int /*src*/) const override { return eng_.now(); }

  /// Deliver a copy of `pkt` again, as the fabric delivers a late duplicate.
  void replay(const net::Packet& pkt) { deliver(clone(pkt), latency); }

  void transmit(net::Packet&& pkt) override {
    const WireMeta& m = pkt.meta_as<WireMeta>();
    ++sent[m.kind];
    if (record) recorded.push_back(clone(pkt));
    const bool is_data = m.kind == PktKind::kData;
    if (is_data && drop_first_n_data > 0) {
      --drop_first_n_data;
      return;  // swallowed by the wire; the origin's timer recovers it
    }
    if (m.kind == PktKind::kCredit && drop_credits) return;
    if (m.kind == PktKind::kCancel && drop_cancels) return;
    if (is_data && corrupt_first_n_data > 0 && !pkt.data.empty()) {
      --corrupt_first_n_data;
      pkt.data.data()[0] ^= std::byte{0x40};
    }
    if (is_data && duplicate_data) deliver(clone(pkt), latency);
    if (m.kind == PktKind::kCredit && duplicate_credits) {
      deliver(clone(pkt), latency);
    }
    Time lat = latency;
    if (m.kind == PktKind::kPutHdr || m.kind == PktKind::kAmHdr) {
      lat += header_extra_latency;
    }
    // Mutations clone the meta: the origin's retransmission copy shares it,
    // and only the wire's copy may be mangled.
    if (is_data && mangle_first_n_data_offsets > 0) {
      --mangle_first_n_data_offsets;
      auto mm = std::make_shared<WireMeta>(m);
      mm->offset = mangled_offset;
      pkt.meta = std::move(mm);
    } else if (m.kind == PktKind::kPutHdr && mangle_header_len) {
      mangle_header_len = false;
      auto mm = std::make_shared<WireMeta>(m);
      mm->total_len = -1;
      pkt.meta = std::move(mm);
    }
    deliver(std::move(pkt), lat);
  }

 private:

  static net::Packet clone(const net::Packet& pkt) {
    net::Packet c;
    c.src = pkt.src;
    c.dst = pkt.dst;
    c.client = pkt.client;
    c.header_bytes = pkt.header_bytes;
    c.meta = pkt.meta;
    c.data.assign(pkt.data.data(), pkt.data.data() + pkt.data.size());
    return c;
  }

  void deliver(net::Packet&& pkt, Time lat) {
    auto of = overflow_to.find(pkt.dst);
    const bool bounded = rx_depth > 0 && of != overflow_to.end();
    if (bounded) {
      int& occ = rx_occ_[pkt.dst];
      if (occ >= rx_depth) {
        ++rx_overflows;
        of->second->on_overflow(pkt);
        return;
      }
      ++occ;
      rx_high_water = std::max(rx_high_water, occ);
    }
    auto sp = std::make_shared<net::Packet>(std::move(pkt));
    eng_.schedule_after(lat, [this, sp, bounded] {
      if (bounded) --rx_occ_[sp->dst];
      eps_.at(sp->dst)->on_delivery(std::move(*sp));
    });
  }

  sim::Engine& eng_;
  std::map<int, ProgressEngine*> eps_;
  std::map<int, int> rx_occ_;  // per-destination in-flight (bounded RX)
};

/// One task's transport stack without the Context facade: the Sink demux and
/// a minimal Env. AM header handlers are whatever the test installs;
/// completion jobs queue until the test runs them on an actor of its own
/// (there is no Context to hand their bodies, so only the run is counted);
/// Get replies go out through the send engine as the facade sends them.
class Endpoint final : public ProgressEngine::Sink, public AssemblyEngine::Env {
 public:
  Endpoint(sim::Engine& eng, const CostModel& cm, FakeWire& wire, int id,
           const Config& cfg, bool checksums)
      : progress_(eng, cm, *this, /*interrupt_mode=*/true),
        send_(wire, progress_, id, cfg, checksums),
        assembly_(wire, progress_, *this, id, cfg, checksums) {
    wire.connect(id, &progress_);
  }

  ProgressEngine& progress() { return progress_; }
  SendEngine& send() { return send_; }
  AssemblyEngine& assembly() { return assembly_; }

  std::function<AmReply(const AmDelivery&)> am_handler;
  int handler_runs = 0;
  int completions_run = 0;
  std::vector<std::function<void(sim::Actor&)>> queued_completions;

 private:
  Time process_packet(net::Packet& pkt) override {
    const WireMeta& m = pkt.meta_as<WireMeta>();
    send_.note_heard(pkt.src);  // the facade's liveness note, mirrored here
    if (m.kind == PktKind::kAck) return send_.on_ack(pkt);
    if (m.kind == PktKind::kRmwResp) return send_.on_rmw_resp(pkt);
    if (m.kind == PktKind::kNack) return send_.on_nack(pkt);
    if (m.kind == PktKind::kCredit) return send_.on_credit(pkt);
    return assembly_.process(pkt);
  }
  AmReply run_handler(AmHandlerId /*id*/, const AmDelivery& d) override {
    if (!am_handler) {
      ADD_FAILURE() << "unexpected AM handler dispatch";
      return {};
    }
    ++handler_runs;
    return am_handler(d);
  }
  void run_completion(const std::function<void(Context&, sim::Actor&)>&,
                      sim::Actor&) override {
    ++completions_run;
  }
  void submit_completion(std::function<void(sim::Actor&)> fn) override {
    queued_completions.push_back(std::move(fn));
  }
  Status send_get_reply(int origin, std::shared_ptr<WireMeta> hdr,
                        std::shared_ptr<std::vector<std::byte>> data) override {
    send_.submit(PktKind::kPutHdr, origin, std::move(hdr), std::move(data), 0);
    return Status::kOk;
  }
  void note_get_reply() override { send_.note_get_reply(); }

  ProgressEngine progress_;
  SendEngine send_;
  AssemblyEngine assembly_;
};

struct StackFixture {
  sim::Engine eng;
  CostModel cm;
  FakeWire wire{eng};
  Config cfg;
  std::unique_ptr<Endpoint> origin;
  std::unique_ptr<Endpoint> target;

  StackFixture() {
    cfg.retransmit_timeout = microseconds(200);
    cfg.max_retries = 20;
  }

  void build(bool checksums = false) {
    origin = std::make_unique<Endpoint>(eng, cm, wire, 0, cfg, checksums);
    target = std::make_unique<Endpoint>(eng, cm, wire, 1, cfg, checksums);
  }

  /// Inject a Put of `payload` landing at `tgt` (a multi-packet message when
  /// the payload exceeds one packet's worth).
  void put(std::shared_ptr<std::vector<std::byte>> payload, std::byte* tgt) {
    eng.schedule_at(0, [this, payload, tgt] {
      auto hdr = std::make_shared<WireMeta>();
      hdr->tgt_addr = tgt;
      hdr->total_len = static_cast<std::int64_t>(payload->size());
      origin->send().submit(PktKind::kPutHdr, 1, hdr, payload, 0);
    });
  }

  /// A Put that names its source (org_addr, total_len) and passes no
  /// payload: the send engine streams it from that region.
  void put_from(const std::byte* src, std::int64_t len, std::byte* tgt) {
    eng.schedule_at(0, [this, src, len, tgt] {
      auto hdr = std::make_shared<WireMeta>();
      hdr->tgt_addr = tgt;
      hdr->org_addr = src;
      hdr->total_len = len;
      origin->send().submit(PktKind::kPutHdr, 1, hdr, nullptr, 0);
    });
  }

  static std::shared_ptr<std::vector<std::byte>> pattern(std::int64_t n) {
    auto v = std::make_shared<std::vector<std::byte>>(
        static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      (*v)[static_cast<std::size_t>(i)] = static_cast<std::byte>(i % 251);
    }
    return v;
  }

  void expect_delivered(const std::vector<std::byte>& expect,
                        const std::vector<std::byte>& got) {
    ASSERT_EQ(expect.size(), got.size());
    EXPECT_EQ(std::memcmp(expect.data(), got.data(), got.size()), 0);
    EXPECT_EQ(origin->send().pending_sends(), 0u);
    EXPECT_EQ(origin->send().outstanding_data(), 0);
  }
};

constexpr std::int64_t kLen = 5000;  // several data packets at 1 KB MTU

TEST(TransportStackTest, CleanPutDeliversWithoutRetransmission) {
  StackFixture f;
  f.build();
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_EQ(f.eng.counters().get("lapi.retransmits"), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.staged"), 0);
}

TEST(TransportStackTest, DroppedDataPacketIsRetransmitted) {
  // Both submit forms recover what the wire ate: an owned payload is resent
  // from its copy, a Put that names its source by re-reading that region.
  for (const bool owned : {true, false}) {
    SCOPED_TRACE(owned ? "owned payload" : "source named in the header");
    StackFixture f;
    f.build();
    f.wire.drop_first_n_data = 2;
    auto src = StackFixture::pattern(kLen);
    std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
    if (owned) {
      f.put(src, dst.data());
    } else {
      f.put_from(src->data(), kLen, dst.data());
    }
    ASSERT_EQ(f.eng.run(), Status::kOk);
    f.expect_delivered(*src, dst);
    EXPECT_GT(f.eng.counters().get("lapi.retransmits"), 0);
    EXPECT_EQ(f.eng.counters().get("lapi.retransmit_giveup"), 0);
  }
}

TEST(TransportStackTest, DataBeforeHeaderIsStagedThenDelivered) {
  StackFixture f;
  f.build();
  f.wire.header_extra_latency = microseconds(50);
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_GT(f.eng.counters().get("lapi.staged"), 0);
}

// Malformed-header hardening: a data packet whose offset descriptor was
// corrupted in flight to point far past the landing buffer must be dropped
// and counted — a scribble there is remote memory corruption (or a crash
// under ASan). The origin's retransmission, carrying the pristine meta,
// recovers the message.
TEST(TransportStackTest, MangledDataOffsetIsDroppedNotScribbled) {
  StackFixture f;
  f.build();
  f.wire.mangle_first_n_data_offsets = 2;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_EQ(f.eng.counters().get("lapi.malformed_drop"), 2);
  EXPECT_GT(f.eng.counters().get("lapi.retransmits"), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.retransmit_giveup"), 0);
}

// Same property for a negative offset (the other side of the bounds check).
TEST(TransportStackTest, NegativeDataOffsetIsDropped) {
  StackFixture f;
  f.build();
  f.wire.mangle_first_n_data_offsets = 1;
  f.wire.mangled_offset = -7;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_EQ(f.eng.counters().get("lapi.malformed_drop"), 1);
}

// A Put header announcing a negative total length is rejected before it can
// open an assembly (a negative total would poison every subsequent bounds
// check). The data packets that raced ahead stage; the header retransmission
// carries the real length and the message completes.
TEST(TransportStackTest, MangledHeaderLengthIsRejected) {
  StackFixture f;
  f.build();
  f.wire.mangle_header_len = true;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_GE(f.eng.counters().get("lapi.malformed_drop"), 1);
  EXPECT_GT(f.eng.counters().get("lapi.retransmits"), 0);
}

TEST(TransportStackTest, DuplicatedDataPacketsIngestOnce) {
  StackFixture f;
  f.build();
  f.wire.duplicate_data = true;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
}

TEST(TransportStackTest, CorruptPayloadIsDroppedAndRecovered) {
  StackFixture f;
  f.build(/*checksums=*/true);
  f.wire.corrupt_first_n_data = 1;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_GT(f.eng.counters().get("lapi.corrupt_drops"), 0);
  EXPECT_GT(f.eng.counters().get("lapi.retransmits"), 0);
}

TEST(TransportStackTest, ExhaustedRetriesFailTheSendCleanly) {
  StackFixture f;
  f.cfg.max_retries = 2;
  f.build();
  f.wire.drop_first_n_data = 1 << 20;  // the wire eats all data forever
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_EQ(f.eng.counters().get("lapi.retransmit_giveup"), 1);
  EXPECT_EQ(f.eng.counters().get("lapi.failed_ops"), 1);
  // The record is fully reclaimed: no leak, no outstanding bookkeeping.
  EXPECT_EQ(f.origin->send().pending_sends(), 0u);
  EXPECT_EQ(f.origin->send().outstanding_data(), 0);
}

TEST(TransportStackTest, RetryExhaustionCascadesAcrossThePeerQueue) {
  // Crash-stop failover: the first record to exhaust its backoff ladder
  // declares the peer dead, and every sibling record toward that peer —
  // in-flight or parked on the credit queue — fails in the same instant
  // instead of serially burning its own retry budget.
  StackFixture f;
  f.cfg.max_retries = 2;
  f.cfg.credit_window = 2;  // < kLenPkts: puts 2 and 3 park on the queue
  f.build();
  f.wire.drop_first_n_data = 1 << 20;  // the wire eats all data forever
  auto src1 = StackFixture::pattern(kLen);
  auto src2 = StackFixture::pattern(kLen);
  auto src3 = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src1, dst.data());
  f.put(src2, dst.data());
  f.put(src3, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  // One ladder, one verdict, three failed operations.
  EXPECT_EQ(f.eng.counters().get("lapi.retransmit_giveup"), 1);
  EXPECT_EQ(f.eng.counters().get("lapi.peer_failed"), 1);
  EXPECT_EQ(f.eng.counters().get("lapi.failed_ops"), 3);
  EXPECT_EQ(f.origin->send().pending_sends(), 0u);
  EXPECT_EQ(f.origin->send().outstanding_data(), 0);
  EXPECT_TRUE(f.origin->send().peer_failed(1));
  // Leased credits were reclaimed with the records: the pool is whole, so a
  // send after the wire heals needs no fresh grant from the (silent) peer.
  EXPECT_EQ(f.origin->send().credits_available(1), 2);
  // The verdict is a latch, not a wall: once the wire heals, contact from
  // the peer clears the latch, and the next send is delivered.
  f.wire.drop_first_n_data = 0;
  auto hello = StackFixture::pattern(64);
  std::vector<std::byte> hello_dst(64);
  f.eng.schedule_at(f.eng.now(), [&f, hello, &hello_dst] {
    auto hdr = std::make_shared<WireMeta>();
    hdr->tgt_addr = hello_dst.data();
    hdr->total_len = static_cast<std::int64_t>(hello->size());
    f.target->send().submit(PktKind::kPutHdr, 0, hdr, hello, 0);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_FALSE(f.origin->send().peer_failed(1));
  auto src4 = StackFixture::pattern(kLen);
  std::vector<std::byte> dst4(static_cast<std::size_t>(kLen));
  f.eng.schedule_at(f.eng.now(), [&f, src4, &dst4] {
    auto hdr = std::make_shared<WireMeta>();
    hdr->tgt_addr = dst4.data();
    hdr->total_len = static_cast<std::int64_t>(src4->size());
    f.origin->send().submit(PktKind::kPutHdr, 1, hdr, src4, 0);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src4, dst4);
}

TEST(TransportStackTest, SendToALatchedPeerFailsAtSubmit) {
  // A peer latched dead is not retried one ladder per send: a later submit
  // toward it completes its counters as failed at the submit's own virtual
  // time, with no packet, no timer and no retransmission.
  StackFixture f;
  f.cfg.max_retries = 2;
  f.build();
  f.wire.drop_first_n_data = 1 << 20;  // the wire eats all data forever
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  ASSERT_TRUE(f.origin->send().peer_failed(1));
  const std::int64_t retransmits = f.eng.counters().get("lapi.retransmits");
  const std::int64_t failed = f.eng.counters().get("lapi.failed_ops");
  const std::int64_t mark = f.origin->send().low_water();
  Counter org, cmpl, get_org;
  Time submitted = kNoTime;
  std::vector<std::byte> local(64);
  f.eng.schedule_at(f.eng.now() + microseconds(7), [&] {
    submitted = f.eng.now();
    auto hdr = std::make_shared<WireMeta>();
    hdr->tgt_addr = dst.data();
    hdr->total_len = kLen;
    hdr->org_cntr = &org;
    hdr->cmpl_cntr = &cmpl;
    f.origin->send().submit(PktKind::kPutHdr, 1, hdr, src, 0);
    auto get = std::make_shared<WireMeta>();
    get->src_addr = dst.data();
    get->dst_addr = local.data();
    get->total_len = 64;
    get->org_cntr = &get_org;
    f.origin->send().submit(PktKind::kGetReq, 1, get, nullptr, 0);
    // Completed, failed by the peer's death, in the same instant.
    for (const Counter* c : {&org, &cmpl, &get_org}) {
      EXPECT_EQ(c->peek(), 1);
      EXPECT_EQ(c->peek_peer_failed(), 1);
    }
  });
  const Time end_before = f.eng.now();
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_EQ(f.eng.now(), end_before + microseconds(7));  // no timer armed
  EXPECT_EQ(submitted, end_before + microseconds(7));
  EXPECT_EQ(f.eng.counters().get("lapi.retransmits"), retransmits);
  EXPECT_EQ(f.eng.counters().get("lapi.failed_ops"), failed + 2);
  EXPECT_EQ(f.origin->send().pending_sends(), 0u);
  EXPECT_EQ(f.origin->send().outstanding_data(), 0);
  EXPECT_EQ(f.origin->send().outstanding_gets(), 0);
  // Nothing of the failed sends holds the low-water mark back.
  EXPECT_GE(f.origin->send().low_water(), mark);
  EXPECT_TRUE(f.origin->send().peer_failed(1));
}

// ===========================================================================
// Corroboration: accrual-only death gossip latches only on a quorum of
// distinct observers (SendEngine::note_death_report)
// ===========================================================================

/// Records every peer-failure hook call as (peer, direct).
struct HookLog {
  std::vector<std::pair<int, bool>> calls;
  void attach(SendEngine& send) {
    send.set_peer_failure_hook(
        [this](int peer, bool direct) { calls.emplace_back(peer, direct); });
  }
};

TEST(TransportCorroborationTest, OneAccrualReportDoesNotLatch) {
  StackFixture f;
  f.build();
  HookLog hook;
  hook.attach(f.origin->send());
  f.origin->send().note_death_report(1, /*reporter=*/2);
  EXPECT_FALSE(f.origin->send().peer_failed(1));
  EXPECT_TRUE(hook.calls.empty());
  EXPECT_EQ(f.eng.counters().get("lapi.peer_failed"), 0);
}

TEST(TransportCorroborationTest, SameReporterAgainDoesNotLatch) {
  StackFixture f;
  f.build();
  HookLog hook;
  hook.attach(f.origin->send());
  for (int i = 0; i < 3; ++i) f.origin->send().note_death_report(1, 2);
  EXPECT_FALSE(f.origin->send().peer_failed(1));
  EXPECT_TRUE(hook.calls.empty());
}

TEST(TransportCorroborationTest, SecondDistinctReporterLatchesAndFailsOver) {
  // Two puts stay pending (the wire eats their data, and the retry ladder is
  // far longer than the test). The second distinct report latches the
  // verdict: both records fail over through fail_peer — the peer-death
  // path, which completes them with kPeerFailed — not by retry exhaustion.
  StackFixture f;
  f.build();
  HookLog hook;
  hook.attach(f.origin->send());
  f.wire.drop_first_n_data = 1 << 20;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  f.put(src, dst.data());
  bool latched_after_first = true;
  f.eng.schedule_at(microseconds(100), [&f, &latched_after_first] {
    ASSERT_EQ(f.origin->send().pending_sends(), 2u);
    f.origin->send().note_death_report(1, /*reporter=*/2);
    latched_after_first = f.origin->send().peer_failed(1);
    f.origin->send().note_death_report(1, /*reporter=*/3);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_FALSE(latched_after_first);
  EXPECT_TRUE(f.origin->send().peer_failed(1));
  ASSERT_EQ(hook.calls.size(), 1u);
  EXPECT_EQ(hook.calls[0], std::make_pair(1, false));  // accrual evidence
  EXPECT_EQ(f.eng.counters().get("lapi.peer_failed"), 1);
  EXPECT_EQ(f.eng.counters().get("lapi.failed_ops"), 2);
  EXPECT_EQ(f.eng.counters().get("lapi.retransmit_giveup"), 0);
  EXPECT_EQ(f.origin->send().pending_sends(), 0u);
  EXPECT_EQ(f.origin->send().outstanding_data(), 0);
}

TEST(TransportCorroborationTest, PacketFromThePeerResetsTheCount) {
  // Contact from the peer refutes the gossip gathered so far: a report
  // before the contact and one after it are not two votes.
  StackFixture f;
  f.build();
  HookLog hook;
  hook.attach(f.origin->send());
  f.origin->send().note_death_report(1, /*reporter=*/2);
  // The peer puts to us; admitting its packets is the contact.
  auto src = StackFixture::pattern(64);
  std::vector<std::byte> dst(64);
  f.eng.schedule_at(0, [&f, src, &dst] {
    auto hdr = std::make_shared<WireMeta>();
    hdr->tgt_addr = dst.data();
    hdr->total_len = static_cast<std::int64_t>(src->size());
    f.target->send().submit(PktKind::kPutHdr, 0, hdr, src, 0);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  ASSERT_EQ(std::memcmp(dst.data(), src->data(), dst.size()), 0);
  f.origin->send().note_death_report(1, /*reporter=*/3);
  EXPECT_FALSE(f.origin->send().peer_failed(1));
  EXPECT_TRUE(hook.calls.empty());
  // A second distinct reporter since the contact completes the quorum.
  f.origin->send().note_death_report(1, /*reporter=*/2);
  EXPECT_TRUE(f.origin->send().peer_failed(1));
  EXPECT_EQ(hook.calls.size(), 1u);
}

// ===========================================================================
// Flow control: credit windows, NACK fast retransmit, partial-table caps
// ===========================================================================

// kLen = 5000 packs into 6 wire packets (header chunk + 5 data fragments), so
// any window below 6 exercises the oversize rule and subsequent queueing.
constexpr std::int64_t kLenPkts = 6;

TEST(TransportFlowControlTest, CreditExhaustionQueuesThenDelivers) {
  StackFixture f;
  f.cfg.credit_window = 2;  // < kLenPkts: first send uses the oversize rule
  f.build();
  auto src1 = StackFixture::pattern(kLen);
  auto src2 = StackFixture::pattern(kLen);
  std::vector<std::byte> dst1(static_cast<std::size_t>(kLen));
  std::vector<std::byte> dst2(static_cast<std::size_t>(kLen));
  f.put(src1, dst1.data());
  f.put(src2, dst2.data());  // must park until the first lease returns
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src1, dst1);
  f.expect_delivered(*src2, dst2);
  EXPECT_EQ(f.eng.counters().get("lapi.credit_queued"), 1);
  // Credit conservation: every lease returned, the pool is whole again.
  EXPECT_EQ(f.origin->send().credits_available(1), 2);
}

TEST(TransportFlowControlTest, DuplicatedCreditUpdatesNeverOverRelease) {
  StackFixture f;
  f.cfg.credit_window = 8;
  f.cfg.credit_update_interval = 1;  // a kCredit per freshly ingested packet
  f.build();
  f.wire.duplicate_credits = true;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_GT(f.eng.counters().get("lapi.credit_updates"), 0);
  // Cumulative grants are idempotent: doubling every update must not mint
  // credits (the pool ends exactly at its window, never above).
  EXPECT_EQ(f.origin->send().credits_available(1), 8);
}

TEST(TransportFlowControlTest, LostCreditUpdatesHealViaAcks) {
  StackFixture f;
  f.cfg.credit_window = 2;
  f.cfg.credit_update_interval = 1;
  f.build();
  f.wire.drop_credits = true;  // the wire eats every standalone update
  auto src1 = StackFixture::pattern(kLen);
  auto src2 = StackFixture::pattern(kLen);
  std::vector<std::byte> dst1(static_cast<std::size_t>(kLen));
  std::vector<std::byte> dst2(static_cast<std::size_t>(kLen));
  f.put(src1, dst1.data());
  f.put(src2, dst2.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  // No deadlock: the completion ack piggybacks the cumulative grant, and
  // record reclamation releases the remainder of the lease regardless.
  f.expect_delivered(*src1, dst1);
  f.expect_delivered(*src2, dst2);
  EXPECT_EQ(f.origin->send().credits_available(1), 2);
}

TEST(TransportFlowControlTest, NackRecoveryBeatsTheRto) {
  StackFixture f;
  f.cfg.retransmit_timeout = milliseconds(50.0);  // RTO far beyond the run
  f.cfg.credit_window = 64;          // grants flow, resetting the fast-rtx
  f.cfg.credit_update_interval = 1;  // guard each recovery round
  f.build();
  f.wire.latency = microseconds(20);  // packets pile up in flight
  f.wire.rx_depth = 2;
  f.wire.overflow_to[1] = &f.target->assembly();
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_GT(f.wire.rx_overflows, 0);
  EXPECT_GT(f.eng.counters().get("lapi.nack_sent"), 0);
  EXPECT_GT(f.eng.counters().get("lapi.nack_fast_rtx"), 0);
  // The whole recovery ran on NACKs: the 50 ms timer never had to fire.
  EXPECT_EQ(f.eng.counters().get("lapi.retransmits"), 0);
  // NACK suppression held: never more than one NACK per recovery round.
  EXPECT_LE(f.eng.counters().get("lapi.nack_sent"),
            f.eng.counters().get("lapi.nack_fast_rtx") + 1);
}

TEST(TransportFlowControlTest, GiveUpCancelsThePartialAtTheTarget) {
  StackFixture f;
  f.cfg.max_retries = 2;
  f.build();
  f.wire.drop_first_n_data = 1 << 20;  // header lands, data never does
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_EQ(f.eng.counters().get("lapi.failed_ops"), 1);
  // The best-effort kCancel reclaimed the orphaned partial immediately.
  EXPECT_EQ(f.eng.counters().get("lapi.partials_reclaimed"), 1);
  EXPECT_EQ(f.target->assembly().live_partials(), 0u);
  EXPECT_EQ(f.origin->send().pending_sends(), 0u);
}

TEST(TransportFlowControlTest, TtlSweepReclaimsWhenTheCancelIsLost) {
  StackFixture f;
  f.cfg.max_retries = 2;
  f.cfg.partial_ttl = milliseconds(1.0);
  f.build();
  // The first message's data never arrives: 5 fragments per transmission ×
  // (initial + 2 retries) = 15 drops cover its whole retry budget.
  f.wire.drop_first_n_data = 15;
  f.wire.drop_cancels = true;     // and neither does its cancel
  auto src1 = StackFixture::pattern(kLen);
  auto src2 = StackFixture::pattern(kLen);
  std::vector<std::byte> dst1(static_cast<std::size_t>(kLen));
  std::vector<std::byte> dst2(static_cast<std::size_t>(kLen));
  f.put(src1, dst1.data());  // its data never lands
  // The give-up latched the target dead at the origin; contact from it
  // clears the latch so the second message below goes out.
  auto hello = StackFixture::pattern(64);
  std::vector<std::byte> hello_dst(64);
  f.eng.schedule_at(milliseconds(19.0), [&f, hello, &hello_dst] {
    auto hdr = std::make_shared<WireMeta>();
    hdr->tgt_addr = hello_dst.data();
    hdr->total_len = static_cast<std::int64_t>(hello->size());
    f.target->send().submit(PktKind::kPutHdr, 0, hdr, hello, 0);
  });
  // A second message long after the first gave up: admitting its partial
  // runs the TTL sweep, which reaps the stale orphan.
  f.eng.schedule_at(milliseconds(20.0), [&f, src2, &dst2] {
    auto hdr = std::make_shared<WireMeta>();
    hdr->tgt_addr = dst2.data();
    hdr->total_len = static_cast<std::int64_t>(src2->size());
    f.origin->send().submit(PktKind::kPutHdr, 1, hdr, src2, 0);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  ASSERT_EQ(src2->size(), dst2.size());
  EXPECT_EQ(std::memcmp(src2->data(), dst2.data(), dst2.size()), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.failed_ops"), 1);
  EXPECT_EQ(f.eng.counters().get("lapi.partials_reclaimed"), 1);
  EXPECT_EQ(f.target->assembly().live_partials(), 0u);
}

TEST(TransportFlowControlTest, MaxPartialsCapShedsAndRecovers) {
  StackFixture f;
  f.cfg.max_partials = 1;
  f.build();
  f.wire.drop_first_n_data = 1;  // keep the first message incomplete a while
  auto src1 = StackFixture::pattern(kLen);
  auto src2 = StackFixture::pattern(kLen);
  std::vector<std::byte> dst1(static_cast<std::size_t>(kLen));
  std::vector<std::byte> dst2(static_cast<std::size_t>(kLen));
  f.put(src1, dst1.data());
  f.put(src2, dst2.data());  // its packets arrive over the partial cap
  ASSERT_EQ(f.eng.run(), Status::kOk);
  // Graceful degradation: the overloaded table shed, nothing failed, and the
  // shed message was delivered once the table drained.
  f.expect_delivered(*src1, dst1);
  f.expect_delivered(*src2, dst2);
  EXPECT_GT(f.eng.counters().get("lapi.partials_shed"), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.failed_ops"), 0);
  EXPECT_EQ(f.target->assembly().live_partials(), 0u);
}

// ===========================================================================
// Low-water mark: the target forgets settled messages (WireMeta::low_water)
// ===========================================================================

std::shared_ptr<WireMeta> put_meta(std::byte* tgt, std::int64_t len) {
  auto hdr = std::make_shared<WireMeta>();
  hdr->tgt_addr = tgt;
  hdr->total_len = len;
  return hdr;
}

/// The first recorded packet from task 0 of `kind` (and msg id `id`).
const net::Packet& first_sent(const FakeWire& wire, PktKind kind,
                              std::int64_t id) {
  for (const net::Packet& p : wire.recorded) {
    const WireMeta& m = p.meta_as<WireMeta>();
    if (p.src == 0 && m.kind == kind && m.msg_id == id) return p;
  }
  ADD_FAILURE() << "no recorded packet of kind " << static_cast<int>(kind);
  return wire.recorded.front();
}

TEST(TransportMarkTest, StaleCopiesBelowTheMarkDrawOneReplyEach) {
  // A put, an AM, a get and an RMW settle; a later put carries the origin's
  // mark past all four, and the target forgets them. Stale copies of their
  // packets then arrive: each draws exactly the reply its completed marker
  // would have drawn (one ack, or one RMW response) and changes nothing.
  StackFixture f;
  f.build();
  std::vector<std::byte> put_dst(static_cast<std::size_t>(kLen));
  std::vector<std::byte> am_dst(64);
  std::vector<std::byte> remote(64, std::byte{0x5A});
  std::vector<std::byte> local(64);
  std::int64_t var = 10;
  Counter put_tc;
  f.target->am_handler = [&am_dst](const AmDelivery&) {
    AmReply r;
    r.buffer = am_dst.data();
    return r;
  };
  auto src = StackFixture::pattern(kLen);
  auto am_src = StackFixture::pattern(64);
  f.wire.record = true;
  f.eng.schedule_at(0, [&] {
    auto put = put_meta(put_dst.data(), kLen);
    put->tgt_cntr = &put_tc;
    f.origin->send().submit(PktKind::kPutHdr, 1, put, src, 0);  // id 0
    auto am = std::make_shared<WireMeta>();
    am->total_len = 64;
    f.origin->send().submit(PktKind::kAmHdr, 1, am, am_src, 0);  // id 1
    auto get = std::make_shared<WireMeta>();
    get->src_addr = remote.data();
    get->dst_addr = local.data();
    get->total_len = 64;
    f.origin->send().submit(PktKind::kGetReq, 1, get, nullptr, 0);  // id 2
    auto rmw = std::make_shared<WireMeta>();
    rmw->rmw_op = RmwOp::kFetchAndAdd;
    rmw->rmw_var = &var;
    rmw->rmw_in1 = 5;
    f.origin->send().submit(PktKind::kRmwReq, 1, rmw, nullptr, 0);  // id 3
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.wire.record = false;
  ASSERT_EQ(f.origin->send().pending_sends(), 0u);
  ASSERT_EQ(var, 15);
  ASSERT_EQ(local, remote);
  ASSERT_EQ(put_tc.peek(), 1);
  ASSERT_EQ(f.target->handler_runs, 1);
  const std::vector<const net::Packet*> stale = {
      &first_sent(f.wire, PktKind::kPutHdr, 0),
      &first_sent(f.wire, PktKind::kData, 0),
      &first_sent(f.wire, PktKind::kAmHdr, 1),
      &first_sent(f.wire, PktKind::kGetReq, 2),
      &first_sent(f.wire, PktKind::kRmwReq, 3)};

  // One more put: its packets carry the mark 4.
  std::vector<std::byte> later_dst(64);
  f.eng.schedule_at(f.eng.now(), [&] {
    f.origin->send().submit(PktKind::kPutHdr, 1,
                            put_meta(later_dst.data(), 64),
                            StackFixture::pattern(64), 0);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  const AssemblyEngine::DedupState held = f.target->assembly().dedup_state();
  EXPECT_EQ(held.markers, 1u);  // the later put's own
  EXPECT_EQ(held.rmw_cached, 0u);
  EXPECT_EQ(held.nacked, 0u);

  // Scribble over what was delivered: a re-delivery would show.
  std::fill(put_dst.begin(), put_dst.end(), std::byte{0});
  std::fill(am_dst.begin(), am_dst.end(), std::byte{0});
  const std::map<PktKind, int> before = f.wire.sent;
  for (const net::Packet* p : stale) f.wire.replay(*p);
  ASSERT_EQ(f.eng.run(), Status::kOk);
  std::map<PktKind, int> drawn = f.wire.sent;
  for (const auto& [kind, n] : before) drawn[kind] -= n;
  std::erase_if(drawn, [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(drawn, (std::map<PktKind, int>{{PktKind::kAck, 4},
                                           {PktKind::kRmwResp, 1}}));
  EXPECT_TRUE(std::all_of(put_dst.begin(), put_dst.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
  EXPECT_TRUE(std::all_of(am_dst.begin(), am_dst.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
  EXPECT_EQ(put_tc.peek(), 1);
  EXPECT_EQ(f.target->handler_runs, 1);
  EXPECT_EQ(var, 15);  // the RMW did not run again
  EXPECT_EQ(f.target->assembly().dedup_state().markers, 1u);
  EXPECT_EQ(f.target->assembly().live_partials(), 0u);
}

TEST(TransportMarkTest, QueuedCompletionKeepsItsMarkerUntilItRuns) {
  // An AM without a completion counter settles at its DATA ack, before its
  // completion handler has run. The mark passes it, but the marker stays
  // until the queued completion has run against it; then it goes.
  StackFixture f;
  f.build();
  std::vector<std::byte> am_dst(64);
  f.target->am_handler = [&am_dst](const AmDelivery&) {
    AmReply r;
    r.buffer = am_dst.data();
    r.completion = [](Context&, sim::Actor&) {};
    return r;
  };
  f.wire.record = true;
  f.eng.schedule_at(0, [&] {
    auto am = std::make_shared<WireMeta>();
    am->total_len = 64;
    f.origin->send().submit(PktKind::kAmHdr, 1, am, StackFixture::pattern(64),
                            0);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.wire.record = false;
  ASSERT_EQ(f.origin->send().pending_sends(), 0u);  // settled at the DATA ack
  ASSERT_EQ(f.target->queued_completions.size(), 1u);
  const net::Packet stale = [&] {
    const net::Packet& p = first_sent(f.wire, PktKind::kAmHdr, 0);
    net::Packet c;
    c.src = p.src;
    c.dst = p.dst;
    c.client = p.client;
    c.header_bytes = p.header_bytes;
    c.meta = p.meta;
    c.data.assign(p.data.data(), p.data.data() + p.data.size());
    return c;
  }();
  std::vector<std::byte> later_dst(64);
  f.eng.schedule_at(f.eng.now(), [&] {
    f.origin->send().submit(PktKind::kPutHdr, 1,
                            put_meta(later_dst.data(), 64),
                            StackFixture::pattern(64), 0);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_EQ(f.target->assembly().dedup_state().markers, 2u);

  // A stale copy meets the kept marker: re-acked, the handler not re-run.
  const int acks = f.wire.sent[PktKind::kAck];
  f.wire.replay(stale);
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_EQ(f.wire.sent[PktKind::kAck], acks + 1);
  EXPECT_EQ(f.target->handler_runs, 1);

  // The completion runs; its marker is below the mark, so it goes.
  f.eng.spawn("svc", [&f](sim::Actor& a) {
    for (auto& fn : std::exchange(f.target->queued_completions, {})) fn(a);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_EQ(f.target->completions_run, 1);
  EXPECT_EQ(f.target->assembly().dedup_state().markers, 1u);
  f.wire.replay(stale);
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_EQ(f.wire.sent[PktKind::kAck], acks + 2);
  EXPECT_EQ(f.target->handler_runs, 1);
  EXPECT_EQ(f.target->completions_run, 1);
}

TEST(TransportMarkTest, SuspendedSubmitHoldsTheMark) {
  // An actor's submit allocates its msg id, then suspends in compute() to
  // charge the call. Meanwhile a handler-context send on the same endpoint
  // takes the next id and reaches the wire first. The mark it carries must
  // not pass the suspended id, or the target would take the actor's
  // message for a settled duplicate: acked, never delivered.
  StackFixture f;
  f.build();
  auto first = StackFixture::pattern(64);
  auto second = StackFixture::pattern(128);
  std::vector<std::byte> dst1(64);
  std::vector<std::byte> dst2(128);
  f.eng.spawn("task0", [&](sim::Actor&) {
    f.origin->send().submit(PktKind::kPutHdr, 1, put_meta(dst1.data(), 64),
                            first, /*extra_call_cost=*/microseconds(50));
  });
  f.eng.schedule_at(microseconds(5), [&] {
    ASSERT_EQ(sim::Actor::current(), nullptr);
    f.origin->send().submit(PktKind::kPutHdr, 1, put_meta(dst2.data(), 128),
                            second, 0);
  });
  ASSERT_EQ(f.eng.run(), Status::kOk);
  EXPECT_EQ(dst1, *first);
  EXPECT_EQ(dst2, *second);
  EXPECT_EQ(f.origin->send().pending_sends(), 0u);
}

// ===========================================================================
// Zero-copy (rdma) transport: scatter-direct assembly must keep the
// exactly-once guarantees of the staged path under every wire fault
// ===========================================================================

/// StackFixture with the zero-copy path armed: kLen = 5000 clears the 2 KB
/// threshold, so every put below rides rdma unless a test says otherwise.
struct RdmaStackFixture : StackFixture {
  RdmaStackFixture() {
    cfg.rdma_enabled = true;
    cfg.rdma_threshold = 2048;
  }

  /// Like put(), but names the source region so the origin-side
  /// registration (and its cache entry) is exercised too.
  void put_rdma(std::shared_ptr<std::vector<std::byte>> payload,
                std::byte* tgt) {
    eng.schedule_at(0, [this, payload, tgt] {
      auto hdr = std::make_shared<WireMeta>();
      hdr->tgt_addr = tgt;
      hdr->org_addr = payload->data();
      hdr->total_len = static_cast<std::int64_t>(payload->size());
      origin->send().submit(PktKind::kPutHdr, 1, hdr, payload, 0);
    });
  }
};

TEST(TransportZeroCopyTest, CleanPutScattersDirectWithoutCopies) {
  RdmaStackFixture f;
  f.build();
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put_rdma(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_EQ(f.eng.counters().get("lapi.zero_copy_sends"), 1);
  EXPECT_EQ(f.eng.counters().get("lapi.scatter_direct"), 1);
  // Both regions were cold: one pin each for source and target.
  EXPECT_EQ(f.eng.counters().get("lapi.reg_cache_misses"), 2);
  EXPECT_EQ(f.eng.counters().get("lapi.reg_cache_hits"), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.retransmits"), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.staged"), 0);
}

TEST(TransportZeroCopyTest, WarmCacheReusesBothRegistrations) {
  RdmaStackFixture f;
  f.build();
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put_rdma(src, dst.data());
  f.put_rdma(src, dst.data());  // same regions: both lookups must hit
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_EQ(f.eng.counters().get("lapi.zero_copy_sends"), 2);
  EXPECT_EQ(f.eng.counters().get("lapi.reg_cache_misses"), 2);
  EXPECT_EQ(f.eng.counters().get("lapi.reg_cache_hits"), 2);
}

TEST(TransportZeroCopyTest, DroppedDataIsRetransmittedIntoPlace) {
  RdmaStackFixture f;
  f.build();
  f.wire.drop_first_n_data = 2;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put_rdma(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_EQ(f.eng.counters().get("lapi.zero_copy_sends"), 1);
  EXPECT_GT(f.eng.counters().get("lapi.retransmits"), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.retransmit_giveup"), 0);
}

TEST(TransportZeroCopyTest, DuplicatedDataScattersExactlyOnce) {
  RdmaStackFixture f;
  f.build();
  f.wire.duplicate_data = true;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put_rdma(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  // The dedup happens before the scatter: a replayed fragment must not
  // re-write (or double-count toward) the registered region.
  f.expect_delivered(*src, dst);
  EXPECT_EQ(f.eng.counters().get("lapi.scatter_direct"), 1);
}

TEST(TransportZeroCopyTest, CorruptPayloadNeverLandsInTheUserRegion) {
  RdmaStackFixture f;
  f.build(/*checksums=*/true);
  f.wire.corrupt_first_n_data = 1;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put_rdma(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  // The checksum rejects the damaged fragment before the direct scatter, so
  // the retransmission is what lands — the region ends bit-exact.
  f.expect_delivered(*src, dst);
  EXPECT_GT(f.eng.counters().get("lapi.corrupt_drops"), 0);
  EXPECT_GT(f.eng.counters().get("lapi.retransmits"), 0);
}

TEST(TransportZeroCopyTest, BelowThresholdStaysOnTheStagedPath) {
  RdmaStackFixture f;
  f.cfg.rdma_threshold = 64 * 1024;  // kLen no longer qualifies
  f.build();
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put_rdma(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_EQ(f.eng.counters().get("lapi.zero_copy_sends"), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.scatter_direct"), 0);
}

// ===========================================================================
// Part C: the ProgressEngine contract LAPI and MPL share
// ===========================================================================

/// A Sink that records when each packet reached it and charges a fixed cost.
class RecordingSink final : public ProgressEngine::Sink {
 public:
  explicit RecordingSink(sim::Engine& eng) : eng_(eng) {}
  std::vector<Time> seen;

 private:
  Time process_packet(net::Packet& /*pkt*/) override {
    seen.push_back(eng_.now());
    return microseconds(2);
  }
  sim::Engine& eng_;
};

TEST(ProgressContractTest, EffectDeferredBeforeInvalidateNeverRuns) {
  sim::Engine eng;
  const CostModel cm;
  RecordingSink sink(eng);
  ProgressEngine progress(eng, cm, sink, /*interrupt_mode=*/true);
  bool before = false;
  bool after = false;
  progress.defer(microseconds(1), [&] { before = true; });
  progress.defer(microseconds(5), [&] { after = true; });
  eng.schedule_at(microseconds(3), [&] { progress.invalidate(); });
  ASSERT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);  // deferred before invalidate(), due after it
}

TEST(ProgressContractTest, QuiesceWaitsForSettledAndForEveryEffect) {
  sim::Engine eng;
  const CostModel cm;
  RecordingSink sink(eng);
  ProgressEngine progress(eng, cm, sink, /*interrupt_mode=*/true);
  bool settled = false;
  std::vector<Time> returned;
  auto settle_at = [&](Time t) {
    eng.schedule_at(t, [&] {
      settled = true;
      progress.notify();
    });
  };
  eng.spawn("task", [&](sim::Actor& a) {
    // settled() holds first: quiesce still drains the pending effect.
    progress.defer(microseconds(20), [] {});
    settle_at(microseconds(10));
    progress.quiesce(a, "test-quiesce", [&] { return settled; });
    returned.push_back(eng.now());
    EXPECT_EQ(progress.pending_effects(), 0);
    // The effect drains first: quiesce still waits for settled().
    settled = false;
    progress.defer(microseconds(25), [] {});
    settle_at(microseconds(40));
    progress.quiesce(a, "test-quiesce", [&] { return settled; });
    returned.push_back(eng.now());
    EXPECT_EQ(progress.pending_effects(), 0);
  });
  ASSERT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(returned, (std::vector<Time>{microseconds(20), microseconds(40)}));
}

TEST(ProgressContractTest, EnqueueHasNoArrivalRuleButOnDeliveryBacklogs) {
  // Polling mode with the task outside the library: LAPI's rule makes no
  // progress, while MPL's entry always does.
  sim::Engine eng;
  const CostModel cm;
  RecordingSink sink(eng);
  ProgressEngine progress(eng, cm, sink, /*interrupt_mode=*/false);
  auto packet = [] {
    net::Packet p;
    p.src = 1;
    p.dst = 0;
    return p;
  };
  eng.schedule_at(microseconds(1), [&] { progress.enqueue(packet()); });
  ASSERT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(sink.seen, (std::vector<Time>{microseconds(1)}));
  EXPECT_EQ(eng.counters().get("lapi.interrupts"), 0);
  EXPECT_EQ(eng.counters().get("lapi.backlogged"), 0);

  eng.schedule_at(microseconds(10), [&] { progress.on_delivery(packet()); });
  ASSERT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(eng.counters().get("lapi.backlogged"), 1);
}

}  // namespace
}  // namespace splap::lapi
