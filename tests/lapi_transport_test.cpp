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

  net::Packet make_packet() override { return net::Packet{}; }
  Time link_free(int /*src*/) const override { return eng_.now(); }

  void transmit(net::Packet&& pkt) override {
    const WireMeta& m = pkt.meta_as<WireMeta>();
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
/// a null Env (these scenarios exercise Put only, which needs no handler
/// table, completion threads, or Get-reply send path).
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
  AmReply run_handler(AmHandlerId /*id*/, const AmDelivery& /*d*/) override {
    ADD_FAILURE() << "unexpected AM handler dispatch";
    return {};
  }
  void run_completion(const std::function<void(Context&, sim::Actor&)>&,
                      sim::Actor&) override {}
  void submit_completion(std::function<void(sim::Actor&)>) override {}
  Status send_get_reply(int, std::shared_ptr<WireMeta>,
                        std::shared_ptr<std::vector<std::byte>>) override {
    ADD_FAILURE() << "unexpected Get reply";
    return Status::kOk;
  }
  void note_get_reply() override {}

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
  StackFixture f;
  f.build();
  f.wire.drop_first_n_data = 2;
  auto src = StackFixture::pattern(kLen);
  std::vector<std::byte> dst(static_cast<std::size_t>(kLen));
  f.put(src, dst.data());
  ASSERT_EQ(f.eng.run(), Status::kOk);
  f.expect_delivered(*src, dst);
  EXPECT_GT(f.eng.counters().get("lapi.retransmits"), 0);
  EXPECT_EQ(f.eng.counters().get("lapi.retransmit_giveup"), 0);
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
  // The verdict is a latch, not a wall: once the wire heals, a later send is
  // still attempted, and the peer's first ack clears the latch.
  f.wire.drop_first_n_data = 0;
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
  EXPECT_FALSE(f.origin->send().peer_failed(1));
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

}  // namespace
}  // namespace splap::lapi
