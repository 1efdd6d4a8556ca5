// Deterministic crash-stop recovery harness: nodes are killed (and sometimes
// restarted) at exact virtual times while a live workload is in flight, and
// every scenario must converge without hangs: survivors observe kPeerFailed
// within bounded virtual time, stale packets from a previous incarnation are
// rejected by epoch, leased credits and partial assemblies are reclaimed,
// and the registered error handler fires exactly once per dead peer.
//
// Every scenario runs across multiple fabric seeds (the seeds decorrelate
// the contention-jitter RNG, shifting packet timings against the fixed crash
// instants) and each (scenario, seed) run is bit-deterministic, so failures
// reproduce under their seedN test name. scripts/check.sh replays the whole
// suite under ASan/UBSan and SPLAP_AUDIT (ctest -L recovery).
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "ga/runtime.hpp"
#include "lapi_test_util.hpp"
#include "mpl/comm.hpp"
#include "net/machine.hpp"

namespace splap {
namespace {

const std::uint64_t kSeeds[] = {3, 7, 19, 42, 101};

std::string seed_name(const ::testing::TestParamInfo<std::uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

net::Machine::Config crash_machine(std::uint64_t seed, int tasks) {
  net::Machine::Config cfg;
  cfg.tasks = tasks;
  cfg.fabric.seed = seed * 7 + 1;
  cfg.fabric.fault.seed = seed;
  return cfg;
}

/// Fast-failing detector settings so a scenario's whole backoff ladder fits
/// in a few virtual milliseconds.
lapi::Config fast_lapi_config() {
  lapi::Config c;
  c.retransmit_timeout = microseconds(200);
  c.max_retries = 4;
  return c;
}

class RecoveryTest : public ::testing::TestWithParam<std::uint64_t> {};

// ---------------------------------------------------------------------------
// Scenario 1: the target dies mid-put. The origin's retry ladder exhausts,
// the crash-stop verdict fails the operation with kPeerFailed, and the
// LAPI_Init-registered error handler runs on the completion pool.
// ---------------------------------------------------------------------------

TEST_P(RecoveryTest, MidPutCrash) {
  constexpr std::int64_t kLen = 64 * 1024;
  net::Machine m(crash_machine(GetParam(), 2));
  m.kill_node(1, microseconds(100));  // mid-stream for a 64 KB transfer

  std::vector<std::byte> tgt(static_cast<std::size_t>(kLen));
  lapi::Counter tgt_cntr;
  Status org_st = Status::kUnknown, cmpl_st = Status::kUnknown;
  int handler_peer = -1, handler_calls = 0;
  Status handler_st = Status::kUnknown;
  Time detected_at = kNoTime;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Config cfg = fast_lapi_config();
    cfg.error_handler = [&](lapi::Context&, int failed_task, Status st) {
      handler_peer = failed_task;
      handler_st = st;
      ++handler_calls;
    };
    lapi::Context ctx(n, cfg);
    if (n.id() == 0) {
      std::vector<std::byte> src(static_cast<std::size_t>(kLen),
                                 std::byte{0x5A});
      lapi::Counter org, cmpl;
      ASSERT_EQ(ctx.put(1, src, tgt.data(), &tgt_cntr, &org, &cmpl),
                Status::kOk);
      org_st = ctx.waitcntr(org, 1);    // zero-copy: rides the lost data ack
      cmpl_st = ctx.waitcntr(cmpl, 1);
      detected_at = ctx.engine().now();
      EXPECT_TRUE(ctx.peer_failed(1));
      EXPECT_EQ(ctx.pending_sends(), 0u);
      EXPECT_EQ(ctx.outstanding(), 0);
    } else {
      // The victim parks in a wait that can never complete and dies there.
      (void)ctx.waitcntr(tgt_cntr, 1);
    }
  }), Status::kOk);

  EXPECT_EQ(org_st, Status::kPeerFailed);
  EXPECT_EQ(cmpl_st, Status::kPeerFailed);
  EXPECT_EQ(handler_peer, 1);
  EXPECT_EQ(handler_calls, 1);
  EXPECT_EQ(handler_st, Status::kPeerFailed);
  // Detection is bounded by the backoff ladder, not open-ended.
  ASSERT_NE(detected_at, kNoTime);
  EXPECT_LT(detected_at, milliseconds(100.0));
  EXPECT_EQ(m.engine().counters().get("lapi.peer_failed"), 1);
  EXPECT_GT(m.engine().counters().get("lapi.retransmit_giveup"), 0);
  // The fabric actually enforced the crash window on the wire.
  EXPECT_GT(m.engine().counters().get("fabric.node_down"), 0);
}

// ---------------------------------------------------------------------------
// Scenario 2: crash then restart. The survivor's pre-crash retransmissions
// land in the restarted node's new life and are rejected by epoch; a fresh
// operation addressed to the new incarnation then completes normally.
// ---------------------------------------------------------------------------

TEST_P(RecoveryTest, CrashRestartStaleEpoch) {
  constexpr std::int64_t kLen = 64 * 1024;
  net::Machine m(crash_machine(GetParam(), 2));

  std::vector<std::byte> tgt(static_cast<std::size_t>(kLen));
  lapi::Counter first_life, second_life;
  Status put1_st = Status::kUnknown, put2_st = Status::kUnknown;
  bool still_failed = true;
  std::int64_t restarted_epoch = -1;

  lapi::Config cfg = fast_lapi_config();
  m.kill_node(1, microseconds(100));
  m.restart_node(1, milliseconds(1.0), [&](net::Node& n) {
    // The node's second life: a fresh context (epoch 1) that serves until
    // the survivor's retry put lands, absorbing — and rejecting — the old
    // life's stale retransmissions along the way.
    lapi::Context ctx(n, cfg);
    restarted_epoch = ctx.epoch();
    EXPECT_EQ(ctx.waitcntr(second_life, 1), Status::kOk);
  });

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n, cfg);
    if (n.id() == 0) {
      std::vector<std::byte> src(static_cast<std::size_t>(kLen),
                                 std::byte{0x77});
      lapi::Counter cmpl1;
      ASSERT_EQ(ctx.put(1, src, tgt.data(), &first_life, nullptr, &cmpl1),
                Status::kOk);
      put1_st = ctx.waitcntr(cmpl1, 1);  // ladder outlives the restart
      EXPECT_TRUE(ctx.peer_failed(1));
      // Second attempt, now addressed to incarnation 1.
      lapi::Counter cmpl2;
      ASSERT_EQ(ctx.put(1, src, tgt.data(), &second_life, nullptr, &cmpl2),
                Status::kOk);
      put2_st = ctx.waitcntr(cmpl2, 1);
      still_failed = ctx.peer_failed(1);
    } else {
      (void)ctx.waitcntr(first_life, 1);  // first life: dies waiting
    }
  }), Status::kOk);

  EXPECT_EQ(put1_st, Status::kPeerFailed);
  EXPECT_EQ(put2_st, Status::kOk);
  EXPECT_FALSE(still_failed);  // the new life's first ack cleared the latch
  EXPECT_EQ(restarted_epoch, 1);
  EXPECT_EQ(m.incarnation(1), 1);
  EXPECT_EQ(tgt[0], std::byte{0x77});  // the retry landed byte-exact
  // The old life's retransmissions reached the new life and were rejected.
  EXPECT_GT(m.engine().counters().get("lapi.stale_epoch"), 0);
  EXPECT_EQ(m.engine().counters().get("lapi.peer_failed"), 1);
}

// ---------------------------------------------------------------------------
// Scenario 3: keepalive probing races the retransmission ladder. With a
// 50 ms RTO the ladder alone would sit silent for tens of milliseconds; the
// 300 us keepalive declares the dead peer failed within ~4 intervals,
// before the first data retransmission ever fires.
// ---------------------------------------------------------------------------

TEST_P(RecoveryTest, KeepaliveVsRtoRace) {
  constexpr std::int64_t kLen = 128 * 1024;
  net::Machine m(crash_machine(GetParam(), 2));
  m.kill_node(1, microseconds(100));

  std::vector<std::byte> tgt(static_cast<std::size_t>(kLen));
  lapi::Counter tgt_cntr;
  Status cmpl_st = Status::kUnknown;
  Time detected_at = kNoTime;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Config cfg;
    cfg.retransmit_timeout = milliseconds(50.0);  // ladder out of the race
    cfg.max_retries = 10;
    cfg.keepalive_interval = microseconds(300);
    lapi::Context ctx(n, cfg);
    if (n.id() == 0) {
      std::vector<std::byte> src(static_cast<std::size_t>(kLen),
                                 std::byte{0x2B});
      lapi::Counter cmpl;
      ASSERT_EQ(ctx.put(1, src, tgt.data(), &tgt_cntr, nullptr, &cmpl),
                Status::kOk);
      cmpl_st = ctx.waitcntr(cmpl, 1);
      detected_at = ctx.engine().now();
    } else {
      (void)ctx.waitcntr(tgt_cntr, 1);  // dies waiting
    }
  }), Status::kOk);

  EXPECT_EQ(cmpl_st, Status::kPeerFailed);
  ASSERT_NE(detected_at, kNoTime);
  EXPECT_LT(detected_at, milliseconds(10.0));  // keepalive won the race
  EXPECT_GT(m.engine().counters().get("lapi.keepalive_probes"), 0);
  EXPECT_EQ(m.engine().counters().get("lapi.keepalive_failed"), 1);
  EXPECT_EQ(m.engine().counters().get("lapi.peer_failed"), 1);
  // The 50 ms data ladder never got a turn.
  EXPECT_EQ(m.engine().counters().get("lapi.retransmits"), 0);
}

// ---------------------------------------------------------------------------
// Scenario 4: crash under credit backpressure. One oversize put holds the
// whole 2-credit window while the caller blocks in the user-level credit
// gate for the next one. The peer verdict must return every leased credit
// (unparking the blocked sender), and every later put toward the dead peer
// fails at its submit — the latch stays singular.
// (Handler-context sends parked on credit_waitq_ are failed over in bulk;
// that path is covered by the transport-level cascade test.)
// ---------------------------------------------------------------------------

TEST_P(RecoveryTest, CreditBackpressureCrash) {
  constexpr std::int64_t kLen = 5000;
  net::Machine m(crash_machine(GetParam(), 2));
  m.kill_node(1, microseconds(100));

  std::vector<std::byte> tgt(static_cast<std::size_t>(kLen));
  lapi::Counter tgt_cntr;
  std::array<Status, 3> sts;
  sts.fill(Status::kUnknown);
  std::int64_t credits_after = -1;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Config cfg = fast_lapi_config();
    cfg.credit_window = 2;  // < packets per message: put 2 blocks on credits
    lapi::Context ctx(n, cfg);
    if (n.id() == 0) {
      std::vector<std::byte> src(static_cast<std::size_t>(kLen),
                                 std::byte{0x11});
      std::array<lapi::Counter, 3> cmpl;
      for (auto& c : cmpl) {
        ASSERT_EQ(ctx.put(1, src, tgt.data(), &tgt_cntr, nullptr, &c),
                  Status::kOk);
      }
      for (std::size_t i = 0; i < cmpl.size(); ++i) {
        sts[i] = ctx.waitcntr(cmpl[i], 1);
      }
      credits_after = ctx.credits_available(1);
      EXPECT_EQ(ctx.pending_sends(), 0u);
      EXPECT_EQ(ctx.outstanding(), 0);
    } else {
      (void)ctx.waitcntr(tgt_cntr, 1);  // dies waiting
    }
  }), Status::kOk);

  for (const Status st : sts) EXPECT_EQ(st, Status::kPeerFailed);
  // Full lease reclamation: the window is whole without any grant from the
  // (dead) peer, so a later send toward a restarted life can start at once.
  EXPECT_EQ(credits_after, 2);
  // Put 2 stalled in the credit gate until the failover released put 1's
  // lease; the verdict must not leave the caller parked forever.
  EXPECT_GE(m.engine().counters().get("lapi.credit_stalls"), 1);
  // One latch (and one peer_failed count) and one ladder: the put parked in
  // the credit gate and the put after it fail at submit, since they address
  // the incarnation the verdict is about (a send to a restarted life goes
  // out, see the stale-epoch scenario).
  EXPECT_EQ(m.engine().counters().get("lapi.peer_failed"), 1);
  EXPECT_EQ(m.engine().counters().get("lapi.retransmit_giveup"), 1);
  EXPECT_EQ(m.engine().counters().get("lapi.failed_ops"), 3);
}

// ---------------------------------------------------------------------------
// Scenario 5: a GA participant dies mid-workload. Survivors' transfers to
// the dead task fail over, ga_sync terminates degraded instead of hanging,
// and the sticky comm_status() reports kPeerFailed on every survivor.
// ---------------------------------------------------------------------------

TEST_P(RecoveryTest, GaDeadParticipant) {
  constexpr int kTasks = 4;
  constexpr int kDead = 2;
  constexpr std::int64_t kDim = 32;
  net::Machine m(crash_machine(GetParam(), kTasks));
  m.kill_node(kDead, milliseconds(5.0));  // after create, before the acc

  ga::Config gcfg;
  gcfg.lapi = fast_lapi_config();
  std::array<Status, kTasks> comm_status;
  comm_status.fill(Status::kUnknown);
  std::array<Time, kTasks> done_at;
  done_at.fill(kNoTime);

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    ga::Runtime rt(n, gcfg);
    ga::GlobalArray a = rt.create(kDim, kDim);
    rt.sync();  // everyone holds the array before the crash window opens
    if (rt.me() == kDead) {
      n.task().compute(milliseconds(60.0));  // killed at 5 ms, mid-compute
      ADD_FAILURE() << "the dead task outlived its crash";
      return;
    }
    n.task().compute(milliseconds(6.0));  // start the acc after the crash
    const ga::Patch whole{0, kDim - 1, 0, kDim - 1};
    std::vector<double> mine(static_cast<std::size_t>(kDim * kDim), 1.0);
    a.acc(whole, mine.data(), kDim, 1.0);  // partly targets the dead block
    rt.sync();                        // degraded, but terminates
    comm_status[static_cast<std::size_t>(rt.me())] = rt.comm_status();
    done_at[static_cast<std::size_t>(rt.me())] = rt.engine().now();
  }), Status::kOk);

  for (int t = 0; t < kTasks; ++t) {
    if (t == kDead) continue;
    EXPECT_EQ(comm_status[static_cast<std::size_t>(t)], Status::kPeerFailed)
        << "survivor " << t;
    ASSERT_NE(done_at[static_cast<std::size_t>(t)], kNoTime)
        << "survivor " << t << " never finished";
    EXPECT_LT(done_at[static_cast<std::size_t>(t)], milliseconds(200.0));
  }
  EXPECT_GE(m.engine().counters().get("lapi.peer_failed"), 1);
}

// ---------------------------------------------------------------------------
// Scenario 6: the MPL sibling transport. A rendezvous send to the dead peer
// exhausts its RTS retries; because the fabric confirms the node is down the
// verdict is kPeerFailed (not kResourceExhausted), the blocked send
// unblocks, and a posted receive naming the dead peer fails instead of
// waiting forever.
// ---------------------------------------------------------------------------

TEST_P(RecoveryTest, MplSendToDeadPeer) {
  net::Machine m(crash_machine(GetParam(), 2));
  m.kill_node(1, microseconds(100));

  Status recv_st = Status::kUnknown;
  Status comm_st = Status::kUnknown;
  bool peer_flagged = false;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    mpl::Config cfg;
    cfg.retransmit_timeout = microseconds(200);
    cfg.max_retries = 4;
    mpl::Comm comm(n, cfg);
    if (comm.rank() == 0) {
      // Rendezvous-sized: blocks in RTS/CTS, which the crash strands.
      std::vector<std::byte> big(
          static_cast<std::size_t>(comm.eager_limit() + 1), std::byte{0x42});
      EXPECT_EQ(comm.send(1, 5, big), Status::kOk);  // unblocked by failover
      std::vector<std::byte> buf(16);
      recv_st = comm.recv(1, 6, buf);
      comm_st = comm.comm_status();
      peer_flagged = comm.peer_failed(1);
    } else {
      // The victim idles (no matching recv) until the crash takes it.
      n.task().compute(milliseconds(60.0));
      ADD_FAILURE() << "the dead task outlived its crash";
    }
    comm.term();
  }), Status::kOk);

  EXPECT_EQ(recv_st, Status::kPeerFailed);
  EXPECT_EQ(comm_st, Status::kPeerFailed);
  EXPECT_TRUE(peer_flagged);
  EXPECT_EQ(m.engine().counters().get("mpl.peer_failed"), 1);
}

// Scenario 6b: once MPL has declared a peer dead, a later send toward the
// same incarnation completes at its submit: no seq, packet or timer, and the
// failure is already in comm_status().
TEST_P(RecoveryTest, MplSendToLatchedPeerFailsAtSubmit) {
  net::Machine m(crash_machine(GetParam(), 2));
  m.kill_node(1, microseconds(100));

  bool latched = false;
  bool done_at_once = false;
  Status comm_st = Status::kUnknown;
  Time issued = kNoTime;
  Time returned = kNoTime;
  std::int64_t pkts_before = -1;
  std::int64_t pkts_after = -1;
  std::int64_t rtx_before = -1;
  std::int64_t rtx_after = -1;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    mpl::Config cfg;
    cfg.retransmit_timeout = microseconds(200);
    cfg.max_retries = 4;
    mpl::Comm comm(n, cfg);
    if (comm.rank() == 0) {
      std::vector<std::byte> big(
          static_cast<std::size_t>(comm.eager_limit() + 1), std::byte{0x42});
      EXPECT_EQ(comm.send(1, 5, big), Status::kOk);  // its ladder latches
      latched = comm.peer_failed(1);
      pkts_before = m.fabric().packets_sent();
      rtx_before = m.engine().counters().get("mpl.retransmits");
      issued = m.engine().now();
      std::vector<std::byte> small(64, std::byte{0x43});
      const mpl::Request r = comm.isend(1, 6, small);
      done_at_once = comm.test(r);
      comm.wait(r);
      EXPECT_EQ(comm.send(1, 6, small), Status::kOk);
      returned = m.engine().now();
      comm_st = comm.comm_status();
      n.task().compute(milliseconds(50.0));  // anything armed would fire
      pkts_after = m.fabric().packets_sent();
      rtx_after = m.engine().counters().get("mpl.retransmits");
    } else {
      n.task().compute(milliseconds(60.0));
      ADD_FAILURE() << "the dead task outlived its crash";
    }
    comm.term();
  }), Status::kOk);

  EXPECT_TRUE(latched);
  EXPECT_TRUE(done_at_once);
  EXPECT_EQ(returned, issued);  // both sends completed at their submit
  EXPECT_EQ(comm_st, Status::kPeerFailed);
  EXPECT_EQ(pkts_after, pkts_before);
  EXPECT_EQ(rtx_after, rtx_before);
  EXPECT_EQ(m.engine().counters().get("mpl.peer_failed"), 1);
}

// ---------------------------------------------------------------------------
// Scenario 7: an MPL receive bound to a dead life, then reposted. The
// restarted sender's sequence space starts again at 0, so its first message
// reuses the (source, seq) key the dead life's rendezvous send was matched
// under. The failed first posting must not take the new message's
// completion: the repost receives it.
// ---------------------------------------------------------------------------

TEST_P(RecoveryTest, MplRepostAfterRestartReceivesTheNewLife) {
  net::Machine m(crash_machine(GetParam(), 2));
  mpl::Config cfg;
  cfg.retransmit_timeout = microseconds(200);
  cfg.max_retries = 4;
  constexpr int kTag = 7;
  m.kill_node(1, microseconds(40));  // RTS matched, no data yet
  m.restart_node(1, milliseconds(20.0), [&](net::Node& n) {
    mpl::Comm comm(n, cfg);
    const std::int32_t value = 42;
    EXPECT_EQ(comm.send(0, kTag,
                        std::span<const std::byte>(
                            reinterpret_cast<const std::byte*>(&value),
                            sizeof value)),
              Status::kOk);
    comm.term();
  });

  Status after_first = Status::kUnknown;
  std::int32_t got = 0;
  const Status run = m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n, cfg);
    if (comm.rank() == 0) {
      std::vector<std::byte> big(std::size_t{1} << 20);
      // irecv + wait, not recv: the failed posting stays registered.
      comm.wait(comm.irecv(1, kTag, big));
      after_first = comm.comm_status();
      comm.wait(comm.irecv(
          1, kTag,
          std::span<std::byte>(reinterpret_cast<std::byte*>(&got),
                               sizeof got)));
    } else {
      std::vector<std::byte> big(std::size_t{1} << 20, std::byte{0x5a});
      (void)comm.send(0, kTag, big);  // rendezvous: the crash strands it
      ADD_FAILURE() << "the first life outlived its crash";
    }
    comm.term();
  });

  EXPECT_EQ(run, Status::kOk);
  EXPECT_EQ(after_first, Status::kPeerFailed);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(m.incarnation(1), 1);
}

// Scenario 7b: a posting that failed with its peer's first life, left
// registered (wait() does not retire a failed posting). The restarted peer's
// message must skip it and go to the next posting that names it.
TEST_P(RecoveryTest, MplFailedPostingLeavesTheNewLifeToTheRepost) {
  net::Machine m(crash_machine(GetParam(), 2));
  mpl::Config cfg;
  cfg.retransmit_timeout = microseconds(200);
  cfg.max_retries = 4;
  constexpr int kTag = 8;
  m.kill_node(1, microseconds(100));
  m.restart_node(1, milliseconds(20.0), [&](net::Node& n) {
    mpl::Comm comm(n, cfg);
    const std::int32_t value = 42;
    EXPECT_EQ(comm.send(0, kTag,
                        std::span<const std::byte>(
                            reinterpret_cast<const std::byte*>(&value),
                            sizeof value)),
              Status::kOk);
    comm.term();
  });

  auto bytes_of = [](std::int32_t& v) {
    return std::span<std::byte>(reinterpret_cast<std::byte*>(&v), sizeof v);
  };
  std::int32_t a = 0;
  std::int32_t b = 0;
  bool failed_at_once = false;
  const Status run = m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n, cfg);
    if (comm.rank() == 0) {
      const mpl::Request ra = comm.irecv(1, kTag, bytes_of(a));
      std::vector<std::byte> big(
          static_cast<std::size_t>(comm.eager_limit() + 1), std::byte{0x42});
      EXPECT_EQ(comm.send(1, 5, big), Status::kOk);  // its ladder latches 1
      const Time latched = m.engine().now();
      comm.wait(ra);  // failed by the verdict
      failed_at_once = m.engine().now() == latched;
      n.task().compute(milliseconds(15.0));  // past the restart
      comm.wait(comm.irecv(1, kTag, bytes_of(b)));
    } else {
      n.task().compute(milliseconds(60.0));
      ADD_FAILURE() << "the first life outlived its crash";
    }
    comm.term();
  });

  EXPECT_EQ(run, Status::kOk);
  EXPECT_TRUE(failed_at_once);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 42);
}

// Scenario 7c: a receive naming a peer latched dead fails at its post, and
// wait() retires the failed posting as it retires a completed one, so a
// survivor that keeps posting toward the dead peer holds no state for it.
TEST_P(RecoveryTest, MplWaitRetiresFailedPostings) {
  net::Machine m(crash_machine(GetParam(), 2));
  mpl::Config cfg;
  cfg.retransmit_timeout = microseconds(200);
  cfg.max_retries = 4;
  constexpr int kTag = 8;
  constexpr int kRounds = 100;
  m.kill_node(1, microseconds(100));

  bool latched = false;
  std::size_t held = kRounds;
  const Status run = m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n, cfg);
    if (comm.rank() == 0) {
      std::vector<std::byte> big(
          static_cast<std::size_t>(comm.eager_limit() + 1), std::byte{0x42});
      EXPECT_EQ(comm.send(1, 5, big), Status::kOk);  // its ladder latches 1
      latched = comm.peer_failed(1);
      std::int32_t v = 0;
      for (int i = 0; i < kRounds; ++i) {
        comm.wait(comm.irecv(
            1, kTag,
            std::span<std::byte>(reinterpret_cast<std::byte*>(&v), sizeof v)));
      }
      held = comm.held_postings();
    } else {
      n.task().compute(milliseconds(60.0));
      ADD_FAILURE() << "the dead task outlived its crash";
    }
    comm.term();
  });

  EXPECT_EQ(run, Status::kOk);
  EXPECT_TRUE(latched);
  EXPECT_EQ(held, 0u);
}

// ---------------------------------------------------------------------------
// Scenario 8: the whole job crashes and restarts. The machine's LAPI
// bootstrap registry dies with the last context that leaves it, so the new
// lives exchange their own addresses instead of reading the dead lives'
// table.
// ---------------------------------------------------------------------------

TEST_P(RecoveryTest, WholeJobRestartExchangesAddressesAfresh) {
  net::Machine m(crash_machine(GetParam(), 2));
  std::vector<int> first(2), second(2);
  std::vector<std::vector<int*>> tables(2);
  for (int node = 0; node < 2; ++node) {
    m.kill_node(node, microseconds(100));
    m.restart_node(node, milliseconds(1.0), [&](net::Node& n) {
      lapi::Context ctx(n, fast_lapi_config());
      tables[static_cast<std::size_t>(n.id())] = lapi::testing::exchange_ptrs(
          ctx, &second[static_cast<std::size_t>(n.id())]);
    });
  }

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n, fast_lapi_config());
    (void)lapi::testing::exchange_ptrs(
        ctx, &first[static_cast<std::size_t>(n.id())]);
    lapi::Counter never;
    (void)ctx.waitcntr(never, 1);  // first life: dies waiting
  }), Status::kOk);

  for (const auto& table : tables) {
    EXPECT_EQ(table, (std::vector<int*>{&second[0], &second[1]}));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryTest, ::testing::ValuesIn(kSeeds),
                         seed_name);

}  // namespace
}  // namespace splap
