// Reliability layer: the SP switch can drop packets (modelled fault
// injection); LAPI's internal copy of small messages, per-message acks and
// timeout-driven retransmission must deliver exactly-once semantics for
// puts, gets, active messages and rmw.
//
// The loss tests are parameterized over fabric seeds: a reliability claim
// that only holds for one RNG stream is no claim at all. Each seed produces
// a different loss pattern (which packets, in which order, how bursty the
// retransmit pile-up gets) and every one must converge to the same result.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "lapi_test_util.hpp"

namespace splap::lapi {
namespace {

using testing::machine_config;
using testing::run_lapi;

Config fast_retry() {
  Config c;
  c.retransmit_timeout = microseconds(200);
  c.max_retries = 20;
  return c;
}

/// Fabric seeds for the loss sweeps (arbitrary, fixed for reproducibility).
const std::uint64_t kSeeds[] = {3, 7, 19, 42, 101, 1001};

class LapiSeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LapiSeedSweepTest, PutSurvivesPacketLoss) {
  auto cfg = machine_config(2);
  cfg.fabric.drop_rate = 0.08;
  cfg.fabric.seed = GetParam();
  net::Machine m(cfg);
  const std::int64_t kLen = 40 * 1000;
  std::vector<std::byte> tgt(static_cast<std::size_t>(kLen));
  ASSERT_EQ(run_lapi(m, fast_retry(), [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(static_cast<std::size_t>(kLen));
      for (std::int64_t i = 0; i < kLen; ++i) {
        src[static_cast<std::size_t>(i)] = static_cast<std::byte>(i % 241);
      }
      Counter cmpl;
      ASSERT_EQ(ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl),
                Status::kOk);
      EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
    }
  }), Status::kOk);
  for (std::int64_t i = 0; i < kLen; ++i) {
    ASSERT_EQ(tgt[static_cast<std::size_t>(i)],
              static_cast<std::byte>(i % 241));
  }
  EXPECT_GT(m.fabric().packets_dropped(), 0) << "fault injection inert";
  EXPECT_GT(m.engine().counters().get("lapi.retransmits"), 0);
}

TEST_P(LapiSeedSweepTest, DuplicateDeliveryIsSuppressed) {
  // Retransmissions inevitably duplicate packets that were NOT lost; the
  // target counter must still fire exactly once per operation.
  auto cfg = machine_config(2);
  cfg.fabric.drop_rate = 0.15;
  cfg.fabric.seed = GetParam();
  net::Machine m(cfg);
  Counter tgt_cntr;
  std::vector<std::byte> tgt(2048);
  std::int64_t observed = -1;
  ASSERT_EQ(run_lapi(m, fast_retry(), [&](Context& ctx) {
    std::vector<void*> tab(2);
    ctx.address_init(&tgt_cntr, tab);
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(2048, std::byte{0x11});
      Counter cmpl;
      for (int i = 0; i < 10; ++i) {
        ASSERT_EQ(ctx.put(1, src, tgt.data(),
                          static_cast<Counter*>(tab[1]), nullptr, &cmpl),
                  Status::kOk);
      }
      EXPECT_EQ(ctx.waitcntr(cmpl, 10), Status::kOk);
      EXPECT_EQ(ctx.gfence(), Status::kOk);
    } else {
      EXPECT_EQ(ctx.gfence(), Status::kOk);
      observed = ctx.getcntr(tgt_cntr);
    }
  }), Status::kOk);
  EXPECT_EQ(observed, 10);  // exactly once per put, despite duplicates
}

TEST_P(LapiSeedSweepTest, GetSurvivesLossOfRequestOrReply) {
  auto cfg = machine_config(2);
  cfg.fabric.drop_rate = 0.12;
  cfg.fabric.seed = GetParam();
  net::Machine m(cfg);
  std::vector<std::int64_t> remote(512);
  for (int i = 0; i < 512; ++i) remote[static_cast<std::size_t>(i)] = i * 3;
  ASSERT_EQ(run_lapi(m, fast_retry(), [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      for (int round = 0; round < 5; ++round) {
        std::vector<std::int64_t> local(512, -1);
        Counter org;
        ASSERT_EQ(ctx.get(1, 512 * 8,
                          reinterpret_cast<const std::byte*>(remote.data()),
                          reinterpret_cast<std::byte*>(local.data()), nullptr,
                          &org),
                  Status::kOk);
        EXPECT_EQ(ctx.waitcntr(org, 1), Status::kOk);
        for (int i = 0; i < 512; ++i) {
          ASSERT_EQ(local[static_cast<std::size_t>(i)], i * 3);
        }
      }
    }
  }), Status::kOk);
  EXPECT_GT(m.fabric().packets_dropped(), 0);
}

TEST_P(LapiSeedSweepTest, RmwExecutesExactlyOnceUnderLoss) {
  // A lost response must not re-execute the fetch-and-add: the target
  // caches the result and replays it (idempotence cache).
  auto cfg = machine_config(2);
  cfg.fabric.drop_rate = 0.2;
  cfg.fabric.seed = GetParam();
  net::Machine m(cfg);
  std::int64_t var = 0;
  std::vector<std::int64_t> prevs;
  ASSERT_EQ(run_lapi(m, fast_retry(), [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      for (int i = 0; i < 30; ++i) {
        prevs.push_back(ctx.rmw_sync(RmwOp::kFetchAndAdd, 1, &var, 1));
      }
    }
  }), Status::kOk);
  EXPECT_EQ(var, 30);  // exactly once each
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(prevs[static_cast<std::size_t>(i)], i);  // strict sequence
  }
}

TEST_P(LapiSeedSweepTest, CompletionAckLossRecoveredByProbe) {
  // Drop-heavy run with completion handlers: the DONE ack can be lost after
  // the data ack; the origin's probe must recover the completion counter.
  auto cfg = machine_config(2);
  cfg.fabric.drop_rate = 0.25;
  cfg.fabric.seed = GetParam();
  net::Machine m(cfg);
  std::vector<std::byte> landing(128);
  int completions = 0;
  ASSERT_EQ(run_lapi(m, fast_retry(), [&](Context& ctx) {
    const AmHandlerId h = ctx.register_handler(
        [&](Context&, const AmDelivery&) -> AmReply {
          AmReply r;
          r.buffer = landing.data();
          r.completion = [&](Context&, sim::Actor& svc) {
            ++completions;
            svc.compute(microseconds(3));
          };
          return r;
        });
    if (ctx.task_id() == 0) {
      std::vector<std::byte> data(128, std::byte{5});
      Counter cmpl;
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(ctx.amsend(1, h, {}, data, nullptr, nullptr, &cmpl),
                  Status::kOk);
      }
      EXPECT_EQ(ctx.waitcntr(cmpl, 8), Status::kOk);
    }
  }), Status::kOk);
  EXPECT_EQ(completions, 8);  // handlers never re-run on duplicates
}

TEST_P(LapiSeedSweepTest, AdaptiveTimeoutRecoversAndLearnsRtt) {
  // The Jacobson/Karn adaptive policy must preserve exactly-once delivery
  // under loss while actually learning an RTT estimate from clean acks.
  auto cfg = machine_config(2);
  cfg.fabric.drop_rate = 0.1;
  cfg.fabric.seed = GetParam();
  net::Machine m(cfg);
  const std::int64_t kLen = 20 * 1000;
  std::vector<std::byte> tgt(static_cast<std::size_t>(kLen));
  Time srtt = 0;
  Config lc = fast_retry();
  lc.adaptive_timeout = true;
  ASSERT_EQ(run_lapi(m, lc, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(static_cast<std::size_t>(kLen));
      for (std::int64_t i = 0; i < kLen; ++i) {
        src[static_cast<std::size_t>(i)] = static_cast<std::byte>(i % 199);
      }
      Counter cmpl;
      // Small single-packet puts: most complete without a retransmit, so
      // Karn's rule admits their ack RTTs as samples.
      for (int round = 0; round < 10; ++round) {
        ASSERT_EQ(ctx.put(1, std::span<const std::byte>(src.data(), 256),
                          tgt.data(), nullptr, nullptr, &cmpl),
                  Status::kOk);
        EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
      }
      // Large multi-packet puts then ride on the learned estimate.
      for (int round = 0; round < 4; ++round) {
        ASSERT_EQ(ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl),
                  Status::kOk);
        EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
      }
      srtt = ctx.srtt();
    }
  }), Status::kOk);
  for (std::int64_t i = 0; i < kLen; ++i) {
    ASSERT_EQ(tgt[static_cast<std::size_t>(i)],
              static_cast<std::byte>(i % 199));
  }
  EXPECT_GT(srtt, 0) << "no RTT sample was ever taken";
  EXPECT_LT(srtt, milliseconds(4.0)) << "estimate never tightened";
}

INSTANTIATE_TEST_SUITE_P(FabricSeeds, LapiSeedSweepTest,
                         ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

TEST(LapiReliabilityTest, CleanFabricNeverRetransmits) {
  net::Machine m(machine_config(2));
  std::vector<std::byte> tgt(64 * 1024);
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(64 * 1024, std::byte{1});
      Counter cmpl;
      ASSERT_EQ(ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl),
                Status::kOk);
      EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
    }
  }), Status::kOk);
  EXPECT_EQ(m.engine().counters().get("lapi.retransmits"), 0);
  EXPECT_EQ(m.fabric().packets_dropped(), 0);
}

TEST(LapiReliabilityTest, StaleTimeoutAfterAckNeverRetransmits) {
  // Regression for the timeout_gen invalidation audit: arm an aggressive
  // retransmit timer on a clean fabric so the ack always beats it, then
  // keep the task alive past the timer's fire time. The late timeout must
  // observe the reclaimed record (or a bumped generation) and do nothing:
  // zero retransmits, with the stale firings accounted.
  net::Machine m(machine_config(2));
  std::vector<std::byte> tgt(32 * 1024);
  Config cfg;
  cfg.retransmit_timeout = microseconds(40);
  cfg.adaptive_timeout = false;
  ASSERT_EQ(run_lapi(m, cfg, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(32 * 1024, std::byte{0x5A});
      Counter cmpl;
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl),
                  Status::kOk);
        EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
      }
      EXPECT_EQ(ctx.pending_sends(), 0u);
      // Outlive every armed timer while the context still exists, so each
      // one actually fires (and is seen to be stale) rather than being
      // discarded at teardown.
      ctx.node().task().compute(milliseconds(20.0));
    }
  }), Status::kOk);
  EXPECT_EQ(tgt[0], std::byte{0x5A});
  EXPECT_GT(m.engine().counters().get("lapi.stale_timeouts"), 0);
  EXPECT_EQ(m.fabric().packets_dropped(), 0);
}

TEST(LapiReliabilityTest, RetryExhaustionSurfacesNotHangs) {
  // An unreachable target (its task never constructs a Context, so every
  // packet dead-letters at the adapter) must not hang the origin: once
  // max_retries is spent the crash-stop detector declares the peer dead,
  // each operation's wait returns kPeerFailed, all in-flight records are
  // reclaimed, and the run terminates cleanly. The never-inited task is the
  // one legitimate dead-letter producer, so the run opts into them.
  net::Machine m(machine_config(2));
  m.allow_dead_letters();
  Status small_org = Status::kUnknown, small_cmpl = Status::kUnknown;
  Status big_org = Status::kUnknown;
  Status get_org = Status::kUnknown;
  Status rmw_org = Status::kUnknown;
  std::vector<std::byte> tgt(64 * 1024);
  std::int64_t remote_var = 0;
  int outstanding_after = -1;
  std::size_t pending_after = 1;
  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    if (n.id() != 0) return;  // task 1: no LAPI context, ever
    Config cfg;
    cfg.retransmit_timeout = microseconds(150);
    cfg.max_retries = 3;
    cfg.adaptive_timeout = true;  // exercise the backoff+jitter give-up path
    Context ctx(n, cfg);

    // Small put: the source was bcopied at the call, so the origin counter
    // completes OK at injection; only the completion counter fails.
    std::vector<std::byte> src_small(256, std::byte{1});
    Counter org1, cmpl1;
    ASSERT_EQ(ctx.put(1, src_small, tgt.data(), nullptr, &org1, &cmpl1),
              Status::kOk);
    small_org = ctx.waitcntr(org1, 1);
    small_cmpl = ctx.waitcntr(cmpl1, 1);

    // Large (zero-copy) put: the origin counter itself rides on the data
    // ack, so the failure surfaces there.
    std::vector<std::byte> src_big(64 * 1024, std::byte{2});
    Counter org2;
    ASSERT_EQ(ctx.put(1, src_big, tgt.data(), nullptr, &org2, nullptr),
              Status::kOk);
    big_org = ctx.waitcntr(org2, 1);

    // Get and rmw: their origin counters complete only via the reply.
    std::vector<std::byte> local(128);
    Counter org3;
    ASSERT_EQ(ctx.get(1, 128, tgt.data(), local.data(), nullptr, &org3),
              Status::kOk);
    get_org = ctx.waitcntr(org3, 1);

    Counter org4;
    ASSERT_EQ(ctx.rmw(RmwOp::kFetchAndAdd, 1, &remote_var, 1, 0, nullptr,
                      &org4),
              Status::kOk);
    rmw_org = ctx.waitcntr(org4, 1);

    outstanding_after = ctx.outstanding();
    pending_after = ctx.pending_sends();
  }), Status::kOk);

  EXPECT_EQ(small_org, Status::kOk);
  EXPECT_EQ(small_cmpl, Status::kPeerFailed);
  EXPECT_EQ(big_org, Status::kPeerFailed);
  EXPECT_EQ(get_org, Status::kPeerFailed);
  EXPECT_EQ(rmw_org, Status::kPeerFailed);
  EXPECT_EQ(outstanding_after, 0);
  EXPECT_EQ(pending_after, 0u);  // every record reclaimed, nothing leaked
  EXPECT_EQ(remote_var, 0);      // the rmw was never executed
  // One ladder: the first give-up latches task 1 dead, and the three later
  // operations fail at submit instead of each exhausting its own.
  EXPECT_EQ(m.engine().counters().get("lapi.retransmit_giveup"), 1);
  EXPECT_EQ(m.engine().counters().get("lapi.failed_ops"), 4);
  EXPECT_GT(m.node(1).adapter().dead_letters(), 0);
}

TEST(LapiReliabilityTest, RetryExhaustionIsDeterministic) {
  // The give-up path (backoff schedule, jitter draws, counter state) must be
  // bit-identical across runs: same virtual end time, same counters.
  auto one_run = [](Time* end, std::int64_t* retransmits) {
    net::Machine m(machine_config(2));
    m.allow_dead_letters();  // task 1 never inits: its packets dead-letter
    ASSERT_EQ(m.run_spmd([&](net::Node& n) {
      if (n.id() != 0) return;
      Config cfg;
      cfg.retransmit_timeout = microseconds(150);
      cfg.max_retries = 5;
      cfg.adaptive_timeout = true;
      Context ctx(n, cfg);
      std::vector<std::byte> src(4096, std::byte{7});
      std::vector<std::byte> tgt(4096);
      Counter cmpl;
      ASSERT_EQ(ctx.put(1, src, tgt.data(), nullptr, nullptr, &cmpl),
                Status::kOk);
      EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kPeerFailed);
      *end = ctx.engine().now();
    }), Status::kOk);
    *retransmits = m.engine().counters().get("lapi.retransmits");
  };
  Time end_a = 0, end_b = 0;
  std::int64_t rx_a = 0, rx_b = 0;
  one_run(&end_a, &rx_a);
  one_run(&end_b, &rx_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(rx_a, rx_b);
  EXPECT_EQ(rx_a, 5);  // exactly max_retries transmitted again
}

class LapiLossSweepTest
    : public ::testing::TestWithParam<std::tuple<double, std::int64_t>> {};

TEST_P(LapiLossSweepTest, RandomizedTrafficDeliversExactly) {
  const auto [drop, len] = GetParam();
  auto cfg = machine_config(4);
  cfg.fabric.drop_rate = drop;
  cfg.fabric.seed = static_cast<std::uint64_t>(len) * 31 + 1;
  net::Machine m(cfg);
  // Per-(src,dst) receive cells, written round-robin.
  std::vector<std::vector<std::byte>> cells(
      16, std::vector<std::byte>(static_cast<std::size_t>(len)));
  ASSERT_EQ(run_lapi(m, fast_retry(), [&](Context& ctx) {
    Rng rng(static_cast<std::uint64_t>(ctx.task_id()) + 99);
    std::vector<std::byte> src(static_cast<std::size_t>(len));
    for (auto& b : src) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    Counter cmpl;
    int sent = 0;
    for (int t = 0; t < 4; ++t) {
      if (t == ctx.task_id()) continue;
      auto& cell = cells[static_cast<std::size_t>(ctx.task_id() * 4 + t)];
      ASSERT_EQ(ctx.put(t, src, cell.data(), nullptr, nullptr, &cmpl),
                Status::kOk);
      ++sent;
    }
    EXPECT_EQ(ctx.waitcntr(cmpl, sent), Status::kOk);
    // Verify own payload landed intact everywhere.
    EXPECT_EQ(ctx.gfence(), Status::kOk);
    for (int t = 0; t < 4; ++t) {
      if (t == ctx.task_id()) continue;
      auto& cell = cells[static_cast<std::size_t>(ctx.task_id() * 4 + t)];
      for (std::int64_t i = 0; i < len; ++i) {
        ASSERT_EQ(cell[static_cast<std::size_t>(i)],
                  src[static_cast<std::size_t>(i)])
            << "src task " << ctx.task_id() << " -> " << t << " offset " << i;
      }
    }
  }), Status::kOk);
}

INSTANTIATE_TEST_SUITE_P(
    LossAndSize, LapiLossSweepTest,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.15),
                       ::testing::Values<std::int64_t>(1, 500, 4096, 20000)),
    [](const ::testing::TestParamInfo<LapiLossSweepTest::ParamType>& info) {
      return "drop" +
             std::to_string(static_cast<int>(std::get<0>(info.param) * 100)) +
             "_len" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace splap::lapi
