// Unit tests for the accrual suspicion estimator (the math of the adaptive
// failure detector), plus a flap test driving the full suspected -> healed
// -> suspected lifecycle through the simulated stack to prove that repeated
// transitions leak nothing — no credits, no quarantined records, no retry
// budget.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "lapi/context.hpp"
#include "lapi/reliable.hpp"
#include "net/machine.hpp"
#include "sim/sync.hpp"

namespace splap {
namespace {

using lapi::AccrualEstimator;

// ---------------------------------------------------------------------------
// Estimator math
// ---------------------------------------------------------------------------

TEST(AccrualEstimatorTest, WarmupGatesSuspicion) {
  AccrualEstimator est;
  // No samples: silence means nothing, however long.
  EXPECT_EQ(est.suspicion(microseconds(1000)), 0.0);
  // One arrival = zero gaps; two arrivals = one gap; ...; suspicion stays
  // gated until kWarmupSamples gaps exist.
  Time t = 0;
  for (int arrivals = 1; arrivals <= AccrualEstimator::kWarmupSamples;
       ++arrivals) {
    est.observe(t);
    EXPECT_FALSE(est.warmed_up()) << "after " << arrivals << " arrivals";
    EXPECT_EQ(est.suspicion(t + microseconds(500)), 0.0);
    t += microseconds(10);
  }
  est.observe(t);  // gap #kWarmupSamples
  EXPECT_TRUE(est.warmed_up());
  EXPECT_GT(est.suspicion(t + microseconds(500)), 0.0);
}

TEST(AccrualEstimatorTest, SuspicionGrowsMonotonicallyWithSilence) {
  AccrualEstimator est;
  Time t = 0;
  for (int i = 0; i < 8; ++i) {
    est.observe(t);
    t += microseconds(20);
  }
  // Perfectly periodic traffic: mean = 20 us, stddev = 0, so suspicion is
  // silence / (mean + 1 ns) — about 1 per 20 us of silence. The last
  // arrival was at t - 20us, so step k corresponds to k+1 missed periods.
  double prev = 0.0;
  for (int k = 1; k <= 10; ++k) {
    const double s = est.suspicion(t + k * microseconds(20));
    EXPECT_GT(s, prev) << "silence step " << k;
    prev = s;
  }
  EXPECT_NEAR(prev, 11.0, 0.1);  // 11 missed periods ~ suspicion 11
  // An arrival right now resets suspicion to zero.
  est.observe(t + microseconds(200));
  EXPECT_EQ(est.suspicion(t + microseconds(200)), 0.0);
}

TEST(AccrualEstimatorTest, VarianceWidensTolerance) {
  // Same mean gap (30 us), different jitter: the bursty peer must earn a
  // wider silence tolerance — that is the whole point of accrual detection.
  AccrualEstimator steady, bursty;
  Time ts = 0, tb = 0;
  const std::array<Time, 6> bursty_gaps = {
      microseconds(5),  microseconds(55), microseconds(10),
      microseconds(50), microseconds(15), microseconds(45)};
  steady.observe(ts);
  bursty.observe(tb);
  for (int i = 0; i < 6; ++i) {
    ts += microseconds(30);
    steady.observe(ts);
    tb += bursty_gaps[static_cast<std::size_t>(i)];
    bursty.observe(tb);
  }
  EXPECT_NEAR(steady.mean(), bursty.mean(), 1.0);
  EXPECT_GT(bursty.stddev(), steady.stddev());
  const Time silence = microseconds(120);
  EXPECT_LT(bursty.suspicion(tb + silence), steady.suspicion(ts + silence));
}

TEST(AccrualEstimatorTest, WindowEvictsOldGaps) {
  // A 4-gap window full of 100 us gaps, then four 10 us gaps: the old rhythm
  // must be fully forgotten, leaving mean == 10 us exactly.
  AccrualEstimator est(/*window=*/4);
  Time t = 0;
  est.observe(t);
  for (int i = 0; i < 4; ++i) {
    t += microseconds(100);
    est.observe(t);
  }
  EXPECT_NEAR(est.mean(), static_cast<double>(microseconds(100)), 1.0);
  for (int i = 0; i < 4; ++i) {
    t += microseconds(10);
    est.observe(t);
  }
  EXPECT_NEAR(est.mean(), static_cast<double>(microseconds(10)), 1.0);
  EXPECT_NEAR(est.stddev(), 0.0, 1.0);
}

TEST(AccrualEstimatorTest, ResetForgetsTheOldLife) {
  // A dead or restarted peer's next life is judged from scratch: fail_peer
  // and on_peer_reborn drop the estimator and the keepalive window through
  // PeerState::forget_rhythm.
  lapi::PeerState p(/*window=*/0);
  p.accrual.emplace(lapi::kAccrualWindow);
  Time t = 0;
  for (int i = 0; i < 5; ++i) {
    p.accrual->observe(t);
    t += microseconds(10);
  }
  ASSERT_TRUE(p.accrual->warmed_up());
  p.probed = true;
  p.heard = true;
  p.misses = 2;
  p.forget_rhythm();
  EXPECT_FALSE(p.accrual.has_value());
  EXPECT_FALSE(p.probed);
  EXPECT_FALSE(p.heard);
  EXPECT_EQ(p.misses, 0);
  // The new life warms up from scratch, as note_heard rebuilds it.
  p.accrual.emplace(lapi::kAccrualWindow);
  EXPECT_EQ(p.accrual->suspicion(t + microseconds(1000)), 0.0);
  p.accrual->observe(t);
  p.accrual->observe(t + microseconds(10));
  EXPECT_FALSE(p.accrual->warmed_up());
}

TEST(AccrualEstimatorTest, ClockGoingBackwardsIsIgnored) {
  // Defensive: out-of-order observe() calls must not poison the window with
  // a negative gap (they can't happen in virtual time, but the estimator is
  // a public class).
  AccrualEstimator est;
  est.observe(microseconds(100));
  est.observe(microseconds(50));  // ignored as a gap sample
  EXPECT_EQ(est.samples(), 0);
}

// ---------------------------------------------------------------------------
// Flap lifecycle: two partition windows in sequence drive the same peer
// through suspected -> healed -> suspected -> healed. Nothing may leak
// across the transitions: all puts complete, the credit window returns to
// full, no record stays quarantined, and no death verdict ever fires.
// ---------------------------------------------------------------------------

TEST(DetectorFlapTest, SuspectHealFlapLeaksNothing) {
  constexpr int kPuts = 24;
  constexpr std::int64_t kLen = 512;
  net::Machine::Config mc;
  mc.tasks = 2;
  mc.fabric.seed = 301;
  mc.fabric.fault.seed = 43;
  // Two reply-direction blackholes with a healthy gap between them. The
  // second cut is longer: by then the estimator has absorbed the first
  // episode's recovery gap into its window, so its silence tolerance is
  // wider and a 450 us cut would no longer cross the suspect threshold.
  for (const auto& [from, until] :
       {std::pair<Time, Time>{microseconds(250), microseconds(700)},
        std::pair<Time, Time>{microseconds(1100), microseconds(1900)}}) {
    net::PartitionFault cut;
    cut.src = 1;
    cut.dst = 0;
    cut.from = from;
    cut.until = until;
    mc.fabric.fault.partitions.push_back(cut);
  }
  net::Machine m(mc);

  std::array<std::vector<std::byte>, kPuts> tgt;
  for (auto& t : tgt) t.resize(static_cast<std::size_t>(kLen));
  int failed = 0;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Config cfg;
    cfg.retransmit_timeout = microseconds(150);
    cfg.max_retries = 12;
    cfg.credit_window = 4;
    if (n.id() == 0) {
      cfg.keepalive_interval = microseconds(30);
      cfg.suspect_threshold = 2.0;
      cfg.fail_threshold = 1e6;  // flapping must never escalate here
    }
    lapi::Context ctx(n, cfg);
    if (n.id() == 0) {
      std::vector<std::byte> src(static_cast<std::size_t>(kLen),
                                 std::byte{0x5A});
      for (int i = 0; i < kPuts; ++i) {
        lapi::Counter cmpl;
        ASSERT_EQ(ctx.put(1, src, tgt[static_cast<std::size_t>(i)].data(),
                          nullptr, nullptr, &cmpl),
                  Status::kOk);
        if (ctx.waitcntr(cmpl, 1) != Status::kOk) ++failed;
        // Keep a rhythm between puts so each healthy stretch re-warms the
        // estimator before the next cut.
        sim::Actor::current()->compute(microseconds(20));
      }
      EXPECT_FALSE(ctx.peer_failed(1));
      EXPECT_FALSE(ctx.peer_suspected(1));
      EXPECT_EQ(ctx.suspect_queued(), 0u);
      EXPECT_EQ(ctx.pending_sends(), 0u);
      EXPECT_EQ(ctx.credits_available(1), 4);
    } else {
      // Passive: the puts land through the dispatcher. The lifetime must
      // comfortably outlast the origin's full loop (~140 us per put plus
      // two stall episodes) — if this task terms while a put is in flight,
      // the origin quarantines a genuinely-dead peer and hangs.
      sim::Actor::current()->compute(milliseconds(8.0));
    }
  }), Status::kOk);

  EXPECT_EQ(failed, 0);
  // Two distinct suspicion episodes, each healed; heal count matches suspect
  // count exactly (no stuck quarantine, no double-heal credit replay).
  EXPECT_GE(m.engine().counters().get("lapi.peer_suspected"), 2);
  EXPECT_EQ(m.engine().counters().get("lapi.peer_suspected"),
            m.engine().counters().get("lapi.peer_healed"));
  EXPECT_EQ(m.engine().counters().get("lapi.peer_failed"), 0);
  EXPECT_EQ(m.engine().counters().get("lapi.accrual_failed"), 0);
  EXPECT_EQ(m.engine().counters().get("lapi.keepalive_failed"), 0);
  EXPECT_EQ(m.engine().counters().get("lapi.retransmit_giveup"), 0);
}

}  // namespace
}  // namespace splap
