// Cross-module integration tests:
//  - LAPI and MPI/MPL coexisting in one application on the same adapter
//    (the paper: "IBM offers the use of both MPI and LAPI in the same
//    application"),
//  - the full GA stack running over a lossy fabric (reliability end to end
//    through every layer),
//  - larger-scale runs (16 tasks) of the collective and atomic machinery.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ga/runtime.hpp"
#include "lapi/context.hpp"
#include "mpl/comm.hpp"

namespace splap {
namespace {

net::Machine::Config machine_config(int tasks) {
  net::Machine::Config c;
  c.tasks = tasks;
  return c;
}

TEST(IntegrationTest, LapiAndMpiCoexistInOneApplication) {
  // Each task opens BOTH libraries; the halves of the program use whichever
  // paradigm fits (one-sided for the irregular update, send/recv for the
  // regular exchange) and the packets demultiplex by adapter client.
  net::Machine m(machine_config(4));
  std::vector<std::int64_t> lapi_cells(4, 0);
  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n);
    mpl::Comm comm(n);
    const int me = n.id();
    // One-sided half: everyone rmw-increments a cell on task 0.
    std::vector<void*> tab(4);
    ctx.address_init(lapi_cells.data(), tab);
    (void)ctx.rmw_sync(lapi::RmwOp::kFetchAndAdd, 0,
                       static_cast<std::int64_t*>(tab[0]), 1);
    // Two-sided half: a ring exchange over MPI.
    const int right = (me + 1) % 4, left = (me + 3) % 4;
    const int out = me * 7;
    int in = -1;
    const mpl::Request r = comm.irecv(
        left, 9, std::span<std::byte>(reinterpret_cast<std::byte*>(&in), 4));
    ASSERT_EQ(comm.send(right, 9,
                        std::span<const std::byte>(
                            reinterpret_cast<const std::byte*>(&out), 4)),
              Status::kOk);
    comm.wait(r);
    EXPECT_EQ(in, left * 7);
    // Quiesce both libraries.
    EXPECT_EQ(ctx.gfence(), Status::kOk);
    comm.barrier();
  }), Status::kOk);
  EXPECT_EQ(lapi_cells[0], 4);
}

TEST(IntegrationTest, BothLibrariesInitialiseAgainInALaterPhase) {
  // Each phase opens and closes a LAPI context and an MPL communicator on
  // every node: the second phase registers over the slots the first one
  // retired.
  constexpr int kTasks = 3;
  net::Machine m(machine_config(kTasks));
  std::vector<std::int64_t> cells(kTasks, 0);
  for (std::int64_t phase = 1; phase <= 2; ++phase) {
    ASSERT_EQ(m.run_spmd([&](net::Node& n) {
      const int me = n.id();
      {
        lapi::Context ctx(n);
        std::vector<void*> tab(kTasks);
        ctx.address_init(&cells[static_cast<std::size_t>(me)], tab);
        const int right = (me + 1) % kTasks;
        const std::int64_t v = phase * 10 + me;
        ASSERT_EQ(ctx.put(right,
                          std::span<const std::byte>(
                              reinterpret_cast<const std::byte*>(&v), sizeof v),
                          static_cast<std::byte*>(
                              tab[static_cast<std::size_t>(right)]),
                          nullptr, nullptr, nullptr),
                  Status::kOk);
        EXPECT_EQ(ctx.gfence(), Status::kOk);
        ctx.term();
      }
      mpl::Comm comm(n);
      comm.barrier();
    }), Status::kOk);
    for (int t = 0; t < kTasks; ++t) {
      EXPECT_EQ(cells[static_cast<std::size_t>(t)],
                phase * 10 + (t + kTasks - 1) % kTasks);
    }
  }
}

TEST(IntegrationTest, InterleavedTrafficKeepsClientsSeparate) {
  // Heavy concurrent traffic on both protocols between the same node pair;
  // each library's bytes must arrive intact (adapter demux under load).
  net::Machine m(machine_config(2));
  const std::int64_t kLen = 30000;
  std::vector<std::byte> lapi_dst(static_cast<std::size_t>(kLen));
  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n);
    mpl::Comm comm(n);
    if (n.id() == 0) {
      std::vector<std::byte> a(static_cast<std::size_t>(kLen)),
          b(static_cast<std::size_t>(kLen));
      for (std::int64_t i = 0; i < kLen; ++i) {
        a[static_cast<std::size_t>(i)] = static_cast<std::byte>(i % 251);
        b[static_cast<std::size_t>(i)] = static_cast<std::byte>(i % 127);
      }
      lapi::Counter cmpl;
      ASSERT_EQ(ctx.put(1, a, lapi_dst.data(), nullptr, nullptr, &cmpl),
                Status::kOk);
      ASSERT_EQ(comm.send(1, 3, b), Status::kOk);  // interleaves on the wire
      EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
    } else {
      std::vector<std::byte> got(static_cast<std::size_t>(kLen));
      ASSERT_EQ(comm.recv(0, 3, got), Status::kOk);
      for (std::int64_t i = 0; i < kLen; ++i) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  static_cast<std::byte>(i % 127));
      }
    }
    EXPECT_EQ(ctx.gfence(), Status::kOk);
    comm.barrier();
  }), Status::kOk);
  for (std::int64_t i = 0; i < kLen; ++i) {
    ASSERT_EQ(lapi_dst[static_cast<std::size_t>(i)],
              static_cast<std::byte>(i % 251));
  }
}

class GaLossyTest : public ::testing::TestWithParam<ga::Transport> {};

TEST_P(GaLossyTest, FullGaStackSurvivesPacketLoss) {
  // Drop injection exercises the reliability layers underneath GA end to
  // end: LAPI retransmission or MPL retransmission, duplicate suppression,
  // and the exactly-once semantics of accumulate.
  auto mc = machine_config(4);
  mc.fabric.drop_rate = 0.05;
  mc.fabric.seed = 97;
  net::Machine m(mc);
  ga::Config cfg;
  cfg.transport = GetParam();
  cfg.lapi.retransmit_timeout = microseconds(400);
  cfg.lapi.max_retries = 20;
  std::vector<double> sums;
  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    ga::Runtime rt(n, cfg);
    ga::GlobalArray a = rt.create(40, 40);
    rt.sync();
    std::vector<double> v(1600, 1.0);
    for (int r = 0; r < 3; ++r) {
      a.acc(ga::Patch{0, 39, 0, 39}, v.data(), 40, 1.0);
    }
    rt.sync();
    if (rt.me() == 0) {
      std::vector<double> all(1600);
      a.get(ga::Patch{0, 39, 0, 39}, all.data(), 40);
      sums.push_back(std::accumulate(all.begin(), all.end(), 0.0));
    }
    rt.sync();
    rt.destroy(a);
  }), Status::kOk);
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_DOUBLE_EQ(sums[0], 4 * 3 * 1600.0);  // exactly once, despite drops
  EXPECT_GT(m.fabric().packets_dropped(), 0);
}

INSTANTIATE_TEST_SUITE_P(Transports, GaLossyTest,
                         ::testing::Values(ga::Transport::kLapi,
                                           ga::Transport::kMpl),
                         [](const ::testing::TestParamInfo<ga::Transport>& i) {
                           return i.param == ga::Transport::kLapi ? "Lapi"
                                                                  : "Mpl";
                         });

TEST(IntegrationTest, SixteenTaskGfenceAndRmwScale) {
  net::Machine m(machine_config(16));
  std::int64_t counter = 0;
  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n);
    std::vector<void*> tab(16);
    ctx.address_init(&counter, tab);
    for (int round = 0; round < 3; ++round) {
      (void)ctx.rmw_sync(lapi::RmwOp::kFetchAndAdd, 0,
                         static_cast<std::int64_t*>(tab[0]), 1);
      EXPECT_EQ(ctx.gfence(), Status::kOk);
    }
    EXPECT_EQ(ctx.gfence(), Status::kOk);
  }), Status::kOk);
  EXPECT_EQ(counter, 16 * 3);
}

TEST(IntegrationTest, SixteenTaskGaWorkload) {
  net::Machine m(machine_config(16));
  std::vector<double> readback;
  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    ga::Runtime rt(n);
    ga::GlobalArray a = rt.create(64, 64);
    rt.sync();
    // Everyone writes its own block, accumulates into the neighbour's.
    const ga::Patch blk = a.my_block();
    std::vector<double> v(static_cast<std::size_t>(blk.elems()), 1.0);
    a.put(blk, v.data(), blk.rows());
    rt.sync();
    const ga::Patch nb = a.block_of((rt.me() + 1) % 16);
    std::vector<double> w(static_cast<std::size_t>(nb.elems()), 2.0);
    a.acc(nb, w.data(), nb.rows(), 1.0);
    rt.sync();
    if (rt.me() == 0) {
      std::vector<double> all(64 * 64);
      a.get(ga::Patch{0, 63, 0, 63}, all.data(), 64);
      readback = all;
    }
    rt.sync();
    rt.destroy(a);
  }), Status::kOk);
  ASSERT_EQ(readback.size(), 64u * 64u);
  for (const double x : readback) {
    ASSERT_DOUBLE_EQ(x, 3.0);  // 1.0 put by owner + 2.0 accumulated
  }
}

TEST(IntegrationTest, VirtualTimeIsDeterministicAcrossRuns) {
  auto run_once = [] {
    net::Machine m(machine_config(4));
    (void)m.run_spmd([&](net::Node& n) {
      ga::Runtime rt(n);
      ga::GlobalArray a = rt.create(32, 32);
      rt.sync();
      // The accumulated patch is the whole 32x32 array, so the source
      // buffer must cover all of it, not just this task's block.
      std::vector<double> v(32u * 32u, 1.0);
      a.acc(ga::Patch{0, 31, 0, 31}, v.data(), 32, 1.0);
      rt.sync();
      rt.destroy(a);
    });
    return std::pair<Time, std::int64_t>{m.engine().now(),
                                         m.fabric().packets_sent()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);    // identical virtual end time
  EXPECT_EQ(a.second, b.second);  // identical packet count
}

}  // namespace
}  // namespace splap
