// Semantics of the basic LAPI operations: init/term, environment queries,
// put/get data movement, the three-counter completion protocol, and
// address exchange.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "lapi_test_util.hpp"

namespace splap::lapi {
namespace {

using testing::exchange_ptrs;
using testing::machine_config;
using testing::run_lapi;

TEST(LapiBasicTest, InitTermLifecycle) {
  net::Machine m(machine_config(2));
  ASSERT_EQ(m.run_spmd([](net::Node& n) {
    Context ctx(n);
    EXPECT_EQ(ctx.task_id(), n.id());
    EXPECT_EQ(ctx.num_tasks(), 2);
    EXPECT_EQ(ctx.gfence(), Status::kOk);
    ctx.term();
    // Calls after term report a bad handle.
    Counter c;
    EXPECT_EQ(ctx.put(0, {}, nullptr, nullptr, &c, nullptr),
              Status::kBadHandle);
  }), Status::kOk);
}

TEST(LapiBasicTest, QenvReportsEnvironment) {
  net::Machine m(machine_config(3));
  ASSERT_EQ(run_lapi(m, [](Context& ctx) {
    EXPECT_EQ(ctx.qenv(Query::kNumTasks), 3);
    EXPECT_EQ(ctx.qenv(Query::kTaskId), ctx.task_id());
    // The ~900-byte AM payload the paper's Section 5.3.1 quotes: packet
    // size minus the 48-byte LAPI header.
    EXPECT_EQ(ctx.qenv(Query::kPktPayload), 1024 - 48);
    EXPECT_EQ(ctx.qenv(Query::kMaxUhdrSz), 976);
    EXPECT_GE(ctx.qenv(Query::kMaxDataSz), std::int64_t{1} << 30);
    EXPECT_EQ(ctx.qenv(Query::kInterruptSet), 1);
    EXPECT_EQ(ctx.qenv(Query::kCmplThreads), 1);
  }), Status::kOk);
}

TEST(LapiBasicTest, PutMovesBytesAndFiresAllThreeCounters) {
  net::Machine m(machine_config(2));
  std::vector<double> tgt_buf(64, 0.0);
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    auto bufs = exchange_ptrs(ctx, tgt_buf.data());  // task1's view unused
    if (ctx.task_id() == 0) {
      std::vector<double> src(64);
      std::iota(src.begin(), src.end(), 1.0);
      Counter org, cmpl;
      Counter* remote_tgt = nullptr;  // counter lives at the target below
      ASSERT_EQ(ctx.put(1, testing::as_bytes_of(src.data(), 64 * sizeof(double)),
                        reinterpret_cast<std::byte*>(tgt_buf.data()),
                        remote_tgt, &org, &cmpl),
                Status::kOk);
      EXPECT_EQ(ctx.waitcntr(org, 1), Status::kOk);  // source reusable
      EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);  // confirmed complete at the target
      (void)bufs;
    }
  }), Status::kOk);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(tgt_buf[static_cast<std::size_t>(i)], i + 1.0);
  }
}

TEST(LapiBasicTest, PutTargetCounterObservedByTarget) {
  net::Machine m(machine_config(2));
  std::vector<std::byte> tgt_buf(128);
  Counter tgt_cntr;  // lives at task 1 conceptually; exchanged via table
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    auto cntrs = exchange_ptrs(ctx, &tgt_cntr);
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(128, std::byte{0x5A});
      Counter org;
      ASSERT_EQ(ctx.put(1, src, tgt_buf.data(), cntrs[1], &org, nullptr),
                Status::kOk);
      EXPECT_EQ(ctx.waitcntr(org, 1), Status::kOk);
    } else {
      // The unilateral arrival indication at the target (Section 2.3).
      EXPECT_EQ(ctx.waitcntr(tgt_cntr, 1), Status::kOk);
      EXPECT_EQ(tgt_buf[0], std::byte{0x5A});
      EXPECT_EQ(tgt_buf[127], std::byte{0x5A});
    }
  }), Status::kOk);
}

TEST(LapiBasicTest, GetPullsRemoteData) {
  net::Machine m(machine_config(2));
  std::vector<std::int64_t> remote(32);
  std::iota(remote.begin(), remote.end(), 100);
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      std::vector<std::int64_t> local(32, 0);
      Counter org;
      ASSERT_EQ(ctx.get(1, 32 * static_cast<std::int64_t>(sizeof(std::int64_t)),
                        reinterpret_cast<const std::byte*>(remote.data()),
                        reinterpret_cast<std::byte*>(local.data()), nullptr,
                        &org),
                Status::kOk);
      EXPECT_EQ(ctx.waitcntr(org, 1), Status::kOk);
      for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(local[static_cast<std::size_t>(i)], 100 + i);
      }
    }
  }), Status::kOk);
}

TEST(LapiBasicTest, GetTargetCounterFiresAtTarget) {
  net::Machine m(machine_config(2));
  std::vector<std::byte> remote(16, std::byte{7});
  Counter tgt;
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    auto cntrs = exchange_ptrs(ctx, &tgt);
    if (ctx.task_id() == 0) {
      std::vector<std::byte> local(16);
      Counter org;
      ASSERT_EQ(ctx.get(1, 16, remote.data(), local.data(), cntrs[1], &org),
                Status::kOk);
      EXPECT_EQ(ctx.waitcntr(org, 1), Status::kOk);
    } else {
      // "Data copied out of the target buffer" indication (Section 2.3).
      EXPECT_EQ(ctx.waitcntr(tgt, 1), Status::kOk);
    }
  }), Status::kOk);
}

TEST(LapiBasicTest, LargeTransfersSpanManyPackets) {
  net::Machine m(machine_config(2));
  const std::int64_t kLen = 200 * 1000 + 13;  // forces >200 packets, odd tail
  std::vector<std::byte> tgt_buf(static_cast<std::size_t>(kLen));
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(static_cast<std::size_t>(kLen));
      for (std::int64_t i = 0; i < kLen; ++i) {
        src[static_cast<std::size_t>(i)] = static_cast<std::byte>(i * 31 % 251);
      }
      Counter cmpl;
      ASSERT_EQ(ctx.put(1, src, tgt_buf.data(), nullptr, nullptr, &cmpl),
                Status::kOk);
      EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
    }
  }), Status::kOk);
  for (std::int64_t i = 0; i < kLen; ++i) {
    ASSERT_EQ(tgt_buf[static_cast<std::size_t>(i)],
              static_cast<std::byte>(i * 31 % 251))
        << "at offset " << i;
  }
  EXPECT_GT(m.fabric().packets_sent(), 200);
}

TEST(LapiBasicTest, EagerPutCopiesItsSourceBeforeReturning) {
  // Up to lapi_bcopy_limit bytes are bcopied during the call (Section
  // 5.3.1): the caller may overwrite the source the moment put() returns,
  // before any counter fires, and the target still gets the original bytes.
  // The first transmission is lost (0 -> 1 is cut for the first
  // millisecond), so what lands is the retransmission, sent after the
  // overwrite.
  net::Machine::Config mc = machine_config(2);
  mc.fabric.fault.partitions.push_back(
      net::PartitionFault{0, 1, 0, milliseconds(1.0)});
  net::Machine m(mc);
  constexpr std::size_t kLen = 512;
  std::vector<std::byte> tgt_buf(kLen);
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      ASSERT_LE(static_cast<std::int64_t>(kLen), ctx.cost().lapi_bcopy_limit);
      std::vector<std::byte> src(kLen, std::byte{0x5A});
      Counter cmpl;
      ASSERT_EQ(ctx.put(1, src, tgt_buf.data(), nullptr, nullptr, &cmpl),
                Status::kOk);
      std::fill(src.begin(), src.end(), std::byte{0xA5});
      EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
    }
  }), Status::kOk);
  EXPECT_EQ(tgt_buf, std::vector<std::byte>(kLen, std::byte{0x5A}));
  EXPECT_GT(m.engine().counters().get("lapi.retransmits"), 0);
}

TEST(LapiBasicTest, ZeroLengthPutStillSignalsCounters) {
  net::Machine m(machine_config(2));
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      Counter org, cmpl;
      ASSERT_EQ(ctx.put(1, {}, nullptr, nullptr, &org, &cmpl), Status::kOk);
      EXPECT_EQ(ctx.waitcntr(org, 1), Status::kOk);
      EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
    }
  }), Status::kOk);
}

TEST(LapiBasicTest, SharedCounterGroupsManyOperations) {
  net::Machine m(machine_config(4));
  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(64));
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(64, std::byte{0xCC});
      Counter group;  // one counter across several messages (Section 2.3)
      for (int t = 1; t < 4; ++t) {
        ASSERT_EQ(ctx.put(t, src, bufs[static_cast<std::size_t>(t)].data(),
                          nullptr, nullptr, &group),
                  Status::kOk);
      }
      EXPECT_EQ(ctx.waitcntr(group, 3), Status::kOk);  // wait for the whole group
    }
  }), Status::kOk);
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(t)][63], std::byte{0xCC});
  }
}

TEST(LapiBasicTest, WaitcntrAutoDecrements) {
  net::Machine m(machine_config(1));
  ASSERT_EQ(run_lapi(m, [](Context& ctx) {
    Counter c;
    ctx.setcntr(c, 5);
    EXPECT_EQ(ctx.waitcntr(c, 3), Status::kOk);
    EXPECT_EQ(ctx.getcntr(c), 2);  // decremented by the waited value
    EXPECT_EQ(ctx.waitcntr(c, 2), Status::kOk);
    EXPECT_EQ(ctx.getcntr(c), 0);
  }), Status::kOk);
}

TEST(LapiBasicTest, PutToSelfLoopsBack) {
  net::Machine m(machine_config(1));
  std::vector<std::byte> buf(32);
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    std::vector<std::byte> src(32, std::byte{9});
    Counter cmpl;
    ASSERT_EQ(ctx.put(0, src, buf.data(), nullptr, nullptr, &cmpl),
              Status::kOk);
    EXPECT_EQ(ctx.waitcntr(cmpl, 1), Status::kOk);
    EXPECT_EQ(buf[31], std::byte{9});
  }), Status::kOk);
}

TEST(LapiBasicTest, BadParametersRejected) {
  net::Machine m(machine_config(2));
  ASSERT_EQ(run_lapi(m, [](Context& ctx) {
    Counter c;
    std::byte buf[8] = {};
    // Target out of range.
    EXPECT_EQ(ctx.put(7, testing::as_bytes_of(buf, 8), buf, nullptr, &c, nullptr),
              Status::kBadParameter);
    EXPECT_EQ(ctx.get(-1, 8, buf, buf, nullptr, &c), Status::kBadParameter);
    // Null addresses with nonzero length.
    EXPECT_EQ(ctx.get(1, 8, nullptr, buf, nullptr, &c), Status::kBadParameter);
    EXPECT_EQ(ctx.put(1, testing::as_bytes_of(buf, 8), nullptr, nullptr, &c,
                      nullptr),
              Status::kBadParameter);
    // Negative get length.
    EXPECT_EQ(ctx.get(1, -4, buf, buf, nullptr, &c), Status::kBadParameter);
    // Unregistered AM handler.
    EXPECT_EQ(ctx.amsend(1, 42, {}, {}, nullptr, nullptr, nullptr),
              Status::kBadParameter);
  }), Status::kOk);
}

TEST(LapiBasicTest, AddressInitExchangesAllTasks) {
  net::Machine m(machine_config(4));
  std::vector<int> markers(4);
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    markers[static_cast<std::size_t>(ctx.task_id())] = ctx.task_id() * 11;
    auto table =
        exchange_ptrs(ctx, &markers[static_cast<std::size_t>(ctx.task_id())]);
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(*table[static_cast<std::size_t>(t)], t * 11);
    }
  }), Status::kOk);
}

TEST(LapiBasicTest, MultipleAddressInitRoundsKeepGenerationsSeparate) {
  net::Machine m(machine_config(3));
  std::vector<int> a(3), b(3);
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    const auto me = static_cast<std::size_t>(ctx.task_id());
    auto ta = exchange_ptrs(ctx, &a[me]);
    auto tb = exchange_ptrs(ctx, &b[me]);
    EXPECT_EQ(ta[me], &a[me]);
    EXPECT_EQ(tb[me], &b[me]);
    EXPECT_NE(static_cast<void*>(ta[0]), static_cast<void*>(tb[0]));
  }), Status::kOk);
}

TEST(LapiBasicTest, NonBlockingCallsPipelineBeforeAnyWait) {
  net::Machine m(machine_config(2));
  constexpr int kOps = 16;
  std::vector<std::byte> tgt(static_cast<std::size_t>(kOps) * 64);
  ASSERT_EQ(run_lapi(m, [&](Context& ctx) {
    if (ctx.task_id() == 0) {
      std::vector<std::byte> src(64, std::byte{1});
      Counter cmpl;
      // Issue a burst of concurrent operations ("unordered pipelining",
      // Section 2.1) and only then wait for the group.
      for (int i = 0; i < kOps; ++i) {
        ASSERT_EQ(ctx.put(1, src, tgt.data() + i * 64, nullptr, nullptr,
                          &cmpl),
                  Status::kOk);
      }
      EXPECT_EQ(ctx.waitcntr(cmpl, kOps), Status::kOk);
    }
  }), Status::kOk);
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(tgt[static_cast<std::size_t>(i) * 64], std::byte{1});
  }
}

}  // namespace
}  // namespace splap::lapi
