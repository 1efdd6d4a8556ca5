// Exercises the SPLAP_AUDIT shadow-state auditor (base/audit.hpp and the
// hooks in the pools, the engine and the fabric). Every detector is proven
// in both directions: the corrupting operation aborts with a "splap-audit"
// diagnostic, and the corresponding correct pattern runs silently.
//
// The centrepiece is the tail-block regression fixture: the engine's
// two-list queue once recycled its dead-prefix blocks a second time on a
// full drain, aliasing two active tail blocks onto one allocation. The
// fixed code keeps a test-only switch (audit builds only) that re-enables
// the old recycle loop, and the spare-block shadow set must catch it at the
// recycling call — not at the downstream trace corruption.
#include <gtest/gtest.h>

#include <stdexcept>

#include "base/audit.hpp"
#include "base/pool.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"

#ifndef SPLAP_AUDIT

namespace {
TEST(Audit, RequiresAuditBuild) {
  GTEST_SKIP() << "rebuild with -DSPLAP_AUDIT=ON to exercise the auditor";
}
}  // namespace

#else

namespace splap {
namespace {

using sim::Actor;
using sim::Engine;

class AuditDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Child processes re-execute the binary, so each death statement starts
    // from a fresh process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

// ---------------------------------------------------------------------------
// Pool lifecycle pairing
// ---------------------------------------------------------------------------

TEST_F(AuditDeathTest, ObjectPoolDoubleReleaseAborts) {
  ObjectPool<int> pool(8);
  int* p = pool.acquire();
  pool.release(p);
  EXPECT_DEATH(pool.release(p), "splap-audit");
}

TEST_F(AuditDeathTest, ObjectPoolForeignReleaseAborts) {
  ObjectPool<int> pool(8);
  int foreign = 0;
  EXPECT_DEATH(pool.release(&foreign), "splap-audit");
}

TEST_F(AuditDeathTest, ObjectPoolUseAfterReleaseAborts) {
  ObjectPool<int> pool(8);
  int* p = pool.acquire();
  pool.audit_expect_live(p, "test");  // live: fine
  pool.release(p);
  EXPECT_DEATH(pool.audit_expect_live(p, "test"), "splap-audit");
}

TEST_F(AuditDeathTest, SlabBufferPoolDoubleReleaseAborts) {
  SlabBufferPool pool(64, 4);
  const SlabBufferPool::Buffer b = pool.acquire();
  pool.release(b.data, b.zeroed);
  EXPECT_DEATH(pool.release(b.data, 0), "splap-audit");
}

TEST_F(AuditDeathTest, BufferPoolDoubleReleaseOfOneBufferAborts) {
  // Two buffers out, one released twice: the free-list size stays legal, so
  // only the shadow set sees the duplicate.
  BufferPool pool(64, 4);
  std::byte* a = pool.try_acquire();
  std::byte* b = pool.try_acquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  pool.release(a);
  EXPECT_DEATH(pool.release(a), "splap-audit");
}

TEST(AuditPools, BalancedAcquireReleaseIsSilent) {
  ObjectPool<int> pool(8);
  std::vector<int*> out;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) out.push_back(pool.acquire());
    for (int* p : out) pool.release(p);
    out.clear();
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Tail-block double-recycle (the PR 1 regression)
// ---------------------------------------------------------------------------

// Drives the exact shape that corrupted traces before the fix: a wave big
// enough to cross one 2048-slot block boundary (the crossing hands the
// drained block to the spare list), then a full drain. The legacy recycle
// loop starts at block 0 and hands the already-spare block over a second
// time; the shadow set must abort right there.
void run_full_drain_wave(bool legacy_recycle) {
  Engine e;
  e.audit_set_legacy_full_drain(legacy_recycle);
  for (int i = 0; i < 2100; ++i) {
    e.schedule_at(static_cast<Time>(i), [] {});
  }
  (void)e.run();
  // Second wave: with aliased blocks this is where corruption would land.
  for (int i = 0; i < 5000; ++i) {
    e.schedule_at(e.now() + static_cast<Time>(i), [] {});
  }
  (void)e.run();
}

TEST_F(AuditDeathTest, LegacyFullDrainDoubleRecycleIsCaught) {
  run_full_drain_wave(/*legacy_recycle=*/false);  // fixed code: silent
  EXPECT_DEATH(run_full_drain_wave(/*legacy_recycle=*/true), "splap-audit");
}

// ---------------------------------------------------------------------------
// Fiber rule: never suspend inside a catch handler
// ---------------------------------------------------------------------------

void catch_then_compute(bool inside_handler) {
  Engine e;
  e.spawn("catcher", [inside_handler](Actor& self) {
    bool caught = false;
    try {
      throw std::runtime_error("handled");
    } catch (const std::runtime_error&) {
      caught = true;
      if (inside_handler) self.compute(microseconds(1));
    }
    if (caught) self.compute(microseconds(1));
  });
  (void)e.run();
}

TEST_F(AuditDeathTest, SuspendInsideCatchHandlerAborts) {
  catch_then_compute(/*inside_handler=*/false);  // handler closed: silent
  EXPECT_DEATH(catch_then_compute(/*inside_handler=*/true),
               "splap-audit: actor suspended inside a catch handler");
}

// ---------------------------------------------------------------------------
// Virtual-time race detector
// ---------------------------------------------------------------------------

TEST_F(AuditDeathTest, UnorderedSameTimeTouchesAreARace) {
  auto scenario = [] {
    Engine e;
    int obj = 0;
    // Two independent events at the same virtual time: their order is pure
    // queue tie-breaking, so touching the same object from both is fragile.
    e.schedule_at(5, [&] { e.audit_object_touch(&obj, "event A"); });
    e.schedule_at(5, [&] { e.audit_object_touch(&obj, "event B"); });
    (void)e.run();
  };
  EXPECT_DEATH(scenario(), "splap-audit");
}

TEST(AuditRace, CausallyOrderedSameTimeTouchesAreFine) {
  Engine e;
  int obj = 0;
  // The child is scheduled BY the first toucher: happens-before pins the
  // order no matter how ties break.
  e.schedule_at(5, [&] {
    e.audit_object_touch(&obj, "parent");
    e.schedule_at(5, [&] { e.audit_object_touch(&obj, "child"); });
  });
  EXPECT_EQ(e.run(), Status::kOk);
}

TEST(AuditRace, DifferentTimesAreNeverARace) {
  Engine e;
  int obj = 0;
  e.schedule_at(5, [&] { e.audit_object_touch(&obj, "early"); });
  e.schedule_at(6, [&] { e.audit_object_touch(&obj, "late"); });
  EXPECT_EQ(e.run(), Status::kOk);
}

TEST(AuditRace, SameActorSlicesAreProgramOrdered) {
  // Two slices of ONE actor at the same virtual time are ordered by the
  // actor's own program order even when the wakeup that separates them came
  // from an unrelated event.
  Engine e;
  int obj = 0;
  bool ready = false;
  Actor& a = e.spawn("toucher", [&](Actor& self) {
    e.audit_object_touch(&obj, "slice 1");
    self.wait([&] { return ready; }, "audit test wait");
    e.audit_object_touch(&obj, "slice 2");
  });
  e.schedule_at(0, [&] {
    ready = true;
    e.wake(a);
  });
  EXPECT_EQ(e.run(), Status::kOk);
}

TEST(AuditRace, RecycledAddressDoesNotChainGenerations) {
  // end()+begin() must sever the touch history: a fresh object living at a
  // reused address is not racing with its predecessor.
  Engine e;
  int obj = 0;
  e.schedule_at(5, [&] {
    e.audit_object_touch(&obj, "old generation");
    e.audit_object_end(&obj);
  });
  e.schedule_at(5, [&] {
    e.audit_object_begin(&obj);
    e.audit_object_touch(&obj, "new generation");
  });
  EXPECT_EQ(e.run(), Status::kOk);
}

// ---------------------------------------------------------------------------
// Fabric in-flight record ledger
// ---------------------------------------------------------------------------

TEST(AuditFabric, DrainedRunLeavesNoRecordOutstanding) {
  sim::Engine e;
  {
    net::Fabric f(e, 2, net::FabricConfig{});
    int delivered = 0;
    f.set_deliver(0, [&](net::Packet&&) { ++delivered; });
    f.set_deliver(1, [&](net::Packet&&) { ++delivered; });
    for (int i = 0; i < 64; ++i) {
      net::Packet p = f.make_packet();
      p.src = i % 2;
      p.dst = 1 - p.src;
      p.header_bytes = 48;
      p.data.resize(256);
      f.transmit(std::move(p));
    }
    EXPECT_EQ(e.run(), Status::kOk);
    EXPECT_EQ(delivered, 64);
  }  // ~Fabric checks the ledger here: queue drained, so zero live records
}

TEST(AuditFabric, MidflightTeardownIsNotReportedAsALeak) {
  sim::Engine e;
  {
    net::Fabric f(e, 2, net::FabricConfig{});
    f.set_deliver(1, [](net::Packet&&) {});
    net::Packet p = f.make_packet();
    p.src = 0;
    p.dst = 1;
    p.header_bytes = 48;
    f.transmit(std::move(p));
    // Never run: the record is legitimately mid-flight (its arrival event is
    // still queued), so the teardown check must stay quiet.
  }
}

}  // namespace
}  // namespace splap

#endif  // SPLAP_AUDIT
