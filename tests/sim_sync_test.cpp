#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/time.hpp"
#include "sim/engine.hpp"

namespace splap::sim {
namespace {

TEST(SimMutexTest, UncontendedLockUnlock) {
  Engine eng;
  SimMutex mu(eng);
  eng.spawn("t0", [&](Actor&) {
    mu.lock();
    EXPECT_TRUE(mu.locked());
    mu.unlock();
    EXPECT_FALSE(mu.locked());
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(SimMutexTest, ContendedActorsAcquireFifo) {
  Engine eng;
  SimMutex mu(eng);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("t" + std::to_string(i), [&, i](Actor& self) {
      // Stagger arrival so the queue order is deterministic: t0, t1, t2.
      self.compute(microseconds(i + 1));
      mu.lock();
      order.push_back(i);
      self.compute(microseconds(10));  // hold across virtual time
      mu.unlock();
    });
  }
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimMutexTest, MutualExclusionInvariant) {
  Engine eng;
  SimMutex mu(eng);
  int inside = 0;
  bool violated = false;
  for (int i = 0; i < 5; ++i) {
    eng.spawn("t" + std::to_string(i), [&, i](Actor& self) {
      self.compute(microseconds(i));
      for (int k = 0; k < 3; ++k) {
        mu.lock();
        if (++inside != 1) violated = true;
        self.compute(microseconds(3));
        --inside;
        mu.unlock();
        self.compute(microseconds(1));
      }
    });
  }
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_FALSE(violated);
}

TEST(SimMutexTest, TryLockFromEventContext) {
  Engine eng;
  SimMutex mu(eng);
  bool first = false, second = true;
  eng.schedule_at(0, [&] { first = mu.try_lock(); });
  eng.schedule_at(1, [&] { second = mu.try_lock(); });
  eng.schedule_at(2, [&] { mu.unlock(); });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_FALSE(mu.locked());
}

TEST(SimMutexTest, LockAsyncRunsImmediatelyWhenFree) {
  Engine eng;
  SimMutex mu(eng);
  bool ran = false;
  eng.schedule_at(0, [&] {
    mu.lock_async([&] {
      ran = true;
      EXPECT_TRUE(mu.locked());
      mu.unlock();
    });
    EXPECT_TRUE(ran);  // ran synchronously
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(SimMutexTest, LockAsyncQueuesBehindActorOwner) {
  Engine eng;
  SimMutex mu(eng);
  std::vector<std::string> order;
  eng.spawn("owner", [&](Actor& self) {
    mu.lock();
    self.compute(microseconds(100));
    order.push_back("owner-release");
    mu.unlock();
  });
  eng.schedule_at(microseconds(10), [&] {
    mu.lock_async([&] {
      order.push_back("handler");
      mu.unlock();
    });
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(order,
            (std::vector<std::string>{"owner-release", "handler"}));
}

TEST(SimMutexTest, ActorWaitsBehindEventOwner) {
  Engine eng;
  SimMutex mu(eng);
  std::vector<std::string> order;
  eng.schedule_at(0, [&] { ASSERT_TRUE(mu.try_lock()); });
  eng.spawn("actor", [&](Actor& self) {
    self.compute(microseconds(1));
    mu.lock();
    order.push_back("actor-acquired");
    mu.unlock();
  });
  eng.schedule_at(microseconds(50), [&] {
    order.push_back("event-release");
    mu.unlock();
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(order,
            (std::vector<std::string>{"event-release", "actor-acquired"}));
}

TEST(SimMutexTest, UnlockWithoutLockAborts) {
  Engine eng;
  SimMutex mu(eng);
  EXPECT_DEATH(mu.unlock(), "unlock of an unlocked");
}

TEST(WaitSetTest, WakeAllWakesEveryWaiter) {
  Engine eng;
  WaitSet ws;
  bool go = false;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("t" + std::to_string(i), [&](Actor& self) {
      while (!go) {
        ws.add(self);
        self.suspend("waitset");
      }
      ++done;
    });
  }
  eng.schedule_at(microseconds(7), [&] {
    go = true;
    ws.wake_all(eng);
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(done, 3);
  EXPECT_TRUE(ws.empty());
}

}  // namespace
}  // namespace splap::sim
