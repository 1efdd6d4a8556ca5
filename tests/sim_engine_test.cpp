#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/time.hpp"

namespace splap::sim {
namespace {

/// Recurse `depth` frames of 4 KB each (a volatile buffer the compiler must
/// keep), block at the bottom, and return the number of frames.
int deep_frames(Actor& self, int depth) {
  volatile char frame[4096];
  frame[0] = 1;
  frame[sizeof frame - 1] = 1;
  if (depth == 0) {
    self.compute(microseconds(1));
    return frame[0];
  }
  return deep_frames(self, depth - 1) + frame[sizeof frame - 1];
}

/// The SSE unit's rounding mode, read back from arithmetic: 1/3 and
/// -(-1/3) agree under round-to-nearest and straddle the exact value under
/// the directed modes. (std::fegetround reads the x87 control word, so the
/// two probes together cover both halves of the mode a fiber switch must
/// carry.)
int sse_rounding() {
  volatile double one = 1.0;
  volatile double minus_one = -1.0;  // volatile: no folding -(-x/y) to x/y
  volatile double three = 3.0;
  const double pos = one / three;
  const double neg = -(minus_one / three);
  if (pos == neg) return FE_TONEAREST;
  return pos > neg ? FE_UPWARD : FE_DOWNWARD;
}

TEST(EngineTest, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(microseconds(30), [&] { order.push_back(3); });
  eng.schedule_at(microseconds(10), [&] { order.push_back(1); });
  eng.schedule_at(microseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), microseconds(30));
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(microseconds(5), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(eng.run(), Status::kOk);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, EventsCanScheduleMoreEvents) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) eng.schedule_after(microseconds(1), chain);
  };
  eng.schedule_at(0, chain);
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(eng.now(), microseconds(4));
}

TEST(EngineTest, SchedulingInThePastAborts) {
  Engine eng;
  eng.schedule_at(microseconds(10), [&] {
    EXPECT_DEATH(eng.schedule_at(microseconds(5), [] {}), "virtual past");
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, ActorRunsAndFinishes) {
  Engine eng;
  bool ran = false;
  eng.spawn("t0", [&](Actor& self) {
    EXPECT_EQ(self.now(), 0);
    EXPECT_EQ(Actor::current(), &self);
    ran = true;
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(eng.actors()[0]->finished());
}

TEST(EngineTest, ComputeAdvancesVirtualTime) {
  Engine eng;
  Time end = kNoTime;
  eng.spawn("t0", [&](Actor& self) {
    self.compute(microseconds(100));
    self.compute(microseconds(50));
    end = self.now();
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(end, microseconds(150));
}

TEST(EngineTest, ComputeZeroIsNoOp) {
  Engine eng;
  eng.spawn("t0", [&](Actor& self) {
    self.compute(0);
    EXPECT_EQ(self.now(), 0);
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, ActorsInterleaveByVirtualTimeNotSpawnOrder) {
  Engine eng;
  std::vector<std::string> trace;
  eng.spawn("slow", [&](Actor& self) {
    self.compute(microseconds(100));
    trace.push_back("slow");
  });
  eng.spawn("fast", [&](Actor& self) {
    self.compute(microseconds(10));
    trace.push_back("fast");
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(trace, (std::vector<std::string>{"fast", "slow"}));
}

TEST(EngineTest, WakeResumesSuspendedActor) {
  Engine eng;
  bool flag = false;
  Actor& waiter = eng.spawn("waiter", [&](Actor& self) {
    self.wait([&] { return flag; }, "flag");
    EXPECT_EQ(self.now(), microseconds(42));
  });
  eng.schedule_at(microseconds(42), [&] {
    flag = true;
    eng.wake(waiter);
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, StaleWakeupsAreHarmless) {
  Engine eng;
  bool flag = false;
  Actor& waiter = eng.spawn("waiter", [&](Actor& self) {
    self.wait([&] { return flag; }, "flag");
  });
  // Several wakes while the predicate is still false: the actor must
  // re-suspend each time and only proceed on the real one.
  eng.schedule_at(microseconds(1), [&] { eng.wake(waiter); });
  eng.schedule_at(microseconds(2), [&] { eng.wake(waiter); });
  eng.schedule_at(microseconds(3), [&] {
    flag = true;
    eng.wake(waiter);
  });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, DeadlockDetected) {
  Engine eng;
  eng.spawn("stuck", [&](Actor& self) {
    self.wait([] { return false; }, "never");
  });
  EXPECT_EQ(eng.run(), Status::kDeadlock);
  EXPECT_FALSE(eng.actors()[0]->finished());
  EXPECT_STREQ(eng.actors()[0]->block_reason(), "never");
}

TEST(EngineTest, NoDeadlockWhenAllFinish) {
  Engine eng;
  for (int i = 0; i < 4; ++i) {
    eng.spawn("t" + std::to_string(i),
              [i](Actor& self) { self.compute(microseconds(i + 1)); });
  }
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, ActorExceptionPropagatesToRun) {
  Engine eng;
  eng.spawn("thrower", [&](Actor&) { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)eng.run(), std::runtime_error);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::pair<int, Time>> trace;
    for (int i = 0; i < 5; ++i) {
      eng.spawn("t" + std::to_string(i), [&trace, i](Actor& self) {
        for (int k = 0; k < 3; ++k) {
          self.compute(microseconds((i * 7 + k * 3) % 11 + 1));
          trace.emplace_back(i, self.now());
        }
      });
    }
    EXPECT_EQ(eng.run(), Status::kOk);
    return trace;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(EngineTest, TailBlockRecyclingSurvivesPartialThenFullDrain) {
  // Regression: once the queue head crosses a block boundary, the drained
  // block sits in the spare list AND (until the dead-prefix prune) in the
  // active block table. The full-drain reset must recycle only the live
  // suffix — recycling the whole table duplicates pointers in the spare
  // list, and a later burst maps two active blocks onto the same storage,
  // silently overwriting queued events.
  static constexpr int kWave1 = 2100;  // crosses one 2048-slot block boundary
  static constexpr int kWave2 = 5000;  // spans 3 blocks; an aliased pair corrupts
  Engine eng;
  std::vector<int> order;
  order.reserve(kWave1 + kWave2);
  for (int i = 0; i < kWave1; ++i) {
    eng.schedule_at(microseconds(i), [&order, i] { order.push_back(i); });
  }
  eng.schedule_at(microseconds(kWave1), [&] {
    // Runs after the tail fully drained; these pushes draw recycled blocks.
    for (int j = 0; j < kWave2; ++j) {
      eng.schedule_at(microseconds(kWave1 + 1 + j),
                      [&order, j] { order.push_back(kWave1 + j); });
    }
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kWave1 + kWave2));
  for (int i = 0; i < kWave1 + kWave2; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EngineTest, CurrentIsNullInEventContext) {
  Engine eng;
  eng.schedule_at(0, [] { EXPECT_EQ(Actor::current(), nullptr); });
  EXPECT_EQ(eng.run(), Status::kOk);
}

TEST(EngineTest, CountersAccumulate) {
  Engine eng;
  eng.schedule_at(0, [&] { eng.counters().bump("pkts", 3); });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(eng.counters().get("pkts"), 3);
}

TEST(EngineTest, SpawnFromActor) {
  Engine eng;
  bool child_ran = false;
  eng.spawn("parent", [&](Actor& self) {
    self.compute(microseconds(5));
    self.engine().spawn("child", [&](Actor& c) {
      EXPECT_EQ(c.now(), microseconds(5));
      child_ran = true;
    });
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_TRUE(child_ran);
}

TEST(EngineTest, ActorBodyMayUseMegabytesOfStack) {
  // An actor gets a thread-sized stack: about 2 MB of live frames across a
  // suspend must fit (GA kernels keep large frames while they block).
  Engine eng;
  int frames = 0;
  eng.spawn("deep", [&](Actor& self) { frames = deep_frames(self, 512); });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(frames, 513);
  EXPECT_EQ(eng.now(), microseconds(1));
}

TEST(EngineTest, HandledExceptionsSurviveInterleavedActors) {
  // Every actor shares its engine's thread, and with it the C++ runtime's
  // per-thread exception state. Actors that throw and catch, then suspend
  // after leaving the handler, must not disturb each other or the engine.
  Engine eng;
  std::vector<std::string> caught;
  for (int i = 0; i < 2; ++i) {
    eng.spawn("catcher" + std::to_string(i), [&caught, i](Actor& self) {
      for (int round = 0; round < 3; ++round) {
        std::string what;
        try {
          throw std::runtime_error(std::to_string(i) + ":" +
                                   std::to_string(round));
        } catch (const std::runtime_error& e) {
          what = e.what();
        }
        self.compute(microseconds(1));
        EXPECT_EQ(std::current_exception(), nullptr);
        EXPECT_EQ(std::uncaught_exceptions(), 0);
        caught.push_back(what);
      }
    });
  }
  eng.spawn("thrower", [](Actor& self) {
    self.compute(microseconds(10));
    throw std::logic_error("escaped the body");
  });
  try {
    (void)eng.run();
    ADD_FAILURE() << "run() returned instead of rethrowing";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "escaped the body");
  }
  EXPECT_EQ(caught, (std::vector<std::string>{"0:0", "1:0", "0:1", "1:1",
                                              "0:2", "1:2"}));
}

TEST(EngineTest, ShutdownUnwindsSuspendedActorStacks) {
  bool unwound = false;
  bool poisoned_while_unwinding = false;
  bool late_started = false;
  {
    Engine eng;
    eng.spawn("blocked", [&](Actor& self) {
      struct Guard {
        Actor& self;
        bool& unwound;
        bool& poisoned;
        ~Guard() {
          unwound = true;
          poisoned = self.poisoned();
        }
      } guard{self, unwound, poisoned_while_unwinding};
      self.wait([] { return false; }, "forever");
    });
    EXPECT_EQ(eng.run(), Status::kDeadlock);
    // Spawned between runs: its first grant is queued but never dispatched.
    eng.spawn("late", [&](Actor&) { late_started = true; });
    EXPECT_FALSE(unwound);
  }
  EXPECT_TRUE(unwound);
  EXPECT_TRUE(poisoned_while_unwinding);
  EXPECT_FALSE(late_started);
}

TEST(EngineTest, KillShardMidComputeLeavesTimerHarmless) {
  // The victim's stack is unmapped once it unwinds; the compute timer it
  // left queued still fires afterwards and must touch nothing on it.
  Engine eng;
  bool resumed = false;
  eng.spawn_on(3, "victim", [&](Actor& self) {
    self.compute(microseconds(100));
    resumed = true;
  });
  eng.schedule_at(microseconds(10), [&] { eng.kill_shard(3); });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_FALSE(resumed);
  EXPECT_TRUE(eng.actors()[0]->finished());
  EXPECT_EQ(eng.now(), microseconds(100));
}

TEST(EngineTest, FibersKeepTheirOwnRoundingMode) {
  // Each fiber carries its own MXCSR and x87 control word across switches,
  // and a fresh fiber starts with those of the thread that spawned it.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Engine eng;
  std::vector<std::string> seen;
  auto probe = [&seen](const char* who, int want) {
    const bool x87 = std::fegetround() == want;
    const bool sse = sse_rounding() == want;
    seen.push_back(std::string(who) + (x87 ? " x87 ok" : " x87 lost") +
                   (sse ? " sse ok" : " sse lost"));
  };
  eng.spawn("up", [&](Actor& self) {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    for (int i = 0; i < 3; ++i) {
      self.compute(microseconds(2));
      probe("up", FE_UPWARD);
    }
  });
  eng.spawn("down", [&](Actor& self) {
    probe("fresh", FE_TONEAREST);
    ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);
    for (int i = 0; i < 3; ++i) {
      self.compute(microseconds(3));
      probe("down", FE_DOWNWARD);
    }
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(sse_rounding(), FE_TONEAREST);
  EXPECT_EQ(seen, (std::vector<std::string>{
                      "fresh x87 ok sse ok", "up x87 ok sse ok",
                      "down x87 ok sse ok", "up x87 ok sse ok",
                      "down x87 ok sse ok", "up x87 ok sse ok",
                      "down x87 ok sse ok"}));
}

TEST(EngineTest, FreshFiberStackIsAbiAligned) {
  // The initial frame must leave the body on a stack the ABI's alignment
  // rules hold for: the compiler realigns only for over-aligned locals, so
  // a misaligned fiber shows in a 16-aligned local, and glibc's long double
  // formatting faults on it.
  Engine eng;
  std::vector<std::uintptr_t> misaligned;
  std::string text;
  eng.spawn("fresh", [&](Actor& self) {
    alignas(16) char sse[16] = {};
    alignas(64) char line[64] = {};
    volatile std::uintptr_t a16 = reinterpret_cast<std::uintptr_t>(sse);
    volatile std::uintptr_t a64 = reinterpret_cast<std::uintptr_t>(line);
    misaligned.push_back(a16 % 16);
    misaligned.push_back(a64 % 64);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2Lf", 1.25L);
    text = buf;
    self.compute(microseconds(1));
    alignas(64) char after[64] = {};
    volatile std::uintptr_t b64 = reinterpret_cast<std::uintptr_t>(after);
    misaligned.push_back(b64 % 64);
    misaligned.push_back(reinterpret_cast<std::uintptr_t>(line) % 64);
    sse[0] = line[0] = after[0] = 1;
  });
  EXPECT_EQ(eng.run(), Status::kOk);
  EXPECT_EQ(misaligned, (std::vector<std::uintptr_t>{0, 0, 0, 0}));
  EXPECT_EQ(text, "1.25");
}

/// Read afresh on every step, so the optimizer cannot fold LiveValues'
/// loop into closed forms: each value is really carried across switches.
volatile std::uint64_t g_salt = 0x9e3779b97f4a7c15u;

/// A dozen values that depend on each other, more than the six callee-saved
/// registers hold.
struct LiveValues {
  explicit LiveValues(std::uint64_t k)
      : a(k), b(2 * k), c(3 * k), d(4 * k), e(5 * k), f(6 * k), g(7 * k),
        h(8 * k), p(9 * k), q(10 * k), r(11 * k), s(12 * k) {}
  [[gnu::always_inline]] void step(std::uint64_t i, std::uint64_t salt) {
    a = a * 3 + salt;
    b ^= a + i;
    c += b >> 3;
    d = d * 5 + (c ^ salt);
    e += d ^ i;
    f = ((f << 1) | (f >> 63)) + e;
    g ^= f * 7;
    h += g >> 5;
    p = p * 9 + h;
    q ^= p + salt;
    r += q >> 7;
    s = s * 11 + r;
  }
  bool operator==(const LiveValues&) const = default;
  std::uint64_t a, b, c, d, e, f, g, h, p, q, r, s;
};

TEST(EngineTest, CalleeSavedValuesSurviveInterleavedSwitches) {
  // 8 fibers interleave 10k switches each, through both compute() and a
  // bare suspend() (whose frames save fewer registers of their own): a
  // register the switch dropped or crossed between fibers shows as a
  // wrong value.
  constexpr int kActors = 8;
  constexpr std::uint64_t kRounds = 10000;
  Engine eng;
  std::vector<LiveValues> got;
  for (int id = 0; id < kActors; ++id) got.emplace_back(0);
  for (int id = 0; id < kActors; ++id) {
    eng.spawn("regs" + std::to_string(id), [&got, id](Actor& self) {
      const std::uint64_t k = static_cast<std::uint64_t>(id) + 1;
      LiveValues v(k);
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        const Time d = static_cast<Time>(1 + (i + k) % 3);
        if (i % 2 == 0) {
          self.compute(d);
        } else {
          self.engine().schedule_after(
              d, [&self] { self.engine().wake(self); });
          self.suspend("regs");
        }
        v.step(i, g_salt);
      }
      got[static_cast<std::size_t>(id)] = v;
    });
  }
  EXPECT_EQ(eng.run(), Status::kOk);
  for (int id = 0; id < kActors; ++id) {
    LiveValues want(static_cast<std::uint64_t>(id) + 1);
    for (std::uint64_t i = 0; i < kRounds; ++i) want.step(i, g_salt);
    EXPECT_TRUE(got[static_cast<std::size_t>(id)] == want) << "actor " << id;
  }
}

}  // namespace
}  // namespace splap::sim
