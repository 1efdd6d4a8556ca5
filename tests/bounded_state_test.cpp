// Bounded per-message state: long seeded loops of LAPI and MPL traffic must
// leave each library holding state for its in-flight window only, not for
// every message it ever delivered.
//
// LAPI: each origin stamps its lowest unsettled msg id (its low-water mark)
// into every header and data packet, and the target forgets the completed
// markers, cached RMW results and NACK suppressions below it. MPL: a
// delivered message leaves in_, and wait() retires the posting it
// completed. The bounds are the window the loops keep in flight plus a
// small constant; without forgetting, each count grows with the loop.
//
// Bounded per-message memory, too: a rendezvous Put or Get reply streams
// its packets from the pinned source, so in steady state no allocation is
// the size of the message (a test-local global operator new records the
// largest single request while armed).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "lapi/context.hpp"
#include "mpl/comm.hpp"
#include "net/machine.hpp"

namespace {
bool g_alloc_armed = false;
std::size_t g_alloc_largest = 0;  // largest request while armed
}  // namespace

// Every non-aligned form is replaced, so each allocation and its release
// stay a malloc/free pair (sanitizers check the pairing).
void* operator new(std::size_t n) {
  if (g_alloc_armed) g_alloc_largest = std::max(g_alloc_largest, n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace splap {
namespace {

constexpr int kWindow = 8;  // operations each loop keeps in flight
constexpr std::size_t kSlack = 2;

net::Machine::Config two_tasks(std::uint64_t seed) {
  net::Machine::Config c;
  c.tasks = 2;
  c.fabric.seed = seed;
  c.fabric.contention_jitter = microseconds(3);
  return c;
}

using Dedup = lapi::AssemblyEngine::DedupState;

void keep_max(Dedup& hi, const Dedup& now) {
  hi.markers = std::max(hi.markers, now.markers);
  hi.rmw_cached = std::max(hi.rmw_cached, now.rmw_cached);
  hi.nacked = std::max(hi.nacked, now.nacked);
}

TEST(BoundedStateTest, LapiDedupStateStaysWithinTheWindow) {
  // Task 0 cycles put, get, AM (with a completion handler) and RMW toward
  // task 1, eight in flight, each slot reused only once its counter fired.
  constexpr int kOps = 4000;
  net::Machine m(two_tasks(17));
  std::array<lapi::Context*, 2> ctxs{};
  std::array<Dedup, 2> hi{};
  std::vector<std::byte> remote(256, std::byte{0x33});
  std::vector<std::byte> landing(256);
  std::vector<std::byte> am_landing(256);
  std::int64_t var = 0;
  lapi::Counter done;  // at task 1: the loop is over
  int completions = 0;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n, lapi::Config{});
    ctxs[static_cast<std::size_t>(n.id())] = &ctx;
    const lapi::AmHandlerId am = ctx.register_handler(
        [&](lapi::Context&, const lapi::AmDelivery&) {
          lapi::AmReply r;
          r.buffer = am_landing.data();
          r.completion = [&completions](lapi::Context&, sim::Actor&) {
            ++completions;
          };
          return r;
        });
    (void)ctx.gfence();  // both contexts exist before anyone samples
    if (n.id() == 0) {
      std::vector<std::byte> src(256, std::byte{0x44});
      std::vector<std::byte> local(256);
      std::array<lapi::Counter, kWindow> slot;
      const auto sample = [&] {
        for (std::size_t t = 0; t < 2; ++t) {
          keep_max(hi[t], ctxs[t]->dedup_state());
        }
      };
      for (int i = 0; i < kOps; ++i) {
        lapi::Counter& c = slot[static_cast<std::size_t>(i % kWindow)];
        if (i >= kWindow) {
          ASSERT_EQ(ctx.waitcntr(c, 1), Status::kOk);
        }
        const std::size_t len = 16 + static_cast<std::size_t>(i % 5) * 48;
        switch (i % 4) {
          case 0:
            ASSERT_EQ(ctx.put(1, std::span(src.data(), len), landing.data(),
                              nullptr, nullptr, &c),
                      Status::kOk);
            break;
          case 1:
            ASSERT_EQ(ctx.get(1, static_cast<std::int64_t>(len),
                              remote.data(), local.data(), nullptr, &c),
                      Status::kOk);
            break;
          case 2:
            ASSERT_EQ(ctx.amsend(1, am, {}, std::span(src.data(), len),
                                 nullptr, nullptr, &c),
                      Status::kOk);
            break;
          default:
            ASSERT_EQ(ctx.rmw(lapi::RmwOp::kFetchAndAdd, 1, &var, 1, 0,
                              nullptr, &c),
                      Status::kOk);
            break;
        }
        if (i % 16 == 0) sample();
      }
      for (int s = 0; s < kWindow; ++s) {
        ASSERT_EQ(ctx.waitcntr(slot[static_cast<std::size_t>(s)], 1),
                  Status::kOk);
      }
      sample();
      ASSERT_EQ(ctx.put(1, {}, landing.data(), &done, nullptr, nullptr),
                Status::kOk);
    } else {
      ASSERT_EQ(ctx.waitcntr(done, 1), Status::kOk);
    }
    (void)ctx.gfence();
  }), Status::kOk);

  EXPECT_EQ(var, kOps / 4);
  EXPECT_EQ(completions, kOps / 4);
  EXPECT_EQ(landing[0], std::byte{0x44});
  for (std::size_t t = 0; t < 2; ++t) {
    SCOPED_TRACE(t == 0 ? "task 0 (get replies)" : "task 1 (the target)");
    EXPECT_LE(hi[t].markers, kWindow + kSlack);
    EXPECT_LE(hi[t].rmw_cached, kWindow + kSlack);
    EXPECT_LE(hi[t].nacked, kWindow + kSlack);
  }
  // The loop really pushed traffic through both directions.
  EXPECT_GT(hi[1].markers, 0u);
  EXPECT_GT(hi[0].markers, 0u);
}

TEST(BoundedStateTest, MplMessagesAndPostingsStayWithinTheWindow) {
  // Rank 0 isends batches of eight to rank 1, which posts eight irecvs,
  // waits on each, and releases the next batch with a token.
  constexpr int kBatches = 500;
  net::Machine m(two_tasks(23));
  std::array<mpl::Comm*, 2> comms{};
  std::array<std::size_t, 2> hi_msgs{};
  std::array<std::size_t, 2> hi_posts{};
  std::int64_t received = 0;

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n);
    comms[static_cast<std::size_t>(n.id())] = &comm;
    comm.barrier();
    const auto sample_rank = [&](std::size_t r) {
      hi_msgs[r] = std::max(hi_msgs[r], comms[r]->held_messages());
      hi_posts[r] = std::max(hi_posts[r], comms[r]->held_postings());
    };
    // Rank 1 samples both ranks mid-loop (rank 0 is then parked on the
    // token); after the final barrier each rank samples only itself.
    const auto sample = [&] {
      sample_rank(0);
      sample_rank(1);
    };
    std::byte token{1};
    std::array<std::int64_t, kWindow> buf{};
    for (int b = 0; b < kBatches; ++b) {
      if (comm.rank() == 0) {
        std::array<mpl::Request, kWindow> reqs{};
        for (int i = 0; i < kWindow; ++i) {
          const std::int64_t v = std::int64_t{b} * kWindow + i;
          reqs[static_cast<std::size_t>(i)] = comm.isend(
              1, 3, std::span(reinterpret_cast<const std::byte*>(&v),
                              sizeof v));
        }
        for (const mpl::Request r : reqs) comm.wait(r);
        ASSERT_EQ(comm.recv(1, 4, std::span(&token, 1)), Status::kOk);
      } else {
        std::array<mpl::Request, kWindow> reqs{};
        for (int i = 0; i < kWindow; ++i) {
          reqs[static_cast<std::size_t>(i)] = comm.irecv(
              0, 3,
              std::span(reinterpret_cast<std::byte*>(
                            &buf[static_cast<std::size_t>(i)]),
                        sizeof(std::int64_t)));
        }
        sample();
        for (const mpl::Request r : reqs) comm.wait(r);
        for (int i = 0; i < kWindow; ++i) {
          ASSERT_EQ(buf[static_cast<std::size_t>(i)],
                    std::int64_t{b} * kWindow + i);
          ++received;
        }
        sample();
        ASSERT_EQ(comm.send(0, 4, std::span(&token, 1)), Status::kOk);
      }
    }
    comm.barrier();
    sample_rank(static_cast<std::size_t>(comm.rank()));
  }), Status::kOk);

  EXPECT_EQ(received, std::int64_t{kBatches} * kWindow);
  for (std::size_t r = 0; r < 2; ++r) {
    SCOPED_TRACE(r == 0 ? "rank 0" : "rank 1");
    EXPECT_LE(hi_msgs[r], kWindow + kSlack);
    EXPECT_LE(hi_posts[r], kWindow + kSlack);
  }
}

TEST(BoundedStateTest, RendezvousTransfersAllocateNoMessageSizedBuffer) {
  // A 1 MiB put and a 1 MiB get, each waited on its origin counter, after a
  // warm-up pair has sized the pools and queues. The packets are cut from
  // the source region, so no request comes near the message size; packet
  // slabs are 32 KiB.
  constexpr std::size_t kBig = std::size_t{1} << 20;
  constexpr std::size_t kLimit = std::size_t{256} << 10;
  net::Machine m(two_tasks(29));
  std::vector<std::byte> src(kBig);
  std::vector<std::byte> remote(kBig);
  for (std::size_t i = 0; i < kBig; ++i) {
    src[i] = static_cast<std::byte>(i % 251);
    remote[i] = static_cast<std::byte>(i % 241);
  }
  std::vector<std::byte> landing(kBig);  // task 1's put target
  std::vector<std::byte> local(kBig);    // task 0's get landing
  std::size_t largest_put = kBig;
  std::size_t largest_get = kBig;
  lapi::Counter done;  // at task 1: the transfers are over

  ASSERT_EQ(m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n, lapi::Config{});
    (void)ctx.gfence();
    if (n.id() == 0) {
      lapi::Counter org;
      const auto put = [&] {
        ASSERT_EQ(ctx.put(1, src, landing.data(), nullptr, &org, nullptr),
                  Status::kOk);
        ASSERT_EQ(ctx.waitcntr(org, 1), Status::kOk);
      };
      const auto get = [&] {
        ASSERT_EQ(ctx.get(1, static_cast<std::int64_t>(kBig), remote.data(),
                          local.data(), nullptr, &org),
                  Status::kOk);
        ASSERT_EQ(ctx.waitcntr(org, 1), Status::kOk);
      };
      const auto largest = [](const auto& op) {
        g_alloc_largest = 0;
        g_alloc_armed = true;
        op();
        g_alloc_armed = false;
        return g_alloc_largest;
      };
      put();
      get();
      largest_put = largest(put);
      largest_get = largest(get);
      ASSERT_EQ(ctx.put(1, {}, landing.data(), &done, nullptr, nullptr),
                Status::kOk);
    } else {
      ASSERT_EQ(ctx.waitcntr(done, 1), Status::kOk);
    }
    (void)ctx.gfence();
  }), Status::kOk);

  EXPECT_EQ(landing, src);
  EXPECT_EQ(local, remote);
  EXPECT_LT(largest_put, kLimit);
  EXPECT_LT(largest_get, kLimit);
}

}  // namespace
}  // namespace splap
