#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <system_error>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace splap::sim {
namespace {

thread_local Actor* tls_current_actor = nullptr;

/// Thrown into a blocked actor when the engine is torn down, so its thread
/// unwinds cleanly (RAII still runs). Never escapes thread_main.
struct ActorKilled {};

/// SPLAP_HANDOFF_SPINS pins the handoff spin budget (adaptive when unset).
int env_spin_override() {
  static const int v = [] {
    const char* s = std::getenv("SPLAP_HANDOFF_SPINS");
    if (s == nullptr || *s == '\0') return -1;
    return std::atoi(s);
  }();
  return v;
}

/// More than one CPU this process may run on. The affinity mask, not the
/// machine's thread count: a process pinned to one CPU (taskset) would
/// otherwise spin against a partner that cannot run until it yields.
bool multi_hw() {
  static const bool v = [] {
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      return CPU_COUNT(&set) > 1;
    }
#endif
    return std::thread::hardware_concurrency() > 1;
  }();
  return v;
}

/// Starting spin budget before yielding/parking. With a single usable CPU
/// spinning only delays the partner's timeslice, so the fast path goes
/// straight to the yield loop.
int initial_spin_budget() {
  const int o = env_spin_override();
  if (o >= 0) return o;
  return multi_hw() ? 256 : 0;
}

constexpr int kSpinMax = 4096;
constexpr int kYieldRounds = 2;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------

Actor::Actor(Engine& engine, int id, int shard, std::string name,
             std::function<void(Actor&)> body)
    : engine_(engine),
      id_(id),
      shard_(shard),
      stackless_(false),
      name_(std::move(name)) {
  thread_ = std::thread([this, b = std::move(body)]() mutable {
    thread_main(std::move(b));
  });
}

Actor::Actor(Engine& engine, int id, int shard, std::string name,
             std::function<void(Actor&)> body, StacklessTag)
    : engine_(engine),
      id_(id),
      shard_(shard),
      stackless_(true),
      name_(std::move(name)),
      stackless_body_(std::move(body)) {
  block_reason_ = stackless_body_ ? "not started" : "stackless-idle";
}

Actor::~Actor() {
  if (thread_.joinable()) thread_.join();
}

Time Actor::now() const { return engine_.now(); }

Actor* Actor::current() { return tls_current_actor; }

void Actor::park_until(std::uint32_t want) {
  if ((turn_.load(std::memory_order_acquire) & kOwnerMask) == want) return;
  int& budget = spin_budget_[want & kOwnerMask];
  if (budget < 0) budget = initial_spin_budget();
  const bool adaptive = env_spin_override() < 0;
  for (int i = budget; i-- > 0;) {
    cpu_relax();
    if ((turn_.load(std::memory_order_acquire) & kOwnerMask) == want) return;
  }
  // Yield phase: on a loaded or single-CPU machine the partner needs our
  // timeslice, not our spinning — and a yield that succeeds saves the futex
  // wait AND the partner's wake syscall (it sees no parked bit).
  for (int i = 0; i < kYieldRounds; ++i) {
    std::this_thread::yield();
    if ((turn_.load(std::memory_order_acquire) & kOwnerMask) == want) {
      if (adaptive && multi_hw() && budget < kSpinMax) {
        // Spin missed but yield caught it: a longer spin may dodge even the
        // yield next time.
        budget = std::min(budget * 2 + 16, kSpinMax);
      }
      return;
    }
  }
  if (adaptive) budget /= 2;  // both phases missed: spinning is wasted here
  // Advertise the park so the handing-over side knows a wake is needed. The
  // waiter never writes the owner bit — a post-wake store could clobber the
  // partner's freshly set parked bit and lose its wake; only the handoff
  // exchange in hand_to clears the bit.
  std::uint32_t cur =
      turn_.fetch_or(kParkedBit, std::memory_order_acq_rel) | kParkedBit;
  while ((cur & kOwnerMask) != want) {
    turn_.wait(cur, std::memory_order_acquire);
    cur = turn_.load(std::memory_order_acquire);
  }
}

void Actor::hand_to(std::uint32_t next) {
  const std::uint32_t old = turn_.exchange(next, std::memory_order_acq_rel);
  if ((old & kParkedBit) != 0) turn_.notify_one();
}

void Actor::thread_main(std::function<void(Actor&)> body) {
  // Wait for the first grant; the engine owns the control token until then.
  park_until(kActorHasControl);
  tls_current_actor = this;
  block_reason_ = "running";
  if (!poisoned()) {
    try {
      body(*this);
    } catch (const ActorKilled&) {
      // Engine teardown: unwind silently.
    } catch (...) {
      failure_ = std::current_exception();
    }
  }
  tls_current_actor = nullptr;
  block_reason_ = "finished";
  finished_ = true;
  hand_to(kEngineHasControl);
}

bool Actor::poisoned() const { return poisoned_; }

void Actor::grant() {
  if (finished_) return;
  if (stackless_) {
    Actor* saved = tls_current_actor;
    tls_current_actor = this;
    block_reason_ = "running";
    struct Restore {  // restores on the throw path too
      Actor*& slot;
      Actor* saved;
      Actor* self;
      ~Restore() {
        slot = saved;
        self->block_reason_ = "finished";
        self->finished_ = true;
      }
    } restore{tls_current_actor, saved, this};
    if (stackless_body_) {
      // Move out so captured state is freed as soon as the body returns.
      auto body = std::move(stackless_body_);
      stackless_body_ = nullptr;
      body(*this);
    }
    return;
  }
  SPLAP_REQUIRE(
      (turn_.load(std::memory_order_relaxed) & kOwnerMask) == kEngineHasControl,
      "grant() on an actor that is not descheduled");
  hand_to(kActorHasControl);
  park_until(kEngineHasControl);
  if (failure_) {
    // Move, don't copy: exception_ptr copies touch an atomic refcount.
    std::exception_ptr f = std::move(failure_);
    failure_ = nullptr;
    std::rethrow_exception(std::move(f));
  }
}

void Actor::run_inline(const std::function<void(Actor&)>& fn) {
  SPLAP_REQUIRE(stackless_,
                "run_inline is only valid on a stackless actor (thread-backed "
                "actors run their own body)");
  SPLAP_REQUIRE(!finished_, "run_inline on a finished actor");
  Actor* saved = tls_current_actor;
  tls_current_actor = this;
  const char* saved_reason = block_reason_;
  block_reason_ = "running";
  struct Restore {
    Actor*& slot;
    Actor* saved;
    Actor* self;
    const char* reason;
    ~Restore() {
      slot = saved;
      self->block_reason_ = reason;
    }
  } restore{tls_current_actor, saved, this, saved_reason};
  fn(*this);
}

void Actor::suspend(const char* why) {
  SPLAP_REQUIRE(!stackless_,
                "stackless (handler-mode) actor attempted to block; stackless "
                "actors must never suspend/wait/compute — use a thread-backed "
                "actor for blocking code");
  SPLAP_REQUIRE(current() == this,
                "suspend() may only be called from the actor's own thread "
                "(blocking is forbidden in handler/event context)");
  block_reason_ = why;
  hand_to(kEngineHasControl);
  park_until(kActorHasControl);
  if (poisoned_) throw ActorKilled{};
  block_reason_ = "running";
}

void Actor::compute(Time d) {
  SPLAP_REQUIRE(d >= 0, "compute() requires a non-negative duration");
  if (d == 0) return;
  bool fired = false;
  engine_.schedule_after(d, [this, &fired] {
    fired = true;
    engine_.wake(*this);
  });
  while (!fired) suspend("compute");
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine() {
  tail_spare_.push_back(&first_block_);
#ifdef SPLAP_AUDIT
  audit_spare_.insert(&first_block_, "Engine ctor");
#endif
}

Engine::~Engine() {
  shutdown();
  // Events still queued (failed run, deadlock) own callables; destroy them
  // before the pool slabs go away. Audit builds also hand the swept nodes
  // back to the pool so acquire/release pairing balances, then verify no
  // node is left acquired: any remainder escaped both the run loop and this
  // sweep, i.e. a queue-bookkeeping leak.
#ifdef SPLAP_AUDIT
#define SPLAP_SWEEP(node) \
  do {                    \
    (node)->clear();      \
    event_pool_.release(node); \
  } while (0)
#else
#define SPLAP_SWEEP(node) (node)->clear()
#endif
  if (box_full_) SPLAP_SWEEP(box_.node);
  for (const HeapSlot& s : heap_) SPLAP_SWEEP(s.node);
  std::size_t idx = tail_head_;
  for (std::size_t b = tail_head_block_; b < tail_blocks_.size(); ++b) {
    const std::size_t end =
        b + 1 == tail_blocks_.size() ? tail_back_ : SlotBlock::kSlots;
    for (std::size_t j = idx; j < end; ++j) SPLAP_SWEEP(tail_blocks_[b]->s[j].node);
    idx = 0;
  }
#undef SPLAP_SWEEP
#ifdef SPLAP_AUDIT
  if (event_pool_.in_use() != 0) {
    audit::fail("event node leak at engine teardown", "Engine::~Engine",
                nullptr);
  }
#endif
}

#ifdef SPLAP_AUDIT
void Engine::audit_object_begin(const void* obj) { audit_race_.begin(obj); }

void Engine::audit_object_end(const void* obj) { audit_race_.end(obj); }

void Engine::audit_object_touch(const void* obj, const char* where) {
  const Actor* a = Actor::current();
  const int actor_id = a != nullptr ? a->id() : -1;
  audit_race_.touch(obj, now_, audit_step_, actor_id, where);
}
#endif

void Engine::shutdown() {
  // Unwind any actor still blocked (failed run, deadlock, or an exception
  // that aborted the event loop). Stackless actors have no stack to unwind:
  // mark them finished and drop any unstarted body.
  for (auto& a : actors_) {
    if (a->finished_) continue;
    a->poisoned_ = true;
    if (a->stackless_) {
      a->finished_ = true;
      a->block_reason_ = "finished";
      a->stackless_body_ = nullptr;
      continue;
    }
    try {
      a->grant();
    } catch (...) {
      // Teardown must not throw; drop late failures.
    }
  }
  // Actor destructors join the threads.
}

void Engine::kill_shard(int shard) {
  // Same per-actor unwind as shutdown(), restricted to one node's shard.
  // The single-runnable-entity invariant guarantees every actor is parked
  // while an event callback runs, so granting a poisoned actor here hands
  // its thread exactly one resume in which suspend() rethrows the teardown
  // exception and the stack unwinds.
  for (auto& a : actors_) {
    if (a->finished_ || a->shard_ != shard) continue;
    a->poisoned_ = true;
    if (a->stackless_) {
      a->finished_ = true;
      a->block_reason_ = "finished";
      a->stackless_body_ = nullptr;
      continue;
    }
    try {
      a->grant();
    } catch (...) {
      // A crash-stop unwind must not propagate into the dispatcher; late
      // failures from a dying node are dropped like in shutdown().
    }
  }
}

int Engine::context_shard() const {
  const Actor* a = tls_current_actor;
  if (a != nullptr) return a->shard();
  return dispatch_shard_;
}

Actor& Engine::spawn_impl(int shard, std::string name,
                          std::function<void(Actor&)> body, bool stackless) {
  const bool has_body = static_cast<bool>(body);
  const int id = static_cast<int>(actors_.size());
  std::unique_ptr<Actor> a;
  if (stackless) {
    a.reset(new Actor(*this, id, shard, std::move(name), std::move(body),
                      Actor::StacklessTag{}));
  } else {
    try {
      a.reset(new Actor(*this, id, shard, std::move(name), std::move(body)));
    } catch (const std::system_error& e) {
      throw SpawnError(std::string("cannot create a thread for actor #") +
                       std::to_string(id) + ": " + e.what() +
                       " — the OS refused another thread; reduce the node "
                       "count or use stackless actors for non-blocking "
                       "endpoints");
    }
  }
  Actor* p = a.get();
  actors_.push_back(std::move(a));
  // Stackless identity actors (null body) exist only as run_inline targets;
  // everything else gets its body started at the current time.
  if (!stackless || has_body) {
    schedule_at_on(now(), shard, [p] { p->grant(); });
  }
  return *p;
}

Actor& Engine::spawn(std::string name, std::function<void(Actor&)> body) {
  return spawn_impl(context_shard(), std::move(name), std::move(body), false);
}

Actor& Engine::spawn_on(int shard, std::string name,
                        std::function<void(Actor&)> body) {
  return spawn_impl(shard, std::move(name), std::move(body), false);
}

Actor& Engine::spawn_stackless(int shard, std::string name,
                               std::function<void(Actor&)> body) {
  return spawn_impl(shard, std::move(name), std::move(body), true);
}

void Engine::wake(Actor& a) {
  SPLAP_REQUIRE(!a.stackless_,
                "wake() on a stackless actor (they never block, so there is "
                "nothing to resume)");
  if (a.finished_) return;
  if (a.wake_pending_) return;
  a.wake_pending_ = true;
  // Pinned to the actor's shard: events the resumed actor schedules inherit
  // the grant event's shard, so they stay attributed to the actor's node.
  schedule_at_on(now(), a.shard_, [&a] {
    a.wake_pending_ = false;
    a.grant();
  });
}

void Engine::dispatch(const HeapSlot& s) {
  // Touch the NEXT event's node while this one executes: queued nodes
  // cycle through a pool region larger than L1, and the pointer chase is
  // otherwise on the critical path of every dispatch.
  if (tail_size_ != 0) __builtin_prefetch(tail_front().node);
  EventNode* n = s.node;
  now_ = s.t;
  dispatch_shard_ = n->shard;
#ifdef SPLAP_AUDIT
  audit_race_.on_dispatch(++audit_step_, n->audit_cause);
#endif
  // invoke destroys the callable on both paths, so the node goes straight
  // back to the pool; a free node's stale thunk pointers are never read
  // (bind overwrites them, and ~Engine only sweeps queued nodes).
  try {
    n->invoke(n->obj);  // may throw: propagates to caller; ~Engine cleans up
  } catch (...) {
    event_pool_.release(n);
    ++events_executed_;
    throw;
  }
  event_pool_.release(n);
  ++events_executed_;
}

Status Engine::run() {
  SPLAP_REQUIRE(!running_, "Engine::run is not reentrant");
  running_ = true;
  try {
    while (!queue_empty()) dispatch(queue_pop());
  } catch (...) {
    dispatch_shard_ = kNoShard;
    running_ = false;
    throw;
  }
  dispatch_shard_ = kNoShard;
  running_ = false;
  bool dead = false;
  for (const auto& a : actors_) {
    if (a->stackless()) continue;  // no stack, nothing ever blocks
    if (!a->finished()) {
      dead = true;
      SPLAP_WARN(now_, "deadlock: actor %d (%s) blocked on: %s", a->id(),
                 a->name().c_str(), a->block_reason());
    }
  }
  return dead ? Status::kDeadlock : Status::kOk;
}

}  // namespace splap::sim
