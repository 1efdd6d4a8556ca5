#include "sim/engine.hpp"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define SPLAP_ASAN_FIBERS 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
#define SPLAP_TSAN_FIBERS 1
#include <sanitizer/tsan_interface.h>
#endif

namespace splap::sim {
namespace {

thread_local Actor* tls_current_actor = nullptr;

/// Thrown into a suspended actor when the engine tears it down, so its stack
/// unwinds cleanly (RAII still runs). Never escapes Actor::run_body.
struct ActorKilled {};

std::size_t page_bytes() {
  static const std::size_t v = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return v;
}

/// The default pthread stack size (RLIMIT_STACK, 8 MB on common Linux
/// hosts): an actor gets the same stack a thread would, so deep GA frames fit.
std::size_t default_stack_bytes() {
  static const std::size_t v = [] {
    std::size_t bytes = 8u << 20;
    pthread_attr_t attr;
    if (pthread_attr_init(&attr) == 0) {
      (void)pthread_attr_getstacksize(&attr, &bytes);
      (void)pthread_attr_destroy(&attr);
    }
    const std::size_t page = page_bytes();
    return (bytes + page - 1) / page * page;
  }();
  return v;
}

// Sanitizer fiber hooks: every switch tells ASan which stack it lands on and
// TSan which fiber runs next. No-ops in uninstrumented builds.
#if defined(SPLAP_ASAN_FIBERS)
void asan_start_switch(void** fake_stack, const void* lo, std::size_t bytes) {
  __sanitizer_start_switch_fiber(fake_stack, lo, bytes);
}
void asan_finish_switch(void* fake_stack, const void** old_lo,
                        std::size_t* old_bytes) {
  __sanitizer_finish_switch_fiber(fake_stack, old_lo, old_bytes);
}
// A fresh mapping may reuse a dead fiber's address range, whose frames left
// scope poisoning behind in the shadow. Only 32 KB blocks (one shadow page
// each) that hold poison are cleared: writing the whole shadow would make
// every 8 MB stack cost 1 MB of resident memory.
void asan_unpoison(char* p, std::size_t bytes) {
  constexpr std::size_t kBlock = std::size_t{32} << 10;
  for (std::size_t off = 0; off < bytes; off += kBlock) {
    const std::size_t n = std::min(kBlock, bytes - off);
    if (__asan_region_is_poisoned(p + off, n) != nullptr) {
      __asan_unpoison_memory_region(p + off, n);
    }
  }
}
#else
void asan_start_switch(void**, const void*, std::size_t) {}
void asan_finish_switch(void*, const void**, std::size_t*) {}
void asan_unpoison(char*, std::size_t) {}
#endif

#if defined(SPLAP_TSAN_FIBERS)
void* tsan_create_fiber() { return __tsan_create_fiber(0); }
void tsan_destroy_fiber(void* fiber) { __tsan_destroy_fiber(fiber); }
void* tsan_current_fiber() { return __tsan_get_current_fiber(); }
void tsan_switch_to(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }
#else
void* tsan_create_fiber() { return nullptr; }
void tsan_destroy_fiber(void*) {}
void* tsan_current_fiber() { return nullptr; }
void tsan_switch_to(void*) {}
#endif

}  // namespace

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------

Actor::Actor(Engine& engine, int id, int shard, std::string name,
             std::function<void(Actor&)> body)
    : engine_(engine),
      id_(id),
      shard_(shard),
      name_(std::move(name)),
      body_(std::move(body)) {
  const std::size_t guard = page_bytes();
  const std::size_t bytes = guard + default_stack_bytes();
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  if (p == MAP_FAILED || mprotect(p, guard, PROT_NONE) != 0) {
    const int err = errno;
    if (p != MAP_FAILED) (void)munmap(p, bytes);
    throw SpawnError("cannot map a stack for actor #" + std::to_string(id) +
                     ": " + std::strerror(err) +
                     " — the OS refused another actor stack; reduce the "
                     "node count");
  }
  stack_ = static_cast<char*>(p);
  stack_bytes_ = bytes;
  asan_unpoison(stack_ + guard, bytes - guard);
  tsan_fiber_ = tsan_create_fiber();
  (void)getcontext(&fiber_ctx_);
  fiber_ctx_.uc_stack.ss_sp = stack_ + guard;
  fiber_ctx_.uc_stack.ss_size = bytes - guard;
  fiber_ctx_.uc_link = nullptr;  // fiber_main never returns
  makecontext(&fiber_ctx_, &Actor::fiber_main, 0);
}

Actor::~Actor() { release_stack(); }

void Actor::release_stack() {
  if (stack_ == nullptr) return;
  (void)munmap(stack_, stack_bytes_);
  stack_ = nullptr;
  tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
}

Time Actor::now() const { return engine_.now(); }

Actor* Actor::current() { return tls_current_actor; }

bool Actor::poisoned() const { return poisoned_; }

void Actor::fiber_main() {
  // grant() made this actor current before switching here. No local with a
  // destructor may live in this frame: the final switch never returns.
  Actor* const self = tls_current_actor;
  asan_finish_switch(nullptr, &self->caller_stack_lo_,
                     &self->caller_stack_bytes_);
  self->block_reason_ = "running";
  self->run_body();
  self->block_reason_ = "finished";
  self->finished_ = true;
  asan_start_switch(nullptr, self->caller_stack_lo_, self->caller_stack_bytes_);
  tsan_switch_to(self->tsan_caller_);
  (void)setcontext(&self->caller_ctx_);
  std::abort();  // setcontext returns only on failure
}

void Actor::run_body() {
  if (poisoned_) return;  // torn down before its first grant: never starts
  // Moved onto the fiber, so the captures die when the body returns.
  const std::function<void(Actor&)> body = std::move(body_);
  try {
    body(*this);
  } catch (const ActorKilled&) {
    // Engine teardown: unwind silently.
  } catch (...) {
    failure_ = std::current_exception();
  }
}

void Actor::grant() {
  if (finished_) return;
  SPLAP_REQUIRE(!running_, "grant() on an actor that is not descheduled");
  Actor* const granter = tls_current_actor;
  tls_current_actor = this;
  running_ = true;
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, fiber_ctx_.uc_stack.ss_sp,
                    fiber_ctx_.uc_stack.ss_size);
  tsan_caller_ = tsan_current_fiber();
  tsan_switch_to(tsan_fiber_);
  (void)swapcontext(&caller_ctx_, &fiber_ctx_);
  asan_finish_switch(fake_stack, nullptr, nullptr);
  running_ = false;
  tls_current_actor = granter;
  if (finished_) release_stack();
  if (failure_) {
    // Move, don't copy: exception_ptr copies touch an atomic refcount.
    std::exception_ptr f = std::move(failure_);
    failure_ = nullptr;
    std::rethrow_exception(std::move(f));
  }
}

void Actor::switch_out() {
  void* fake_stack = nullptr;
  asan_start_switch(&fake_stack, caller_stack_lo_, caller_stack_bytes_);
  tsan_switch_to(tsan_caller_);
  (void)swapcontext(&fiber_ctx_, &caller_ctx_);
  asan_finish_switch(fake_stack, &caller_stack_lo_, &caller_stack_bytes_);
}

void Actor::kill() {
  poisoned_ = true;
  try {
    grant();
  } catch (...) {
    // A torn-down actor's late failure must not propagate into teardown.
  }
}

void Actor::suspend(const char* why) {
  SPLAP_REQUIRE(current() == this,
                "suspend() may only be called from the actor's own body "
                "(blocking is forbidden in handler/event context)");
#ifdef SPLAP_AUDIT
  if (std::current_exception() != nullptr) {
    audit::fail("actor suspended inside a catch handler", "Actor::suspend",
                this);
  }
#endif
  block_reason_ = why;
  switch_out();
  if (poisoned_) throw ActorKilled{};
  block_reason_ = "running";
}

void Actor::compute(Time d) {
  SPLAP_REQUIRE(d >= 0, "compute() requires a non-negative duration");
  if (d == 0) return;
  // The flag lives in the Actor, not on its stack: an actor torn down
  // mid-compute leaves this timer queued after its stack is unmapped.
  timer_fired_ = false;
  engine_.schedule_after(d, [this] {
    timer_fired_ = true;
    engine_.wake(*this);
  });
  while (!timer_fired_) suspend("compute");
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
  // Unwind any actor still suspended (failed run, deadlock, or an exception
  // that aborted the event loop).
  for (auto& a : actors_) {
    if (!a->finished_) a->kill();
  }
}

void Engine::kill_shard(int shard) {
  // Same per-actor unwind as shutdown(), restricted to one node's shard.
  // Every actor is suspended while an event callback runs, so the grant in
  // kill() resumes each exactly once: its suspend() throws the teardown
  // exception and the stack unwinds.
  for (auto& a : actors_) {
    if (!a->finished_ && a->shard_ == shard) a->kill();
  }
}

int Engine::context_shard() const {
  const Actor* a = tls_current_actor;
  if (a != nullptr) return a->shard();
  return dispatch_shard_;
}

Actor& Engine::spawn(std::string name, std::function<void(Actor&)> body) {
  return spawn_on(context_shard(), std::move(name), std::move(body));
}

Actor& Engine::spawn_on(int shard, std::string name,
                        std::function<void(Actor&)> body) {
  const int id = static_cast<int>(actors_.size());
  actors_.push_back(std::unique_ptr<Actor>(
      new Actor(*this, id, shard, std::move(name), std::move(body))));
  Actor* p = actors_.back().get();
  schedule_at_on(now(), shard, [p] { p->grant(); });
  return *p;
}

void Engine::wake(Actor& a) {
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
    if (!a->finished()) {
      dead = true;
      SPLAP_WARN(now_, "deadlock: actor %d (%s) blocked on: %s", a->id(),
                 a->name().c_str(), a->block_reason());
    }
  }
  return dead ? Status::kDeadlock : Status::kOk;
}

}  // namespace splap::sim
