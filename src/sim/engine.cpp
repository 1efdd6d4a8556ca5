#include "sim/engine.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define SPLAP_ASAN_FIBERS 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "the fiber switch (splap_fiber_switch and splap_fiber_entry in src/sim/engine.cpp, and SwitchFrame) is x86-64 System V only: port it to this architecture"
#endif
#if defined(__CET__) && (__CET__ & 2)
#error "splap_fiber_switch returns onto another fiber's stack, which a CET shadow stack rejects: build without -fcf-protection=return/full"
#endif

// splap_fiber_switch(save, load): push the six callee-saved registers, MXCSR
// and the x87 control word, store the stack pointer in *save, load `load`
// as the stack pointer, pop the same set from there and return on that
// stack. Everything else is caller-saved under the System V ABI, so the
// compiler already treats it as clobbered by the call. There is no syscall:
// the signal mask stays the thread's, and of the FP environment only the
// control words move. The CFA rules hold on both stacks because both hold
// the same frame layout (SwitchFrame below).
//
// splap_fiber_entry: where a fresh fiber's first switch returns to. The
// stack pointer is the 16-byte-aligned top of the fiber's stack, so the
// call into the entry function carried in %rbx meets the ABI's alignment;
// that function never returns (ud2 traps if it does). Its CFI leaves the
// return address undefined: unwinders and debuggers stop at this, the
// outermost frame of every fiber.
asm(R"(
  .text
  .globl splap_fiber_switch
  .hidden splap_fiber_switch
  .type splap_fiber_switch, @function
  .p2align 4
splap_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size splap_fiber_switch, .-splap_fiber_switch

  .globl splap_fiber_entry
  .hidden splap_fiber_entry
  .type splap_fiber_entry, @function
  .p2align 4
splap_fiber_entry:
  .cfi_startproc
  .cfi_undefined %rip
  callq *%rbx
  ud2
  .cfi_endproc
  .size splap_fiber_entry, .-splap_fiber_entry
)");

extern "C" void splap_fiber_switch(void** save, void* load);
extern "C" void splap_fiber_entry();

namespace splap::sim {
namespace {

/// What splap_fiber_switch leaves at a suspended side's saved stack
/// pointer, lowest address first.
struct SwitchFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  std::uint16_t pad = 0;
  std::uint64_t r15 = 0, r14 = 0, r13 = 0, r12 = 0, rbx = 0, rbp = 0;
  void (*ret)() = nullptr;
};
static_assert(sizeof(SwitchFrame) == 64, "splap_fiber_switch pops 64 bytes");

/// The actor whose fiber runs now; null on the engine's own stack. The
/// process runs one fiber at a time, on its one OS thread.
Actor* current_actor = nullptr;

/// Thrown into a suspended actor when the engine tears it down, so its stack
/// unwinds cleanly (RAII still runs). Never escapes Actor::run_body.
struct ActorKilled {};

std::size_t page_bytes() {
  static const std::size_t v = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return v;
}

/// Every actor's stack, guard page excluded: 8 MiB, what a Linux thread
/// gets under the usual `ulimit -s` of 8192 KB, so deep GA frames fit. A
/// whole number of pages, whatever the host's RLIMIT_STACK.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

// Sanitizer fiber hooks: every switch tells ASan which stack it lands on.
// No-ops in uninstrumented builds.
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
  const std::size_t bytes = guard + kStackBytes;
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
  // The first grant "resumes" a frame at the top of the stack: this
  // thread's control words, zeroed registers except %rbx, which carries the
  // entry function, and a return into splap_fiber_entry.
  auto* frame = new (stack_ + bytes - sizeof(SwitchFrame)) SwitchFrame{};
  asm volatile("stmxcsr %0\n\tfnstcw %1"
               : "=m"(frame->mxcsr), "=m"(frame->x87_cw));
  frame->rbx = reinterpret_cast<std::uintptr_t>(&Actor::fiber_main);
  frame->ret = &splap_fiber_entry;
  fiber_sp_ = frame;
}

Actor::~Actor() { release_stack(); }

void Actor::release_stack() {
  if (stack_ == nullptr) return;
  (void)munmap(stack_, stack_bytes_);
  stack_ = nullptr;
}

Time Actor::now() const { return engine_.now(); }

Actor* Actor::current() { return current_actor; }

bool Actor::poisoned() const { return poisoned_; }

void Actor::fiber_main() {
  // grant() made this actor current before switching here. No local with a
  // destructor may live in this frame: the final switch never returns.
  Actor* const self = current_actor;
  asan_finish_switch(nullptr, &self->caller_stack_lo_,
                     &self->caller_stack_bytes_);
  self->block_reason_ = "running";
  self->run_body();
  self->block_reason_ = "finished";
  self->finished_ = true;
  asan_start_switch(nullptr, self->caller_stack_lo_, self->caller_stack_bytes_);
  splap_fiber_switch(&self->fiber_sp_, self->caller_sp_);
  std::abort();  // nothing ever switches back to a finished fiber
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
  Actor* const granter = current_actor;
  current_actor = this;
  running_ = true;
  void* fake_stack = nullptr;
#if defined(SPLAP_ASAN_FIBERS)
  // The fiber's stack as ASan sees it: the mapping less its guard page.
  // (Only here: page_bytes() is not free on every grant.)
  asan_start_switch(&fake_stack, stack_ + page_bytes(),
                    stack_bytes_ - page_bytes());
#endif
  splap_fiber_switch(&caller_sp_, fiber_sp_);
  asan_finish_switch(fake_stack, nullptr, nullptr);
  running_ = false;
  current_actor = granter;
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
  splap_fiber_switch(&fiber_sp_, caller_sp_);
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
  const Actor* a = current_actor;
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
