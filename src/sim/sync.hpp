// Virtual-time synchronization primitives for actors and handler contexts.
//
// SimMutex is the object behind the paper's Section 5.3.3: on one node the
// main application thread, the header-handler thread and the completion-
// handler thread can all contend for the mutex protecting an accumulate
// region. Actor contexts block (FIFO); handler/event contexts either
// try_lock (header handlers — the paper warns against descheduling the LAPI
// dispatcher thread) or queue a continuation (lock_async).
#pragma once

#include <deque>
#include <functional>
#include <variant>

#include "base/status.hpp"
#include "sim/engine.hpp"

namespace splap::sim {

class SimMutex {
 public:
  explicit SimMutex(Engine& engine) : engine_(engine) {}
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  bool locked() const { return locked_; }

  /// Blocking acquire; actor context only.
  void lock() {
    Actor* a = Actor::current();
    SPLAP_REQUIRE(a != nullptr, "SimMutex::lock requires an actor context");
    if (!locked_) {
      locked_ = true;
      return;
    }
    bool granted = false;
    waiters_.push_back(ActorWaiter{a, &granted});
    a->wait([&] { return granted; }, "sim-mutex");
  }

  /// Non-blocking acquire; any context (this is what a header handler may
  /// use — it must never block the dispatcher).
  bool try_lock() {
    if (locked_) return false;
    locked_ = true;
    return true;
  }

  /// Acquire from an event/handler context: runs `cont` immediately if the
  /// mutex is free, otherwise queues it to run (still in event context) when
  /// ownership becomes available. `cont` runs with the mutex held.
  void lock_async(std::function<void()> cont) {
    if (!locked_) {
      locked_ = true;
      cont();
      return;
    }
    waiters_.push_back(std::move(cont));
  }

  /// Release; ownership passes FIFO to the next waiter if any.
  void unlock() {
    SPLAP_REQUIRE(locked_, "unlock of an unlocked SimMutex");
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    auto next = std::move(waiters_.front());
    waiters_.pop_front();
    // Mutex stays locked: ownership transfers.
    if (auto* aw = std::get_if<ActorWaiter>(&next)) {
      *aw->granted = true;
      engine_.wake(*aw->actor);
    } else {
      auto cont = std::move(std::get<std::function<void()>>(next));
      engine_.schedule_at(engine_.now(), std::move(cont));
    }
  }

 private:
  struct ActorWaiter {
    Actor* actor;
    bool* granted;
  };

  Engine& engine_;
  bool locked_ = false;
  std::deque<std::variant<ActorWaiter, std::function<void()>>> waiters_;
};

/// A set of actors blocked on some condition; the state owner wakes them all
/// after mutating the state (waiters re-check their predicates).
class WaitSet {
 public:
  void add(Actor& a) { waiters_.push_back(&a); }

  void wake_all(Engine& engine) {
    for (Actor* a : waiters_) engine.wake(*a);
    waiters_.clear();
  }

  bool empty() const { return waiters_.empty(); }

 private:
  std::vector<Actor*> waiters_;
};

}  // namespace splap::sim
