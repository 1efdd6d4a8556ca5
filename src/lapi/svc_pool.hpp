// Completion-handler service threads.
//
// Completion handlers run in their own execution context so they can block
// (e.g. on the GA accumulate mutex, Section 5.3.3) without stalling the
// dispatcher. The 1998 implementation ran one such thread; "providing
// multiple completion handler threads" is the paper's future-work item 2 and
// is available here via Config::completion_threads (ablation bench A2).
//
// Stackless mode (Config::stackless_completions): the pool owns a single
// stackless identity actor instead of OS threads, and jobs run inline on a
// pump event scheduled on the owning node's shard. This saves one OS thread
// per context — the difference between 2048 and 1024 threads on a 1024-node
// run — at the price of the stackless contract: a job must return without
// suspending (no compute()/waitcntr/mutex waits), which holds for the
// library's own completion jobs but not for user handlers that block.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace splap::lapi {

class SvcPool {
 public:
  using Job = std::function<void(sim::Actor&)>;

  SvcPool(sim::Engine& engine, const std::string& tag, int threads,
          bool stackless = false, int shard = sim::Engine::kNoShard)
      : engine_(engine), stackless_(stackless), shard_(shard) {
    SPLAP_REQUIRE(threads >= 1, "need at least one completion thread");
    if (stackless_) {
      // One identity actor is enough: jobs execute inline on the
      // dispatching thread, so extra "threads" would only add names.
      svc0_ = &engine_.spawn_stackless(shard, tag + ".svc0", nullptr);
      return;
    }
    for (int i = 0; i < threads; ++i) {
      engine_.spawn(tag + ".svc" + std::to_string(i), [this](sim::Actor& self) {
        service_loop(self);
      });
      ++alive_;
    }
  }

  /// Enqueue a completion job. Any context (dispatcher events included).
  void submit(Job job) {
    SPLAP_REQUIRE(!stopping_, "submit after SvcPool::stop");
    queue_.push_back(std::move(job));
    if (stackless_) {
      schedule_pump();
      return;
    }
    waiters_.wake_all(engine_);
  }

  /// Drain the queue and terminate the service threads. Must be called from
  /// an actor context (LAPI_Term); returns when every thread has exited.
  void stop(sim::Actor& self) {
    stopping_ = true;
    if (stackless_) {
      while (pump_scheduled_ || !queue_.empty()) {
        done_waiters_.add(self);
        self.suspend("lapi-term-svc-drain");
      }
      return;
    }
    waiters_.wake_all(engine_);
    while (alive_ != 0) {
      done_waiters_.add(self);
      self.suspend("lapi-term-svc-drain");
    }
  }

  int queued() const { return static_cast<int>(queue_.size()); }
  int busy() const { return busy_; }
  bool idle() const { return queue_.empty() && busy_ == 0; }
  bool stackless() const { return stackless_; }

 private:
  void schedule_pump() {
    if (pump_scheduled_) return;
    pump_scheduled_ = true;
    // Pin to the owning node's shard so whatever the completions schedule
    // inherits the node, like the rest of its protocol work. `this` is
    // safe: stop() drains the pump before the owning context tears the pool
    // down, and an engine shutdown sweeps unrun events without invoking
    // them.
    engine_.schedule_at_on(engine_.now(), shard_, [this] {
      pump_scheduled_ = false;
      svc0_->run_inline([this](sim::Actor& self) {
        while (!queue_.empty()) {
          Job job = std::move(queue_.front());
          queue_.pop_front();
          ++busy_;
          job(self);
          --busy_;
        }
      });
      done_waiters_.wake_all(engine_);
    });
  }

  void service_loop(sim::Actor& self) {
    for (;;) {
      while (queue_.empty() && !stopping_) {
        waiters_.add(self);
        self.suspend("lapi-svc-idle");
      }
      if (queue_.empty() && stopping_) break;
      Job job = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
      job(self);
      --busy_;
      done_waiters_.wake_all(engine_);
    }
    --alive_;
    done_waiters_.wake_all(engine_);
  }

  sim::Engine& engine_;
  const bool stackless_;
  const int shard_;
  sim::Actor* svc0_ = nullptr;  // stackless mode: the identity actor
  std::deque<Job> queue_;
  sim::WaitSet waiters_;       // idle service threads
  sim::WaitSet done_waiters_;  // stop()/drain observers
  bool pump_scheduled_ = false;
  int busy_ = 0;
  int alive_ = 0;
  bool stopping_ = false;
};

}  // namespace splap::lapi
