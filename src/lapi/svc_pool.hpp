// Completion-handler service threads.
//
// Completion handlers run in their own execution context so they can block
// (e.g. on the GA accumulate mutex, Section 5.3.3) without stalling the
// dispatcher. Each simulated service thread is an actor of the node's
// engine. The 1998 implementation ran one such thread; "providing multiple
// completion handler threads" is the paper's future-work item 2 and is
// available here via Config::completion_threads (ablation bench A2).
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

  SvcPool(sim::Engine& engine, const std::string& tag, int threads)
      : engine_(engine) {
    SPLAP_REQUIRE(threads >= 1, "need at least one completion thread");
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
    waiters_.wake_all(engine_);
  }

  /// Drain the queue and terminate the service threads. Must be called from
  /// an actor context (LAPI_Term); returns when every thread has exited.
  void stop(sim::Actor& self) {
    stopping_ = true;
    waiters_.wake_all(engine_);
    while (alive_ != 0) {
      done_waiters_.add(self);
      self.suspend("lapi-term-svc-drain");
    }
  }

  int queued() const { return static_cast<int>(queue_.size()); }
  int busy() const { return busy_; }
  bool idle() const { return queue_.empty() && busy_ == 0; }

 private:
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
  std::deque<Job> queue_;
  sim::WaitSet waiters_;       // idle service threads
  sim::WaitSet done_waiters_;  // stop()/drain observers
  int busy_ = 0;
  int alive_ = 0;
  bool stopping_ = false;
};

}  // namespace splap::lapi
