// Fixture engine (see suspend_under_handler/src/sim/engine.hpp).
#pragma once

using Time = long long;

namespace splap::sim {

class Actor {
 public:
  void suspend(const char* why) { (void)why; }
  void compute(Time d) { (void)d; }
  static Actor* current() { return nullptr; }
};

class Engine {
 public:
  template <class F>
  void schedule_after(Time d, F f) { (void)d; f(); }
  template <class F>
  void spawn(const char* name, F f) { (void)name; (void)f; }
};

}  // namespace splap::sim
