// The legal shapes: an actor body may suspend freely; a handler may reach a
// guarded dual-mode call when the guarded edge carries an allow annotation.
#include "sim/engine.hpp"

namespace splap::lapi {

void charge(sim::Actor* a, Time t) {
  if (sim::Actor* cur = sim::Actor::current()) {
    // splap-graph: allow(blocking-reachability): guarded by Actor::current()
    // — handler-context callers fall through to the else branch.
    cur->compute(t);
  }
  (void)a;
}

void run(sim::Engine& eng, sim::Actor* a) {
  eng.spawn("worker", [a] {
    a->compute(100);  // actor bodies block freely
  });
  eng.schedule_after(10, [a] {
    charge(a, 5);  // reaches compute only through the annotated guard
  });
}

}  // namespace splap::lapi
