#include "lapi/progress.hpp"

#include <algorithm>
#include <utility>

namespace splap::lapi {

// ---------------------------------------------------------------------------
// Library entry/exit: polling progress + warm-call model
// ---------------------------------------------------------------------------

void ProgressEngine::enter_library() {
  if (sim::Actor::current() == nullptr) return;  // handler context
  ++in_library_;
  if (!interrupt_mode_) release_backlog(/*charge_interrupt=*/false);
}

void ProgressEngine::exit_library() {
  if (sim::Actor::current() == nullptr) return;
  --in_library_;
  last_lib_exit_ = engine_.now();
}

Time ProgressEngine::call_entry_cost() const {
  return engine_.now() == last_lib_exit_ ? cost_.lapi_call_warm
                                         : cost_.lapi_call;
}

void ProgressEngine::set_interrupt_mode(bool on) {
  const bool was = interrupt_mode_;
  interrupt_mode_ = on;
  // Packets parked while polling-without-polls: the first interrupt after
  // arming delivers them.
  if (!was && interrupt_mode_) release_backlog(/*charge_interrupt=*/true);
}

void ProgressEngine::release_backlog(bool charge_interrupt) {
  if (backlog_.empty()) return;
  while (!backlog_.empty()) {
    rx_q_.push_back(std::move(backlog_.front()));
    backlog_.pop_front();
  }
  schedule_pump(charge_interrupt);
}

// ---------------------------------------------------------------------------
// Deferred effects / counters
// ---------------------------------------------------------------------------

void ProgressEngine::defer(Time at, std::function<void()> fn) {
  ++pending_effects_;
  engine_.schedule_at(
      at, [this, w = std::weak_ptr<char>(alive_), fn = std::move(fn)] {
        if (w.expired()) return;
        --pending_effects_;
        fn();
        notify();
      });
}

void ProgressEngine::quiesce(sim::Actor& actor, const char* why,
                             const std::function<bool()>& settled) {
  while (pending_effects_ > 0 || !settled()) {
    waiters_.add(actor);
    actor.suspend(why);
  }
}

void ProgressEngine::bump(Counter* c, std::int64_t by) {
  if (c == nullptr) return;
  c->value_ += by;
  notify();
}

void ProgressEngine::bump_failed(Counter* c) {
  if (c == nullptr) return;
  c->value_ += 1;
  c->failed_ += 1;
  notify();
}

void ProgressEngine::bump_peer_failed(Counter* c) {
  if (c == nullptr) return;
  c->value_ += 1;
  c->failed_ += 1;
  c->peer_failed_ += 1;
  notify();
}

// ---------------------------------------------------------------------------
// Dispatcher pump
// ---------------------------------------------------------------------------

void ProgressEngine::on_delivery(net::Packet&& pkt) {
  ctr_pkts_rx_.bump();
  if (!progress_allowed()) {
    // Polling mode, task outside the library: no progress (Section 2.1).
    backlog_.push_back(std::move(pkt));
    ctr_backlogged_.bump();
    return;
  }
  rx_q_.push_back(std::move(pkt));
  // A task blocked inside a LAPI call polls the adapter even in interrupt
  // mode; the interrupt is only taken when the CPU is off running user code.
  schedule_pump(/*charge_interrupt=*/interrupt_mode_ && in_library_ == 0);
}

void ProgressEngine::enqueue(net::Packet&& pkt) {
  rx_q_.push_back(std::move(pkt));
  schedule_pump(/*charge_interrupt=*/false);
}

void ProgressEngine::schedule_pump(bool charge_interrupt) {
  if (pump_scheduled_) return;
  const Time now = engine_.now();
  Time start = std::max(now, busy_until_);
  if (charge_interrupt && busy_until_ <= now && now >= linger_until_) {
    // Dispatcher was idle AND its post-drain polling window has expired: a
    // fresh interrupt is taken. Packets landing while it is busy or still
    // lingering are absorbed without one (Section 5.3.1).
    start += cost_.interrupt_cost;
    ctr_interrupts_.bump();
  }
  pump_scheduled_ = true;
  defer(start, [this] {
    pump_scheduled_ = false;
    pump();
  });
}

void ProgressEngine::pump() {
  if (rx_q_.empty()) return;
  if (engine_.now() < busy_until_) {
    schedule_pump(false);
    return;
  }
  net::Packet pkt = std::move(rx_q_.front());
  rx_q_.pop_front();
  // A packet handled while the dispatcher is already hot (back-to-back with
  // earlier traffic) skips the full demultiplex entry (Section 5.3.1).
  pipelined_ = engine_.now() <= linger_until_;
  const Time cost_of_pkt = sink_.process_packet(pkt);
  busy_until_ = engine_.now() + cost_of_pkt;
  linger_until_ = busy_until_ + cost_.dispatch_linger;
  if (!rx_q_.empty()) schedule_pump(false);
}

}  // namespace splap::lapi
