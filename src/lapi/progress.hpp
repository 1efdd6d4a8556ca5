// The progress engine: everything that decides WHEN protocol work runs on
// a node, independent of what that work is. lapi::Context and mpl::Comm
// each own one and implement its Sink.
//
// Owns the dispatcher timeline of Section 2.1 / 5.3.1:
//   - packet admission: on_delivery is LAPI's rule (interrupt mode pumps on
//     arrival, charged the interrupt cost only when the dispatcher was idle
//     and its post-drain polling window has expired; polling mode parks
//     packets in a backlog until the task re-enters the library); enqueue
//     has no rule, for MPL's protocol thread, which always progresses;
//   - the pump loop, which serializes packet processing on the dispatcher's
//     busy_until_ timeline and hands each packet to the Sink (the protocol
//     demultiplexer above); charge() queues handler work behind it;
//   - library entry/exit bookkeeping (polling progress + the warm-call cost
//     model);
//   - deferred protocol effects (counter bumps, ack emission, assembly
//     completion) that are counted so term() can drain them (quiesce), and
//     guarded by the lifetime token so teardown cancels them;
//   - the wait set that blocking calls park on.
//
// Invariant owned here: a deferred effect either runs before the owning
// library invalidates the alive token, or never — there is no window where
// an effect touches freed protocol state.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>

#include "base/cost_model.hpp"
#include "lapi/types.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace splap::lapi {

class ProgressEngine {
 public:
  /// The protocol demultiplexer above the dispatcher: the pump hands each
  /// admitted packet here and charges the returned processing cost on the
  /// dispatcher timeline.
  class Sink {
   public:
    virtual Time process_packet(net::Packet& pkt) = 0;

   protected:
    ~Sink() = default;
  };

  ProgressEngine(sim::Engine& engine, const CostModel& cost, Sink& sink,
                 bool interrupt_mode)
      : engine_(engine), cost_(cost), sink_(sink),
        interrupt_mode_(interrupt_mode),
        ctr_pkts_rx_(engine.counters().handle("lapi.pkts_rx")),
        ctr_backlogged_(engine.counters().handle("lapi.backlogged")),
        ctr_interrupts_(engine.counters().handle("lapi.interrupts")) {}

  // --- packet admission / pump ---------------------------------------------
  void on_delivery(net::Packet&& pkt);
  /// Admit with no arrival rule: no interrupt charge, no polling backlog.
  void enqueue(net::Packet&& pkt);
  void schedule_pump(bool charge_interrupt);
  bool progress_allowed() const { return interrupt_mode_ || in_library_ > 0; }

  bool interrupt_mode() const { return interrupt_mode_; }
  /// LAPI_Senv(kInterruptSet): arming interrupts releases any backlog parked
  /// while the task was polling-without-polls.
  void set_interrupt_mode(bool on);

  // --- library entry/exit (polling progress + warm-call model) -------------
  void enter_library();
  void exit_library();
  Time call_entry_cost() const;

  // --- deferred protocol effects -------------------------------------------
  /// Schedule a near-future protocol effect (counter bump, ack emission,
  /// assembly completion). Unlike raw engine events these are counted, and
  /// term() drains them before detaching — cancelling one could strand a
  /// peer (e.g. an unsent ack leaves its retransmit loop spinning).
  void defer(Time at, std::function<void()> fn);
  int pending_effects() const { return pending_effects_; }
  /// Park `actor` until `settled()` holds and no deferred effect is pending
  /// (the term() drain of both libraries).
  void quiesce(sim::Actor& actor, const char* why,
               const std::function<bool()>& settled);

  // --- waiters / counters --------------------------------------------------
  void notify() { waiters_.wake_all(engine_); }
  sim::WaitSet& waiters() { return waiters_; }
  void bump(Counter* c, std::int64_t by = 1);
  /// A completion that carries a failure: advances the counter so waiters
  /// unblock, and records the failure for waitcntr to surface.
  void bump_failed(Counter* c);
  /// A failure caused by a declared-dead peer: like bump_failed, but also
  /// marks the counter so waitcntr reports kPeerFailed instead of the
  /// generic kResourceExhausted.
  void bump_peer_failed(Counter* c);

  // --- dispatcher timeline (shared with the transport layers) --------------
  /// Queue `d` behind the dispatcher's current work; returns when it ends.
  Time charge(Time d) {
    busy_until_ = std::max(engine_.now(), busy_until_) + d;
    return busy_until_;
  }
  Time busy_until() const { return busy_until_; }
  void set_busy_until(Time t) { busy_until_ = t; }
  bool pipelined() const { return pipelined_; }

  // --- lifetime ------------------------------------------------------------
  /// Guard token for events that may outlive the owning context (timeouts,
  /// delayed bumps). The context invalidates it at term.
  std::weak_ptr<char> alive() const { return alive_; }
  void invalidate() { alive_.reset(); }

  sim::Engine& engine() const { return engine_; }
  const CostModel& cost() const { return cost_; }

 private:
  void pump();
  /// Move the polling backlog into the pump queue and schedule the pump.
  void release_backlog(bool charge_interrupt);

  sim::Engine& engine_;
  const CostModel& cost_;
  Sink& sink_;
  bool interrupt_mode_;
  // Per-packet counters, resolved once (on_delivery runs for every packet).
  CounterSet::Handle ctr_pkts_rx_;
  CounterSet::Handle ctr_backlogged_;
  CounterSet::Handle ctr_interrupts_;

  std::deque<net::Packet> rx_q_;     // admitted, awaiting processing
  std::deque<net::Packet> backlog_;  // polling mode, task outside library
  bool pump_scheduled_ = false;
  bool pipelined_ = false;  // current packet arrived back-to-back
  Time busy_until_ = 0;
  Time linger_until_ = 0;  // post-drain polling window (interrupt absorption)
  int in_library_ = 0;
  Time last_lib_exit_ = kNoTime;
  int pending_effects_ = 0;  // deferred protocol effects not yet applied

  sim::WaitSet waiters_;
  std::shared_ptr<char> alive_ = std::make_shared<char>();
};

}  // namespace splap::lapi
