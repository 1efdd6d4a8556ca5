// The LAPI context: one per task, the whole of Table 1.
//
// Construction is LAPI_Init (registers the context with the node's adapter
// and starts the completion-handler service threads); term() / destruction
// is LAPI_Term. All communication calls are non-blocking: they return as
// soon as the message is queued at the network (the paper's "unordered
// pipelining"), and completion is signalled through user counters
// (Section 2.3). Blocking behaviour is built by the caller with waitcntr —
// exactly the simple extension the paper describes.
//
// The Context itself is a facade over the layered transport stack:
//
//   ProgressEngine (progress.hpp)  WHEN protocol work runs: interrupt/poll
//     |                            scheduling, the dispatcher pump, deferred
//     |                            effects, waiters, the lifetime token.
//   SendEngine     (reliable.hpp)  the origin side: send records, packetizing,
//     |                            retransmission (via ReliableChannel), acks
//     |                            received, failure completion.
//   AssemblyEngine (assembly.hpp)  the target side: reassembly, dedup, CRC
//     |                            verification, handler/completion delivery,
//     |                            Get/Rmw serving, ack emission.
//   net::Delivery  (net/)          the wire.
//
// What stays here: API validation and call-time semantics (Table 1), the
// handler table, counters/fences/collectives, the completion-thread pool,
// and the Universe address-exchange registry. The Context demultiplexes
// received packets to the origin or target side (ProgressEngine::Sink) and
// provides the upcall services the assembly layer needs (AssemblyEngine::Env).
//
// Progress rules (Section 2.1): in interrupt mode the dispatcher runs on
// packet arrival, charged the interrupt cost when it was idle (back-to-back
// packets are absorbed without new interrupts, Section 5.3.1). In polling
// mode packets make progress only while the task is inside a LAPI call;
// with no polling, "performance may substantially degrade or may even
// result in deadlock" — reproduced faithfully, see the polling tests.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "base/cost_model.hpp"
#include "base/status.hpp"
#include "base/strided.hpp"
#include "lapi/assembly.hpp"
#include "lapi/progress.hpp"
#include "lapi/protocol.hpp"
#include "lapi/reliable.hpp"
#include "lapi/svc_pool.hpp"
#include "lapi/types.hpp"
#include "net/machine.hpp"
#include "sim/sync.hpp"

namespace splap::lapi {

class Context : private ProgressEngine::Sink, private AssemblyEngine::Env {
 public:
  /// LAPI_Init. Must be constructed in the task's actor context.
  explicit Context(net::Node& node, Config config = {});
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// LAPI_Term: quiesces completion threads and detaches from the adapter.
  /// Idempotent; called by the destructor if the user did not.
  void term();

  int task_id() const { return node_.id(); }
  int num_tasks() const { return node_.machine().tasks(); }

  // --- environment ------------------------------------------------------
  std::int64_t qenv(Query q) const;  // LAPI_Qenv
  void senv(Setting s, std::int64_t v);  // LAPI_Senv

  /// Register an active-message header handler. SPMD programs must register
  /// handlers in the same order on every task so ids agree (the real LAPI
  /// ships raw function addresses, valid for identical executables).
  AmHandlerId register_handler(HeaderHandler handler);

  // --- data transfer (Section 2.2) ---------------------------------------
  /// LAPI_Put: one-sided copy of `src` into `tgt_addr` in task `target`'s
  /// address space. org_cntr: src reusable; tgt_cntr: data arrived (target
  /// side); cmpl_cntr: completion confirmed back at the origin. Up to
  /// lapi_bcopy_limit bytes are copied before put() returns; a larger `src`
  /// is sent (and resent) from the caller's buffer, so it must stay
  /// unmodified until org_cntr or cmpl_cntr fires or a fence returns.
  Status put(int target, std::span<const std::byte> src, std::byte* tgt_addr,
             Counter* tgt_cntr, Counter* org_cntr, Counter* cmpl_cntr);

  /// LAPI_Get: one-sided pull of `len` bytes from `tgt_addr` in task
  /// `target` into local `org_addr`. org_cntr: data arrived locally;
  /// tgt_cntr: data copied out of the target buffer. (No cmpl_cntr — see
  /// Figure 1.) A reply above lapi_bcopy_limit is sent (and resent) from
  /// `tgt_addr`, which must stay valid until tgt_cntr fires or a fence or
  /// gfence on `target` returns.
  Status get(int target, std::int64_t len, const std::byte* tgt_addr,
             std::byte* org_addr, Counter* tgt_cntr, Counter* org_cntr);

  /// LAPI_Putv / LAPI_Getv — the non-contiguous remote-memory-copy interface
  /// the paper proposes as future work (Section 6, item 1): one message
  /// moves a whole column-major strided region, "removing the overhead
  /// associated with multiple requests or the copy overhead in the AM-based
  /// implementations". `src` describes local memory; `dst` describes the
  /// region in `target`'s address space (its `base` is the remote address).
  /// Shapes (row_bytes, cols) must match. Counter semantics as put/get; the
  /// source is gathered at the call, so org_cntr fires at injection.
  Status putv(int target, const StridedRegion& src, const StridedRegion& dst,
              Counter* tgt_cntr, Counter* org_cntr, Counter* cmpl_cntr);
  /// Pull `src` (a region in `target`'s address space) into local `dst`.
  Status getv(int target, const StridedRegion& src, const StridedRegion& dst,
              Counter* tgt_cntr, Counter* org_cntr);

  /// LAPI_Amsend (Section 2.1, Figure 1): uhdr/udata shipped to `target`,
  /// where the registered header handler picks the landing buffer and an
  /// optional completion handler.
  Status amsend(int target, AmHandlerId handler, std::span<const std::byte> uhdr,
                std::span<const std::byte> udata, Counter* tgt_cntr,
                Counter* org_cntr, Counter* cmpl_cntr);

  // --- mutual exclusion (Section 2.4 / 3) ---------------------------------
  /// LAPI_Rmw: atomic read-modify-write of the 8-byte variable `tgt_var` in
  /// task `target`'s address space. in1 is the operand (comparand for CAS);
  /// in2 is the CAS swap value. `prev_out` (optional) receives the previous
  /// value when org_cntr fires.
  Status rmw(RmwOp op, int target, std::int64_t* tgt_var, std::int64_t in1,
             std::int64_t in2, std::int64_t* prev_out, Counter* org_cntr);

  /// Blocking convenience: rmw + waitcntr. Returns the previous value.
  std::int64_t rmw_sync(RmwOp op, int target, std::int64_t* tgt_var,
                        std::int64_t in1, std::int64_t in2 = 0);

  // --- counters (Section 2.3) ---------------------------------------------
  void setcntr(Counter& c, std::int64_t v);  // LAPI_Setcntr
  /// LAPI_Getcntr: non-blocking read; also drives progress in polling mode.
  std::int64_t getcntr(Counter& c);
  /// LAPI_Waitcntr: block until the counter reaches `val`, then decrement it
  /// by `val` (the paper's auto-decrement semantics). Drives progress.
  /// Returns kOk normally; kResourceExhausted when any of the completions
  /// consumed by this wait was a retry-exhaustion failure (the op's data is
  /// not guaranteed delivered — the surfaced failure path, never a hang).
  Status waitcntr(Counter& c, std::int64_t val);

  // --- ordering (Section 2.5) ---------------------------------------------
  /// LAPI_Fence: block until every data transfer this task originated has
  /// deposited its data at its target ("data copied out of the network to
  /// the remote user buffers" — completion handlers NOT included, 5.3.2).
  void fence();
  /// LAPI_Gfence: collective fence — fence + dissemination barrier built on
  /// LAPI active messages. On return no send reads this task's memory any
  /// more (a Get reply served during the barrier keeps a copy until its
  /// data ack). Returns kOk normally; kPeerFailed when a barrier
  /// partner died mid-collective (the barrier terminates instead of hanging,
  /// but this task cannot claim global quiescence); kPeerSuspected when no
  /// partner died but at least one sat in the suspected (quarantined) state
  /// when its pulse was due — degraded progress that may yet heal.
  Status gfence();

  // --- address exchange ----------------------------------------------------
  /// LAPI_Address_init: collective all-gather of one address per task.
  /// `table` must have num_tasks() entries.
  void address_init(void* mine, std::span<void*> table);

  net::Node& node() const { return node_; }
  const CostModel& cost() const { return node_.cost(); }
  sim::Engine& engine() const { return node_.engine(); }

  /// Outstanding un-acked data messages (fence would block while > 0).
  int outstanding() const {
    return send_.outstanding_data() + send_.outstanding_gets();
  }

  // --- introspection (tests / chaos harness) ------------------------------
  /// Origin-side in-flight send records not yet reclaimed. Zero after a
  /// fence + completed DONE acks: the leak check of the chaos harness.
  std::size_t pending_sends() const { return send_.pending_sends(); }
  /// Current smoothed RTT estimate (0 until the first ack sample).
  Time srtt() const { return send_.srtt(); }
  /// Incomplete reassembly partials currently held at this target.
  std::size_t partials() const { return assembly_.live_partials(); }
  /// Per-message dedup state held at this target (completed markers, cached
  /// RMW results, NACK suppressions): bounded by the origins' windows.
  AssemblyEngine::DedupState dedup_state() const {
    return assembly_.dedup_state();
  }
  /// Flow-control credits currently available toward `peer` (the full
  /// window when credits are off or nothing is outstanding).
  std::int64_t credits_available(int peer) const {
    return send_.credits_available(peer);
  }
  /// Has this context declared `peer` dead (retry exhaustion, keepalive
  /// misses, or gossip) with no newer incarnation heard since?
  bool peer_failed(int peer) const { return send_.peer_failed(peer); }
  /// Is `peer` currently in the suspected (quarantined, not dead) state?
  bool peer_suspected(int peer) const { return send_.peer_suspected(peer); }
  /// Sends currently quarantined behind suspected peers.
  std::size_t suspect_queued() const { return send_.suspect_queued(); }
  /// This context's incarnation epoch (the restart count of its node at
  /// LAPI_Init, stamped into every packet it originates).
  std::int64_t epoch() const { return gate_.epoch(); }

 private:
  struct Universe;  // per-machine registry (address exchange bootstrap)

  /// ProgressEngine::Sink: demultiplex one received packet to the origin
  /// side (acks, RMW responses) or the target side (everything else).
  Time process_packet(net::Packet& pkt) override;

  // AssemblyEngine::Env: the services the target side calls back up for.
  AmReply run_handler(AmHandlerId id, const AmDelivery& d) override;
  void run_completion(const std::function<void(Context&, sim::Actor&)>& fn,
                      sim::Actor& svc_actor) override;
  void submit_completion(std::function<void(sim::Actor&)> fn) override;
  Status send_get_reply(int origin, std::shared_ptr<WireMeta> hdr,
                        std::shared_ptr<std::vector<std::byte>> data) override;
  void note_get_reply() override { send_.note_get_reply(); }

  /// Validate and inject (every data-transfer call lands here).
  Status send_message(PktKind kind, int target,
                      std::shared_ptr<WireMeta> hdr,
                      std::shared_ptr<std::vector<std::byte>> data,
                      Time extra_call_cost);

  // Shorthands into the progress engine for the blocking-call bodies.
  void enter_library() { progress_.enter_library(); }
  void exit_library() { progress_.exit_library(); }
  Time call_entry_cost() const { return progress_.call_entry_cost(); }
  void notify() { progress_.notify(); }

  Universe& universe();
  // Barrier-handler registration + Universe attach/detach (collectives.cpp).
  void init_collectives();
  void detach_universe();

  // --- crash-stop failure handling ---------------------------------------
  /// SendEngine's peer-failure hook: this context itself detected `peer`
  /// dead. Reclaims target-side state, delivers the registered error
  /// handler, and gossips the verdict along with its evidence class —
  /// `direct` for first-hand proof (retry exhaustion, fixed-miss
  /// keepalive), false for an accrual-only suspicion verdict.
  void on_peer_failed(int peer, bool direct);
  /// Death notice from a sibling context's detector (the group-services
  /// membership channel). A direct verdict latches immediately; an
  /// accrual-only verdict is only corroboration — it latches once distinct
  /// observers (reporters plus this task's own suspicion) reach
  /// kSuspicionQuorum (SendEngine::note_death_report), so one partitioned
  /// observer cannot split-brain a healthy task.
  void note_peer_death(int peer, bool direct, int reporter);
  /// Fan a death verdict out to every attached context on the machine
  /// (collectives.cpp — rides the Universe registry).
  void broadcast_peer_death(int peer, bool direct);

  net::Node& node_;
  Config config_;
  bool terminated_ = false;
  /// This context's incarnation (its node's restart count at LAPI_Init) and
  /// the last-adopted incarnation of every peer; process_packet admits
  /// through it.
  net::EpochGate gate_;
  // Per-operation counters, resolved once at init (put/get run per message).
  CounterSet::Handle ctr_put_;
  CounterSet::Handle ctr_get_;

  std::vector<HeaderHandler> handlers_;
  std::unique_ptr<SvcPool> svc_;

  // The transport stack (construction order matters: progress_ first, the
  // two protocol sides on top of it).
  ProgressEngine progress_;
  SendEngine send_;
  AssemblyEngine assembly_;

  // Collective state.
  std::int64_t barrier_seq_ = 0;
  std::map<std::pair<std::int64_t, int>, int> barrier_got_;
  std::int64_t xchg_seq_ = 0;
};

}  // namespace splap::lapi
