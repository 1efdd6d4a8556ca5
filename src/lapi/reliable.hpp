// Reliable-delivery core, shared by every protocol library in the tree.
//
// Two pieces live here:
//
//   ReliableChannel  the generation-numbered retransmit timer machinery —
//                    exponential backoff with an optional rto_max clamp and
//                    deterministic seeded jitter, Jacobson SRTT/RTTVAR
//                    estimation with Karn's rule, and the stale-timer
//                    suppression that keeps a re-armed record from being
//                    retransmitted by an invalidated timeout. Protocol-
//                    agnostic: what "retransmit" or "give up" means is the
//                    owning Sender's business. LAPI and MPL both layer on
//                    this one implementation (the paper's Section 5 layering:
//                    MPI as a sibling client of the same reliable transport).
//
//   SendEngine       LAPI's origin side: msg-id allocation, in-flight send
//                    records (the retransmission source — the eager copy, or
//                    the pinned user region a rendezvous message streams
//                    from, Section 5.3.1), packetization into header + data
//                    packets with end-to-end CRC stamping, the two-level
//                    DATA/DONE ack protocol, retry-exhaustion failure
//                    completion, and one PeerState per peer (liveness,
//                    credits, parked sends, detector evidence).
//
// Invariant owned here: a send record is reclaimed exactly once — by the
// final ack, an RMW response, or retry exhaustion — and no timer fires into
// a reclaimed record (generation check; audited by the record ledger in
// SPLAP_AUDIT builds).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/audit.hpp"
#include "base/cost_model.hpp"
#include "base/rng.hpp"
#include "base/time.hpp"
#include "lapi/progress.hpp"
#include "lapi/protocol.hpp"
#include "lapi/select.hpp"
#include "net/delivery.hpp"

namespace splap::lapi {

// LAPI retransmission and failure-detector constants.
/// Clamp of the adaptive (Jacobson) RTO estimate and of its backoff.
inline constexpr Time kRtoMin = microseconds(150);
inline constexpr Time kRtoMax = milliseconds(250);
/// An adaptive retry's backoff adds a uniform draw in
/// [0, delay * kBackoffJitter) from an Rng seeded with kJitterSeed ^ task.
inline constexpr double kBackoffJitter = 0.25;
inline constexpr std::uint64_t kJitterSeed = 0x7e57a11;
/// Inter-arrival gaps each peer's accrual estimator remembers.
inline constexpr int kAccrualWindow = 16;
/// Distinct observers needed to latch a gossiped accrual-only death verdict
/// (SendEngine::note_death_report).
inline constexpr int kSuspicionQuorum = 2;

/// Per-record retry bookkeeping embedded in the owner's send record.
struct RetryState {
  int retries = 0;
  std::uint64_t timeout_gen = 0;  // invalidates stale timeout events
};

/// Retransmission policy of one channel. LAPI maps its Config here (the
/// adaptive fields gated on adaptive_timeout); MPL uses the fixed timeout
/// with the backoff clamp armed.
struct RetryPolicy {
  Time base_rto = milliseconds(4.0);
  int max_retries = 12;
  /// Jacobson initial-RTO estimation + deterministic backoff jitter.
  bool adaptive = false;
  /// Cap the doubled retry delay at rto_max (without it a dozen doublings
  /// of a multi-ms base reach minutes of virtual time).
  bool clamp_backoff = false;
  Time rto_min = 0;
  Time rto_max = 0;
  double backoff_jitter = 0.0;
};

class ReliableChannel {
 public:
  /// The owner of the send records this channel times. retry_state returns
  /// nullptr once a record has been reclaimed; the remaining hooks are only
  /// invoked for live records.
  class Sender {
   public:
    virtual RetryState* retry_state(std::int64_t id) = 0;
    /// Fully acknowledged (no retransmission needed, record merely awaiting
    /// reclamation); a settled record's timer expires silently.
    virtual bool settled(std::int64_t id) = 0;
    virtual void retransmit(std::int64_t id) = 0;
    virtual void give_up(std::int64_t id) = 0;

   protected:
    ~Sender() = default;
  };

  /// `scope` prefixes the instrumentation counters ("<scope>.retransmits",
  /// "<scope>.stale_timeouts", "<scope>.retransmit_giveup"). `alive` guards
  /// timer events against outliving the owning protocol context.
  ReliableChannel(sim::Engine& engine, Sender& sender, RetryPolicy policy,
                  const std::string& scope, std::uint64_t jitter_seed,
                  std::weak_ptr<char> alive);

  /// (Re-)arm the retransmit timer of record `id`. Bumps the record's
  /// timeout generation, invalidating every previously scheduled timer.
  void arm(std::int64_t id, Time delay);

  /// First retransmit timeout for a fresh message: adaptive SRTT/RTTVAR
  /// estimate when armed (and a sample exists), else the fixed base RTO.
  Time initial_rto() const;

  /// Feed an ack round-trip into the Jacobson estimator. Callers enforce
  /// Karn's rule (only never-retransmitted messages sample).
  void on_rtt_sample(Time sample);

  /// Current smoothed RTT estimate (0 until the first sample).
  Time srtt() const { return srtt_; }
  int max_retries() const { return policy_.max_retries; }

 private:
  void on_timer(std::int64_t id, std::uint64_t gen, Time delay);

  sim::Engine& engine_;
  Sender& sender_;
  RetryPolicy policy_;
  // Resolved once at construction: timer paths fire per retransmission and
  // must not pay a counter-name scan each time.
  CounterSet::Handle ctr_retransmits_;
  CounterSet::Handle ctr_stale_;
  CounterSet::Handle ctr_giveup_;
  Rng jitter_rng_;  // deterministic backoff jitter (seeded per task)
  std::weak_ptr<char> alive_;

  // Jacobson SRTT/RTTVAR state (Karn's rule keeps retransmitted messages
  // out of the sample stream; callers enforce it).
  bool have_rtt_ = false;
  Time srtt_ = 0;
  Time rttvar_ = 0;
};

/// Phi-accrual-style suspicion estimator over one peer's packet inter-arrival
/// rhythm (phi-accrual lineage; same adaptive spirit as the Jacobson RTO).
/// Each admitted packet contributes one inter-arrival gap to a sliding
/// window; suspicion is the current silence measured against the smoothed
/// expectation (mean + 2*stddev). Steady traffic collapses the variance, so
/// a peer with a tight rhythm is suspected quickly when it goes quiet, while
/// a peer with naturally bursty traffic earns a wide tolerance — which is
/// exactly what separates a straggler from a corpse. Pure virtual-time
/// arithmetic: no randomness, no wall clock.
class AccrualEstimator {
 public:
  /// Inter-arrival samples required before suspicion() means anything; below
  /// this the detector falls back to the legacy fixed-miss rule.
  static constexpr int kWarmupSamples = 3;

  explicit AccrualEstimator(int window = kAccrualWindow)
      : window_(window < 2 ? 2 : window),
        gaps_(static_cast<std::size_t>(window_), 0.0) {}

  /// Record an arrival at virtual time `now`.
  void observe(Time now) {
    if (last_ != kNoTime && now >= last_) {
      const double gap = static_cast<double>(now - last_);
      if (count_ == window_) {
        const double old = gaps_[static_cast<std::size_t>(head_)];
        sum_ -= old;
        sumsq_ -= old * old;
      } else {
        ++count_;
      }
      gaps_[static_cast<std::size_t>(head_)] = gap;
      head_ = head_ + 1 == window_ ? 0 : head_ + 1;
      sum_ += gap;
      sumsq_ += gap * gap;
    }
    last_ = now;
  }

  /// Silence since the last arrival over the smoothed gap expectation.
  /// 0 while warming up or when an arrival just landed; grows monotonically
  /// with silence. The +1 floor keeps a fully collapsed variance (perfectly
  /// periodic traffic) from dividing by zero.
  double suspicion(Time now) const {
    if (!warmed_up() || last_ == kNoTime || now <= last_) return 0.0;
    const double silence = static_cast<double>(now - last_);
    return silence / (mean() + 2.0 * stddev() + 1.0);
  }

  bool warmed_up() const { return count_ >= kWarmupSamples; }
  int samples() const { return count_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }
  double stddev() const {
    if (count_ == 0) return 0.0;
    const double m = mean();
    const double var = sumsq_ / count_ - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;  // round-off can dip negative
  }

 private:
  int window_;
  std::vector<double> gaps_;  // ring buffer of inter-arrival gaps
  int head_ = 0;
  int count_ = 0;
  Time last_ = kNoTime;
  double sum_ = 0.0;
  double sumsq_ = 0.0;
};

/// Everything one task's send engine knows about one peer: liveness, credit
/// pool, parked sends and detector evidence. Created on first touch; an idle
/// record allocates nothing (vector FIFOs, estimator built on first arrival).
struct PeerState {
  enum class Liveness : std::uint8_t { kAlive, kSuspected, kFailed };

  explicit PeerState(std::int64_t window) : credits(window) {}

  /// kSuspected: quarantined, sends parked in suspectq, heals on any
  /// contact. kFailed: latched dead until the peer is heard from again.
  Liveness liveness = Liveness::kAlive;
  /// Newest incarnation a send has addressed, and the one the kFailed latch
  /// was declared against: a send to that life or an older one fails at
  /// submit, a send to a newer (restarted) life goes out.
  std::int64_t addressed_epoch = 0;
  std::int64_t dead_epoch = 0;

  /// Packet credits (the real LAPI's token scheme over the TB3 adapter's
  /// finite buffering). A message leases one credit per wire packet before
  /// its first transmission; leases return incrementally as the target
  /// reports ingested packets (cumulative ack_pkts on acks/kCredit) and in
  /// full when the send record is reclaimed. A message larger than the whole
  /// window may start only when the pool is completely idle, taking the
  /// balance negative — so a below-window pool always implies a live record
  /// whose reclamation will release credits, which is the deadlock-freedom
  /// argument (see DESIGN.md §6): credit restoration rides the
  /// record-reclamation invariant, never on any single packet surviving.
  std::int64_t credits;
  /// Handler-context sends that could not lease credits, FIFO; drained as
  /// grants/reclamations return credits.
  std::vector<std::int64_t> credit_waitq;
  /// Records quarantined while the peer is suspected, FIFO. Separate from
  /// credit_waitq so mid-quarantine credit returns cannot restart them; only
  /// heal_peer (or fail_peer) drains it.
  std::vector<std::int64_t> suspectq;

  /// Keepalive observation window, open from the peer's first tick
  /// (`probed`): any admitted packet sets `heard`, each tick consumes it and
  /// counts silent ones in `misses`.
  bool probed = false;
  bool heard = false;
  int misses = 0;
  /// Inter-arrival estimator (accrual mode only).
  std::optional<AccrualEstimator> accrual;

  /// Accrual-only death gossip awaiting corroboration: the distinct tasks
  /// that reported the peer dead on suspicion alone. Cleared when the peer
  /// is heard from (the reports were describing a partition, not a death).
  std::set<int> death_reports;

  /// A dead or restarted peer's next life is judged from scratch: no
  /// keepalive window, no rhythm.
  void forget_rhythm() {
    probed = false;
    heard = false;
    misses = 0;
    accrual.reset();
  }
};

/// Origin-side record of an in-flight data-bearing LAPI message, kept until
/// the data ack arrives.
struct SendRecord {
  int target = -1;
  PktKind kind = PktKind::kPutHdr;
  std::shared_ptr<WireMeta> hdr_meta;
  /// Library-owned copy of the payload: the eager bcopy, a strided gather,
  /// an AM's udata. Null for a rendezvous Put or Get reply, which streams
  /// from the pinned user region instead.
  std::shared_ptr<std::vector<std::byte>> data;
  /// The payload every (re)transmission reads: `data`, or the pinned source
  /// region [hdr_meta->org_addr, +total_len). Both drop at the data ack, so
  /// a later arm_initial sees len 0.
  const std::byte* bytes = nullptr;
  std::int64_t len = 0;
  bool data_acked = false;
  bool done_acked = false;  // only tracked when a DONE ack was requested
  bool needs_done = false;
  /// Large (zero-copy) send: the origin counter fires at the data ack, when
  /// the pinned user buffer becomes reusable.
  bool org_pending = false;
  RetryState retry;
  /// Injection time of the (first) transmission; the data ack of a message
  /// that was never retransmitted yields an RTT sample (Karn's rule).
  Time sent_at = 0;

  // --- flow control (inert unless Config::credit_window > 0) --------------
  /// Wire packets this message occupies (header + data fragments). Credit
  /// unit: retransmissions ride the original lease.
  std::int64_t pkts = 1;
  /// Credits still leased from the per-peer gate.
  std::int64_t credits_held = 0;
  /// Cumulative target-ingest count already credited back (grants are
  /// cumulative, so duplicated/reordered updates are idempotent).
  std::int64_t credits_granted = 0;
  /// Parked in the per-peer credit wait queue; not yet transmitted.
  bool queued = false;
  /// One NACK-driven fast retransmit per recovery round (reset by grant
  /// progress or an RTO retransmit, so overflow storms cannot multiply).
  bool nack_rtx = false;
};

class SendEngine final : public ReliableChannel::Sender {
 public:
  SendEngine(net::Delivery& wire, ProgressEngine& progress, int task_id,
             const Config& config, bool checksums);

  /// Inject a validated message: allocates the msg id, charges the call (or
  /// queues behind the dispatcher in handler context), records the send for
  /// retransmission and arms its timer. The facade has already validated
  /// the target and the library state. A target latched dead fails the
  /// operation at once (fail_at_submit).
  ///
  /// `data` is a payload the library already owns. A non-strided Put (or
  /// Get reply) may pass none: it then sends hdr->total_len bytes from
  /// hdr->org_addr — bcopied here when the message is eager, else streamed
  /// from that region, which must stay unmodified until the data ack.
  void submit(PktKind kind, int target, std::shared_ptr<WireMeta> hdr,
              std::shared_ptr<std::vector<std::byte>> data,
              Time extra_call_cost);

  /// Dispatcher demux entry points (return the packet processing cost).
  Time on_ack(const net::Packet& pkt);
  Time on_rmw_resp(const net::Packet& pkt);
  /// The target's adapter dropped a packet of one of our messages (RX
  /// overflow) or shed it at the partial table: fast retransmit without
  /// waiting out the RTO.
  Time on_nack(const net::Packet& pkt);
  /// Standalone credit update: cumulative ingested-packet count for a
  /// still-incomplete message, releasing part of its lease mid-stream.
  Time on_credit(const net::Packet& pkt);

  /// A get reply finished landing at the origin (assembly side calls this;
  /// the caller is responsible for any notify that follows).
  void note_get_reply() { --outstanding_gets_; }

  int outstanding_data() const { return outstanding_data_; }
  int outstanding_gets() const { return outstanding_gets_; }
  std::size_t pending_sends() const { return sends_.size(); }
  /// The lowest msg id not yet settled: the oldest live record, or an id an
  /// actor-context submit allocated and has not recorded yet (it suspends
  /// in compute() in between), else the next id to allocate. Stamped into
  /// every header and data packet as WireMeta::low_water.
  std::int64_t low_water() const {
    std::int64_t lw = msg_seq_;
    if (!sends_.empty()) lw = std::min(lw, sends_.begin()->first);
    if (!submitting_.empty()) lw = std::min(lw, submitting_.front());
    return lw;
  }
  Time srtt() const { return channel_.srtt(); }
  bool checksums() const { return checksums_; }
  /// The protocol-decision layer (and its registration cache). The facade
  /// consults classify() to plan strided gather charges; tests and GA read
  /// the cache statistics.
  ProtocolSelector& selector() { return selector_; }
  const ProtocolSelector& selector() const { return selector_; }
  /// Flow-control introspection (tests): credits available toward `peer`
  /// and sends parked awaiting credits.
  std::int64_t credits_available(int peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? credit_window_ : it->second.credits;
  }
  std::size_t credit_queued() const {
    std::size_t n = 0;
    for (const auto& [id, p] : peers_) n += p.credit_waitq.size();
    return n;
  }
  /// True when every remaining record has exhausted its retries (term's
  /// quiesce loop stops waiting on such records).
  bool all_exhausted() const;
  /// Give every record still streaming from a user region a copy of its
  /// payload, so no later (re)transmission reads that region (gfence's
  /// promise to the serving side of a Get). Charges nothing: the copy
  /// only outlives a lost data ack, whose resend the origin drops as a
  /// duplicate.
  void own_streamed_payloads();

  // --- crash-stop peer failure (tentpole of the recovery subsystem) --------

  /// Incarnation epoch of the owning context; stamped into every packet this
  /// engine originates itself (data fragments copy the facade-stamped
  /// header). Defaults to 0, the only epoch of a never-crashed run.
  void set_epoch(std::int64_t e) { epoch_ = e; }

  /// A keepalive probe arrived: reply immediately (header-only, dispatcher
  /// cost only — same class of traffic as a NACK).
  Time on_probe(const net::Packet& pkt);

  /// Any packet from `src` was admitted: the peer is demonstrably alive.
  /// Feeds the accrual estimator, clears the keepalive miss count, heals a
  /// *suspected* peer (un-quarantining its parked sends) and un-latches a
  /// dead verdict (the peer reconnected, or congestion was misjudged).
  void note_heard(int src);

  /// Is `peer` currently latched dead?
  bool peer_failed(int peer) const {
    return liveness(peer) == PeerState::Liveness::kFailed;
  }

  /// Is `peer` in the suspected (quarantined, not dead) state?
  bool peer_suspected(int peer) const {
    return liveness(peer) == PeerState::Liveness::kSuspected;
  }

  /// Sends currently quarantined behind suspected peers (introspection).
  std::size_t suspect_queued() const {
    std::size_t n = 0;
    for (const auto& [id, p] : peers_) n += p.suspectq.size();
    return n;
  }

  /// Declare `peer` dead (retry exhaustion, keepalive timeout, or gossip
  /// from another task's detection): fail over every queued and pending
  /// record toward it at once with kPeerFailed, reclaim their credit
  /// leases, and fire the peer-failure hook once per latch transition.
  /// `direct` records the evidence class for the hook: true for first-hand
  /// proof (retry exhaustion, fixed-miss keepalive), false for an
  /// accrual-only verdict — gossip of the latter needs corroboration.
  void fail_peer(int peer, bool direct = true);

  /// Another task reported `peer` dead on accrual evidence alone (gossip).
  /// A single partitioned observer must not split-brain the membership: the
  /// verdict latches here only once kSuspicionQuorum distinct observers
  /// agree, counting this task's own live suspicion of the peer as one vote.
  void note_death_report(int peer, int reporter);

  /// The peer restarted with incarnation `new_epoch`. Records addressed to
  /// an older incarnation can never complete (the new life rejects their
  /// dst_epoch), so fail them over now; records already addressed to the
  /// new life ride through untouched — the very packet that triggered the
  /// adoption may be their ack. Clears the dead latch: the new life is
  /// reachable. Deliberately does NOT fire the peer-failure hook: rebirth
  /// is not a death declaration, and the stale records' own kPeerFailed
  /// completions carry the news to their waiters.
  void on_peer_reborn(int peer, std::int64_t new_epoch);

  /// Invoked in dispatcher context on each fresh dead-peer latch (the
  /// facade wires the LAPI_Init error handler and failure gossip here).
  /// The bool is fail_peer's `direct` evidence class.
  void set_peer_failure_hook(std::function<void(int, bool)> hook) {
    peer_failure_hook_ = std::move(hook);
  }

  /// Crash teardown only (Context::term on a poisoned actor): the records
  /// and leases still live belong to the epoch that just died — drop them
  /// from the audit ledgers so the crash itself doesn't read as a leak.
  /// Healthy teardown never calls this; its ledgers must drain naturally.
  void forgive_crash_teardown();

 private:
  // ReliableChannel::Sender hooks.
  RetryState* retry_state(std::int64_t id) override;
  bool settled(std::int64_t id) override;
  void retransmit(std::int64_t id) override;
  void give_up(std::int64_t id) override;

  /// Inject the message's wire packets (header + data fragments), optionally
  /// skipping the first `skip_first` — the NACK fast path skips the packets
  /// the target's cumulative grant already covers, so a recovery burst into
  /// a still-tight adapter carries fresh packets instead of duplicates. The
  /// skip is a heuristic (grants count ingested packets, which is the wire
  /// prefix only under in-order arrival); the RTO path always resends
  /// everything, so a wrong guess costs time, never correctness.
  void transmit_packets(const SendRecord& rec, std::int64_t skip_first = 0);
  void transmit_probe(const SendRecord& rec);
  /// Abandon one record: complete the op with `reason` (kPeerFailed for a
  /// dead peer, kResourceExhausted otherwise) — unblock every counter that
  /// has not fired yet (marked failed), release the outstanding bookkeeping
  /// and reclaim the record. Never hangs a waiter. Also emits a best-effort
  /// kCancel so the target reclaims any partial assembly the abandoned
  /// message left behind.
  void fail_send(std::int64_t msg_id, Status reason);
  /// Is `p` latched dead for the incarnation `hdr` is addressed to?
  static bool latched_dead(const PeerState& p, const WireMeta& hdr) {
    return p.liveness == PeerState::Liveness::kFailed &&
           hdr.dst_epoch <= p.dead_epoch;
  }
  /// A submit toward a peer latched dead: complete the operation's origin
  /// counters as failed (kPeerFailed) at the submit's virtual time, with no
  /// record, packet or timer.
  void fail_at_submit(PktKind kind, const WireMeta& hdr);
  /// Keepalive: (re-)arm the probe tick while records are pending.
  void arm_keepalive();
  void keepalive_tick();
  /// The record of `peer`, created on first touch.
  PeerState& peer_state(int peer) {
    return peers_.try_emplace(peer, credit_window_).first->second;
  }
  PeerState::Liveness liveness(int peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? PeerState::Liveness::kAlive
                              : it->second.liveness;
  }
  /// healthy -> suspected: quarantine every record toward `peer` (freeze its
  /// RTO by bumping the timeout generation, return its credit lease, park it
  /// in the suspect queue) instead of failing it. Fresh transitions bump
  /// lapi.peer_suspected.
  void suspect_peer(int peer);
  /// suspected -> healthy (any contact): restart the quarantined records —
  /// re-lease credits, retransmit (not charged against the retry budget) and
  /// re-arm their timers. Bumps lapi.peer_healed.
  void heal_peer(int peer, PeerState& p);

  /// Wire packets a message of this shape occupies (the credit unit).
  /// Both this and transmit_packets read the same frag_plan, so the lease
  /// and the transmission can never disagree.
  std::int64_t packet_count(PktKind kind, const WireMeta& hdr,
                            std::int64_t len) const;
  /// Arm the first RTO of `id`, scaled by the injection backlog + wire time.
  void arm_initial(std::int64_t id, std::int64_t len);
  /// Credits admit a `pkts`-packet message (the oversize rule: a full pool
  /// admits anything). Callers that start new sends also require an empty
  /// credit_waitq, so nothing overtakes a parked send.
  bool has_credits(const PeerState& p, std::int64_t pkts) const {
    return p.credits >= pkts || p.credits == credit_window_;
  }
  void lease_credits(PeerState& p, SendRecord& rec);
  /// Return up to `n` leased credits to the peer pool, drain its wait queue
  /// and wake parked senders. No-op on unleased records.
  void credit_return(SendRecord& rec, std::int64_t n);
  /// Apply a cumulative ingest report (ack_pkts) to a record's lease.
  void apply_grant(SendRecord& rec, std::int64_t granted);
  void release_credits(SendRecord& rec) { credit_return(rec, rec.credits_held); }
  /// Start the peer's queued sends while credits allow, FIFO.
  void drain_credit_waitq(PeerState& p);

  net::Delivery& wire_;
  ProgressEngine& progress_;
  const int task_id_;
  const Config config_;
  /// Stamp/verify end-to-end payload CRCs (armed when the fabric injects
  /// corruption; off otherwise so the clean path does no checksum work).
  const bool checksums_;

  /// Protocol decision layer; owns this context's registration cache.
  ProtocolSelector selector_;

  std::int64_t msg_seq_ = 0;
  std::map<std::int64_t, SendRecord> sends_;
  /// Ids allocated by actor-context submits that are suspended before
  /// recording them in sends_, ascending (ids are allocated in order).
  std::vector<std::int64_t> submitting_;
  int outstanding_data_ = 0;
  int outstanding_gets_ = 0;
  /// Per-peer packet-credit window (Config::credit_window; 0 = no flow
  /// control).
  const std::int64_t credit_window_;
  /// One record per peer this task has touched. A map, not an array indexed
  /// by task id: a task addresses a handful of peers, and references stay
  /// valid while fail_peer runs the failure hook.
  std::map<int, PeerState> peers_;
  ReliableChannel channel_;

  // --- crash-stop peer failure state ---------------------------------------
  std::int64_t epoch_ = 0;
  std::function<void(int, bool)> peer_failure_hook_;
  bool keepalive_armed_ = false;
  /// Accrual detector active: keepalive configured and not forced legacy.
  /// Resolved once: note_heard runs on every admitted packet.
  const bool accrual_enabled_;
#ifdef SPLAP_AUDIT
  /// Shadow ledger of live send records: double-reclaim or a timer/ack
  /// touching a reclaimed record aborts at the corrupting operation.
  audit::LiveSet send_ledger_{"lapi send record"};
  /// Shadow ledger of live credit leases: a record releasing more credits
  /// than it holds, or releasing after its lease fully returned, aborts at
  /// the corrupting operation (conservation of the per-peer window).
  audit::LiveSet credit_ledger_{"lapi credit lease"};
#endif
};

}  // namespace splap::lapi
