// The LAPI target side: message assembly and delivery.
//
// Owns everything that happens when a data-bearing packet reaches its
// destination (Section 2.1, steps 2-4 of Figure 1):
//   - per-(origin, msg_id) assembly records with out-of-order staging (data
//     packets that beat their header wait for the header handler to supply
//     the landing buffer), fragment dedup, and the strided scatter path for
//     Putv;
//   - end-to-end CRC verification (corrupted packets are treated as loss and
//     recovered by the origin's retransmission);
//   - Get/Rmw serving, where the reply is handed back up to the facade as an
//     internal Put / direct response packet;
//   - the two-level DATA/DONE ack emission, including re-acks for
//     retransmitted traffic into completed assemblies (duplicate
//     suppression — the user may already have reused the buffer);
//   - per-origin low-water marks (WireMeta::low_water): every id below an
//     origin's mark is settled at the origin, so the completed markers,
//     RMW results and NACK suppressions below it are forgotten, and a
//     packet below it with no marker is answered as its completed marker
//     would have answered it.
//
// Invariant owned here: user-visible delivery happens exactly once per
// message — duplicates of any packet of a completed message are answered
// with acks only, and a fragment ingests at most once (the sorted vector of
// ingested offsets, Assembly::seen).
// Duplicate-suppression markers live only at or above the origin's mark
// (plus markers whose completion handler has not run yet), so the state
// held per origin is bounded by its unsettled window, not by its history.
//
// What it does NOT know: handler tables, completion-service threads, or the
// Context type — those stay behind the Env callback interface, so this layer
// is unit-testable against a scripted fake wire.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "base/cost_model.hpp"
#include "base/status.hpp"
#include "lapi/progress.hpp"
#include "lapi/protocol.hpp"
#include "lapi/types.hpp"
#include "net/delivery.hpp"

namespace splap::lapi {

class Context;

class AssemblyEngine {
 public:
  /// The services above this layer: handler dispatch, completion-thread
  /// submission, and the facade's validated send path for Get replies.
  class Env {
   public:
    virtual AmReply run_handler(AmHandlerId id, const AmDelivery& d) = 0;
    virtual void run_completion(
        const std::function<void(Context&, sim::Actor&)>& fn,
        sim::Actor& svc_actor) = 0;
    virtual void submit_completion(std::function<void(sim::Actor&)> fn) = 0;
    virtual Status send_get_reply(
        int origin, std::shared_ptr<WireMeta> hdr,
        std::shared_ptr<std::vector<std::byte>> data) = 0;
    /// A get reply finished landing: retire the origin's outstanding-get.
    virtual void note_get_reply() = 0;

   protected:
    ~Env() = default;
  };

  AssemblyEngine(net::Delivery& wire, ProgressEngine& progress, Env& env,
                 int task_id, const Config& config, bool verify_checksums)
      : wire_(wire),
        progress_(progress),
        env_(env),
        task_id_(task_id),
        config_(config),
        checksums_(verify_checksums) {}

  /// Process one received data-path packet (every kind except the
  /// origin-side kAck/kRmwResp/kNack/kCredit); returns the dispatcher
  /// processing cost.
  Time process(net::Packet& pkt);

  /// The adapter's bounded RX queue dropped `pkt` before delivery: NACK the
  /// origin of a request/data packet so it recovers at fast-retransmit speed
  /// instead of RTO speed. Dropped control packets (acks, credits) need no
  /// NACK — they heal through probes and cumulative grants.
  void on_overflow(const net::Packet& pkt);

  /// Partial (incomplete) assemblies currently held. Completed-message
  /// duplicate-suppression markers are not partials.
  std::size_t live_partials() const { return live_partials_; }

  /// Per-message dedup state currently held (introspection: the
  /// bounded-state tests). Each count stays within the origins' unsettled
  /// windows plus the markers whose completion handler is still pending.
  struct DedupState {
    std::size_t markers = 0;     // completed-message markers
    std::size_t rmw_cached = 0;  // executed RMW results kept for duplicates
    std::size_t nacked = 0;      // NACK suppressions
  };
  DedupState dedup_state() const {
    return {assemblies_.size() - live_partials_, rmw_cache_.size(),
            nacked_.size()};
  }

  /// Incarnation epoch of the owning context; stamped into every reply this
  /// layer emits (acks, NACKs, credits, RMW responses).
  void set_epoch(std::int64_t e) { epoch_ = e; }

  /// The peer `origin` restarted with a new incarnation: drop every trace of
  /// its previous life. Partials from it can never complete, completed
  /// markers would collide with the new life's restarted msg-id sequence
  /// (suppressing real deliveries), the RMW dedup cache would swallow the
  /// new life's first RMWs, and its low-water mark belongs to the old
  /// sequence.
  void forget_origin(int origin);

  /// The peer was declared dead but no restart has been seen: reclaim its
  /// incomplete partials now (they can never complete). Completed markers
  /// stay — the verdict may be congestion misjudged as death, and
  /// exactly-once delivery must survive the reconnect.
  void reclaim_peer_partials(int origin);

 private:
  // Assembly state at the target side of a message.
  struct Assembly {
    PktKind kind = PktKind::kPutHdr;
    bool has_header = false;
    bool completed = false;
    /// Nothing will touch the record again: the completion handler (if
    /// any) has run, or the message needs none (set by finish_assembly, and
    /// at arrival for a Get request). Only such markers may be forgotten.
    bool completion_ran = false;
    std::int64_t total = -1;
    std::int64_t received = 0;
    std::byte* buffer = nullptr;
    std::shared_ptr<const WireMeta> hdr;  // counters/flags for acks
    std::function<void(Context&, sim::Actor&)> completion;
    /// Data packets that arrived before the header packet (out-of-order
    /// delivery): staged until the header handler supplies the buffer.
    std::vector<net::Packet> staged;
    /// Offsets of the fragments ingested so far, ascending (dedup).
    /// In-order arrival appends; a retransmit or reordered fragment is
    /// looked up by binary search.
    std::vector<std::int64_t> seen;
    /// Distinct wire packets of this message ingested so far (header packet
    /// counted once). This is the cumulative credit grant (ack_pkts) echoed
    /// on acks and kCredit updates; it survives completion shedding so
    /// re-acks still release the origin's full lease.
    std::int64_t pkts_ingested = 0;
    /// pkts_ingested value at the last standalone kCredit emission.
    std::int64_t last_credit_sent = 0;
    /// Last packet activity (the partial-TTL sweep's staleness clock).
    Time last_update = 0;
  };

  using AssemblyMap = std::map<std::pair<int, std::int64_t>, Assembly>;

  /// `origin_epoch` is the acked message's origin incarnation (its life the
  /// reply is addressed to — a restarted origin rejects replies stamped for
  /// its previous life).
  void send_ack(int target, std::int64_t msg_id, bool data, bool done,
                Counter* org_cntr, Counter* cmpl_cntr, std::int64_t pkts,
                std::int64_t origin_epoch, Time when);
  void finish_assembly(int origin, std::int64_t msg_id);
  /// Is (origin, msg_id) below the origin's low-water mark: settled at the
  /// origin, never retransmitted again?
  bool below_mark(int origin, std::int64_t msg_id) const {
    auto it = marks_.find(origin);
    return it != marks_.end() && msg_id < it->second;
  }
  /// Raise `origin`'s mark to `mark` (marks only grow within a life) and
  /// forget the dedup state below it: completed markers whose completion
  /// has run, cached RMW results and NACK suppressions. Partials stay
  /// (their cancel or the TTL sweep reclaims them).
  void advance_mark(int origin, std::int64_t mark);
  /// Answer a packet of a forgotten (settled) message as its completed
  /// marker would have: one re-ack at now + lapi_ack. The origin holds no
  /// record of the message, so the ack's fields are never read.
  Time reack_settled(const net::Packet& pkt, Time now);
  /// NACK `origin` about msg_id, at most once until that message shows
  /// forward progress (an accepted packet clears the suppression).
  void send_nack(int origin, std::int64_t msg_id, std::int64_t origin_epoch);
  /// Emit a standalone kCredit update when enough new packets of a
  /// still-incomplete message have been ingested since the last one.
  void maybe_emit_credit(int origin, std::int64_t msg_id, Assembly& as,
                         std::int64_t origin_epoch);
  /// May a packet open a new partial right now? Runs the TTL sweep first,
  /// then applies the max_partials cap.
  bool admit_partial(Time now);
  /// Drop a partial: counter, live count, NACK suppression state.
  AssemblyMap::iterator reclaim_partial(AssemblyMap::iterator it);
  void gc_partials(Time now);

  net::Delivery& wire_;
  ProgressEngine& progress_;
  Env& env_;
  const int task_id_;
  const Config config_;
  /// Verify end-to-end payload CRCs (armed when the fabric injects
  /// corruption; off otherwise so the clean path does no checksum work).
  const bool checksums_;

  AssemblyMap assemblies_;
  /// Each origin's low-water mark (the highest WireMeta::low_water seen from
  /// its current life).
  std::map<int, std::int64_t> marks_;
  std::map<std::pair<int, std::int64_t>, std::int64_t> rmw_cache_;
  /// Messages already NACKed with no forward progress since (suppresses
  /// NACK storms when a burst of one message's packets all overflow).
  std::set<std::pair<int, std::int64_t>> nacked_;
  std::size_t live_partials_ = 0;
  std::int64_t epoch_ = 0;
};

}  // namespace splap::lapi
