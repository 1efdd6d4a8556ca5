// Public types of the LAPI interface (Table 1 of the paper).
//
// The C++ API mirrors the real library's semantics one-for-one:
//   LAPI_Init/Term        -> Context construction / Context::term()
//   LAPI_Amsend           -> Context::amsend
//   LAPI_Put / LAPI_Get   -> Context::put / Context::get
//   LAPI_Rmw              -> Context::rmw (4 atomic primitives)
//   LAPI_Setcntr/Getcntr/
//   LAPI_Waitcntr         -> Context::setcntr/getcntr/waitcntr
//   LAPI_Fence/Gfence     -> Context::fence / Context::gfence
//   LAPI_Address_init     -> Context::address_init
//   LAPI_Qenv/Senv        -> Context::qenv / Context::senv
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "base/time.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace splap::lapi {

class Context;

/// Completion-signalling counter (Section 2.3). Opaque to the user: LAPI
/// updates it from the dispatcher, the user accesses it only through
/// setcntr/getcntr/waitcntr. One counter may be shared by many operations to
/// wait on them as a group.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Introspection for transport-layer tests, which run without a Context:
  /// the value and the completions a declared-dead peer failed. Programs
  /// read counters through Context::getcntr / waitcntr, which charge the
  /// call.
  std::int64_t peek() const { return value_; }
  std::int64_t peek_peer_failed() const { return peer_failed_; }

 private:
  friend class Context;
  friend class ProgressEngine;  // counter bumps run on the dispatcher
  std::int64_t value_ = 0;
  /// Completions that reported a failure (retry exhaustion). Such bumps
  /// still advance value_ so waiters unblock; waitcntr surfaces the error
  /// as its Status instead of hanging the waiter forever.
  std::int64_t failed_ = 0;
  /// Subset of failed_ caused by a declared-dead peer (crash-stop failover).
  /// waitcntr reports these as kPeerFailed, which takes precedence over the
  /// generic kResourceExhausted so callers can tell "the peer died" from
  /// "the network gave up".
  std::int64_t peer_failed_ = 0;
};

/// The four atomic read-modify-write primitives (Section 3).
enum class RmwOp : std::uint8_t {
  kSwap,
  kCompareAndSwap,  // swaps in_val2 iff *tgt_var == in_val1
  kFetchAndAdd,
  kFetchAndOr,
};

/// Handed to a header handler when the first packet of an active message
/// arrives at the target (Section 2.1, Step 2 in Figure 1).
struct AmDelivery {
  int origin = -1;
  std::span<const std::byte> uhdr;
  std::int64_t udata_len = 0;
};

/// What the header handler returns to the dispatcher (Step 3 in Figure 1):
/// where to copy the arriving data and which completion handler (if any) to
/// run once the whole message has been received.
struct AmReply {
  /// Target buffer for udata; must be non-null when udata_len > 0. The
  /// header handler owns buffer management (Section 5.3.1) — LAPI never
  /// allocates on the receive path.
  std::byte* buffer = nullptr;
  /// Optional completion handler, run on a completion service thread after
  /// the last byte lands. Runs in actor context: it may compute() and may
  /// block on simulated mutexes (Section 5.3.3). nullptr = none.
  std::function<void(Context&, sim::Actor&)> completion;
  /// Virtual CPU the header handler itself consumed. While it runs, no
  /// progress is made on this context's dispatcher (Section 2.1).
  Time header_cost = 0;
};

/// Header handlers execute in dispatcher (event) context and must not block.
using HeaderHandler = std::function<AmReply(Context&, const AmDelivery&)>;

/// Identifies a registered header handler. Handler tables must be built
/// identically on all tasks (the real LAPI ships a function pointer, valid
/// because every task runs the same executable image).
using AmHandlerId = int;

/// LAPI_Qenv query keys (the subset the paper exercises).
enum class Query {
  kTaskId,
  kNumTasks,
  kMaxUhdrSz,     // max user header bytes in an active message
  kMaxDataSz,     // max message length
  kPktPayload,    // user bytes that fit in one AM header packet (~900, 5.3.1)
  kInterruptSet,  // 1 = interrupt mode, 0 = polling
  kCmplThreads,   // completion-handler service threads
};

/// LAPI_Senv settable keys.
enum class Setting {
  kInterruptSet,  // toggle interrupt vs polling mode at runtime
};

/// LAPI_Init-registered error handler: invoked (once per failed peer, on
/// this context's completion-handler pool, so it runs in actor context and
/// may block) when the library declares a peer task dead — by retry
/// exhaustion or by keepalive probe timeout. `status` is kPeerFailed.
using ErrorHandler = std::function<void(Context&, int failed_task,
                                        Status status)>;

struct Config {
  /// Interrupt (true) or polling (false) mode at init; LAPI_Senv can change
  /// it later. "The typical mode of operation is expected to be interrupt
  /// mode" (Section 2.1).
  bool interrupt_mode = true;
  /// Completion-handler service threads (1 on the 1998 implementation;
  /// multiple threads are the paper's future-work item for SMP nodes). Each
  /// is an actor of the node's engine, a fiber rather than an OS thread.
  int completion_threads = 1;
  /// Retransmission: first timeout; doubles per retry. Generous by default:
  /// a busy dispatcher (e.g. a GA header handler streaming reply chunks)
  /// can legitimately delay acks by more than a millisecond. With
  /// adaptive_timeout set this is only the pre-estimate timeout used until
  /// the first ack RTT sample arrives.
  Time retransmit_timeout = milliseconds(4.0);
  /// Retries before the operation is abandoned and completed with
  /// Status::kResourceExhausted (surfaced through waitcntr on the origin
  /// and completion counters; the in-flight record is fully reclaimed).
  int max_retries = 12;

  // --- adaptive retransmission (Jacobson/Karn) ---------------------------
  /// Derive the retransmit timeout from smoothed ack round-trip times
  /// (SRTT + 4*RTTVAR, Jacobson), with exponential backoff plus
  /// deterministic seeded jitter per retry and Karn's rule (retransmitted
  /// messages contribute no RTT samples). Off by default: the fixed
  /// timeout is deliberately generous (a busy target dispatcher delays
  /// acks far beyond the smoothed estimate of quiet-time ops, and a
  /// spurious retransmit perturbs calibrated timings), so the adaptive
  /// policy is opt-in for lossy/faulted environments where fast loss
  /// recovery matters more than undisturbed clean-path timing. Clamp and
  /// jitter are the constants kRtoMin/kRtoMax/kBackoffJitter (reliable.hpp).
  bool adaptive_timeout = false;

  // --- end-to-end flow control (all default off: golden traces unchanged) --
  /// Per-peer packet-credit window (the real LAPI's token scheme over the
  /// TB3 adapter's finite buffering). A message leases one credit per wire
  /// packet before it may start toward a peer; credits return as the target
  /// reports ingested packets (piggybacked on acks, or via standalone
  /// kCredit updates) and are fully restored when the send record settles or
  /// is abandoned. 0 = no flow control.
  std::int64_t credit_window = 0;
  /// Target side: emit a standalone kCredit update after this many newly
  /// ingested packets of a still-incomplete message, so large streams return
  /// credits before the final ack. 0 = piggybacked grants only.
  std::int64_t credit_update_interval = 0;
  /// Cap on concurrently open partial (incomplete) reassembly entries per
  /// task. When full, packets that would open a new partial are shed (the
  /// origin recovers by NACK/retransmission, surfacing kResourceExhausted
  /// only if retries exhaust). 0 = unbounded.
  std::int64_t max_partials = 0;
  /// Reclaim partial assemblies idle longer than this (lazy sweep on new
  /// partial creation), covering origins that died without a kCancel.
  /// 0 = no TTL sweep; the explicit giveup/kCancel reclaim is always on.
  Time partial_ttl = 0;

  // --- registered-memory zero-copy (default off: golden traces unchanged) --
  /// Enable the zero-copy protocol: contiguous/strided Puts (and Get
  /// replies) at or above rdma_threshold ride registered-memory packets
  /// that the adapter scatters straight into the target region — no
  /// staging buffer, no receive-side copy charge. Reliability, credits and
  /// NACK recovery are unchanged underneath (the packets still flow through
  /// ReliableChannel); only the per-packet format and the copy accounting
  /// differ.
  bool rdma_enabled = false;
  /// Minimum message length (bytes) for the zero-copy protocol. Below this
  /// the eager/rendezvous split at CostModel::lapi_bcopy_limit applies
  /// unchanged. The default sits near the cold-cache break-even point of
  /// the modeled pin cost; with a warm registration cache the effective
  /// crossover is far lower, so benchmarks probing the cache lower it.
  std::int64_t rdma_threshold = 128 * 1024;
  /// Capacity of the per-context registration (pin) cache, in regions.
  /// A zero-copy transfer pins its source and target regions: a cache hit
  /// is free, a miss pays CostModel::pin_time. Entries are evicted LRU and
  /// invalidated when the peer's epoch bumps (restart_node) or the peer is
  /// declared dead. 0 = no caching: every transfer repins (always cold).
  std::int64_t reg_cache_entries = 64;

  // --- crash-stop failure detection (default off: golden traces unchanged) --
  /// Keepalive probe period. While this context has sends pending toward a
  /// peer, it probes peers that stayed silent for a full period; three
  /// silent periods declare the peer dead and fail over every queued and
  /// pending record to it at once (Status::kPeerFailed). 0 = keepalive off;
  /// retry exhaustion then remains the only death detector.
  Time keepalive_interval = 0;

  // --- gray-failure detection (inert unless keepalive_interval > 0) --------
  /// Force the legacy fixed-miss keepalive (three silent periods -> dead)
  /// instead of the adaptive accrual detector. Kept for comparison: the
  /// legacy detector declares a slow-but-alive peer dead, which is exactly
  /// the gray-failure false positive the accrual detector avoids.
  bool keepalive_legacy = false;
  /// Accrual suspicion level (silence over the smoothed inter-arrival
  /// expectation) at which a peer becomes *suspected*: its sends are
  /// quarantined (credits returned, RTO frozen) instead of failed, and it
  /// heals on any contact. Roughly "the peer has been silent N times longer
  /// than its recent traffic predicts".
  double suspect_threshold = 2.0;
  /// Suspicion level at which sustained accrual escalates a suspected peer
  /// to the full fail_peer cascade. This verdict is circumstantial (no
  /// retry exhaustion), so its gossip needs corroboration — see
  /// kSuspicionQuorum.
  double fail_threshold = 8.0;

  /// Error handler registered at LAPI_Init. nullptr = none; peer failure is
  /// then observable only through kPeerFailed completions and gfence.
  ErrorHandler error_handler;
};

}  // namespace splap::lapi
