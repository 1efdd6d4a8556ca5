// The MPI/MPL baseline communicator: one per task.
//
// Protocol summary (calibrated against Table 2 and Figure 2 of the paper):
//
//   eager (len <= eager_limit):
//     send() charges mpi_send + a buffering copy at copy_mb_s — the "extra
//     copy in MPI" of Section 4 — then injects and returns (buffered
//     semantics). At the receiver, packets land in the posted buffer, or in
//     an unexpected-queue staging buffer (the second copy) if no receive
//     matches yet.
//
//   rendezvous (len > eager_limit):
//     send() emits an RTS and blocks (isend: pends) until the receiver has
//     matched a posting and returned a CTS; data then flows zero-copy from
//     the user buffer. The RTS/CTS round trip plus the sender-side restart
//     penalty is what flattens the default-MPI bandwidth curve above the
//     4 KB eager limit (Figure 2).
//
//   ordering: strict per-source in-order admission — the MPL progress rule
//     (Section 5.4) that forces the old GA implementation to combine request
//     header and data into one message.
//
//   rcvncall: MPL's interrupt-driven receive-and-call. Matched messages are
//     assembled in a library buffer and the handler runs at interrupt level,
//     charged interrupt_cost + rcvncall_context (the AIX handler-context
//     creation the paper blames for >300us old-GA get latency). lockrnc
//     (interrupt disable) defers handler execution for atomic sections.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "base/audit.hpp"
#include "base/cost_model.hpp"
#include "base/status.hpp"
#include "lapi/progress.hpp"
#include "lapi/reliable.hpp"
#include "mpl/types.hpp"
#include "net/delivery.hpp"
#include "net/machine.hpp"

namespace splap::mpl {

/// Internal wire descriptor.
enum class MplKind : std::uint8_t { kEager, kData, kRts, kCts, kAck };

struct MplMeta {
  MplKind kind = MplKind::kEager;
  std::int64_t seq = 0;  // per-sender message sequence (ordering + dedup)
  int tag = 0;
  std::int64_t total_len = 0;
  std::int64_t offset = 0;
  /// Incarnation epochs (see lapi::WireMeta): the sender's restart count and
  /// the destination incarnation this packet was addressed to. Both stay 0
  /// in every healthy run, so the wire image is unchanged. A restarted peer
  /// restarts its seq space at 0 — without the stamp its old life's
  /// retransmissions would collide with the new life's sequence cursor.
  std::int64_t epoch = 0;
  std::int64_t dst_epoch = 0;
};

/// MPL is a sibling client of LAPI's transport core, not a second copy of
/// it. lapi::ProgressEngine is its dispatcher (pump, busy timeline, deferred
/// effects, waiters, lifetime token, term quiesce; packets enter through
/// enqueue, as MPL has no interrupt/polling rule), lapi::ReliableChannel its
/// retransmit timers (backoff clamped at 250 ms), net::EpochGate its
/// incarnation gate. What stays here is MPL's protocol.
class Comm : private lapi::ReliableChannel::Sender,
             private lapi::ProgressEngine::Sink {
 public:
  explicit Comm(net::Node& node, Config config = {});
  ~Comm();
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  void term();

  int rank() const { return node_.id(); }
  int size() const { return node_.machine().tasks(); }
  std::int64_t eager_limit() const { return config_.eager_limit; }

  // --- point to point ----------------------------------------------------
  /// Blocking send (eager: returns after the buffering copy; rendezvous:
  /// returns once the data has been handed to the wire).
  Status send(int dst, int tag, std::span<const std::byte> data);
  /// Blocking receive into `buf`; fails with kTruncated if the matched
  /// message is longer than the buffer.
  Status recv(int src, int tag, std::span<std::byte> buf,
              RecvStatus* st = nullptr);

  Request isend(int dst, int tag, std::span<const std::byte> data);
  Request irecv(int src, int tag, std::span<std::byte> buf,
                RecvStatus* st = nullptr);
  /// Block until the request completes, then retire a completed receive's
  /// posting, or a failed one that no message was matched to. Requests are
  /// single-use.
  void wait(Request r);
  /// Nonblocking completion probe.
  bool test(Request r);

  // --- rcvncall / lockrnc (MPL) -------------------------------------------
  /// Register an interrupt-level handler for messages with tag `tag` that
  /// have no posted receive. One registration serves unlimited messages
  /// (GA's server loop).
  void rcvncall(int tag, RcvncallHandler handler);
  /// lockrnc: disable/enable interrupt-level handler execution (the old
  /// GA's atomicity device, Section 5.2). Nestable.
  void lock_interrupts();
  void unlock_interrupts();

  /// Charge CPU work performed inside an rcvncall handler (which runs at
  /// interrupt level on the dispatcher timeline and cannot compute()).
  void handler_charge(Time d);

  // --- collectives ---------------------------------------------------------
  void barrier();
  void bcast(std::span<std::byte> data, int root);
  /// In-place sum-allreduce over doubles.
  void allreduce_sum(std::span<double> data);

  net::Node& node() const { return node_; }
  const CostModel& cost() const { return node_.cost(); }
  sim::Engine& engine() const { return node_.engine(); }

  /// Sticky health status: kOk until this communicator sheds an unexpected
  /// message (max_unexpected) or exhausts a send's retry budget
  /// (kResourceExhausted), or a retry budget exhausts against a peer whose
  /// node is actually down (kPeerFailed — the stronger verdict wins).
  /// Overload and peer death are surfaced here, never as an abort.
  Status comm_status() const { return comm_status_; }
  /// Has this communicator declared `peer`'s node dead?
  bool peer_failed(int peer) const { return failed_peers_.count(peer) != 0; }

  // --- introspection (bounded-state tests) ---------------------------------
  /// Receive-side messages held: admitted but not yet delivered, data that
  /// beat its envelope, and shed tombstones. A delivered message is gone.
  std::size_t held_messages() const { return in_.size(); }
  /// Postings held: live ones, and failed ones no recv() has collected.
  std::size_t held_postings() const { return postings_.size(); }

 private:
  // --- origin-side state ---------------------------------------------------
  enum class SState {
    kEagerDone,   // eager: complete once buffered & injected
    kWaitCts,     // rendezvous: RTS out, waiting for CTS
    kStreaming,   // rendezvous: data injected, waiting for delivery ack
    kDone,
  };
  struct SendReq {
    int dst = -1;
    int tag = 0;
    SState state = SState::kEagerDone;
    std::shared_ptr<std::vector<std::byte>> data;  // retransmit source
    std::int64_t seq = 0;
    /// Destination incarnation this send was issued against, fixed at
    /// start_send: retransmissions into a restarted peer are rejected
    /// rather than admitted into its fresh sequence space.
    std::int64_t dst_epoch = 0;
    bool acked = false;
    lapi::RetryState retry;
  };

  // --- target-side state -----------------------------------------------------
  struct InMsg {
    bool is_rndv = false;
    bool have_envelope = false;
    bool matched = false;
    bool assembled = false;   // all bytes in `stage` or user buffer
    bool delivered = false;   // handed to a posting / rcvncall handler
    bool acked = false;
    /// Shed by the unexpected-queue cap: a tombstone that refuses further
    /// buffering and never acks (the sender's retries exhaust cleanly).
    bool shed = false;
    int tag = 0;
    std::int64_t total = -1;
    std::int64_t received = 0;
    std::vector<std::byte> stage;   // unexpected landing area (extra copy)
    std::byte* user_buf = nullptr;  // direct landing once matched
    std::int64_t user_cap = 0;      // bytes that fit (truncation guard)
    bool to_rcvncall = false;       // matched to a registration, not a posting
    int reg_index = -1;
    Request posting = kNullRequest;  // the posting bind() matched it to
    std::map<std::int64_t, std::int64_t> seen;  // offset dedup
    /// Data packets that arrived before the envelope (out-of-order fabric).
    /// Payloads keep their pooled buffers until ingested.
    std::vector<std::pair<std::int64_t, net::Payload>> early;
  };

  struct Posting {
    Request id = kNullRequest;
    int src = kAnySource;
    int tag = kAnyTag;
    std::span<std::byte> buf;
    RecvStatus* status = nullptr;
    bool matched = false;
    bool truncated = false;
    /// The peer this posting names (or was matched to) died: the receive
    /// can never complete normally. wait() unblocks and recv() surfaces
    /// kPeerFailed. kAnySource postings with no match are NOT failed —
    /// another sender may still satisfy them (documented limitation: an
    /// any-source receive whose only possible sender died will hang).
    bool failed = false;
    // Once matched:
    int m_src = -1;
    bool done = false;
  };

  struct Registration {
    int tag;
    RcvncallHandler handler;
  };

  // Send path.
  Request start_send(int dst, int tag, std::span<const std::byte> data);
  void transmit_send(const SendReq& req, std::int64_t id);
  void transmit_data(const SendReq& req);
  void send_ctl(int dst, MplKind kind, std::int64_t seq, Time when);

  // lapi::ReliableChannel::Sender hooks (the shared retransmit machinery
  // calls back here for the protocol-specific resend/give-up actions).
  lapi::RetryState* retry_state(std::int64_t id) override;
  bool settled(std::int64_t id) override;
  void retransmit(std::int64_t id) override;
  void give_up(std::int64_t id) override;

  /// The peer's node is down: fail every in-flight send toward it, fail the
  /// postings that name it, and latch comm_status_ to kPeerFailed. The latch
  /// covers incarnation `dead_epoch` and older ones: start_send fails a send
  /// addressed to them at once, and lets a send to a restarted life out.
  void fail_peer(int peer, std::int64_t dead_epoch);
  /// The peer restarted as incarnation `new_epoch`: wipe its previous
  /// life's receive-side state (its sequence space restarts at zero) and
  /// fail the sends addressed to dead incarnations; sends already stamped
  /// with the new epoch stay live.
  void on_peer_reborn(int peer, std::int64_t new_epoch);

  /// wait() without retiring the posting (recv() reads its flags first).
  void block_on(Request r);
  /// For a (src, seq) with no in_ entry: was it admitted, hence assembled,
  /// delivered and forgotten? A duplicate of it is only re-acked.
  bool forgotten(int src, std::int64_t seq) const {
    return seq < next_admit_[static_cast<std::size_t>(src)];
  }

  // Receive path.
  /// ProgressEngine::Sink: one received packet; returns its CPU charge.
  Time process_packet(net::Packet& pkt) override;
  Time ingest(InMsg& msg, std::int64_t offset,
              std::span<const std::byte> bytes);
  /// Advance the per-source in-order cursors, match admitted messages
  /// against postings and rcvncall registrations. Returns extra CPU charged.
  Time match_scan();
  /// Match one just-admitted message: a posting, else an rcvncall
  /// registration, else the unexpected queue (or a shed tombstone when that
  /// queue is full). Adds its CPU to `charged`, the scan's running total,
  /// which also dates the CTS a rendezvous match sends.
  void admit(int src, std::int64_t seq, InMsg& msg, Time& charged);
  /// The first posting in post order that accepts a message from `src`
  /// with `tag`, taken out of posting_order_ (the caller binds it), or
  /// nullptr. Drops the ids of postings recv() has erased, and of failed
  /// ones, on the way.
  Posting* take_posting(int src, int tag);
  /// Bind a message to a posting (CTS for rendezvous, stage copy for
  /// late-matched eager). Returns the CPU charged.
  Time bind(Posting& p, int src, std::int64_t seq, InMsg& msg);
  void complete_message(int src, std::int64_t seq);
  void deliver_rcvncall(int src, std::int64_t seq, const Registration& reg);
  void schedule_handler_pump();
  void pump_handlers();

  net::Node& node_;
  Config config_;
  /// Narrow injection interface into the fabric (the transmit side only;
  /// receives arrive through the adapter registration).
  net::Delivery& wire_;
  bool terminated_ = false;
  lapi::ProgressEngine progress_;
  net::EpochGate gate_;

  std::int64_t next_req_ = 1;
  std::map<Request, SendReq> sends_;          // in-flight sends by request id
  std::map<std::pair<int, std::int64_t>, Request> seq_to_send_;  // (dst,seq)
  std::vector<std::int64_t> next_send_seq_;   // per destination

  std::vector<std::int64_t> next_admit_;      // per source in-order cursor
  std::map<std::pair<int, std::int64_t>, InMsg> in_;
  std::deque<std::pair<int, std::int64_t>> unexpected_;  // admission order
  std::map<Request, Posting> postings_;
  /// Unmatched postings in post order: the only ones a new message may
  /// match. bind() takes an id out; ids of erased postings drop lazily.
  std::deque<Request> posting_order_;
  std::vector<Registration> registrations_;

  int intr_lock_depth_ = 0;
  std::deque<std::pair<int, std::int64_t>> handler_q_;  // FIFO, interrupt level
  bool handler_pump_scheduled_ = false;

  Status comm_status_ = Status::kOk;

  /// Peers declared dead, each with the newest incarnation the verdict
  /// covers.
  std::map<int, std::int64_t> failed_peers_;

  // Per-send/per-packet counters, resolved once in the ctor.
  CounterSet::Handle ctr_sends_;
  CounterSet::Handle ctr_pkts_rx_;
  /// Shared retransmit core (its timer events are guarded by progress_'s
  /// lifetime token against a torn-down communicator).
  std::unique_ptr<lapi::ReliableChannel> channel_;
#ifdef SPLAP_AUDIT
  /// Shadow ledger of live send records: a timer or ack touching a record
  /// after reclamation aborts at the corrupting operation.
  audit::LiveSet send_ledger_{"mpl send record"};
#endif
};

}  // namespace splap::mpl
