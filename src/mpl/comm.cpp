#include "mpl/comm.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/log.hpp"

namespace splap::mpl {

namespace {
constexpr std::int64_t kRtsDescBytes = 16;
constexpr std::int64_t kCtlDescBytes = 8;
/// Ceiling of the per-retry backoff doubling: uncapped, a dozen doublings
/// of the 4 ms base reach minutes of virtual time, and a transiently
/// partitioned peer would look hung.
constexpr Time kBackoffClamp = milliseconds(250);
}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Comm::Comm(net::Node& node, Config config)
    : node_(node),
      config_(config),
      wire_(node.machine().fabric()),
      // MPL never calls on_delivery, enter_library or set_interrupt_mode, so
      // the interrupt mode passed here has no effect.
      progress_(node.engine(), node.cost(), *this, /*interrupt_mode=*/true),
      gate_(node.machine(), node.id()) {
  SPLAP_REQUIRE(sim::Actor::current() != nullptr,
                "Comm must be constructed in a task context");
  SPLAP_REQUIRE(config_.eager_limit >= 0 && config_.eager_limit <= 65536,
                "MP_EAGER_LIMIT out of range (max 64K, Section 4)");
  next_send_seq_.assign(static_cast<std::size_t>(size()), 0);
  next_admit_.assign(static_cast<std::size_t>(size()), 0);
  // The shared reliable-delivery core, configured like the fixed-timeout
  // LAPI policy but with the backoff clamp armed: MPL has no adaptive
  // estimation, so without the clamp the per-retry doubling was unbounded.
  lapi::RetryPolicy policy;
  policy.base_rto = config_.retransmit_timeout;
  policy.max_retries = config_.max_retries;
  policy.clamp_backoff = true;
  policy.rto_max = kBackoffClamp;
  channel_ = std::make_unique<lapi::ReliableChannel>(
      engine(), static_cast<lapi::ReliableChannel::Sender&>(*this), policy,
      "mpl", /*jitter_seed=*/0, progress_.alive());
  ctr_sends_ = engine().counters().handle("mpl.sends");
  ctr_pkts_rx_ = engine().counters().handle("mpl.pkts_rx");
  node_.adapter().register_client(net::Client::kMpl, [this](net::Packet&& p) {
    ctr_pkts_rx_.bump();
    progress_.enqueue(std::move(p));
  });
}

Comm::~Comm() { term(); }

void Comm::term() {
  if (terminated_) return;
  sim::Actor* a = sim::Actor::current();
  SPLAP_REQUIRE(a != nullptr, "Comm::term must run in a task context");
  if (!a->poisoned()) {
    try {
      // Every send record settled, or exhausted its retries.
      progress_.quiesce(*a, "mpl-term-quiesce", [this] {
        return std::all_of(sends_.begin(), sends_.end(), [this](const auto& s) {
          return s.second.retry.retries >= config_.max_retries;
        });
      });
    } catch (...) {
      if (!a->poisoned()) throw;
      // The crash landed mid-quiesce: ~Comm is noexcept, so the engine's
      // kill exception is absorbed here and teardown takes the crash path
      // below. The actor's next suspension rethrows it.
    }
  }
  if (a->poisoned()) {
    // Crash teardown: the slot really is gone; late packets dead-letter.
    node_.adapter().unregister_client(net::Client::kMpl);
  } else {
    // Orderly shutdown keeps absorbing straggler duplicate acks (see
    // Adapter::retire_client).
    node_.adapter().retire_client(net::Client::kMpl);
  }
  terminated_ = true;
  progress_.invalidate();
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

Request Comm::start_send(int dst, int tag, std::span<const std::byte> data) {
  SPLAP_REQUIRE(!terminated_, "send after Comm::term");
  SPLAP_REQUIRE(dst >= 0 && dst < size(), "bad destination rank");
  const CostModel& cm = cost();
  const auto len = static_cast<std::int64_t>(data.size());
  const bool eager = len <= config_.eager_limit;

  const Request id = next_req_++;
  const std::int64_t dst_epoch = node_.machine().incarnation(dst);
  if (auto f = failed_peers_.find(dst);
      f != failed_peers_.end() && dst_epoch <= f->second) {
    // Declared dead: the request completes at once (comm_status() already
    // reports kPeerFailed), with no seq, record, packet or timer — nothing
    // the peer's admission cursor would wait for.
    return id;
  }
  SendReq req;
  req.dst = dst;
  req.tag = tag;
  req.seq = next_send_seq_[static_cast<std::size_t>(dst)]++;
  req.dst_epoch = dst_epoch;
  req.state = eager ? SState::kEagerDone : SState::kWaitCts;
  // Eager: the buffering copy that lets the send return immediately — the
  // "extra copy in MPI" of Section 4, charged at memory-copy bandwidth.
  // Rendezvous: the copy records the bytes for retransmission but the real
  // library sends from the pinned user buffer, so it is not charged.
  req.data = std::make_shared<std::vector<std::byte>>(data.begin(), data.end());

  Time inject_at;
  if (sim::Actor* a = sim::Actor::current()) {
    // splap-graph: allow(blocking-reachability): guarded by Actor::current()
    // — handler-context callers take the else branch, which charges
    // the dispatcher instead of suspending.
    a->compute(cm.mpi_send + (eager ? cm.copy_time(len) : 0));
    inject_at = engine().now();
  } else {
    // Handler context: the send queues behind whatever the protocol thread
    // is already doing (e.g. the pack copy an rcvncall handler charged).
    inject_at = progress_.charge(cm.mpi_send + (eager ? cm.copy_time(len) : 0));
  }

  seq_to_send_[{dst, req.seq}] = id;
  sends_.emplace(id, std::move(req));
#ifdef SPLAP_AUDIT
  send_ledger_.insert(&sends_.at(id), "Comm::start_send");
#endif
  if (inject_at <= engine().now()) {
    transmit_send(sends_.at(id), id);
  } else {
    progress_.defer(inject_at, [this, id] {
      auto it = sends_.find(id);
      if (it != sends_.end()) transmit_send(it->second, id);
    });
  }
  const Time backlog =
      std::max<Time>(0, wire_.link_free(rank()) - engine().now());
  channel_->arm(id, channel_->initial_rto() + 2 * backlog +
                        2 * transfer_time(len, cm.wire_mb_s));
  ctr_sends_.bump();
  return id;
}

void Comm::transmit_send(const SendReq& req, std::int64_t /*id*/) {
  const CostModel& cm = cost();
  if (req.state == SState::kWaitCts) {
    // Rendezvous: request to send only.
    net::Packet p = wire_.make_packet();
    p.src = rank();
    p.dst = req.dst;
    p.client = net::Client::kMpl;
    p.header_bytes = cm.mpi_header_bytes + kRtsDescBytes;
    auto m = std::make_shared<MplMeta>();
    m->kind = MplKind::kRts;
    m->seq = req.seq;
    m->tag = req.tag;
    m->total_len = static_cast<std::int64_t>(req.data->size());
    m->epoch = gate_.epoch();
    m->dst_epoch = req.dst_epoch;
    p.meta = std::move(m);
    wire_.transmit(std::move(p));
    return;
  }
  // Eager: envelope packet with the first chunk, then data packets.
  const std::int64_t len = static_cast<std::int64_t>(req.data->size());
  net::Packet first = wire_.make_packet();
  first.src = rank();
  first.dst = req.dst;
  first.client = net::Client::kMpl;
  first.header_bytes = cm.mpi_header_bytes;
  auto m = std::make_shared<MplMeta>();
  m->kind = MplKind::kEager;
  m->seq = req.seq;
  m->tag = req.tag;
  m->total_len = len;
  m->epoch = gate_.epoch();
  m->dst_epoch = req.dst_epoch;
  first.meta = std::move(m);
  const std::int64_t chunk0 = std::min(len, cm.mpi_payload());
  if (chunk0 > 0) {
    first.data.assign(req.data->begin(), req.data->begin() + chunk0);
  }
  wire_.transmit(std::move(first));
  transmit_data(req);
}

void Comm::transmit_data(const SendReq& req) {
  const CostModel& cm = cost();
  const std::int64_t len = static_cast<std::int64_t>(req.data->size());
  // Eager carried its first chunk in the envelope; rendezvous streams all.
  std::int64_t offset =
      req.state == SState::kEagerDone ? std::min(len, cm.mpi_payload()) : 0;
  while (offset < len) {
    const std::int64_t chunk = std::min(len - offset, cm.mpi_payload());
    net::Packet p = wire_.make_packet();
    p.src = rank();
    p.dst = req.dst;
    p.client = net::Client::kMpl;
    p.header_bytes = cm.mpi_header_bytes;
    auto m = std::make_shared<MplMeta>();
    m->kind = MplKind::kData;
    m->seq = req.seq;
    m->offset = offset;
    m->epoch = gate_.epoch();
    m->dst_epoch = req.dst_epoch;
    p.meta = std::move(m);
    p.data.assign(req.data->begin() + offset, req.data->begin() + offset + chunk);
    wire_.transmit(std::move(p));
    offset += chunk;
  }
}

lapi::RetryState* Comm::retry_state(std::int64_t id) {
  auto it = sends_.find(id);
  return it == sends_.end() ? nullptr : &it->second.retry;
}

bool Comm::settled(std::int64_t id) { return sends_.at(id).acked; }

void Comm::retransmit(std::int64_t id) {
  SendReq& req = sends_.at(id);
#ifdef SPLAP_AUDIT
  send_ledger_.expect(&req, "Comm::retransmit");
#endif
  if (req.state == SState::kWaitCts) {
    transmit_send(req, id);  // re-RTS
  } else if (req.state == SState::kEagerDone) {
    transmit_send(req, id);  // envelope + data
  } else {
    transmit_data(req);  // streaming: data only, envelope was the RTS
  }
}

void Comm::give_up(std::int64_t id) {
  // Distinguish the two exhaustion causes: when the destination's node is
  // actually down on the wire, this is a crash-stop peer failure and every
  // send toward it is hopeless at once; otherwise it is the legacy overload
  // verdict (shed at the receiver, congestion), where the record stays and
  // term's quiesce loop observes the exhausted retry budget.
  auto it = sends_.find(id);
  if (it != sends_.end() &&
      !node_.machine().fabric().node_up(it->second.dst, engine().now())) {
    fail_peer(it->second.dst, it->second.dst_epoch);
    return;
  }
  // The stronger verdict wins (comm.hpp): a retry-budget exhaustion against
  // one peer must not downgrade an already-latched death of another.
  if (comm_status_ != Status::kPeerFailed) {
    comm_status_ = Status::kResourceExhausted;
  }
  progress_.notify();
}

void Comm::fail_peer(int peer, std::int64_t dead_epoch) {
  auto [f, fresh] = failed_peers_.try_emplace(peer, dead_epoch);
  if (fresh) {
    engine().counters().bump("mpl.peer_failed");
    SPLAP_WARN(engine().now(), "mpl rank %d: peer %d declared failed (node down)",
               rank(), peer);
  }
  f->second = std::max(f->second, dead_epoch);
  // Reclaim every in-flight send toward the peer (the retransmit timers die
  // as stale once the records are gone), so term's quiesce loop and blocked
  // senders exit instead of burning the full retry budget per message.
  for (auto it = sends_.begin(); it != sends_.end();) {
    if (it->second.dst == peer) {
#ifdef SPLAP_AUDIT
      send_ledger_.remove(&it->second, "Comm::fail_peer");
#endif
      seq_to_send_.erase({peer, it->second.seq});
      it = sends_.erase(it);
    } else {
      ++it;
    }
  }
  // Receives that can only be satisfied by the dead peer can never
  // complete: fail matched postings bound to it and unmatched postings that
  // name it explicitly. (kAnySource postings stay — see Posting::failed.)
  for (auto& [pid, p] : postings_) {
    if (p.done || p.failed) continue;
    if ((p.matched && p.m_src == peer) || (!p.matched && p.src == peer)) {
      p.failed = true;
    }
  }
  comm_status_ = Status::kPeerFailed;
  progress_.notify();
}

void Comm::on_peer_reborn(int peer, std::int64_t new_epoch) {
  // The previous life's verdicts and receive-side state are void: its
  // sequence space restarts at zero with the new incarnation. Only sends
  // addressed to a dead incarnation fail over — a send already stamped with
  // the new epoch is live traffic of the new conversation (possibly the
  // very one whose packet triggered this adoption).
  bool failed_any = false;
  for (auto it = sends_.begin(); it != sends_.end();) {
    if (it->second.dst == peer && it->second.dst_epoch < new_epoch) {
#ifdef SPLAP_AUDIT
      send_ledger_.remove(&it->second, "Comm::on_peer_reborn");
#endif
      seq_to_send_.erase({peer, it->second.seq});
      it = sends_.erase(it);
      failed_any = true;
    } else {
      ++it;
    }
  }
  // Matched postings were bound to old-life messages (wiped below) and can
  // never complete; unmatched postings naming the peer stay — the new life
  // may still satisfy them.
  for (auto& [pid, p] : postings_) {
    if (p.done || p.failed) continue;
    if (p.matched && p.m_src == peer) {
      p.failed = true;
      failed_any = true;
    }
  }
  if (failed_any && comm_status_ == Status::kOk) {
    comm_status_ = Status::kPeerFailed;
  }
  failed_peers_.erase(peer);
  for (auto it = in_.begin(); it != in_.end();) {
    if (it->first.first == peer) {
      it = in_.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(unexpected_,
                [peer](const auto& key) { return key.first == peer; });
  std::erase_if(handler_q_,
                [peer](const auto& key) { return key.first == peer; });
  next_admit_[static_cast<std::size_t>(peer)] = 0;
  progress_.notify();
}

void Comm::send_ctl(int dst, MplKind kind, std::int64_t seq, Time when) {
  net::Packet p = wire_.make_packet();
  p.src = rank();
  p.dst = dst;
  p.client = net::Client::kMpl;
  p.header_bytes = cost().mpi_header_bytes + kCtlDescBytes;
  auto m = std::make_shared<MplMeta>();
  m->kind = kind;
  m->seq = seq;
  // Control replies address the peer incarnation currently admitted (which
  // the gate in process_packet() keeps equal to the incoming packet's stamp).
  m->epoch = gate_.epoch();
  m->dst_epoch = gate_.peer(dst);
  p.meta = std::move(m);
  if (when <= engine().now()) {
    wire_.transmit(std::move(p));
  } else {
    progress_.defer(
        when, [this, sp = std::make_shared<net::Packet>(std::move(p))] {
          wire_.transmit(std::move(*sp));
        });
  }
}

// ---------------------------------------------------------------------------
// Public point-to-point
// ---------------------------------------------------------------------------

Status Comm::send(int dst, int tag, std::span<const std::byte> data) {
  if (dst < 0 || dst >= size()) return Status::kBadParameter;
  const Request r = start_send(dst, tag, data);
  wait(r);
  return Status::kOk;
}

Request Comm::isend(int dst, int tag, std::span<const std::byte> data) {
  SPLAP_REQUIRE(dst >= 0 && dst < size(), "bad destination rank");
  return start_send(dst, tag, data);
}

Request Comm::irecv(int src, int tag, std::span<std::byte> buf,
                    RecvStatus* st) {
  SPLAP_REQUIRE(!terminated_, "irecv after Comm::term");
  SPLAP_REQUIRE(src == kAnySource || (src >= 0 && src < size()), "bad source");
  sim::Actor* a = sim::Actor::current();
  const Request id = next_req_++;
  Posting p;
  p.id = id;
  p.src = src;
  p.tag = tag;
  p.buf = buf;
  p.status = st;
  // Naming an already-declared-dead peer fails the receive immediately
  // (there is nothing to wait for; fail_peer only scans existing postings).
  if (src != kAnySource && failed_peers_.count(src) != 0) p.failed = true;
  postings_.emplace(id, p);
  posting_order_.push_back(id);
  Time charge = cost().mpi_post + match_scan();
  if (a != nullptr) {
    // splap-graph: allow(blocking-reachability): `a` is Actor::current() —
    // handler-context posts charge the dispatcher in the else arm instead.
    a->compute(charge);
  } else {
    progress_.charge(charge);
  }
  return id;
}

Status Comm::recv(int src, int tag, std::span<std::byte> buf, RecvStatus* st) {
  if (src != kAnySource && (src < 0 || src >= size())) {
    return Status::kBadParameter;
  }
  const Request r = irecv(src, tag, buf, st);
  block_on(r);
  auto it = postings_.find(r);
  const bool truncated = it != postings_.end() && it->second.truncated;
  const bool failed =
      it != postings_.end() && it->second.failed && !it->second.done;
  postings_.erase(r);
  if (failed) return Status::kPeerFailed;
  return truncated ? Status::kTruncated : Status::kOk;
}

void Comm::wait(Request r) {
  block_on(r);
  // A completed receive is over, and so is a failed one no message was
  // matched to: retire its posting. A failed posting that was matched stays
  // registered — its bound message names it, and a completion deferred
  // before the verdict may still land (complete_message requires it).
  if (auto it = postings_.find(r);
      it != postings_.end() &&
      (it->second.done || (it->second.failed && !it->second.matched))) {
    postings_.erase(it);
  }
}

void Comm::block_on(Request r) {
  sim::Actor* a = sim::Actor::current();
  SPLAP_REQUIRE(a != nullptr, "wait must run in a task context");
  a->wait(
      [&] {
        if (auto it = postings_.find(r); it != postings_.end()) {
          if (!it->second.done && !it->second.failed) {
            progress_.waiters().add(*a);
            return false;
          }
          return true;
        }
        if (auto it = sends_.find(r); it != sends_.end()) {
          if (it->second.state == SState::kWaitCts) {
            progress_.waiters().add(*a);
            return false;
          }
          return true;  // buffered / streaming: user buffer is reusable
        }
        return true;  // already retired
      },
      "mpl-wait");
}

bool Comm::test(Request r) {
  if (auto it = postings_.find(r); it != postings_.end()) {
    return it->second.done || it->second.failed;
  }
  if (auto it = sends_.find(r); it != sends_.end()) {
    return it->second.state != SState::kWaitCts;
  }
  return true;
}

// ---------------------------------------------------------------------------
// rcvncall / lockrnc
// ---------------------------------------------------------------------------

void Comm::rcvncall(int tag, RcvncallHandler handler) {
  SPLAP_REQUIRE(handler != nullptr, "null rcvncall handler");
  registrations_.push_back(Registration{tag, std::move(handler)});
}

void Comm::lock_interrupts() { ++intr_lock_depth_; }

void Comm::unlock_interrupts() {
  SPLAP_REQUIRE(intr_lock_depth_ > 0, "unlockrnc without lockrnc");
  if (--intr_lock_depth_ == 0) schedule_handler_pump();
}

void Comm::handler_charge(Time d) { progress_.charge(d); }

void Comm::deliver_rcvncall(int src, std::int64_t seq, const Registration&) {
  // Handlers run single-threaded on the protocol thread, strictly FIFO
  // (messages were already admitted in order; the handler queue must not
  // reorder them). The interrupt + AIX handler-context creation is charged
  // per delivery (Section 5.2's latency story).
  progress_.charge(cost().interrupt_cost + cost().rcvncall_context);
  engine().counters().bump("mpl.rcvncalls");
  handler_q_.emplace_back(src, seq);
  schedule_handler_pump();
}

void Comm::schedule_handler_pump() {
  if (handler_pump_scheduled_ || handler_q_.empty()) return;
  handler_pump_scheduled_ = true;
  progress_.defer(std::max(engine().now(), progress_.busy_until()), [this] {
    handler_pump_scheduled_ = false;
    pump_handlers();
  });
}

void Comm::pump_handlers() {
  if (handler_q_.empty()) return;
  if (intr_lock_depth_ > 0) return;  // lockrnc: unlock re-schedules
  if (engine().now() < progress_.busy_until()) {
    schedule_handler_pump();  // earlier work charged after we were scheduled
    return;
  }
  const auto key = handler_q_.front();
  handler_q_.pop_front();
  auto it = in_.find(key);
  SPLAP_REQUIRE(it != in_.end(), "rcvncall message vanished");
  InMsg& msg = it->second;
  const Registration& reg =
      registrations_[static_cast<std::size_t>(msg.reg_index)];
  RcvncallDelivery d{key.first, msg.tag,
                     std::span<const std::byte>(msg.stage.data(),
                                                msg.stage.size())};
  reg.handler(*this, d);
  // Delivered: a duplicate below the admission cursor is re-acked without
  // an entry.
  in_.erase(key);
  schedule_handler_pump();
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

Time Comm::ingest(InMsg& msg, std::int64_t offset,
                  std::span<const std::byte> bytes) {
  const auto len = static_cast<std::int64_t>(bytes.size());
  if (len == 0) return 0;
  if (msg.seen.count(offset) != 0) return 0;
  msg.seen[offset] = len;
  if (msg.matched && !msg.to_rcvncall && msg.user_buf != nullptr) {
    const std::int64_t fit =
        std::max<std::int64_t>(0, std::min(len, msg.user_cap - offset));
    if (fit > 0) {
      std::memcpy(msg.user_buf + offset, bytes.data(),
                  static_cast<std::size_t>(fit));
    }
  } else {
    if (static_cast<std::int64_t>(msg.stage.size()) < msg.total) {
      msg.stage.resize(static_cast<std::size_t>(msg.total));
    }
    std::memcpy(msg.stage.data() + offset, bytes.data(),
                static_cast<std::size_t>(len));
  }
  msg.received += len;
  return cost().copy_time(len);
}

Time Comm::process_packet(net::Packet& pkt) {
  const CostModel& cm = cost();
  const MplMeta& m = pkt.meta_as<MplMeta>();
  const int src = pkt.src;
  // Incarnation gate (no-op in healthy runs: everything is epoch 0). A
  // packet from or for a dead incarnation is rejected; a peer that
  // restarted has its new incarnation adopted and its old life's state
  // wiped first.
  switch (gate_.admit(src, m.epoch, m.dst_epoch)) {
    case net::EpochGate::Verdict::kCurrent:
      break;
    case net::EpochGate::Verdict::kStale:
      engine().counters().bump("mpl.stale_epoch");
      return cm.mpi_pkt_rx;
    case net::EpochGate::Verdict::kReborn:
      on_peer_reborn(src, m.epoch);
      break;
  }
  const auto key = std::pair<int, std::int64_t>{src, m.seq};

  // Completion effects (posting done / handler dispatch) land at the END of
  // this packet's processing cost — the receive-side matching and copy time
  // are part of the observed latency (Table 2's 43us include them).
  auto check_assembled = [&](InMsg& msg, Time cost_so_far) {
    if (!msg.have_envelope || msg.assembled || msg.received != msg.total) {
      return;
    }
    msg.assembled = true;
    send_ctl(src, MplKind::kAck, m.seq, engine().now() + cost_so_far);
    if (msg.matched && !msg.delivered) {
      msg.delivered = true;
      progress_.defer(engine().now() + cost_so_far,
                      [this, src, seq = m.seq] { complete_message(src, seq); });
    }
  };

  switch (m.kind) {
    case MplKind::kEager:
    case MplKind::kRts: {
      Time c = cm.mpi_pkt_rx;
      auto it = in_.find(key);
      if (it == in_.end()) {
        if (forgotten(src, m.seq)) {
          send_ctl(src, MplKind::kAck, m.seq, engine().now() + c);
          return c;
        }
        it = in_.emplace(key, InMsg{}).first;
      }
      InMsg& msg = it->second;
      if (msg.shed) return c;  // tombstone: no buffering, no ack
      if (msg.assembled) {
        send_ctl(src, MplKind::kAck, m.seq, engine().now() + c);
        return c;
      }
      if (msg.have_envelope) {
        if (m.kind == MplKind::kRts && msg.matched && !msg.assembled) {
          // Duplicate RTS: the CTS was probably lost — resend it.
          send_ctl(src, MplKind::kCts, m.seq, engine().now() + c);
        }
        if (m.kind == MplKind::kEager) c += ingest(msg, 0, pkt.data);
        check_assembled(msg, c);
        return c;
      }
      msg.have_envelope = true;
      msg.is_rndv = (m.kind == MplKind::kRts);
      msg.tag = m.tag;
      msg.total = m.total_len;
      c += match_scan();  // admission in per-source order + matching
      if (msg.shed) return c;  // admission capped the queue: drop the payload
      if (m.kind == MplKind::kEager) {
        c += ingest(msg, 0, pkt.data);
      }
      for (auto& [off, bytes] : msg.early) {
        c += ingest(msg, off, bytes);
      }
      msg.early.clear();
      check_assembled(msg, c);
      return c;
    }

    case MplKind::kData: {
      Time c = cm.mpi_pkt_rx;
      auto it = in_.find(key);
      if (it == in_.end()) {
        if (forgotten(src, m.seq)) {
          send_ctl(src, MplKind::kAck, m.seq, engine().now() + c);
          return c;
        }
        it = in_.emplace(key, InMsg{}).first;
      }
      InMsg& msg = it->second;
      if (msg.shed) return c;  // tombstone: no buffering, no ack
      if (msg.assembled) {
        send_ctl(src, MplKind::kAck, m.seq, engine().now() + c);
        return c;
      }
      if (!msg.have_envelope) {
        msg.early.emplace_back(m.offset, std::move(pkt.data));
        return c;
      }
      c += ingest(msg, m.offset, pkt.data);
      check_assembled(msg, c);
      return c;
    }

    case MplKind::kCts: {
      const Time c = cm.mpi_ctl;
      auto it = seq_to_send_.find({src, m.seq});
      if (it == seq_to_send_.end()) return c;  // stale duplicate
      const Request rid = it->second;
      progress_.defer(engine().now() + c + cm.mpi_rndv_restart, [this, rid] {
        auto jt = sends_.find(rid);
        if (jt == sends_.end()) return;
        SendReq& req = jt->second;
        if (req.state != SState::kWaitCts) return;  // duplicate CTS
        req.state = SState::kStreaming;
        transmit_data(req);
        channel_->arm(rid, channel_->initial_rto() +
                               2 * transfer_time(static_cast<std::int64_t>(
                                                     req.data->size()),
                                                 cost().wire_mb_s));
      });
      return c;
    }

    case MplKind::kAck: {
      const Time c = cm.mpi_pkt_rx;
      progress_.defer(engine().now() + c, [this, src, seq = m.seq] {
        auto it = seq_to_send_.find({src, seq});
        if (it == seq_to_send_.end()) return;
        const Request rid = it->second;
        auto jt = sends_.find(rid);
        if (jt != sends_.end()) {
          jt->second.acked = true;
          jt->second.state = SState::kDone;
#ifdef SPLAP_AUDIT
          send_ledger_.remove(&jt->second, "Comm::process_packet/kAck");
#endif
          sends_.erase(jt);
        }
        seq_to_send_.erase(it);
      });
      return c;
    }
  }
  SPLAP_REQUIRE(false, "unknown MPL packet kind");
  return 0;
}

Comm::Posting* Comm::take_posting(int src, int tag) {
  for (auto it = posting_order_.begin(); it != posting_order_.end();) {
    auto pit = postings_.find(*it);
    if (pit == postings_.end() || pit->second.failed) {
      it = posting_order_.erase(it);
      continue;
    }
    Posting& p = pit->second;
    if ((p.src == kAnySource || p.src == src) &&
        (p.tag == kAnyTag || p.tag == tag)) {
      posting_order_.erase(it);
      return &p;
    }
    ++it;
  }
  return nullptr;
}

Time Comm::match_scan() {
  Time charged = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    // Admit envelopes strictly in per-source sequence order ("in-order
    // message delivery", the MPL progress rule): each source's cursor
    // admits its run of consecutive envelopes, sources ascending. Only the
    // envelope at a cursor can be admitted, so delivered messages are
    // never walked again.
    for (int src = 0; src < size(); ++src) {
      std::int64_t& cursor = next_admit_[static_cast<std::size_t>(src)];
      for (auto it = in_.find({src, cursor});
           it != in_.end() && it->second.have_envelope;
           it = in_.find({src, cursor})) {
        ++cursor;
        progress = true;
        admit(src, it->first.second, it->second, charged);
      }
    }
    // New postings may match queued unexpected messages; with no unmatched
    // posting left, none can.
    for (auto uit = unexpected_.begin();
         uit != unexpected_.end() && !posting_order_.empty();) {
      InMsg& msg = in_.at(*uit);
      if (Posting* p = take_posting(uit->first, msg.tag)) {
        charged += bind(*p, uit->first, uit->second, msg);
        uit = unexpected_.erase(uit);
        progress = true;
      } else {
        ++uit;
      }
    }
  }
  return charged;
}

void Comm::admit(int src, std::int64_t seq, InMsg& msg, Time& charged) {
  const CostModel& cm = cost();
  // Try the posted queue in post order.
  if (Posting* p = take_posting(src, msg.tag)) {
    charged += bind(*p, src, seq, msg);
    return;
  }
  // Then rcvncall registrations.
  for (std::size_t ri = 0; ri < registrations_.size(); ++ri) {
    if (registrations_[ri].tag == msg.tag) {
      msg.matched = true;
      msg.to_rcvncall = true;
      msg.reg_index = static_cast<int>(ri);
      charged += cm.mpi_match;
      if (msg.is_rndv) {
        msg.stage.resize(static_cast<std::size_t>(msg.total));
        charged += cm.mpi_ctl;
        send_ctl(src, MplKind::kCts, seq, engine().now() + charged);
      }
      if (msg.assembled && !msg.delivered) {
        msg.delivered = true;
        complete_message(src, seq);
      }
      return;
    }
  }
  if (config_.max_unexpected > 0 && !msg.is_rndv &&
      static_cast<std::int64_t>(unexpected_.size()) >=
          config_.max_unexpected) {
    // Unexpected queue full: shed this eager message instead of
    // buffering without bound. The tombstone keeps the in-order
    // cursor honest; no ack ever goes back, so the sender's retry
    // budget exhausts and surfaces the loss on its side too.
    msg.shed = true;
    msg.stage.clear();
    msg.stage.shrink_to_fit();
    msg.early.clear();
    msg.seen.clear();
    msg.received = 0;
    engine().counters().bump("mpl.unexpected_shed");
    if (comm_status_ != Status::kPeerFailed) {
      comm_status_ = Status::kResourceExhausted;
    }
  } else {
    unexpected_.emplace_back(src, seq);
  }
}

Time Comm::bind(Posting& p, int src, std::int64_t seq, InMsg& msg) {
  const CostModel& cm = cost();
  Time charged = cm.mpi_match;
  p.matched = true;
  p.m_src = src;
  msg.matched = true;
  msg.posting = p.id;
  msg.user_buf = p.buf.data();
  msg.user_cap = static_cast<std::int64_t>(p.buf.size());
  if (msg.total > msg.user_cap) p.truncated = true;
  if (p.status != nullptr) {
    p.status->source = src;
    p.status->tag = msg.tag;
    p.status->len = msg.total;
  }
  if (msg.is_rndv) {
    charged += cm.mpi_ctl;
    send_ctl(src, MplKind::kCts, seq, engine().now() + charged);
  } else if (msg.received > 0) {
    // Late match: the unexpected-queue copy into the user buffer — the
    // second copy of the eager path.
    const std::int64_t fit = std::min(msg.received, msg.user_cap);
    if (fit > 0 && !msg.stage.empty()) {
      std::memcpy(msg.user_buf, msg.stage.data(),
                  static_cast<std::size_t>(fit));
    }
    charged += cm.copy_time(msg.received);
    engine().counters().bump("mpl.unexpected_copies");
  }
  if (msg.assembled && !msg.delivered) {
    // Matched an already-complete unexpected message (the posting arrived
    // late): deliver right away — the caller charges the copy time.
    msg.delivered = true;
    complete_message(src, seq);
  }
  return charged;
}

void Comm::complete_message(int src, std::int64_t seq) {
  const auto key = std::pair<int, std::int64_t>{src, seq};
  InMsg& msg = in_.at(key);
  SPLAP_REQUIRE(msg.assembled && msg.matched && msg.delivered,
                "completing an unready message");
  if (msg.to_rcvncall) {
    deliver_rcvncall(src, seq, registrations_[static_cast<std::size_t>(
                                   msg.reg_index)]);
    return;
  }
  // The posting bind() matched this message to: a restarted peer reuses
  // (src, seq), so an older posting bound to the same key from its
  // previous life must not take the completion.
  auto pit = postings_.find(msg.posting);
  SPLAP_REQUIRE(pit != postings_.end() && !pit->second.done,
                "matched message has no posting");
  pit->second.done = true;
  in_.erase(key);  // delivered: see forgotten()
  progress_.notify();
}

// ---------------------------------------------------------------------------
// Collectives (built on the tagged point-to-point layer; internal tags)
// ---------------------------------------------------------------------------

void Comm::barrier() {
  const int n = size();
  std::byte token{1};
  int round = 0;
  for (int dist = 1; dist < n; dist <<= 1, ++round) {
    const int to = (rank() + dist) % n;
    const int from = (rank() - dist % n + n) % n;
    const int tag = kInternalTagBase + round;
    const Request s = isend(to, tag, std::span<const std::byte>(&token, 1));
    std::byte in{};
    const Status st = recv(from, tag, std::span<std::byte>(&in, 1));
    if (st == Status::kPeerFailed) return;  // degraded: comm_status_ latched
    SPLAP_REQUIRE(st == Status::kOk, "barrier exchange failed");
    wait(s);
  }
}

void Comm::bcast(std::span<std::byte> data, int root) {
  const int n = size();
  if (n == 1) return;
  const int tag = kInternalTagBase + 64;
  // Binomial tree rooted at `root` (ranks relative to the root).
  const int vrank = (rank() - root + n) % n;
  if (vrank != 0) {
    // Receive from the parent.
    int mask = 1;
    while ((vrank & mask) == 0) mask <<= 1;
    const int parent = ((vrank & ~mask) + root) % n;
    const Status st = recv(parent, tag, data);
    if (st == Status::kPeerFailed) return;  // degraded: comm_status_ latched
    SPLAP_REQUIRE(st == Status::kOk, "bcast receive failed");
  }
  // Forward to children.
  int mask = 1;
  while (mask < n && (vrank & (mask - 1)) == 0) {
    if ((vrank & mask) == 0) {
      const int child = vrank | mask;
      if (child < n) {
        const Status st = send((child + root) % n, tag, data);
        SPLAP_REQUIRE(st == Status::kOk, "bcast send failed");
      }
    }
    mask <<= 1;
  }
}

void Comm::allreduce_sum(std::span<double> data) {
  const int n = size();
  if (n == 1) return;
  std::vector<double> incoming(data.size());
  auto bytes_of = [](std::span<double> d) {
    return std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(d.data()), d.size_bytes());
  };
  // Recursive-doubling when n is a power of two; otherwise a simple
  // gather-to-0 + bcast fallback keeps correctness for any task count.
  if ((n & (n - 1)) == 0) {
    int round = 0;
    for (int dist = 1; dist < n; dist <<= 1, ++round) {
      const int peer = rank() ^ dist;
      const int tag = kInternalTagBase + 128 + round;
      const Request s = isend(peer, tag, bytes_of(data));
      const Status st =
          recv(peer, tag,
               std::span<std::byte>(reinterpret_cast<std::byte*>(incoming.data()),
                                    incoming.size() * sizeof(double)));
      if (st == Status::kPeerFailed) return;  // degraded: result undefined
      SPLAP_REQUIRE(st == Status::kOk, "allreduce exchange failed");
      wait(s);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
    }
    return;
  }
  const int tag = kInternalTagBase + 256;
  if (rank() == 0) {
    for (int r = 1; r < n; ++r) {
      const Status st =
          recv(r, tag,
               std::span<std::byte>(reinterpret_cast<std::byte*>(incoming.data()),
                                    incoming.size() * sizeof(double)));
      if (st == Status::kPeerFailed) continue;  // dead rank: skip its term
      SPLAP_REQUIRE(st == Status::kOk, "allreduce gather failed");
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
    }
  } else {
    const Status st = send(0, tag, bytes_of(data));
    SPLAP_REQUIRE(st == Status::kOk, "allreduce send failed");
  }
  bcast(std::span<std::byte>(reinterpret_cast<std::byte*>(data.data()),
                             data.size_bytes()),
        0);
}

}  // namespace splap::mpl
