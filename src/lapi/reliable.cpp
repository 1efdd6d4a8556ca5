#include "lapi/reliable.hpp"

#include <algorithm>

#include "base/checksum.hpp"
#include "base/log.hpp"

namespace splap::lapi {

// ---------------------------------------------------------------------------
// ReliableChannel: retransmit timers, backoff, RTT estimation
// ---------------------------------------------------------------------------

ReliableChannel::ReliableChannel(sim::Engine& engine, Sender& sender,
                                 RetryPolicy policy, const std::string& scope,
                                 std::uint64_t jitter_seed,
                                 std::weak_ptr<char> alive)
    : engine_(engine),
      sender_(sender),
      policy_(policy),
      ctr_retransmits_(engine.counters().handle(scope + ".retransmits")),
      ctr_stale_(engine.counters().handle(scope + ".stale_timeouts")),
      ctr_giveup_(engine.counters().handle(scope + ".retransmit_giveup")),
      jitter_rng_(jitter_seed),
      alive_(std::move(alive)) {}

void ReliableChannel::arm(std::int64_t id, Time delay) {
  RetryState* st = sender_.retry_state(id);
  if (st == nullptr) return;
  const std::uint64_t gen = ++st->timeout_gen;
  engine_.schedule_after(delay, [this, w = alive_, id, gen, delay] {
    if (w.expired()) return;
    on_timer(id, gen, delay);
  });
}

void ReliableChannel::on_timer(std::int64_t id, std::uint64_t gen, Time delay) {
  RetryState* st = sender_.retry_state(id);
  if (st == nullptr) {
    // Record reclaimed (acked or failed) before this timer fired.
    ctr_stale_.bump();
    return;
  }
  if (gen != st->timeout_gen) {
    // A newer timer owns this record; this one was invalidated by an
    // ack-triggered (or later) re-arm and must never retransmit.
    ctr_stale_.bump();
    return;
  }
  if (sender_.settled(id)) return;
  if (st->retries >= policy_.max_retries) {
    ctr_giveup_.bump();
    sender_.give_up(id);
    return;
  }
  ++st->retries;
  ctr_retransmits_.bump();
  sender_.retransmit(id);
  // Exponential backoff; the clamp caps the doubling at rto_max, and the
  // adaptive policy adds deterministic jitter so tasks whose losses were
  // synchronized (e.g. a route going down) retry unsynchronized.
  Time next = delay * 2;
  if (policy_.clamp_backoff) next = std::min(next, policy_.rto_max);
  if (policy_.adaptive) {
    const auto spread =
        static_cast<std::uint64_t>(next * policy_.backoff_jitter);
    if (spread > 0) {
      next += static_cast<Time>(jitter_rng_.next_below(spread));
    }
  }
  arm(id, next);
}

Time ReliableChannel::initial_rto() const {
  if (!policy_.adaptive || !have_rtt_) return policy_.base_rto;
  return std::clamp(srtt_ + 4 * rttvar_, policy_.rto_min, policy_.rto_max);
}

void ReliableChannel::on_rtt_sample(Time sample) {
  if (sample < 0) return;
  if (!have_rtt_) {
    have_rtt_ = true;
    srtt_ = sample;
    rttvar_ = sample / 2;
    return;
  }
  // Jacobson '88 with the classic 1/8 and 1/4 gains, in integer ns.
  const Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
  rttvar_ = (3 * rttvar_ + err) / 4;
  srtt_ = (7 * srtt_ + sample) / 8;
}

// ---------------------------------------------------------------------------
// SendEngine: LAPI origin side
// ---------------------------------------------------------------------------

SendEngine::SendEngine(net::Delivery& wire, ProgressEngine& progress,
                       int task_id, const Config& config, bool checksums)
    : wire_(wire),
      progress_(progress),
      task_id_(task_id),
      config_(config),
      checksums_(checksums),
      selector_(config, task_id),
      credits_(config.credit_window),
      channel_(progress.engine(), *this,
               RetryPolicy{config.retransmit_timeout, config.max_retries,
                           config.adaptive_timeout, config.adaptive_timeout,
                           config.rto_min, config.rto_max,
                           config.backoff_jitter},
               "lapi",
               config.jitter_seed ^
                   (static_cast<std::uint64_t>(task_id) * 0x9e3779b9ULL),
               progress.alive()),
      accrual_enabled_(config.keepalive_interval > 0 &&
                       !config.keepalive_legacy) {}

void SendEngine::submit(PktKind kind, int target,
                        std::shared_ptr<WireMeta> hdr,
                        std::shared_ptr<std::vector<std::byte>> data,
                        Time extra_call_cost) {
  // Get requests are counted outstanding from the call itself: the fence
  // must cover a Get whose request packet is still being injected.
  if (kind == PktKind::kGetReq) ++outstanding_gets_;
  sim::Engine& engine = progress_.engine();
  const CostModel& cm = progress_.cost();
  hdr->kind = kind;
  hdr->msg_id = msg_seq_++;
  const std::int64_t len =
      data ? static_cast<std::int64_t>(data->size()) : 0;
  // Protocol decision: eager / rendezvous / zero-copy, plus the call-side
  // charges of the choice (the eager bcopy, registration pins on cache
  // misses). With rdma off this reproduces the historical bcopy-limit
  // split exactly.
  const auto cache_before = selector_.cache().stats();
  const XferDecision xfer =
      selector_.decide(kind, *hdr, len, target, epoch_, cm);
  if (xfer.protocol == XferProtocol::kZeroCopy) {
    auto& ctrs = engine.counters();
    ctrs.bump("lapi.zero_copy_sends");
    const auto& cs = selector_.cache().stats();
    if (cs.hits > cache_before.hits) {
      ctrs.bump("lapi.reg_cache_hits", cs.hits - cache_before.hits);
    }
    if (cs.misses > cache_before.misses) {
      ctrs.bump("lapi.reg_cache_misses", cs.misses - cache_before.misses);
    }
  }
  const Time copy_in_call = xfer.call_copy + xfer.pin_cost;
  // Loopback traffic never competes for a peer's adapter buffering, so the
  // credit gate only governs remote targets.
  const bool flow = credits_.enabled() && target != task_id_;
  const std::int64_t pkts = flow ? packet_count(kind, *hdr, len) : 1;

  Time inject_at;
  bool park_for_credits = false;
  if (sim::Actor* a = sim::Actor::current()) {
    if (flow && suspected_.count(target) == 0 &&
        !(credits_.can_send(target, pkts) && credit_waitq_.count(target) == 0)) {
      // Backpressure: the call parks until the peer's credit pool can admit
      // this message (and no earlier handler-context send is queued ahead).
      // Credits released by any record reclamation notify() the waiters.
      // A peer that becomes suspected mid-wait releases the waiter too: the
      // send then quarantines below instead of leasing credits.
      engine.counters().bump("lapi.credit_stalls");
      // splap-graph: allow(blocking-reachability): inside the
      // Actor::current() branch — handler-context sends park in
      // credit_waitq_ (park_for_credits below) instead of blocking.
      a->wait(
          [this, a, target, pkts] {
            if (suspected_.count(target) != 0) return true;  // quarantine
            if (credits_.can_send(target, pkts) &&
                credit_waitq_.count(target) == 0) {
              return true;
            }
            progress_.waiters().add(*a);
            return false;
          },
          "lapi-credit-park");
    }
    progress_.enter_library();
    // splap-graph: allow(blocking-reachability): inside the Actor::current()
    // branch — handler-context callers charge busy_until_ in the else arm.
    a->compute(progress_.call_entry_cost() + extra_call_cost + cm.lapi_pkt_tx +
               copy_in_call);
    inject_at = engine.now();
    progress_.exit_library();
  } else {
    // Handler/dispatcher context: the send is part of the dispatcher's
    // current work and queues behind it.
    inject_at = std::max(engine.now(), progress_.busy_until()) +
                cm.lapi_pkt_tx + copy_in_call;
    progress_.set_busy_until(inject_at);
    // A handler must not block: an over-window send is queued per peer and
    // started by drain_credit_waitq when credits return.
    park_for_credits =
        flow && !(credits_.can_send(target, pkts) &&
                  credit_waitq_.count(target) == 0);
  }

  SendRecord rec;
  rec.target = target;
  rec.kind = kind;
  rec.hdr_meta = hdr;
  rec.data = data;
  rec.needs_done = (kind == PktKind::kPutHdr || kind == PktKind::kAmHdr) &&
                   hdr->cmpl_cntr != nullptr;
  rec.sent_at = inject_at;
  rec.pkts = pkts;
  const std::int64_t id = hdr->msg_id;
  sends_.emplace(id, std::move(rec));
  ++outstanding_data_;
#ifdef SPLAP_AUDIT
  send_ledger_.insert(&sends_.at(id), "SendEngine::submit");
#endif
  if (config_.keepalive_interval > 0 && target != task_id_) arm_keepalive();

  // Origin counter: user buffer reusable. Small messages were copied into
  // the retransmit buffer during the call; large ones complete the copy into
  // the adapter DMA region asynchronously (Section 5.3.1 / Section 6).
  // For a get reply this "origin counter" is the Get's tgt_cntr: it fires
  // at the serving side once the data has been copied out of the target
  // buffer (Section 2.3's completion notion for Get).
  //
  // Small messages were bcopied into the retransmit buffer during the call,
  // so the user buffer is reusable immediately. Large messages go zero-copy
  // from the pinned user buffer: it is only reusable once the data ack
  // returns (handled in the kAck path via org_pending).
  if ((kind == PktKind::kPutHdr || kind == PktKind::kAmHdr) &&
      hdr->org_cntr != nullptr) {
    // The selector decided when the user buffer is reusable: at injection
    // (eager bcopy, or a strided source gathered during the call) or only
    // at the data ack (rendezvous/zero-copy from the pinned user region).
    if (xfer.org_at_injection) {
      progress_.defer(inject_at,
                      [this, c = hdr->org_cntr] { progress_.bump(c); });
    } else {
      sends_.at(id).org_pending = true;
    }
  }

  if (target != task_id_ && suspected_.count(target) != 0) {
    // Suspected peer: quarantine instead of transmitting — no credit lease,
    // no timer, so neither the retry budget nor the credit window is spent
    // on a peer that may be behind a partition. heal_peer restarts the
    // record on any contact; fail_peer fails it over with kPeerFailed.
    sends_.at(id).queued = true;
    engine.counters().bump("lapi.quarantined");
    suspectq_[target].push_back(id);
    return;
  }
  if (park_for_credits) {
    // No transmission and no timer yet: the record is parked until credits
    // return. Deadlock-free: a peer pool below its window implies live
    // leased records, each of which releases on reclamation and drains this
    // queue; a full pool admits any message (including over-window ones).
    sends_.at(id).queued = true;
    engine.counters().bump("lapi.credit_queued");
    credit_waitq_[target].push_back(id);
    return;
  }
  if (flow) lease_credits(sends_.at(id));

  if (inject_at <= engine.now()) {
    transmit_packets(sends_.at(id));
  } else {
    progress_.defer(inject_at, [this, id] {
      auto it = sends_.find(id);
      if (it == sends_.end()) return;
      transmit_packets(it->second);
    });
  }
  arm_initial(id, len);
}

void SendEngine::arm_initial(std::int64_t id, std::int64_t len) {
  // Scale the first timeout with the expected wire time AND the injection
  // link's current backlog: a burst of pipelined messages (e.g. 512 GA
  // column transfers) queues for many milliseconds before the last one even
  // departs, and none of that time means loss.
  const CostModel& cm = progress_.cost();
  const Time backlog = std::max<Time>(
      0, wire_.link_free(task_id_) - progress_.engine().now());
  channel_.arm(id, channel_.initial_rto() + 2 * backlog +
                       2 * transfer_time(len, cm.wire_mb_s));
}

// --- credit accounting ------------------------------------------------------

std::int64_t SendEngine::packet_count(PktKind kind, const WireMeta& hdr,
                                      std::int64_t len) const {
  return frag_plan(kind, hdr, len, progress_.cost()).packets;
}

void SendEngine::lease_credits(SendRecord& rec) {
  credits_.consume(rec.target, rec.pkts);
  rec.credits_held = rec.pkts;
  rec.credits_granted = 0;
#ifdef SPLAP_AUDIT
  credit_ledger_.insert(&rec, "SendEngine::lease_credits");
#endif
}

void SendEngine::credit_return(SendRecord& rec, std::int64_t n) {
  if (n <= 0 || rec.credits_held <= 0) return;
#ifdef SPLAP_AUDIT
  credit_ledger_.expect(&rec, "SendEngine::credit_return");
#endif
  n = std::min(n, rec.credits_held);
  rec.credits_held -= n;
  credits_.release(rec.target, n);
#ifdef SPLAP_AUDIT
  if (rec.credits_held == 0) {
    credit_ledger_.remove(&rec, "SendEngine::credit_return");
  }
  if (credits_.available(rec.target) > credits_.window()) {
    audit::fail("credit pool above its window (over-release)",
                "SendEngine::credit_return", &rec);
  }
#endif
  drain_credit_waitq(rec.target);
  progress_.notify();  // parked actor-context senders re-evaluate
}

void SendEngine::apply_grant(SendRecord& rec, std::int64_t granted) {
  if (rec.credits_held <= 0) return;
  granted = std::min(granted, rec.pkts);
  if (granted <= rec.credits_granted) return;  // duplicate / stale update
  const std::int64_t fresh = granted - rec.credits_granted;
  rec.credits_granted = granted;
  // Grant progress means the target is ingesting again: a later overflow
  // may fast-retransmit anew.
  rec.nack_rtx = false;
  credit_return(rec, fresh);
}

void SendEngine::drain_credit_waitq(int peer) {
  // A suspected peer's parked sends stay parked — credits returning must not
  // restart traffic into a quarantine; heal_peer drains this queue instead.
  if (suspected_.count(peer) != 0) return;
  auto qit = credit_waitq_.find(peer);
  if (qit == credit_waitq_.end()) return;
  sim::Engine& engine = progress_.engine();
  const CostModel& cm = progress_.cost();
  auto& q = qit->second;
  while (!q.empty()) {
    auto it = sends_.find(q.front());
    if (it == sends_.end()) {  // reclaimed while parked
      q.pop_front();
      continue;
    }
    SendRecord& rec = it->second;
    if (!credits_.can_send(peer, rec.pkts)) break;
    q.pop_front();
    rec.queued = false;
    lease_credits(rec);
    // Start it as any handler-context send: behind the dispatcher's
    // current work.
    const std::int64_t id = it->first;
    const std::int64_t len =
        rec.data ? static_cast<std::int64_t>(rec.data->size()) : 0;
    const Time inject_at =
        std::max(engine.now(), progress_.busy_until()) + cm.lapi_pkt_tx;
    progress_.set_busy_until(inject_at);
    rec.sent_at = inject_at;
    if (inject_at <= engine.now()) {
      transmit_packets(rec);
    } else {
      progress_.defer(inject_at, [this, id] {
        auto it2 = sends_.find(id);
        if (it2 == sends_.end()) return;
        transmit_packets(it2->second);
      });
    }
    arm_initial(id, len);
  }
  if (q.empty()) credit_waitq_.erase(qit);
}

void SendEngine::transmit_packets(const SendRecord& rec,
                                  std::int64_t skip_first) {
  const CostModel& cm = progress_.cost();
  const WireMeta& hdr = *rec.hdr_meta;
  const std::int64_t len =
      rec.data ? static_cast<std::int64_t>(rec.data->size()) : 0;

  const FragPlan plan = frag_plan(rec.kind, hdr, len, cm);
  if (skip_first > 0) {
    --skip_first;  // the header packet is already at the target
  } else {
    net::Packet first = wire_.make_packet();
    first.src = task_id_;
    first.dst = rec.target;
    first.client = net::Client::kLapi;
    first.meta = rec.hdr_meta;
    first.header_bytes = plan.header_bytes;
    if (plan.chunk0 > 0) {
      first.data.assign(rec.data->begin(), rec.data->begin() + plan.chunk0);
      // End-to-end checksum, armed only when the fabric injects corruption.
      // No virtual-time charge: models the adapter's hardware CRC engine.
      if (checksums_) {
        rec.hdr_meta->data_crc = crc32_nz(
            rec.data->data(), static_cast<std::size_t>(plan.chunk0));
      }
    }
    wire_.transmit(std::move(first));
  }

  std::int64_t offset = plan.chunk0;
  while (offset < len) {
    const std::int64_t chunk = std::min(len - offset, plan.per);
    if (skip_first > 0) {
      --skip_first;
      offset += chunk;
      continue;
    }
    net::Packet p = wire_.make_packet();
    p.src = task_id_;
    p.dst = rec.target;
    p.client = net::Client::kLapi;
    p.header_bytes = plan.data_header_bytes;
    auto m = std::make_shared<WireMeta>();
    m->kind = PktKind::kData;
    m->epoch = hdr.epoch;
    m->dst_epoch = hdr.dst_epoch;
    m->msg_id = hdr.msg_id;
    m->offset = offset;
    m->zero_copy = hdr.zero_copy;
    if (checksums_) {
      m->data_crc = crc32_nz(rec.data->data() + offset,
                             static_cast<std::size_t>(chunk));
    }
    p.meta = std::move(m);
    p.data.assign(rec.data->begin() + offset,
                  rec.data->begin() + offset + chunk);
    wire_.transmit(std::move(p));
    offset += chunk;
  }
}

void SendEngine::transmit_probe(const SendRecord& rec) {
  const CostModel& cm = progress_.cost();
  net::Packet p = wire_.make_packet();
  p.src = task_id_;
  p.dst = rec.target;
  p.client = net::Client::kLapi;
  p.meta = rec.hdr_meta;
  p.header_bytes = cm.lapi_header_bytes;
  if (rec.kind == PktKind::kAmHdr) {
    p.header_bytes += static_cast<std::int64_t>(rec.hdr_meta->uhdr.size());
  }
  wire_.transmit(std::move(p));
}

// --- ReliableChannel::Sender hooks -----------------------------------------

RetryState* SendEngine::retry_state(std::int64_t id) {
  auto it = sends_.find(id);
  return it == sends_.end() ? nullptr : &it->second.retry;
}

bool SendEngine::settled(std::int64_t id) {
  const SendRecord& rec = sends_.at(id);
  return rec.data_acked && (!rec.needs_done || rec.done_acked);
}

void SendEngine::retransmit(std::int64_t id) {
  SendRecord& rec = sends_.at(id);
#ifdef SPLAP_AUDIT
  send_ledger_.expect(&rec, "SendEngine::retransmit");
#endif
  SPLAP_DEBUG(progress_.engine().now(),
              "lapi task %d: retransmit msg %lld kind %d to %d (retry %d)",
              task_id_, static_cast<long long>(id),
              static_cast<int>(rec.kind), rec.target, rec.retry.retries);
  rec.nack_rtx = false;  // a fresh RTO round may fast-retransmit again
  if (!rec.data_acked) {
    transmit_packets(rec);
  } else {
    // Data acked but the DONE ack was lost: the payload is gone, so probe
    // with a bare duplicate header — the target sees a completed assembly
    // and re-acks with the done flag.
    transmit_probe(rec);
  }
}

void SendEngine::give_up(std::int64_t id) {
  const SendRecord& rec = sends_.at(id);
  SPLAP_WARN(progress_.engine().now(),
             "lapi task %d: giving up on msg %lld to %d after %d retries",
             task_id_, static_cast<long long>(id), rec.target,
             rec.retry.retries);
  // Retry exhaustion IS peer death under the crash-stop model: if this
  // record could not get through after a full backoff ladder, none of its
  // siblings toward the same peer will either. Fail the whole per-peer
  // queue at once instead of letting each record burn its own ladder.
  fail_peer(rec.target);
}

void SendEngine::fail_peer(int peer, bool direct) {
  const bool fresh = failed_peers_.insert(peer).second;
  // Drop the parked queues first: failing a leased record returns credits,
  // and the credit drain must not restart parked sends toward a dead peer.
  // A suspected peer escalating to dead leaves the quarantine for good (its
  // parked records are failed over with everything else below).
  credit_waitq_.erase(peer);
  suspectq_.erase(peer);
  suspected_.erase(peer);
  accrual_.erase(peer);  // a future incarnation has its own rhythm
  std::vector<std::int64_t> ids;
  for (const auto& [id, rec] : sends_) {
    if (rec.target == peer) ids.push_back(id);
  }
  if (fresh) {
    progress_.engine().counters().bump("lapi.peer_failed");
    SPLAP_WARN(progress_.engine().now(),
               "lapi task %d: peer %d declared dead, failing over %zu records",
               task_id_, peer, ids.size());
  }
  for (const std::int64_t id : ids) fail_send(id, Status::kPeerFailed);
  // Registrations toward a dead peer are gone with its adapter state.
  selector_.cache().invalidate_peer(peer);
  health_.erase(peer);
  if (fresh && peer_failure_hook_) peer_failure_hook_(peer, direct);
  progress_.notify();
}

void SendEngine::on_peer_reborn(int peer, std::int64_t new_epoch) {
  // Only the records addressed to a dead incarnation fail over; sends the
  // origin already stamped with the new epoch stay live (the adoption was
  // very likely triggered by one of their acks).
  std::vector<std::int64_t> stale;
  for (const auto& [id, rec] : sends_) {
    if (rec.target == peer && rec.hdr_meta->dst_epoch < new_epoch) {
      stale.push_back(id);
    }
  }
  if (auto qit = credit_waitq_.find(peer); qit != credit_waitq_.end()) {
    std::erase_if(qit->second, [&](std::int64_t id) {
      auto it = sends_.find(id);
      return it == sends_.end() || it->second.hdr_meta->dst_epoch < new_epoch;
    });
    if (qit->second.empty()) credit_waitq_.erase(qit);
  }
  if (auto sit = suspectq_.find(peer); sit != suspectq_.end()) {
    // Quarantined records addressed to the dead incarnation fail over below
    // (fail_send skips ids no longer queued here); new-epoch records stay
    // parked — the note_heard that follows this adoption heals the peer and
    // restarts them.
    std::erase_if(sit->second, [&](std::int64_t id) {
      auto it = sends_.find(id);
      return it == sends_.end() || it->second.hdr_meta->dst_epoch < new_epoch;
    });
    if (sit->second.empty()) suspectq_.erase(sit);
  }
  if (!stale.empty()) {
    SPLAP_WARN(progress_.engine().now(),
               "lapi task %d: peer %d reborn as epoch %lld, failing %zu "
               "stale-addressed records",
               task_id_, peer, static_cast<long long>(new_epoch),
               stale.size());
  }
  for (const std::int64_t id : stale) fail_send(id, Status::kPeerFailed);
  // The old incarnation's registrations are dead memory in the new life
  // (the epoch stamp would miss anyway; dropping them also frees capacity).
  selector_.cache().invalidate_peer(peer);
  failed_peers_.erase(peer);  // the restarted life is reachable
  health_.erase(peer);
  accrual_.erase(peer);  // the new life's rhythm starts from scratch
  progress_.notify();
}

void SendEngine::note_heard(int src) {
  if (accrual_enabled_ && src != task_id_) {
    accrual_.try_emplace(src, config_.accrual_window)
        .first->second.observe(progress_.engine().now());
  }
  if (failed_peers_.empty() && health_.empty() && suspected_.empty()) {
    return;  // healthy fast path
  }
  failed_peers_.erase(src);
  if (!suspected_.empty()) heal_peer(src);
  auto it = health_.find(src);
  if (it != health_.end()) {
    it->second.heard = true;
    it->second.misses = 0;
  }
}

void SendEngine::forgive_crash_teardown() {
#ifdef SPLAP_AUDIT
  send_ledger_.clear();
  credit_ledger_.clear();
#endif
}

void SendEngine::fail_send(std::int64_t msg_id, Status reason) {
  auto it = sends_.find(msg_id);
  if (it == sends_.end()) return;
  SendRecord& rec = it->second;
  const WireMeta& hdr = *rec.hdr_meta;
  if (!rec.data_acked) --outstanding_data_;
  if (rec.kind == PktKind::kGetReq) --outstanding_gets_;
  release_credits(rec);
  if ((rec.kind == PktKind::kPutHdr || rec.kind == PktKind::kAmHdr) &&
      !rec.data_acked) {
    // Best-effort cancel (header-only, never retransmitted) so the target
    // reclaims the partial assembly this abandoned message left behind; the
    // partial-TTL sweep is the backstop if it is lost.
    const CostModel& cm = progress_.cost();
    net::Packet cancel = wire_.make_packet();
    cancel.src = task_id_;
    cancel.dst = rec.target;
    cancel.client = net::Client::kLapi;
    auto m = std::make_shared<WireMeta>();
    m->kind = PktKind::kCancel;
    m->epoch = hdr.epoch;
    m->dst_epoch = hdr.dst_epoch;
    m->acked_msg = msg_id;
    cancel.meta = std::move(m);
    cancel.header_bytes = cm.lapi_header_bytes + kCancelDescBytes;
    wire_.transmit(std::move(cancel));
  }
  // Complete every counter the operation still owes, marked failed: waiters
  // unblock (never a hang) and waitcntr reports the failure Status —
  // kPeerFailed when the peer was declared dead, kResourceExhausted for
  // plain resource exhaustion.
  const bool peer_death = reason == Status::kPeerFailed;
  if (rec.org_pending ||
      ((rec.kind == PktKind::kGetReq || rec.kind == PktKind::kRmwReq) &&
       hdr.org_cntr != nullptr && !rec.data_acked)) {
    peer_death ? progress_.bump_peer_failed(hdr.org_cntr)
               : progress_.bump_failed(hdr.org_cntr);
  }
  if (rec.needs_done && !rec.done_acked) {
    peer_death ? progress_.bump_peer_failed(hdr.cmpl_cntr)
               : progress_.bump_failed(hdr.cmpl_cntr);
  }
  progress_.engine().counters().bump("lapi.failed_ops");
#ifdef SPLAP_AUDIT
  send_ledger_.remove(&rec, "SendEngine::fail_send");
#endif
  sends_.erase(it);
  progress_.notify();  // fence/term waiters re-evaluate, record reclaimed
}

// --- keepalive (Config::keepalive_interval > 0) ----------------------------

namespace {
/// Silent observation windows before a probed peer is declared dead.
constexpr int kKeepaliveMisses = 3;
}  // namespace

void SendEngine::arm_keepalive() {
  if (keepalive_armed_) return;
  keepalive_armed_ = true;
  // Raw engine event guarded by the context-lifetime token — deliberately
  // NOT a counted deferred effect: a counted tick would hold term()'s
  // quiesce loop open, and the tick stops re-arming once sends_ drains, so
  // the engine queue still empties at quiescence.
  progress_.engine().schedule_after(config_.keepalive_interval,
                                    [this, w = progress_.alive()] {
                                      if (w.expired()) return;
                                      keepalive_armed_ = false;
                                      keepalive_tick();
                                    });
}

void SendEngine::keepalive_tick() {
  // Only peers with a pending record are probed: only they can strand a
  // waiter. In accrual mode quarantined (suspected-peer) records count too —
  // probing a suspected peer is how its heal signal (the probe ack) gets
  // generated. The map keeps probe order deterministic; the first record
  // supplies the dst_epoch the probe is addressed to.
  std::map<int, const SendRecord*> targets;
  for (const auto& [id, rec] : sends_) {
    if (rec.target == task_id_) continue;
    if (rec.queued &&
        !(accrual_enabled_ && suspected_.count(rec.target) != 0)) {
      continue;
    }
    targets.try_emplace(rec.target, &rec);
  }
  const Time now = progress_.engine().now();
  std::vector<int> suspects;
  std::vector<int> dead_direct;   // fixed-miss verdicts (legacy or warmup)
  std::vector<int> dead_accrual;  // sustained-suspicion verdicts
  for (const auto& [peer, rec] : targets) {
    if (failed_peers_.count(peer) != 0) continue;
    PeerHealth& h = health_[peer];
    const AccrualEstimator* est = nullptr;
    if (accrual_enabled_) {
      auto eit = accrual_.find(peer);
      if (eit != accrual_.end() && eit->second.warmed_up()) est = &eit->second;
    }
    if (est != nullptr) {
      // Adaptive path: judge the silence against the peer's own recent
      // rhythm instead of a fixed miss count. A straggler whose replies
      // stretched the observed gaps earns a proportionally wider tolerance.
      const double s = est->suspicion(now);
      if (s >= config_.fail_threshold) {
        dead_accrual.push_back(peer);
        continue;
      }
      if (s >= config_.suspect_threshold && suspected_.count(peer) == 0) {
        suspects.push_back(peer);
      }
      if (h.heard) {
        h.heard = false;  // active traffic this interval: no probe needed
        h.misses = 0;
        continue;
      }
    } else {
      // Legacy fixed-miss rule — also the accrual detector's warmup
      // fallback, so a peer that was dead from the start (it never produced
      // a rhythm to judge silence against) is declared exactly as the
      // legacy detector would declare it: direct evidence.
      if (h.heard) {
        h.heard = false;
        h.misses = 0;
        continue;
      }
      if (++h.misses >= kKeepaliveMisses) {
        dead_direct.push_back(peer);
        continue;
      }
    }
    progress_.engine().counters().bump("lapi.keepalive_probes");
    net::Packet p = wire_.make_packet();
    p.src = task_id_;
    p.dst = peer;
    p.client = net::Client::kLapi;
    auto m = std::make_shared<WireMeta>();
    m->kind = PktKind::kProbe;
    m->epoch = epoch_;
    m->dst_epoch = rec->hdr_meta->dst_epoch;
    p.meta = std::move(m);
    p.header_bytes = progress_.cost().lapi_header_bytes + kProbeDescBytes;
    wire_.transmit(std::move(p));
  }
  for (const int peer : suspects) suspect_peer(peer);
  for (const int peer : dead_direct) {
    progress_.engine().counters().bump("lapi.keepalive_failed");
    SPLAP_WARN(progress_.engine().now(),
               "lapi task %d: keepalive declared peer %d dead after %d silent "
               "intervals",
               task_id_, peer, kKeepaliveMisses);
    fail_peer(peer);
  }
  for (const int peer : dead_accrual) {
    progress_.engine().counters().bump("lapi.accrual_failed");
    SPLAP_WARN(progress_.engine().now(),
               "lapi task %d: sustained accrual declared peer %d dead "
               "(suspicion past %g)",
               task_id_, peer, config_.fail_threshold);
    // Circumstantial evidence: the gossip layer requires corroboration
    // before other tasks latch this verdict.
    fail_peer(peer, /*direct=*/false);
  }
  if (!sends_.empty()) arm_keepalive();
}

void SendEngine::suspect_peer(int peer) {
  if (peer == task_id_ || failed_peers_.count(peer) != 0) return;
  if (!suspected_.insert(peer).second) return;
  progress_.engine().counters().bump("lapi.peer_suspected");
  SPLAP_WARN(progress_.engine().now(),
             "lapi task %d: peer %d suspected (gray failure), quarantining "
             "its sends",
             task_id_, peer);
  // Quarantine every started record: freeze the RTO (bumping the timeout
  // generation invalidates the pending timer without scheduling another, so
  // no retry — and crucially no retry-exhaustion death verdict — can fire
  // against a peer that may merely be behind a partition), return the
  // credit lease and park the record. Records already parked in
  // credit_waitq_ stay there; the suspected guard in drain_credit_waitq
  // keeps them parked until heal.
  auto& q = suspectq_[peer];
  for (auto& [id, rec] : sends_) {
    if (rec.target != peer || rec.queued) continue;
    ++rec.retry.timeout_gen;  // the pending timer dies stale: RTO frozen
    rec.queued = true;
    q.push_back(id);
    credit_return(rec, rec.credits_held);
  }
  progress_.notify();
}

void SendEngine::heal_peer(int peer) {
  if (suspected_.erase(peer) == 0) return;
  sim::Engine& engine = progress_.engine();
  engine.counters().bump("lapi.peer_healed");
  SPLAP_WARN(engine.now(),
             "lapi task %d: suspected peer %d heard from again, healing",
             task_id_, peer);
  const CostModel& cm = progress_.cost();
  auto qit = suspectq_.find(peer);
  if (qit != suspectq_.end()) {
    std::deque<std::int64_t> q = std::move(qit->second);
    suspectq_.erase(qit);
    for (const std::int64_t id : q) {
      auto it = sends_.find(id);
      if (it == sends_.end()) continue;  // reclaimed while parked
      SendRecord& rec = it->second;
      if (!rec.queued) continue;
      // A record whose payload still needs the wire must re-lease credits;
      // an over-subscribed pool routes it to the ordinary credit queue
      // instead (started by drain_credit_waitq as credits return).
      const bool flow =
          credits_.enabled() && peer != task_id_ && !rec.data_acked;
      if (flow && !(credits_.can_send(peer, rec.pkts) &&
                    credit_waitq_.count(peer) == 0)) {
        engine.counters().bump("lapi.credit_queued");
        credit_waitq_[peer].push_back(id);
        continue;  // stays queued
      }
      rec.queued = false;
      if (flow) lease_credits(rec);
      // Restart as any handler-context send: behind the dispatcher's
      // current work. Deliberately NOT charged against the retry budget —
      // the quarantine was the detector's choice, not the wire's failure.
      const Time inject_at =
          std::max(engine.now(), progress_.busy_until()) + cm.lapi_pkt_tx;
      progress_.set_busy_until(inject_at);
      rec.sent_at = inject_at;
      if (inject_at <= engine.now()) {
        if (!rec.data_acked) {
          transmit_packets(rec);
        } else {
          transmit_probe(rec);
        }
      } else {
        progress_.defer(inject_at, [this, id] {
          auto it2 = sends_.find(id);
          if (it2 == sends_.end()) return;
          if (!it2->second.data_acked) {
            transmit_packets(it2->second);
          } else {
            transmit_probe(it2->second);
          }
        });
      }
      arm_initial(id,
                  rec.data ? static_cast<std::int64_t>(rec.data->size()) : 0);
    }
  }
  drain_credit_waitq(peer);
  progress_.notify();
}

Time SendEngine::on_probe(const net::Packet& pkt) {
  const CostModel& cm = progress_.cost();
  const auto& m = *std::static_pointer_cast<const WireMeta>(pkt.meta);
  net::Packet ack = wire_.make_packet();
  ack.src = task_id_;
  ack.dst = pkt.src;
  ack.client = net::Client::kLapi;
  auto rm = std::make_shared<WireMeta>();
  rm->kind = PktKind::kProbeAck;
  rm->epoch = epoch_;
  rm->dst_epoch = m.epoch;  // addressed to the life that asked
  ack.meta = std::move(rm);
  ack.header_bytes = cm.lapi_header_bytes + kProbeDescBytes;
  wire_.transmit(std::move(ack));
  return cm.lapi_ack;
}

// --- ack / response demux ---------------------------------------------------

Time SendEngine::on_ack(const net::Packet& pkt) {
  const Time c = progress_.cost().lapi_ack;
  const Time now = progress_.engine().now();
  progress_.defer(
      now + c,
      [this, meta = std::static_pointer_cast<const WireMeta>(pkt.meta)] {
        auto it = sends_.find(meta->acked_msg);
        if (it == sends_.end()) return;  // stale/duplicate ack
        SendRecord& rec = it->second;
#ifdef SPLAP_AUDIT
        send_ledger_.expect(&rec, "SendEngine::on_ack");
#endif
        apply_grant(rec, meta->ack_pkts);
        if (meta->ack_data && !rec.data_acked) {
          // Karn's rule: only never-retransmitted messages contribute RTT
          // samples (a retransmit's ack is ambiguous).
          if (config_.adaptive_timeout && rec.retry.retries == 0) {
            channel_.on_rtt_sample(progress_.engine().now() - rec.sent_at);
          }
          rec.data_acked = true;
          --outstanding_data_;
          rec.data.reset();  // retransmit buffer released
          if (rec.org_pending) {
            rec.org_pending = false;
            progress_.bump(rec.hdr_meta->org_cntr);  // user buffer unpinned
          }
          progress_.notify();
        }
        if (meta->ack_done && rec.needs_done && !rec.done_acked) {
          rec.done_acked = true;
          progress_.bump(meta->cmpl_cntr);
        }
        if (rec.data_acked && (!rec.needs_done || rec.done_acked)) {
          release_credits(rec);
#ifdef SPLAP_AUDIT
          send_ledger_.remove(&rec, "SendEngine::on_ack");
#endif
          sends_.erase(it);
        }
      });
  return c;
}

Time SendEngine::on_rmw_resp(const net::Packet& pkt) {
  const Time c = progress_.cost().lapi_ack;
  const Time now = progress_.engine().now();
  progress_.defer(
      now + c,
      [this, meta = std::static_pointer_cast<const WireMeta>(pkt.meta)] {
        auto it = sends_.find(meta->acked_msg);
        if (it == sends_.end()) return;  // duplicate response
        release_credits(it->second);
#ifdef SPLAP_AUDIT
        send_ledger_.remove(&it->second, "SendEngine::on_rmw_resp");
#endif
        sends_.erase(it);
        --outstanding_data_;
        if (meta->rmw_prev_out != nullptr) {
          *meta->rmw_prev_out = meta->rmw_prev;
        }
        progress_.bump(meta->org_cntr);
        progress_.notify();
      });
  return c;
}

Time SendEngine::on_nack(const net::Packet& pkt) {
  const Time c = progress_.cost().lapi_ack;
  const Time now = progress_.engine().now();
  progress_.defer(
      now + c,
      [this, meta = std::static_pointer_cast<const WireMeta>(pkt.meta)] {
        auto it = sends_.find(meta->acked_msg);
        if (it == sends_.end()) return;  // already settled or failed
        SendRecord& rec = it->second;
#ifdef SPLAP_AUDIT
        send_ledger_.expect(&rec, "SendEngine::on_nack");
#endif
        // One fast retransmit per recovery round: repeated NACKs from a
        // still-full adapter must not multiply into a retransmit storm (the
        // guard resets on grant progress or an RTO retransmit).
        if (rec.queued || rec.nack_rtx) return;
        if (rec.data_acked && (!rec.needs_done || rec.done_acked)) return;
        rec.nack_rtx = true;
        progress_.engine().counters().bump("lapi.nack_fast_rtx");
        SPLAP_DEBUG(progress_.engine().now(),
                    "lapi task %d: NACK fast retransmit msg %lld to %d",
                    task_id_, static_cast<long long>(meta->acked_msg),
                    rec.target);
        if (!rec.data_acked) {
          // Skip the prefix the target's cumulative grant already covers:
          // recovery into a still-tight adapter must carry fresh packets,
          // not duplicates that re-win the same queue slots.
          transmit_packets(rec, std::max<std::int64_t>(0, rec.credits_granted));
        } else {
          transmit_probe(rec);
        }
        // Re-arm so the RTO measures from the recovery transmission (the
        // retry budget is untouched: overflow is congestion, not loss of
        // connectivity).
        arm_initial(it->first,
                    rec.data ? static_cast<std::int64_t>(rec.data->size()) : 0);
      });
  return c;
}

Time SendEngine::on_credit(const net::Packet& pkt) {
  const Time c = progress_.cost().lapi_ack;
  const Time now = progress_.engine().now();
  progress_.defer(
      now + c,
      [this, meta = std::static_pointer_cast<const WireMeta>(pkt.meta)] {
        auto it = sends_.find(meta->acked_msg);
        if (it == sends_.end()) return;  // stale update, lease long returned
        apply_grant(it->second, meta->ack_pkts);
      });
  return c;
}

bool SendEngine::all_exhausted() const {
  for (const auto& [id, rec] : sends_) {
    if (rec.retry.retries < config_.max_retries) return false;
  }
  return true;
}

}  // namespace splap::lapi
