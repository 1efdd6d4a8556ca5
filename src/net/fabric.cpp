#include "net/fabric.hpp"

#include <algorithm>
#include <utility>

#include "base/audit.hpp"
#include "base/log.hpp"

namespace splap::net {

Fabric::Fabric(sim::Engine& engine, int nodes, FabricConfig config)
    : engine_(engine),
      config_(std::move(config)),
      link_free_(static_cast<std::size_t>(nodes), 0),
      rx_free_(static_cast<std::size_t>(nodes), 0),
      next_route_(static_cast<std::size_t>(nodes), 0),
      deliver_(static_cast<std::size_t>(nodes)),
      overflow_(static_cast<std::size_t>(nodes)),
      rx_count_(static_cast<std::size_t>(nodes), 0),
      rx_hwm_(static_cast<std::size_t>(nodes), 0),
      deliver_fns_(static_cast<std::size_t>(nodes)),
      // config_ (declared before rng_/payload_pool_) is already moved-into
      // here, so these must read config_, not the moved-from parameter.
      rng_(config_.seed),
      payload_pool_(static_cast<std::size_t>(config_.cost.packet_bytes), 256),
      wire_memo_bytes_(static_cast<std::size_t>(nodes), -1),
      wire_memo_time_(static_cast<std::size_t>(nodes), 0),
      ctr_rx_overflow_(engine.counters().handle("fabric.rx_overflow")) {
  SPLAP_REQUIRE(nodes > 0, "fabric needs at least one node");
  if (config_.fault.any()) {
    for (const RouteFault& f : config_.fault.route_faults) {
      SPLAP_REQUIRE(f.route >= 0 && f.route < config_.cost.routes_per_pair,
                    "route fault names a route the pair does not have");
    }
    for (const Straggler& s : config_.fault.stragglers) {
      SPLAP_REQUIRE(s.node >= 0 && s.node < nodes,
                    "straggler names a node the machine does not have");
      SPLAP_REQUIRE(s.multiplier >= 1.0,
                    "straggler multiplier must be >= 1 (it slows, never speeds)");
    }
    faults_ = std::make_unique<FaultInjector>(config_.fault);
  }
}

Fabric::~Fabric() {
#ifdef SPLAP_AUDIT
  if (engine_.queued_events() == 0 && inflight_pool_.in_use() != 0) {
    audit::fail("in-flight record leak at fabric teardown (queue drained but "
                "records were never delivered or released)",
                "Fabric::~Fabric", nullptr);
  }
#endif
}

void Fabric::set_deliver(int dst, DeliverFn fn) {
  SPLAP_REQUIRE(dst >= 0 && dst < nodes(), "bad node id");
  // One holder slot per node: re-registering replaces the old function
  // instead of leaking it for the fabric's lifetime.
  auto& holder = deliver_fns_[static_cast<std::size_t>(dst)];
  holder = std::make_unique<DeliverFn>(std::move(fn));
  set_deliver(dst,
              [](void* ctx, Packet&& pkt) {
                (*static_cast<DeliverFn*>(ctx))(std::move(pkt));
              },
              holder.get());
}

void Fabric::set_deliver(int dst, DeliverThunk fn, void* ctx) {
  SPLAP_REQUIRE(dst >= 0 && dst < nodes(), "bad node id");
  deliver_[static_cast<std::size_t>(dst)] = DeliverSlot{fn, ctx};
}

void Fabric::set_overflow(int dst, OverflowThunk fn, void* ctx) {
  SPLAP_REQUIRE(dst >= 0 && dst < nodes(), "bad node id");
  overflow_[static_cast<std::size_t>(dst)] = OverflowSlot{fn, ctx};
}

void Fabric::add_node_fault(const NodeFault& f) {
  SPLAP_REQUIRE(f.node >= 0 && f.node < nodes(),
                "node fault names a node the machine does not have");
  node_faults_.push_back(f);
}

void Fabric::set_node_restart(int node, Time t) {
  // Close the newest open window for the node: kill/restart pairs nest in
  // call order, and a restart before any crash is a caller bug.
  for (auto it = node_faults_.rbegin(); it != node_faults_.rend(); ++it) {
    if (it->node == node && it->until == kNoTime) {
      SPLAP_REQUIRE(t > it->from, "restart must come after the crash");
      it->until = t;
      return;
    }
  }
  SPLAP_REQUIRE(false, "restart_node without a preceding kill_node");
}

bool Fabric::node_up_slow(int node, Time t) const {
  for (const NodeFault& f : node_faults_) {
    if (f.node == node && f.active(t)) return false;
  }
  return true;
}

void Fabric::reset_node(int node) {
  const auto n = static_cast<std::size_t>(node);
  link_free_[n] = 0;
  rx_free_[n] = 0;
  next_route_[n] = 0;
  // rx_count_ is deliberately NOT reset: flushes keep it self-consistent
  // (stage_rx never admits a packet for a down node, and finish_delivery
  // decrements before its own flush check), and zeroing it while old-epoch
  // deliveries are still draining would drive the occupancy negative.
}

void Fabric::transmit(Packet&& pkt) {
  const auto src = static_cast<std::size_t>(pkt.src);
  const std::int64_t wire_bytes = pkt.wire_bytes();
  SPLAP_REQUIRE(pkt.src >= 0 && pkt.src < nodes(), "bad src");
  SPLAP_REQUIRE(pkt.dst >= 0 && pkt.dst < nodes(), "bad dst");
  SPLAP_REQUIRE(wire_bytes <= config_.cost.packet_bytes,
                "packet exceeds the wire MTU");
  const CostModel& cm = config_.cost;
  ++packets_sent_;

  if (!node_faults_.empty()) [[unlikely]] {
    // Crash-stop: a dead endpoint loses the packet at the wire, whichever
    // side is down (a dying node's still-queued injections go nowhere, and
    // nothing reaches a dead receiver). The reliability layers see silence.
    if (!node_up(pkt.src, engine_.now()) || !node_up(pkt.dst, engine_.now())) {
      ++packets_dropped_;
      bytes_dropped_ += wire_bytes;
      engine_.counters().bump("fabric.node_down");
      SPLAP_DEBUG(engine_.now(), "fabric: node down, dropped packet %d->%d",
                  pkt.src, pkt.dst);
      return;
    }
  }

  // Gray failure: a straggling adapter serves every packet slower without
  // being down. Pure time-window lookup — no RNG draw, so straggler configs
  // leave the jitter/fault streams byte-identical.
  Time adapter_tx = cm.adapter_tx;
  if (faults_ != nullptr && faults_->has_stragglers()) [[unlikely]] {
    const double factor = faults_->straggler_factor(pkt.src, engine_.now());
    if (factor > 1.0) {
      adapter_tx = static_cast<Time>(static_cast<double>(adapter_tx) * factor);
    }
  }

  Time arrival;
  if (pkt.src == pkt.dst) {
    // Loopback: the adapter short-circuits the switch.
    arrival = engine_.now() + adapter_tx + cm.adapter_rx;
  } else {
    if (faults_ != nullptr && faults_->has_partitions() &&
        faults_->partitioned(pkt.src, pkt.dst, engine_.now())) [[unlikely]] {
      // The switch plane between src and dst is cut in this direction; the
      // reverse direction may well still deliver (asymmetric partition).
      // The reliability layers above see one-way silence.
      ++packets_dropped_;
      bytes_dropped_ += wire_bytes;
      engine_.counters().bump("fabric.partitioned");
      SPLAP_DEBUG(engine_.now(), "fabric: partitioned, dropped packet %d->%d",
                  pkt.src, pkt.dst);
      return;
    }
    const Time depart =
        std::max(engine_.now() + adapter_tx, link_free_[src]);
    // wire_time only depends on the total byte count; a one-entry memo
    // skips the floating divide for the dominant full-MTU packet stream.
    if (wire_bytes != wire_memo_bytes_[src]) {
      wire_memo_bytes_[src] = wire_bytes;
      wire_memo_time_[src] = cm.wire_time(wire_bytes, 0);
    }
    const Time occupy = wire_memo_time_[src];
    link_free_[src] = depart + occupy;

    int route = next_route_[src];
    // Round-robin without the integer divide (routes_per_pair is a runtime
    // value, so % would cost a real div on every packet).
    next_route_[src] = route + 1 == cm.routes_per_pair ? 0 : route + 1;
    Time route_penalty = 0;
    if (faults_ != nullptr && faults_->has_route_faults()) {
      // Spray failover: if the round-robin route is down, walk forward to
      // the next live route. All routes down means the pair is partitioned
      // and the packet is lost (the reliability layers retry; by then a
      // route may be back up).
      int tried = 0;
      while (tried < cm.routes_per_pair &&
             !faults_->route_up(route, engine_.now())) {
        route = route + 1 == cm.routes_per_pair ? 0 : route + 1;
        ++tried;
      }
      if (tried == cm.routes_per_pair) {
        ++packets_dropped_;
        bytes_dropped_ += wire_bytes;
        engine_.counters().bump("fabric.no_route");
        SPLAP_DEBUG(engine_.now(), "fabric: no live route %d->%d", pkt.src,
                    pkt.dst);
        return;
      }
      if (tried > 0) {
        ++route_failovers_;
        engine_.counters().bump("fabric.route_failover");
      }
      route_penalty = faults_->route_penalty(route, engine_.now());
    }
    Time route_delay = cm.route_latency + route * cm.route_skew + route_penalty;
    if (config_.contention_jitter > 0) {
      route_delay += static_cast<Time>(rng_.next_below(
          static_cast<std::uint64_t>(config_.contention_jitter)));
    }
    arrival = depart + occupy + route_delay;

    bool dropped =
        config_.drop_rate > 0 && rng_.next_bool(config_.drop_rate);
    if (faults_ != nullptr) {
      // Always advance the loss model so the Gilbert–Elliott channel state
      // evolves per packet, even when the legacy uniform draw already lost
      // this one.
      dropped |= faults_->drop_packet();
      if (!dropped && pkt.data.empty() && faults_->corrupt_packet()) {
        // A corrupted header-only packet has no payload byte to flip; the
        // switch CRC discards it, which the protocol sees as a loss.
        ++packets_corrupted_;
        engine_.counters().bump("fabric.corrupted");
        dropped = true;
      }
    }
    if (dropped) {
      ++packets_dropped_;
      bytes_dropped_ += wire_bytes;
      engine_.counters().bump("fabric.drops");
      SPLAP_DEBUG(engine_.now(), "fabric: dropped packet %d->%d (%lld B)",
                  pkt.src, pkt.dst,
                  static_cast<long long>(pkt.wire_bytes()));
      return;  // pkt's payload buffer returns to the pool here
    }
    if (faults_ != nullptr) {
      if (faults_->duplicate_packet()) {
        // Switch-internal duplication: a second copy of the packet arrives
        // over a skewed path. It shares the descriptor (receivers treat it
        // as const) but carries its own payload buffer.
        ++packets_duplicated_;
        engine_.counters().bump("fabric.duplicated");
        bytes_on_wire_ += wire_bytes;
        Packet dup;
        dup.src = pkt.src;
        dup.dst = pkt.dst;
        dup.client = pkt.client;
        dup.header_bytes = pkt.header_bytes;
        dup.meta = pkt.meta;
        dup.data = Payload(&payload_pool_);
        dup.data.assign(pkt.data.begin(), pkt.data.end());
        const Time dup_arrival =
            arrival + cm.route_skew +
            faults_->duplicate_skew(cm.route_skew * cm.routes_per_pair + 1);
        InFlight* drec = inflight_pool_.acquire();
        drec->owner = this;
        drec->pkt = std::move(dup);
#ifdef SPLAP_AUDIT
        engine_.audit_object_begin(drec);
        engine_.audit_object_touch(drec, "Fabric::transmit duplicate");
#endif
        engine_.schedule_thunk_on(
            dup_arrival, drec->pkt.dst,
            [](void* p) {
              InFlight* r = static_cast<InFlight*>(p);
              r->owner->stage_rx(r);
            },
            drec);
      }
      if (!pkt.data.empty() && faults_->corrupt_packet()) {
        ++packets_corrupted_;
        engine_.counters().bump("fabric.corrupted");
        pkt.data[faults_->corrupt_byte(pkt.data.size())] ^= std::byte{0x40};
      }
    }
  }
  bytes_on_wire_ += wire_bytes;

  // The drain DMA serializes packets in ARRIVAL order, so the rx_free
  // bookkeeping must run when the packet reaches the adapter, not when it
  // was sent — otherwise a late-sent packet that took a faster route could
  // never overtake (and the fabric would be spuriously in-order).
  // Pinned to the destination shard: from stage_rx onward everything touches
  // dst-side state (rx queue, drain DMA, the node's handlers), so whatever
  // the handlers schedule inherits the destination node.
  InFlight* rec = inflight_pool_.acquire();
  rec->owner = this;
  rec->pkt = std::move(pkt);
#ifdef SPLAP_AUDIT
  engine_.audit_object_begin(rec);
  engine_.audit_object_touch(rec, "Fabric::transmit");
#endif
  engine_.schedule_thunk_on(
      arrival, rec->pkt.dst,
      [](void* p) {
        InFlight* r = static_cast<InFlight*>(p);
        r->owner->stage_rx(r);
      },
      rec);
}

void Fabric::release_record(InFlight* rec) {
  rec->pkt.data.reset();
  rec->pkt.meta.reset();
#ifdef SPLAP_AUDIT
  engine_.audit_object_end(rec);
#endif
  inflight_pool_.release(rec);
}

void Fabric::stage_rx(InFlight* rec) {
#ifdef SPLAP_AUDIT
  // The record is the scheduled event's raw context: if it was recycled out
  // from under the event, this dereference is the corruption point.
  inflight_pool_.audit_expect_live(rec, "Fabric::stage_rx");
  engine_.audit_object_touch(rec, "Fabric::stage_rx");
#endif
  const auto dst = static_cast<std::size_t>(rec->pkt.dst);
  if (!node_faults_.empty() &&
      !node_up(rec->pkt.dst, engine_.now())) [[unlikely]] {
    // The destination crashed while this packet was in the switch: the
    // adapter that would queue it no longer exists. Flushed, not delivered.
    engine_.counters().bump("fabric.node_down_flushed");
    release_record(rec);
    return;
  }
  if (config_.rx_queue_depth > 0) {
    // Bounded adapter RX: a packet occupies a queue slot from arrival until
    // the drain DMA hands it to the node. A full queue drops the arrival
    // deterministically — the transport above recovers (NACK/retransmit).
    if (rx_count_[dst] >= config_.rx_queue_depth) {
      ++rx_overflows_;
      ++packets_dropped_;
      bytes_dropped_ += rec->pkt.wire_bytes();
      ctr_rx_overflow_.bump();
      SPLAP_DEBUG(engine_.now(), "fabric: RX overflow at node %d (%d queued)",
                  rec->pkt.dst, rx_count_[dst]);
      const OverflowSlot hook = overflow_[dst];
      if (hook.fn != nullptr) hook.fn(hook.ctx, rec->pkt);
      release_record(rec);
      return;
    }
    ++rx_count_[dst];
    rx_hwm_[dst] = std::max(rx_hwm_[dst], rx_count_[dst]);
  }
  Time adapter_rx = config_.cost.adapter_rx;
  if (faults_ != nullptr && faults_->has_stragglers()) [[unlikely]] {
    // Straggling receiver: the drain DMA serves this node's queue slower,
    // which is what backs up its RX occupancy and stretches its replies.
    const double factor =
        faults_->straggler_factor(rec->pkt.dst, engine_.now());
    if (factor > 1.0) {
      adapter_rx = static_cast<Time>(static_cast<double>(adapter_rx) * factor);
    }
  }
  const Time deliver_at = std::max(engine_.now(), rx_free_[dst]) + adapter_rx;
  rx_free_[dst] = deliver_at;
  engine_.schedule_thunk_on(
      deliver_at, rec->pkt.dst,
      [](void* p) {
        InFlight* r = static_cast<InFlight*>(p);
        r->owner->finish_delivery(r);
      },
      rec);
}

void Fabric::finish_delivery(InFlight* rec) {
#ifdef SPLAP_AUDIT
  inflight_pool_.audit_expect_live(rec, "Fabric::finish_delivery");
  engine_.audit_object_touch(rec, "Fabric::finish_delivery");
#endif
  const auto dst = static_cast<std::size_t>(rec->pkt.dst);
  if (config_.rx_queue_depth > 0) --rx_count_[dst];
  if (!node_faults_.empty() &&
      !node_up(rec->pkt.dst, engine_.now())) [[unlikely]] {
    // Crashed between RX staging and drain-DMA completion: the queued packet
    // dies with the adapter (occupancy already released above).
    engine_.counters().bump("fabric.node_down_flushed");
    release_record(rec);
    return;
  }
  const DeliverSlot slot = deliver_[dst];
  SPLAP_REQUIRE(slot.fn != nullptr,
                "packet for a node with no adapter handler");
  // Whatever the handler does not take with it (payload buffer, descriptor
  // reference) goes back to the pools before the record is recycled — on the
  // throw path too, or a throwing handler would strand the record (and its
  // buffer) for the fabric's lifetime.
  struct Reap {
    Fabric* f;
    InFlight* rec;
    ~Reap() { f->release_record(rec); }
  } reap{this, rec};
  slot.fn(slot.ctx, std::move(rec->pkt));
}

}  // namespace splap::net
