// The SP switch fabric: a packet-switched multistage network connecting the
// node adapters.
//
// Model (per packet):
//   depart   = max(now, link_free[src])            -- injection link FIFO
//   occupy   = wire_time(header + payload)          -- serialization at 110 MB/s
//   route    = round-robin over routes_per_pair paths; path r adds
//              route_latency + r*route_skew (+ contention jitter)
//   arrival  = depart + occupy + route delay
//   deliver  = max(arrival, rx_free[dst]) + adapter_rx  -- drain DMA FIFO
//
// Because consecutive packets are sprayed over distinct routes (as on the
// real SP switch) and cross-traffic contention adds jitter, delivery is NOT
// ordered — the property LAPI is architected around and MPI/MPL must mask.
//
// Fault injection: the legacy drop_rate drops each packet with uniform
// probability (deterministically, from the machine seed). The richer
// FaultConfig (net/fault.hpp) layers bursty loss, deterministic per-N loss,
// per-route down/degrade windows with spray failover, duplication and
// payload corruption on top — all opt-in, so the default path stays a null
// check.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "base/cost_model.hpp"
#include "base/rng.hpp"
#include "base/stats.hpp"
#include "net/delivery.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace splap::net {

struct FabricConfig {
  CostModel cost;
  /// Probability that any given packet is lost in the network (the legacy
  /// uniform model; kept distinct from FaultConfig so the golden determinism
  /// traces' RNG consumption order is preserved bit-for-bit).
  double drop_rate = 0.0;
  /// Upper bound of uniform extra delay per packet modelling contention with
  /// cross traffic inside the multistage switch (0 = unloaded machine, the
  /// calibration configuration).
  Time contention_jitter = 0;
  std::uint64_t seed = 0x5eed;
  /// Extended fault model: bursty/per-N loss, route down/degrade windows,
  /// duplication, payload corruption. Inert unless fault.any().
  FaultConfig fault;
  /// Adapter RX queue depth per node: packets queued between arrival at the
  /// adapter and drain-DMA completion. When the queue is full, further
  /// arrivals are deterministically dropped (counted in rx_overflows and the
  /// `fabric.rx_overflow` counter, reported to the node's overflow hook so a
  /// transport can NACK). 0 = unbounded (the default; golden traces
  /// unchanged).
  int rx_queue_depth = 0;
};

class Fabric : public Delivery {
 public:
  using DeliverFn = std::function<void(Packet&&)>;
  /// Raw delivery target: one indirect call, no std::function machinery on
  /// the per-packet path. `ctx` must outlive the fabric registration.
  using DeliverThunk = void (*)(void* ctx, Packet&&);

  Fabric(sim::Engine& engine, int nodes, FabricConfig config);

  /// Audit builds verify the in-flight record ledger drained: when the
  /// engine's queue is empty (the simulation ran to completion) every record
  /// must have been released by finish_delivery. Records still out while
  /// events remain queued are a legitimate mid-flight teardown, not a leak.
  ~Fabric();

  /// Register the receive-side entry point of node `dst` (the adapter).
  void set_deliver(int dst, DeliverFn fn);
  void set_deliver(int dst, DeliverThunk fn, void* ctx);

  /// Overflow notification for node `dst`: invoked (at the drop instant)
  /// with the packet an RX-overflow discarded, before its buffers return to
  /// the pools. The fabric knows nothing about what the hook does with it —
  /// credits/NACKs are transport state above this layer. Only fires when
  /// rx_queue_depth > 0.
  using OverflowThunk = void (*)(void* ctx, const Packet& pkt);
  void set_overflow(int dst, OverflowThunk fn, void* ctx);

  /// Mint a packet whose payload buffer comes from this fabric's recycling
  /// pool (returned automatically when the last holder drops it). Senders on
  /// the hot path should build packets through this instead of `Packet{}` so
  /// steady-state traffic does not touch the allocator.
  Packet make_packet() override {
    Packet p;
    p.data = Payload(&payload_pool_);
    return p;
  }

  /// Hand a packet to the src-side injection link at the current virtual
  /// time. The caller has already paid any CPU cost; transport is DMA.
  void transmit(Packet&& pkt) override;

  /// When the packet last handed to transmit() will have cleared the
  /// injection link (for senders that want to model TX queue backpressure).
  Time link_free(int src) const override {
    return link_free_[static_cast<size_t>(src)];
  }

  const CostModel& cost() const { return config_.cost; }
  int nodes() const { return static_cast<int>(link_free_.size()); }

  // Instrumentation. packets_sent counts every transmit (drops included —
  // the sender did inject them); bytes_on_wire only bytes that reached the
  // destination adapter, with dropped bytes tallied separately so loss does
  // not inflate delivered-traffic accounting.
  std::int64_t packets_sent() const { return packets_sent_; }
  std::int64_t packets_dropped() const { return packets_dropped_; }
  std::int64_t bytes_on_wire() const { return bytes_on_wire_; }
  std::int64_t bytes_dropped() const { return bytes_dropped_; }
  /// Extra copies the fault model injected (each also counted in
  /// packets_sent-independent bytes_on_wire once it reaches the adapter).
  std::int64_t packets_duplicated() const { return packets_duplicated_; }
  /// Delivered packets whose payload was corrupted in flight (header-only
  /// packets hit by corruption are CRC-discarded by the switch and counted
  /// under packets_dropped instead).
  std::int64_t packets_corrupted() const { return packets_corrupted_; }
  /// Packets whose round-robin route was down and were re-sprayed onto a
  /// surviving route.
  std::int64_t route_failovers() const { return route_failovers_; }
  /// Packets discarded because a node's bounded adapter RX queue was full
  /// (also counted in packets_dropped).
  std::int64_t rx_overflows() const { return rx_overflows_; }
  /// Peak adapter RX queue occupancy observed at `node` (0 when
  /// rx_queue_depth is 0: unbounded queues are not tracked).
  int rx_high_water(int node) const {
    return rx_hwm_[static_cast<std::size_t>(node)];
  }

  /// Corruption injection armed (protocol layers use this to decide whether
  /// to stamp/verify end-to-end payload checksums).
  bool corruption_enabled() const { return config_.fault.corrupt_rate > 0; }

  // --- crash-stop node windows -------------------------------------------
  // While a node window is active the node is dead on the wire: transmit
  // drops every packet to or from it (fabric.node_down) and packets already
  // in flight toward it are flushed at the adapter (fabric.node_down_flushed)
  // so crash timing cannot leak stale deliveries into a restarted node.

  /// Open a crash window (Machine::kill_node appends one, until=kNoTime).
  void add_node_fault(const NodeFault& f);

  /// Close the newest open window for `node` at time `t` (its restart).
  void set_node_restart(int node, Time t);

  /// Is `node` alive on the wire at time `t`? O(1) when no node faults are
  /// configured — the healthy-path cost is one empty() check.
  bool node_up(int node, Time t) const {
    if (node_faults_.empty()) return true;
    return node_up_slow(node, t);
  }

  /// Restart hygiene: a rebooted adapter starts with clean link/DMA clocks
  /// and a fresh route pointer, as if freshly constructed.
  void reset_node(int node);

  /// Payload buffers allocated so far (steady state: constant — the pool
  /// recycles). Exposed for the allocation-regression tests.
  std::size_t payload_buffers_allocated() const {
    return payload_pool_.capacity();
  }

 private:
  /// One packet in flight between injection and delivery. The record is
  /// pool-recycled and referenced by at most one scheduled event at a time:
  /// first at `arrival` (drain-DMA bookkeeping, which must happen in arrival
  /// order), then at the delivery instant. The record itself is the event
  /// context (schedule_thunk), so neither hop constructs a capture; `owner`
  /// routes the static trampolines back to this fabric.
  struct InFlight {
    Fabric* owner = nullptr;
    Packet pkt;
  };

  void stage_rx(InFlight* rec);
  void finish_delivery(InFlight* rec);

  struct DeliverSlot {
    DeliverThunk fn = nullptr;
    void* ctx = nullptr;
  };

  struct OverflowSlot {
    OverflowThunk fn = nullptr;
    void* ctx = nullptr;
  };

  void release_record(InFlight* rec);

  bool node_up_slow(int node, Time t) const;

  sim::Engine& engine_;
  FabricConfig config_;
  std::vector<Time> link_free_;  // per-src injection link
  std::vector<Time> rx_free_;    // per-dst drain DMA
  std::vector<int> next_route_;  // per-src round-robin route pointer
  std::vector<DeliverSlot> deliver_;
  std::vector<OverflowSlot> overflow_;
  std::vector<int> rx_count_;  // per-dst adapter RX queue occupancy
  std::vector<int> rx_hwm_;    // per-dst occupancy high-water mark
  // Stable homes for std::function registrations (tests, tools), one slot
  // per node so re-registration replaces rather than accumulates; the hot
  // slot then points at a trampoline that calls through the function.
  std::vector<std::unique_ptr<DeliverFn>> deliver_fns_;
  Rng rng_;
  /// Non-null only when the extended fault model is configured; the hot
  /// path's whole fault-model cost in the default configuration is this
  /// null check.
  std::unique_ptr<FaultInjector> faults_;
  /// Crash-stop windows (appended by kill_node). Empty in every healthy
  /// configuration, so node_up() costs one empty() check.
  std::vector<NodeFault> node_faults_;
  // payload_pool_ must outlive inflight_pool_: destroying an InFlight
  // record releases its packet's payload buffer back into the payload pool.
  SlabBufferPool payload_pool_;
  ObjectPool<InFlight> inflight_pool_{256};
  std::int64_t packets_sent_ = 0;
  std::int64_t bytes_on_wire_ = 0;
  std::int64_t packets_dropped_ = 0;  // fault-model drops + RX overflows
  std::int64_t bytes_dropped_ = 0;
  std::int64_t rx_overflows_ = 0;
  std::int64_t packets_duplicated_ = 0;
  std::int64_t packets_corrupted_ = 0;
  std::int64_t route_failovers_ = 0;
  // Per-src one-entry memo of wire_time(bytes): identical result, no
  // per-packet floating divide for the dominant fixed-size packet stream.
  std::vector<std::int64_t> wire_memo_bytes_;
  std::vector<Time> wire_memo_time_;
  CounterSet::Handle ctr_rx_overflow_;  // resolved once: stage_rx is hot
};

}  // namespace splap::net
