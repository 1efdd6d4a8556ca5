// Transfer-protocol selection for the LAPI origin path.
//
// Every data-bearing LAPI message rides one of three protocols:
//
//   eager        len <= CostModel::lapi_bcopy_limit. SendEngine::submit
//                bcopies the payload into its retransmit buffer during the
//                call and the origin counter fires at injection (Section
//                5.3.1).
//   rendezvous   larger messages stream zero-copy from the pinned user
//                buffer through the store-and-forward packet path: every
//                (re)transmission reads the user buffer, so it is reusable
//                (origin counter) only at the data ack, and the target
//                dispatcher copies every packet out of the adapter
//                (copy_time per fragment).
//   zero-copy    Config::rdma_enabled and len >= Config::rdma_threshold:
//                the origin registers (pins) the source and target regions
//                with the adapter, data packets shrink to a steering-tag
//                header (CostModel::rdma_header_bytes), and the target
//                adapter scatters payloads straight into the registered
//                region — no staging buffer, no dispatcher copy on either
//                end. Registrations are cached per context (LRU): a hit is
//                free, a miss pays CostModel::pin_time, and entries die
//                with the peer incarnation they were pinned against.
//
// This module is the single decision point: SendEngine::submit asks it what
// protocol a message rides and what the call-time charges are, and the
// facade consults classify() to plan strided gather charges. With
// rdma_enabled off the decisions reproduce the historical eager/rendezvous
// split bit-for-bit (golden traces unchanged).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <tuple>

#include "base/cost_model.hpp"
#include "lapi/protocol.hpp"
#include "lapi/types.hpp"

namespace splap::lapi {

enum class XferProtocol : std::uint8_t { kEager, kRendezvous, kZeroCopy };

/// What SendEngine::submit needs to know about the chosen protocol.
struct XferDecision {
  XferProtocol protocol = XferProtocol::kEager;
  /// Copy work charged inside the call (the eager bcopy into the
  /// retransmit buffer); 0 for the zero-copy-from-user-buffer protocols.
  Time call_copy = 0;
  /// Registration charges for this transfer's regions (0 on cache hits and
  /// for the non-registered protocols). Charged in-call like call_copy.
  Time pin_cost = 0;
  /// True when the user buffer is reusable at injection (eager bcopy, or a
  /// strided source gathered during the call): the origin counter fires
  /// then, and SendEngine::submit bcopies a source it was not handed a
  /// payload for. False = the packets are cut from the user buffer and the
  /// counter fires at the data ack (SendRecord::org_pending).
  bool org_at_injection = true;
};

/// LRU cache of adapter memory registrations, keyed by (peer, region base,
/// region length). Entries carry the peer incarnation epoch they were
/// pinned against: a lookup under a newer epoch misses (the registration
/// died with the old incarnation — restart_node soundness), and peer-death
/// or rebirth drops the peer's entries outright. The address component of
/// the key is the pointer *value* (uintptr): lookups are pure equality and
/// eviction order comes from the LRU list, so no behavior depends on
/// pointer ordering.
class RegistrationCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t epoch_invalidations = 0;
    std::int64_t peer_invalidations = 0;
  };

  explicit RegistrationCache(std::int64_t capacity) : capacity_(capacity) {}

  /// Look up / install the registration of [addr, addr+len) toward `peer`
  /// at incarnation `epoch`. Returns true on a hit (registration reusable,
  /// no charge); false on a miss — the entry is (re-)installed as MRU and
  /// the caller charges CostModel::pin_time. Capacity 0 disables caching:
  /// every call is a miss and nothing is stored.
  bool pin(int peer, std::uintptr_t addr, std::int64_t len,
           std::int64_t epoch);

  /// Drop every registration toward `peer` (peer declared dead or reborn:
  /// the remote adapter state backing those registrations is gone).
  void invalidate_peer(int peer);

  void clear();

  std::size_t size() const { return map_.size(); }
  std::int64_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

 private:
  using Key = std::tuple<int, std::uintptr_t, std::int64_t>;
  struct Entry {
    std::int64_t epoch = 0;
    std::list<Key>::iterator pos;  // position in lru_ (front = MRU)
  };

  std::int64_t capacity_;
  std::list<Key> lru_;
  std::map<Key, Entry> map_;
  Stats stats_;
};

/// The pluggable protocol-decision layer. One per SendEngine (it owns the
/// context's registration cache); stateless apart from that cache.
class ProtocolSelector {
 public:
  ProtocolSelector(const Config& config, int self)
      : config_(config), self_(self), cache_(config.reg_cache_entries) {}

  /// Pure classification — which protocol does a message of this shape
  /// ride? No cache side effects; the facade uses this to plan gather
  /// charges before submit.
  XferProtocol classify(PktKind kind, const WireMeta& hdr, std::int64_t len,
                        int target, const CostModel& cm) const;

  /// Full decision at submit time: classify, mark the header zero_copy if
  /// chosen, run the registration-cache lookups (accruing pin charges on
  /// misses) and report the call-time charges + origin-counter timing.
  /// `self_epoch` is this context's own incarnation (keys local-region
  /// registrations); the target incarnation rides hdr.dst_epoch.
  XferDecision decide(PktKind kind, WireMeta& hdr, std::int64_t len,
                      int target, std::int64_t self_epoch,
                      const CostModel& cm);

  RegistrationCache& cache() { return cache_; }
  const RegistrationCache& cache() const { return cache_; }

 private:
  const Config config_;
  const int self_;
  RegistrationCache cache_;
};

/// Fragmentation plan of one message: how SendEngine splits it into wire
/// packets. Shared by the credit accounting (packet_count) and the actual
/// transmission so the two can never disagree — credits are leased per
/// wire packet, and a mismatch would corrupt the per-peer window.
struct FragPlan {
  std::int64_t header_bytes = 0;       // header-packet protocol bytes
  std::int64_t chunk0 = 0;             // payload riding the header packet
  std::int64_t data_header_bytes = 0;  // continuation-packet header
  std::int64_t per = 1;                // payload per continuation packet
  std::int64_t packets = 1;            // total wire packets
};

FragPlan frag_plan(PktKind kind, const WireMeta& hdr, std::int64_t len,
                   const CostModel& cm);

}  // namespace splap::lapi
