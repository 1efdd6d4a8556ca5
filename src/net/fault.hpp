// Pluggable fault model for the simulated SP switch.
//
// The seed fabric knew one fault: uniform i.i.d. packet loss. Real SP-class
// switches misbehave in richer ways — loss arrives in bursts (a flaky link
// CRC-failing everything for a stretch), whole routes go down or degrade
// while the spray logic keeps the pair connected over the survivors, and
// packets are occasionally duplicated or delivered with corrupted payloads.
// This header models all of those as an opt-in FaultConfig attached to the
// FabricConfig; with no faults configured the fabric's per-packet path is a
// single null-pointer check.
//
// Determinism: every injector owns its own Rng seeded from FaultConfig::seed,
// so fault sequences are reproducible bit-for-bit per seed and independent of
// the fabric's contention-jitter RNG (whose consumption order is pinned by
// the golden-trace determinism test). Route fault windows are pure functions
// of virtual time — no wall clock anywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "base/time.hpp"

namespace splap::net {

/// How packet loss is generated.
enum class LossModel : std::uint8_t {
  /// Independent per-packet drop with probability `loss_rate`.
  kUniform,
  /// Gilbert–Elliott two-state channel: a "good" state with loss_good and a
  /// "bad" (burst) state with loss_bad; per-packet transition probabilities
  /// ge_enter_bad / ge_exit_bad. Models the bursty loss of a degrading link.
  kGilbertElliott,
  /// Deterministically drop every Nth packet (loss_every_n); no randomness,
  /// useful for pinning exact retransmission schedules in tests.
  kEveryNth,
};

/// One scheduled fault window on a switch route. Applies to route index
/// `route` on every node pair (the SP routes a pair over the same four
/// switch paths; a broken intermediate link takes the path down for all
/// pairs crossing it).
struct RouteFault {
  int route = 0;
  Time from = 0;            // window start, inclusive
  Time until = kNoTime;     // window end, exclusive; kNoTime = never ends
  /// true: the route is unusable and the spray logic must fail over.
  /// false: the route stays up but degraded, adding extra_latency.
  bool down = true;
  Time extra_latency = 0;

  bool active(Time t) const {
    return t >= from && (until == kNoTime || t < until);
  }
};

/// One crash-stop window for a whole node: while active, the node is down —
/// every packet to or from it is lost, its adapter RX queue and in-flight
/// deliveries are flushed, and (above this layer) its actors are dead. A
/// window with until == kNoTime is a crash with no restart; Machine::
/// restart_node closes the window and resets the node's adapter state.
struct NodeFault {
  int node = 0;
  Time from = 0;         // crash instant, inclusive
  Time until = kNoTime;  // restart instant, exclusive; kNoTime = stays down

  bool active(Time t) const {
    return t >= from && (until == kNoTime || t < until);
  }
};

/// One directional partition window: while active, packets from `src` to
/// `dst` are lost on the wire while the reverse direction is untouched —
/// the asymmetric (gray) partition a misprogrammed switch port produces.
/// Either endpoint may be -1 as a wildcard ("any node"), so {src=2, dst=-1}
/// blackholes everything node 2 transmits while it still hears the world.
struct PartitionFault {
  int src = -1;          // transmitting node, -1 = any
  int dst = -1;          // receiving node, -1 = any
  Time from = 0;         // window start, inclusive
  Time until = kNoTime;  // window end, exclusive; kNoTime = never heals

  bool active(Time t) const {
    return t >= from && (until == kNoTime || t < until);
  }
  bool matches(int s, int d) const {
    return (src < 0 || src == s) && (dst < 0 || dst == d);
  }
};

/// A named symmetric partition: the fabric splits into the listed sides and
/// every route between nodes on *different* sides is cut for the window (both
/// directions). Nodes not listed on any side are unaffected — they keep full
/// connectivity to everyone, modeling a split that only severs one switch
/// plane. Heals when the window closes.
struct PartitionGroup {
  std::string name;                    // for traces/diagnostics only
  std::vector<std::vector<int>> sides;
  Time from = 0;
  Time until = kNoTime;

  bool active(Time t) const {
    return t >= from && (until == kNoTime || t < until);
  }
  /// True when a and b sit on distinct explicit sides.
  bool severs(int a, int b) const {
    int sa = -1;
    int sb = -1;
    for (std::size_t i = 0; i < sides.size(); ++i) {
      for (int n : sides[i]) {
        if (n == a) sa = static_cast<int>(i);
        if (n == b) sb = static_cast<int>(i);
      }
    }
    return sa >= 0 && sb >= 0 && sa != sb;
  }
};

/// A gray-failing node: alive and reachable, but its adapter serves packets
/// `multiplier`x slower for the window (scales adapter_tx on transmit and
/// adapter_rx on delivery). This is the classic straggler a fixed keepalive
/// mistakes for a crash.
struct Straggler {
  int node = 0;
  double multiplier = 1.0;  // >= 1; 1.0 = no effect
  Time from = 0;
  Time until = kNoTime;

  bool active(Time t) const {
    return t >= from && (until == kNoTime || t < until);
  }
};

struct FaultConfig {
  LossModel loss = LossModel::kUniform;
  /// kUniform: per-packet drop probability.
  double loss_rate = 0.0;
  // Gilbert–Elliott parameters (kGilbertElliott).
  double ge_enter_bad = 0.0;  // P(good -> bad) evaluated per packet
  double ge_exit_bad = 0.1;   // P(bad -> good) evaluated per packet
  double loss_good = 0.0;     // drop probability in the good state
  double loss_bad = 0.5;      // drop probability in the bad (burst) state
  /// kEveryNth: drop packets number N, 2N, 3N, ... (0 disables).
  std::int64_t loss_every_n = 0;

  /// Probability a delivered packet is additionally delivered a second time
  /// (switch-internal duplication; the dup takes a skewed path).
  double duplicate_rate = 0.0;
  /// Probability a delivered packet's payload has a byte flipped in flight.
  /// Header-only packets cannot carry a flipped payload byte; for them a
  /// corruption event means the switch CRC discards the packet (a drop).
  double corrupt_rate = 0.0;

  std::vector<RouteFault> route_faults;

  /// Directional src->dst blackhole windows (asymmetric partitions).
  std::vector<PartitionFault> partitions;
  /// Named multi-side symmetric partitions cut at a virtual time.
  std::vector<PartitionGroup> partition_groups;
  /// Per-node adapter slowdown windows (gray failures).
  std::vector<Straggler> stragglers;

  std::uint64_t seed = 0xfa017;

  bool injects_loss() const {
    switch (loss) {
      case LossModel::kUniform: return loss_rate > 0;
      case LossModel::kGilbertElliott:
        return loss_good > 0 || loss_bad > 0;
      case LossModel::kEveryNth: return loss_every_n > 0;
    }
    return false;
  }
  /// Anything configured at all? When false the fabric skips the injector
  /// entirely (the zero-cost default path).
  bool any() const {
    return injects_loss() || duplicate_rate > 0 || corrupt_rate > 0 ||
           !route_faults.empty() || !partitions.empty() ||
           !partition_groups.empty() || !stragglers.empty();
  }
};

/// Per-fabric fault state machine. One drop_packet() call per transmitted
/// packet advances the loss model (the Gilbert–Elliott channel state evolves
/// even for packets that survive); duplication/corruption draws happen only
/// when their rates are nonzero, so configs that disable them consume no
/// randomness for them.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  /// Advance the loss model one packet; true = this packet is lost.
  bool drop_packet();
  bool duplicate_packet();
  bool corrupt_packet();
  /// Which payload byte to flip for a corrupted packet of `len` bytes.
  std::size_t corrupt_byte(std::size_t len);
  /// Deterministic extra path delay for a duplicate, in [0, span).
  Time duplicate_skew(Time span);

  bool route_up(int route, Time t) const;
  /// Extra latency from degraded-but-up windows covering (route, t).
  Time route_penalty(int route, Time t) const;
  bool has_route_faults() const { return !config_.route_faults.empty(); }

  /// True when any directional window or partition group severs src->dst at
  /// t. Pure function of virtual time: consumes no randomness, so enabling
  /// partitions leaves every RNG stream (and the golden traces) untouched.
  bool partitioned(int src, int dst, Time t) const;
  /// Adapter service-time multiplier for `node` at t (stacked stragglers
  /// multiply; 1.0 when none active).
  double straggler_factor(int node, Time t) const;
  bool has_partitions() const {
    return !config_.partitions.empty() || !config_.partition_groups.empty();
  }
  bool has_stragglers() const { return !config_.stragglers.empty(); }

  /// Gilbert–Elliott channel currently in the burst state (test hook).
  bool in_burst() const { return bad_state_; }

 private:
  FaultConfig config_;
  Rng rng_;
  bool bad_state_ = false;      // Gilbert–Elliott channel state
  std::int64_t pkt_index_ = 0;  // kEveryNth position
};

}  // namespace splap::net
