// Public types of the MPI/MPL-style message-passing baseline.
//
// This is the comparator library of the paper's Section 4 and the substrate
// of the old Global Arrays implementation (Section 5.2): two-sided
// send/receive with envelope matching, an eager protocol below
// MP_EAGER_LIMIT (with the sender-side buffering copy the paper attributes
// the MPI bandwidth gap to), a rendezvous (RTS/CTS) protocol above it, strict
// per-source in-order delivery ("MPL progress rules (in-order message
// delivery)", Section 5.4), and the MPL rcvncall interrupt-receive used by
// GA's original implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "base/time.hpp"

namespace splap::mpl {

class Comm;

/// Wildcards for receive matching.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Tags >= kInternalTagBase are reserved for the library's collectives.
inline constexpr int kInternalTagBase = 1 << 20;

struct Config {
  /// MP_EAGER_LIMIT: messages at or below this many bytes use the eager
  /// protocol (sender-side copy, immediate injection); larger messages use
  /// rendezvous. Paper: default 4096, maximum 65536.
  std::int64_t eager_limit = 4096;
  /// Retransmission parameters of the internal reliability layer (the
  /// per-retry doubling is clamped at 250 ms, kBackoffClamp in comm.cpp).
  Time retransmit_timeout = milliseconds(4.0);
  int max_retries = 12;
  /// Cap on the unexpected-message queue (eager messages buffered with no
  /// matching receive — the receiver-side memory a never-receiving rank can
  /// grow without bound). 0 = unbounded. Over the cap, a newly admitted
  /// unmatched eager message is shed: its staging memory is dropped, it is
  /// never acked (the sender's retry budget exhausts), and comm_status()
  /// latches kResourceExhausted — degradation, never an abort. Rendezvous
  /// messages are exempt: an RTS buffers no payload, and shedding one would
  /// strand the blocked sender.
  std::int64_t max_unexpected = 0;
};

/// Completion information for a receive.
struct RecvStatus {
  int source = -1;
  int tag = -1;
  std::int64_t len = 0;
};

/// Opaque nonblocking-request handle.
using Request = std::int64_t;
inline constexpr Request kNullRequest = -1;

/// Context handed to an MPL rcvncall handler: the matched message, fully
/// assembled in a library buffer. The handler runs at interrupt level
/// (charged the interrupt + AIX handler-context creation costs, the source
/// of the old GA's >300us get latency, Section 5.2). It may issue sends but
/// must not block.
struct RcvncallDelivery {
  int source = -1;
  int tag = -1;
  std::span<const std::byte> data;
};

using RcvncallHandler = std::function<void(Comm&, const RcvncallDelivery&)>;

}  // namespace splap::mpl
