// Internal wire protocol of the LAPI implementation.
//
// Every LAPI operation maps onto packets of these kinds. Data-bearing
// messages (Put, Amsend, Get replies) are split into a header packet plus
// data packets; the fabric may deliver them in any order, and the assembly
// logic at the target is built for that (Section 2.1). A two-level ack
// scheme mirrors the paper's completion semantics: the DATA ack fires the
// fence/origin bookkeeping ("data has been copied out from the network to
// the remote user buffers"), the DONE ack fires the origin completion
// counter only after the completion handler has run (Section 5.3.2).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/time.hpp"
#include "lapi/types.hpp"

namespace splap::lapi {

class Counter;

/// Wire sizes of the control descriptors beyond the 48-byte LAPI header.
inline constexpr std::int64_t kGetReqDescBytes = 32;
inline constexpr std::int64_t kRmwReqDescBytes = 24;
inline constexpr std::int64_t kRmwRespDescBytes = 8;
inline constexpr std::int64_t kAckDescBytes = 12;
inline constexpr std::int64_t kNackDescBytes = 12;
inline constexpr std::int64_t kCreditDescBytes = 12;
inline constexpr std::int64_t kCancelDescBytes = 12;
inline constexpr std::int64_t kProbeDescBytes = 8;

enum class PktKind : std::uint8_t {
  kPutHdr,   // first packet of a Put: target address + total length
  kAmHdr,    // first packet of an Amsend: handler id + uhdr
  kData,     // continuation packet of any data-bearing message
  kGetReq,   // Get request descriptor (header-only)
  kRmwReq,   // read-modify-write request
  kRmwResp,  // previous value back to the origin
  kAck,      // data-complete and/or handler-done acknowledgement
  kNack,     // target->origin: a packet of acked_msg was dropped at the
             // target adapter (RX overflow / partial-table shed); the origin
             // fast-retransmits without waiting for the RTO
  kCredit,   // target->origin: standalone credit update carrying the
             // cumulative ingested-packet count for acked_msg
  kCancel,   // origin->target: origin abandoned acked_msg (retry
             // exhaustion); the target reclaims any partial assembly
  kProbe,    // keepalive: origin asks "are you alive?" while it has sends
             // pending toward a silent peer (Config::keepalive_interval)
  kProbeAck, // keepalive reply (header-only; any traffic also counts)
};

/// Descriptor attached to every LAPI packet. A real implementation packs a
/// 48-byte header on the wire; the simulator charges those bytes via
/// Packet::header_bytes and keeps the logical fields here.
struct WireMeta {
  PktKind kind = PktKind::kData;
  /// Crash-stop incarnation epochs (Machine::incarnation). `epoch` is the
  /// sender's incarnation when it built the packet; `dst_epoch` is the
  /// destination incarnation the operation was issued against. Receivers
  /// reject packets from a peer's previous life (epoch stale) and packets
  /// addressed to their own previous life (dst_epoch stale) — the latter is
  /// what keeps a survivor's pre-crash retransmissions, whose target
  /// addresses died with the old task, out of a restarted node's memory.
  /// Both stay 0 while no node has ever crashed, so the healthy wire format
  /// and golden traces are unchanged.
  std::int64_t epoch = 0;
  std::int64_t dst_epoch = 0;
  /// Message id, unique per origin context. Keyed (origin, msg_id) at the
  /// target for assembly and duplicate suppression.
  std::int64_t msg_id = 0;
  /// The origin's low-water mark, stamped into every header and data packet
  /// when it is (re)transmitted: the lowest msg id the origin has not yet
  /// settled (send record still live, or allocated by a submit that has not
  /// recorded it). Every id below it is settled for good in this
  /// incarnation, so the target may forget its duplicate-suppression state
  /// for them; never above the packet's own msg_id. Logical metadata only:
  /// Packet::header_bytes does not charge it. 0 on control packets.
  std::int64_t low_water = 0;
  std::int64_t offset = 0;     // kData: byte offset of this fragment
  std::int64_t total_len = 0;  // header packets: full udata length
  /// End-to-end CRC of this packet's payload bytes, stamped by the origin
  /// when the fabric has corruption injection armed; 0 = not carried. The
  /// target discards mismatching packets (treated as loss, recovered by
  /// retransmission) so corrupted bytes never land in user buffers.
  std::uint32_t data_crc = 0;

  // kPutHdr: where the data lands.
  std::byte* tgt_addr = nullptr;
  /// Strided extension (the paper's Section 6 future-work item 1,
  /// implemented here): when set, the packed wire stream scatters into a
  /// column-major region at tgt_addr instead of a flat buffer.
  bool strided = false;
  std::int64_t s_row_bytes = 0;
  std::int64_t s_cols = 0;
  std::int64_t s_ld = 0;
  // kGetReq with strided = true additionally describes the remote SOURCE
  // region to gather from (src_addr + these dims).
  std::int64_t g_row_bytes = 0;
  std::int64_t g_cols = 0;
  std::int64_t g_ld = 0;

  /// Registered-memory zero-copy transfer (Config::rdma_enabled): data
  /// packets carry a steering tag instead of the full parameter block
  /// (CostModel::rdma_header_bytes on the wire) and the adapter lands the
  /// payload straight into the registered target region — assembly charges
  /// rdma_pkt_rx per packet and no copy. Chosen by ProtocolSelector; rides
  /// the same ReliableChannel (acks/credits/NACKs unchanged).
  bool zero_copy = false;
  /// Origin user-buffer base of the transfer, for registration-cache keying
  /// (the origin pins the region it sends from) and, for a contiguous Put or
  /// Get reply, the region SendEngine sends total_len bytes from. Null when
  /// the payload has no stable user-region identity (AM chunks, internal
  /// copies).
  const std::byte* org_addr = nullptr;

  // kAmHdr: which handler, and the user header bytes (counted on the wire).
  AmHandlerId handler_id = -1;
  std::vector<std::byte> uhdr;

  // kGetReq: pull total_len bytes from src_addr into dst_addr at the origin.
  const std::byte* src_addr = nullptr;
  std::byte* dst_addr = nullptr;
  /// Set on the data message a target emits to serve a Get: the origin uses
  /// it to retire the outstanding-get bookkeeping its fence relies on.
  bool get_reply = false;

  // kRmwReq / kRmwResp.
  RmwOp rmw_op = RmwOp::kSwap;
  std::int64_t* rmw_var = nullptr;
  std::int64_t rmw_in1 = 0;
  std::int64_t rmw_in2 = 0;       // kCompareAndSwap swap value
  std::int64_t rmw_prev = 0;      // kRmwResp payload
  std::int64_t* rmw_prev_out = nullptr;

  // kAck / kNack / kCredit / kCancel.
  std::int64_t acked_msg = 0;
  bool ack_data = false;  // all bytes landed in the target buffer
  bool ack_done = false;  // completion handler finished
  /// Cumulative count of distinct wire packets of acked_msg the target has
  /// ingested so far, carried on kAck (piggybacked) and kCredit (standalone)
  /// packets. Cumulative so duplicates are idempotent and a lost update is
  /// healed by the next one; the origin releases credit leases against it.
  std::int64_t ack_pkts = 0;

  // Counters at the message's origin, echoed back by acks. Raw pointers are
  // valid across "address spaces" because the simulation shares one process
  // image — the same reason the real LAPI can ship function addresses.
  Counter* org_cntr = nullptr;
  Counter* cmpl_cntr = nullptr;
  // Counter at the target (Put/Amsend) or at the serving side for Get.
  Counter* tgt_cntr = nullptr;
};

}  // namespace splap::lapi
