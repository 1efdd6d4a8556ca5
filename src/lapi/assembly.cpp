#include "lapi/assembly.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "base/checksum.hpp"
#include "base/log.hpp"
#include "base/strided.hpp"

namespace splap::lapi {

void AssemblyEngine::send_ack(int target, std::int64_t msg_id, bool data,
                              bool done, Counter* org_cntr, Counter* cmpl_cntr,
                              std::int64_t pkts, std::int64_t origin_epoch,
                              Time when) {
  when += progress_.cost().lapi_ack_delay;  // delayed-ack coalescing timer
  auto m = std::make_shared<WireMeta>();
  m->kind = PktKind::kAck;
  m->epoch = epoch_;
  m->dst_epoch = origin_epoch;
  m->acked_msg = msg_id;
  m->ack_data = data;
  m->ack_done = done;
  m->ack_pkts = pkts;  // piggybacked credit grant (cumulative)
  m->org_cntr = org_cntr;
  m->cmpl_cntr = cmpl_cntr;
  net::Packet p = wire_.make_packet();
  p.src = task_id_;
  p.dst = target;
  p.client = net::Client::kLapi;
  p.header_bytes = progress_.cost().lapi_header_bytes + kAckDescBytes;
  p.meta = std::move(m);
  SPLAP_DEBUG(progress_.engine().now(),
              "lapi task %d: ack msg %lld to %d data=%d done=%d at %.3f",
              task_id_, static_cast<long long>(msg_id), target, data, done,
              to_us(when));
  if (when <= progress_.engine().now()) {
    wire_.transmit(std::move(p));
  } else {
    progress_.defer(when,
                    [this, sp = std::make_shared<net::Packet>(std::move(p))] {
                      wire_.transmit(std::move(*sp));
                    });
  }
}

void AssemblyEngine::send_nack(int origin, std::int64_t msg_id,
                               std::int64_t origin_epoch) {
  // One NACK per message until forward progress: a full adapter dropping a
  // six-packet burst must trigger one recovery, not six. The suppression
  // clears when a packet of the message is accepted (or it is reclaimed).
  if (!nacked_.insert({origin, msg_id}).second) return;
  progress_.engine().counters().bump("lapi.nack_sent");
  auto m = std::make_shared<WireMeta>();
  m->kind = PktKind::kNack;
  m->epoch = epoch_;
  m->dst_epoch = origin_epoch;
  m->acked_msg = msg_id;
  net::Packet p = wire_.make_packet();
  p.src = task_id_;
  p.dst = origin;
  p.client = net::Client::kLapi;
  p.header_bytes = progress_.cost().lapi_header_bytes + kNackDescBytes;
  p.meta = std::move(m);
  // Emitted by the adapter itself at the drop instant (exception-interrupt
  // path): no dispatcher charge, no delayed-ack coalescing — speed is the
  // whole point of the NACK.
  wire_.transmit(std::move(p));
}

void AssemblyEngine::on_overflow(const net::Packet& pkt) {
  const WireMeta& m = pkt.meta_as<WireMeta>();
  switch (m.kind) {
    case PktKind::kPutHdr:
    case PktKind::kAmHdr:
    case PktKind::kData:
    case PktKind::kGetReq:
    case PktKind::kRmwReq:
      send_nack(pkt.src, m.msg_id, m.epoch);
      break;
    default:
      // Lost acks/credits/nacks/cancels heal by other means (probe
      // retransmissions, cumulative grants, the TTL sweep).
      break;
  }
}

void AssemblyEngine::maybe_emit_credit(int origin, std::int64_t msg_id,
                                       Assembly& as,
                                       std::int64_t origin_epoch) {
  if (config_.credit_update_interval <= 0 || as.completed) return;
  if (as.pkts_ingested - as.last_credit_sent < config_.credit_update_interval) {
    return;
  }
  as.last_credit_sent = as.pkts_ingested;
  progress_.engine().counters().bump("lapi.credit_updates");
  auto m = std::make_shared<WireMeta>();
  m->kind = PktKind::kCredit;
  m->epoch = epoch_;
  m->dst_epoch = origin_epoch;
  m->acked_msg = msg_id;
  m->ack_pkts = as.pkts_ingested;
  net::Packet p = wire_.make_packet();
  p.src = task_id_;
  p.dst = origin;
  p.client = net::Client::kLapi;
  p.header_bytes = progress_.cost().lapi_header_bytes + kCreditDescBytes;
  p.meta = std::move(m);
  wire_.transmit(std::move(p));
}

bool AssemblyEngine::admit_partial(Time now) {
  if (config_.partial_ttl > 0) gc_partials(now);
  return config_.max_partials <= 0 ||
         live_partials_ < static_cast<std::size_t>(config_.max_partials);
}

AssemblyEngine::AssemblyMap::iterator AssemblyEngine::reclaim_partial(
    AssemblyMap::iterator it) {
  progress_.engine().counters().bump("lapi.partials_reclaimed");
  nacked_.erase(it->first);
  --live_partials_;
  return assemblies_.erase(it);
}

void AssemblyEngine::gc_partials(Time now) {
  for (auto it = assemblies_.begin(); it != assemblies_.end();) {
    const Assembly& as = it->second;
    if (!as.completed && now - as.last_update > config_.partial_ttl) {
      SPLAP_DEBUG(now, "lapi task %d: TTL-reclaiming stale partial from %d",
                  task_id_, it->first.first);
      it = reclaim_partial(it);
    } else {
      ++it;
    }
  }
}

Time AssemblyEngine::process(net::Packet& pkt) {
  const CostModel& cm = progress_.cost();
  const WireMeta& m = pkt.meta_as<WireMeta>();
  const Time now = progress_.engine().now();

  // End-to-end integrity check (armed with corruption injection): a payload
  // whose CRC mismatches is discarded here, exactly as if the fabric had
  // dropped it — the origin's retransmission recovers it, and corrupted
  // bytes never reach user buffers or the assembly dedup state.
  if (checksums_ && m.data_crc != 0 && !pkt.data.empty() &&
      crc32_nz(pkt.data.data(), pkt.data.size()) != m.data_crc) {
    progress_.engine().counters().bump("lapi.corrupt_drops");
    SPLAP_DEBUG(now, "lapi task %d: CRC mismatch on msg %lld from %d, dropped",
                task_id_, static_cast<long long>(m.msg_id), pkt.src);
    return cm.lapi_pkt_rx;
  }

  // The origin's low-water mark: everything below it is settled there, so
  // the dedup state below it goes (the packet's own id is never below it).
  if (m.low_water > 0) advance_mark(pkt.src, m.low_water);

  // Copies incoming fragment bytes into the assembly buffer; returns the
  // copy charge. Duplicate fragments (retransmits) are ignored.
  auto ingest = [&](Assembly& as, std::int64_t offset,
                    std::span<const std::byte> bytes) -> Time {
    const auto len = static_cast<std::int64_t>(bytes.size());
    if (len == 0) return 0;
    // Bounds-validate the header fields before any dedup/credit state
    // mutates: a mangled offset must not scribble past the landing buffer,
    // and must not be remembered as ingested (the origin's retransmit of
    // the true fragment would then dedup against garbage). Dropped packets
    // recover through the normal retransmission path.
    if (offset < 0 || offset + len < offset || offset + len > as.total)
        [[unlikely]] {
      progress_.engine().counters().bump("lapi.malformed_drop");
      SPLAP_DEBUG(now,
                  "lapi task %d: malformed fragment from %d "
                  "(offset=%lld len=%lld total=%lld), dropped",
                  task_id_, pkt.src, static_cast<long long>(offset),
                  static_cast<long long>(len),
                  static_cast<long long>(as.total));
      return 0;
    }
    if (as.seen.empty() || offset > as.seen.back()) {
      as.seen.push_back(offset);
    } else {
      const auto at = std::lower_bound(as.seen.begin(), as.seen.end(), offset);
      if (at != as.seen.end() && *at == offset) return 0;
      as.seen.insert(at, offset);
    }
    ++as.pkts_ingested;  // one distinct wire packet landed (credit grant)
    SPLAP_REQUIRE(as.buffer != nullptr, "assembly without a buffer");
    if (as.hdr != nullptr && as.hdr->strided &&
        as.kind == PktKind::kPutHdr) {
      // Putv: the packed wire stream scatters straight into the strided
      // destination region (the future-work zero-intermediate-copy path).
      const WireMeta& h = *as.hdr;
      std::int64_t off = offset;
      const std::byte* s = bytes.data();
      std::int64_t left = len;
      while (left > 0) {
        const std::int64_t col = off / h.s_row_bytes;
        const std::int64_t in_col = off % h.s_row_bytes;
        const std::int64_t chunk = std::min(left, h.s_row_bytes - in_col);
        std::memcpy(as.buffer + col * h.s_ld + in_col, s,
                    static_cast<std::size_t>(chunk));
        off += chunk;
        s += chunk;
        left -= chunk;
      }
    } else {
      std::memcpy(as.buffer + offset, bytes.data(),
                  static_cast<std::size_t>(len));
    }
    as.received += len;
    // Scatter-direct (zero-copy protocol): the adapter landed the payload
    // straight into the registered target region, so the dispatcher never
    // copies it out of the adapter buffers — no copy charge on this end.
    if (as.hdr != nullptr && as.hdr->zero_copy) return 0;
    return cm.copy_time(len);
  };

  switch (m.kind) {
    case PktKind::kPutHdr:
    case PktKind::kAmHdr: {
      if (m.total_len < 0) [[unlikely]] {
        // A negative message length is a mangled header, not a real
        // transfer: admitting it would open a partial that can never
        // complete (received counts up from zero, total is negative).
        progress_.engine().counters().bump("lapi.malformed_drop");
        return cm.lapi_pkt_rx;
      }
      const auto key = std::pair<int, std::int64_t>{pkt.src, m.msg_id};
      auto at = assemblies_.find(key);
      if (at == assemblies_.end()) {
        if (below_mark(pkt.src, m.msg_id)) return reack_settled(pkt, now);
        if (!admit_partial(now)) {
          // Partial table full: shed the whole message (graceful
          // degradation, not abort) and tell the origin to retry soon.
          progress_.engine().counters().bump("lapi.partials_shed");
          send_nack(pkt.src, m.msg_id, m.epoch);
          return cm.lapi_pkt_rx;
        }
        at = assemblies_.emplace(key, Assembly{}).first;
        ++live_partials_;
      }
      Assembly& as = at->second;
      if (as.completed) {
        // Retransmitted header of a finished message: re-ack, do not
        // re-deliver (the user may already have reused the buffer).
        const bool done_ok = !as.completion || as.completion_ran;
        send_ack(pkt.src, m.msg_id, true,
                 done_ok && as.hdr->cmpl_cntr != nullptr, as.hdr->org_cntr,
                 as.hdr->cmpl_cntr, as.pkts_ingested, m.epoch,
                 now + cm.lapi_ack);
        return cm.lapi_ack;
      }
      as.last_update = now;
      if (as.has_header) return cm.lapi_pkt_rx;  // duplicate, still assembling
      nacked_.erase(key);  // fresh progress: re-arm NACK for this message
      as.has_header = true;
      if (pkt.data.empty()) ++as.pkts_ingested;  // payload-less header packet
      as.kind = m.kind;
      as.total = m.total_len;
      as.hdr = std::static_pointer_cast<const WireMeta>(pkt.meta);
      if (m.zero_copy) {
        progress_.engine().counters().bump("lapi.scatter_direct");
      }
      Time c = progress_.pipelined() ? cm.lapi_dispatch_pipelined
                                     : cm.lapi_dispatch;
      if (m.kind == PktKind::kAmHdr) {
        // The header handler executes after the demultiplex work; anything
        // it sends queues behind that charge on the dispatcher timeline.
        progress_.set_busy_until(std::max(progress_.busy_until(), now + c));
        AmDelivery d{pkt.src, std::span<const std::byte>(m.uhdr), m.total_len};
        AmReply r = env_.run_handler(m.handler_id, d);
        SPLAP_REQUIRE(r.buffer != nullptr || m.total_len == 0,
                      "header handler returned no buffer for a data message");
        as.buffer = r.buffer;
        as.completion = std::move(r.completion);
        c += r.header_cost + cm.lapi_deliver;
      } else {
        as.buffer = m.tgt_addr;
        c += cm.lapi_deliver;
      }
      c += ingest(as, 0, pkt.data);
      for (auto& staged : as.staged) {
        const WireMeta& sm = staged.meta_as<WireMeta>();
        c += ingest(as, sm.offset, staged.data);
      }
      as.staged.clear();
      if (as.received == as.total) {
        as.completed = true;
        --live_partials_;
        progress_.defer(now + c, [this, key] {
          finish_assembly(key.first, key.second);
        });
      } else {
        maybe_emit_credit(pkt.src, m.msg_id, as, m.epoch);
      }
      return c;
    }

    case PktKind::kData: {
      const auto key = std::pair<int, std::int64_t>{pkt.src, m.msg_id};
      auto at = assemblies_.find(key);
      if (at == assemblies_.end()) {
        if (below_mark(pkt.src, m.msg_id)) return reack_settled(pkt, now);
        if (!admit_partial(now)) {
          progress_.engine().counters().bump("lapi.partials_shed");
          send_nack(pkt.src, m.msg_id, m.epoch);
          return cm.lapi_pkt_rx;
        }
        at = assemblies_.emplace(key, Assembly{}).first;
        ++live_partials_;
      }
      Assembly& as = at->second;
      if (as.completed) {
        const bool done_ok = !as.completion || as.completion_ran;
        send_ack(pkt.src, m.msg_id, true,
                 done_ok && as.hdr && as.hdr->cmpl_cntr != nullptr,
                 as.hdr ? as.hdr->org_cntr : nullptr,
                 as.hdr ? as.hdr->cmpl_cntr : nullptr, as.pkts_ingested,
                 m.epoch, now + cm.lapi_ack);
        return cm.lapi_ack;
      }
      as.last_update = now;
      if (!as.has_header) {
        // Out-of-order: data beat the header packet. Stage until the header
        // handler supplies the landing buffer (Section 2.1). Staged packets
        // do not count toward pkts_ingested until they actually land — the
        // grant must never exceed what ingest has deduplicated.
        progress_.engine().counters().bump("lapi.staged");
        as.staged.push_back(std::move(pkt));
        return m.zero_copy ? cm.rdma_pkt_rx : cm.lapi_pkt_rx;
      }
      const std::int64_t before = as.pkts_ingested;
      // Zero-copy fragments retire a steering descriptor instead of paying
      // the dispatcher's per-packet receive path.
      Time c = (m.zero_copy ? cm.rdma_pkt_rx : cm.lapi_pkt_rx) +
               ingest(as, m.offset, pkt.data);
      if (as.pkts_ingested > before) {
        nacked_.erase(key);  // fresh progress: re-arm NACK for this message
      }
      if (as.received == as.total) {
        as.completed = true;
        --live_partials_;
        progress_.defer(now + c, [this, key] {
          finish_assembly(key.first, key.second);
        });
      } else {
        maybe_emit_credit(pkt.src, m.msg_id, as, m.epoch);
      }
      return c;
    }

    case PktKind::kGetReq: {
      const auto key = std::pair<int, std::int64_t>{pkt.src, m.msg_id};
      auto at = assemblies_.find(key);
      if (at == assemblies_.end()) {
        if (below_mark(pkt.src, m.msg_id)) return reack_settled(pkt, now);
        at = assemblies_.emplace(key, Assembly{}).first;
      }
      Assembly& as = at->second;
      if (as.completed) {
        send_ack(pkt.src, m.msg_id, true, false, nullptr, nullptr,
                 as.pkts_ingested, m.epoch, now + cm.lapi_ack);
        return cm.lapi_ack;
      }
      nacked_.erase(key);
      as.completed = true;  // instant: a request, never a partial
      as.completion_ran = true;  // the serve below holds its own header
      as.has_header = true;
      as.pkts_ingested = 1;
      as.hdr = std::static_pointer_cast<const WireMeta>(pkt.meta);
      const Time c = cm.lapi_dispatch + cm.lapi_deliver;
      progress_.defer(
          now + c, [this, origin = pkt.src, meta = as.hdr] {
            // Ack the request (the origin's retransmit timer covers it).
            send_ack(origin, meta->msg_id, true, false, nullptr, nullptr,
                     /*pkts=*/1, meta->epoch, progress_.engine().now());
            // Serve: the reply is an internal Put back to the origin whose
            // counter roles realize the Get semantics (Figure 1): the
            // reply's target counter is the get's org_cntr, the reply's
            // origin counter is the get's tgt_cntr.
            auto hdr = std::make_shared<WireMeta>();
            hdr->tgt_addr = meta->dst_addr;
            hdr->total_len = meta->total_len;
            hdr->tgt_cntr = meta->org_cntr;
            hdr->org_cntr = meta->tgt_cntr;
            hdr->get_reply = true;
            hdr->org_addr = meta->src_addr;  // registration key of the source
            std::shared_ptr<std::vector<std::byte>> data;
            if (meta->strided) {
              // Getv: ship the source with the origin's strided landing
              // descriptor.
              hdr->strided = true;
              hdr->s_row_bytes = meta->s_row_bytes;
              hdr->s_cols = meta->s_cols;
              hdr->s_ld = meta->s_ld;
              data = std::make_shared<std::vector<std::byte>>(
                  static_cast<std::size_t>(meta->total_len));
              StridedRegion src;
              src.base = const_cast<std::byte*>(meta->src_addr);
              src.row_bytes = meta->g_row_bytes;
              src.cols = meta->g_cols;
              src.ld_bytes = meta->g_ld;
              copy_strided_to_contig(src, data->data());
              // Gather-direct: when every gather run lines up exactly with
              // the reply's per-packet payload, or the source region is one
              // contiguous run, the adapter's scatter/gather engine streams
              // the runs straight from the source region — the packed
              // staging buffer (and its copy charge) disappears. Zero-copy
              // replies stream from the registered region unconditionally.
              const CostModel& scm = progress_.cost();
              const bool run_aligned =
                  meta->g_row_bytes == meta->g_ld ||
                  meta->g_row_bytes == scm.lapi_payload();
              const bool rdma_reply =
                  config_.rdma_enabled &&
                  meta->total_len >= config_.rdma_threshold;
              if (run_aligned || rdma_reply) {
                progress_.engine().counters().bump("lapi.gather_direct");
              } else {
                progress_.engine().counters().bump("lapi.gather_staged");
                progress_.charge(scm.copy_time(meta->total_len));
              }
            }
            // A contiguous reply carries no payload: the send engine bcopies
            // an eager one and streams a larger one from src_addr, which
            // stays pinned until the reply's data ack (the Get's tgt_cntr).
            const Status st =
                env_.send_get_reply(origin, std::move(hdr), std::move(data));
            SPLAP_REQUIRE(st == Status::kOk, "get reply send failed");
          });
      return c;
    }

    case PktKind::kRmwReq: {
      const auto key = std::pair<int, std::int64_t>{pkt.src, m.msg_id};
      nacked_.erase(key);
      const Time c = cm.lapi_dispatch;
      progress_.defer(
          now + c, [this, key,
                    meta = std::static_pointer_cast<const WireMeta>(pkt.meta),
                    origin = pkt.src] {
            std::int64_t prev = 0;
            auto it = rmw_cache_.find(key);
            if (it != rmw_cache_.end()) {
              prev = it->second;  // duplicate request: do NOT re-execute
            } else if (below_mark(key.first, key.second)) {
              // Settled at the origin and its result forgotten: a stale
              // duplicate. Answer it (the origin ignores the value) and do
              // NOT re-execute.
            } else {
              prev = *meta->rmw_var;
              switch (meta->rmw_op) {
                case RmwOp::kSwap: *meta->rmw_var = meta->rmw_in1; break;
                case RmwOp::kCompareAndSwap:
                  if (*meta->rmw_var == meta->rmw_in1) {
                    *meta->rmw_var = meta->rmw_in2;
                  }
                  break;
                case RmwOp::kFetchAndAdd: *meta->rmw_var += meta->rmw_in1; break;
                case RmwOp::kFetchAndOr: *meta->rmw_var |= meta->rmw_in1; break;
              }
              rmw_cache_[key] = prev;
            }
            auto resp = std::make_shared<WireMeta>();
            resp->kind = PktKind::kRmwResp;
            resp->epoch = epoch_;
            resp->dst_epoch = meta->epoch;
            resp->acked_msg = meta->msg_id;
            resp->rmw_prev = prev;
            resp->rmw_prev_out = meta->rmw_prev_out;
            resp->org_cntr = meta->org_cntr;
            net::Packet p = wire_.make_packet();
            p.src = task_id_;
            p.dst = origin;
            p.client = net::Client::kLapi;
            p.header_bytes =
                progress_.cost().lapi_header_bytes + kRmwRespDescBytes;
            p.meta = std::move(resp);
            wire_.transmit(std::move(p));
          });
      return c;
    }

    case PktKind::kCancel: {
      // The origin abandoned this message (gave up retransmitting): free the
      // incomplete partial now instead of waiting for the TTL sweep.
      const auto key = std::pair<int, std::int64_t>{pkt.src, m.acked_msg};
      auto at = assemblies_.find(key);
      if (at != assemblies_.end() && !at->second.completed) {
        SPLAP_DEBUG(now, "lapi task %d: cancel from %d reclaims partial %lld",
                    task_id_, pkt.src, static_cast<long long>(m.acked_msg));
        reclaim_partial(at);
      }
      nacked_.erase(key);
      return cm.lapi_pkt_rx;
    }

    // Origin-side packets are demultiplexed to the send engine before this
    // layer (keepalive probes too); they never reach the assembly path.
    case PktKind::kRmwResp:
    case PktKind::kAck:
    case PktKind::kNack:
    case PktKind::kCredit:
    case PktKind::kProbe:
    case PktKind::kProbeAck:
      break;
  }
  SPLAP_REQUIRE(false, "unknown packet kind");
  return 0;
}

void AssemblyEngine::finish_assembly(int origin, std::int64_t msg_id) {
  const auto key = std::pair<int, std::int64_t>{origin, msg_id};
  auto it = assemblies_.find(key);
  SPLAP_REQUIRE(it != assemblies_.end(), "finishing unknown assembly");
  Assembly& as = it->second;
  const WireMeta& h = *as.hdr;
  const bool want_done = h.cmpl_cntr != nullptr;

  if (h.get_reply) {
    env_.note_get_reply();
  }

  if (!as.completion) {
    as.completion_ran = true;
    progress_.bump(h.tgt_cntr);
    send_ack(origin, msg_id, /*data=*/true, /*done=*/want_done, h.org_cntr,
             h.cmpl_cntr, as.pkts_ingested, h.epoch,
             progress_.engine().now());
    progress_.notify();
  } else {
    // Data is in place: ack it now (fence semantics, Section 5.3.2), then
    // run the completion handler on a service thread; only after it returns
    // do the target counter and the DONE ack fire (Figure 1, Step 4).
    send_ack(origin, msg_id, /*data=*/true, /*done=*/false, h.org_cntr,
             h.cmpl_cntr, as.pkts_ingested, h.epoch,
             progress_.engine().now());
    env_.submit_completion([this, key](sim::Actor& svc_actor) {
      auto jt = assemblies_.find(key);
      SPLAP_REQUIRE(jt != assemblies_.end(),
                    "assembly vanished before completion");
      Assembly& a2 = jt->second;
      const WireMeta& h2 = *a2.hdr;
      auto completion = std::move(a2.completion);
      a2.completion = nullptr;
      env_.run_completion(completion, svc_actor);
      a2.completion_ran = true;
      progress_.bump(h2.tgt_cntr);
      if (h2.cmpl_cntr != nullptr) {
        send_ack(key.first, key.second, /*data=*/false, /*done=*/true,
                 h2.org_cntr, h2.cmpl_cntr, a2.pkts_ingested, h2.epoch,
                 progress_.engine().now());
      }
      // The mark passed this message while its completion was pending (the
      // origin settles at the DATA ack when it wants no DONE ack).
      if (below_mark(key.first, key.second)) assemblies_.erase(jt);
      progress_.notify();
    });
  }
  // Shed assembly bulk; keep the completed marker for duplicate suppression.
  as.staged.clear();
  as.staged.shrink_to_fit();
  as.seen.clear();
  as.seen.shrink_to_fit();
}

void AssemblyEngine::forget_origin(int origin) {
  const auto lo = std::pair<int, std::int64_t>{
      origin, std::numeric_limits<std::int64_t>::min()};
  for (auto it = assemblies_.lower_bound(lo);
       it != assemblies_.end() && it->first.first == origin;) {
    Assembly& as = it->second;
    if (as.completed && !as.completion_ran) {
      // finish_assembly or the completion job (queued or running on the
      // service pool) will still touch this record: let it finish. Its msg
      // id stays burned for the new life; a collision there would need the
      // new life to issue that many ops within one completion-pool latency
      // of its first packet, which virtual restart delays make impossible.
      ++it;
      continue;
    }
    if (!as.completed) {
      it = reclaim_partial(it);
    } else {
      nacked_.erase(it->first);
      it = assemblies_.erase(it);
    }
  }
  for (auto it = rmw_cache_.lower_bound(lo);
       it != rmw_cache_.end() && it->first.first == origin;) {
    it = rmw_cache_.erase(it);
  }
  marks_.erase(origin);
}

void AssemblyEngine::advance_mark(int origin, std::int64_t mark) {
  std::int64_t& known = marks_.try_emplace(origin, 0).first->second;
  if (mark <= known) return;
  known = mark;
  const auto lo = std::pair<int, std::int64_t>{
      origin, std::numeric_limits<std::int64_t>::min()};
  const auto hi = std::pair<int, std::int64_t>{origin, mark};
  for (auto it = assemblies_.lower_bound(lo);
       it != assemblies_.end() && it->first < hi;) {
    if (it->second.completed && it->second.completion_ran) {
      it = assemblies_.erase(it);
    } else {
      ++it;  // a partial, or a completion still pending
    }
  }
  rmw_cache_.erase(rmw_cache_.lower_bound(lo), rmw_cache_.lower_bound(hi));
  nacked_.erase(nacked_.lower_bound(lo), nacked_.lower_bound(hi));
}

Time AssemblyEngine::reack_settled(const net::Packet& pkt, Time now) {
  const WireMeta& m = pkt.meta_as<WireMeta>();
  const Time ack = progress_.cost().lapi_ack;
  send_ack(pkt.src, m.msg_id, /*data=*/true, /*done=*/m.cmpl_cntr != nullptr,
           m.org_cntr, m.cmpl_cntr, /*pkts=*/0, m.epoch, now + ack);
  return ack;
}

void AssemblyEngine::reclaim_peer_partials(int origin) {
  const auto lo = std::pair<int, std::int64_t>{
      origin, std::numeric_limits<std::int64_t>::min()};
  for (auto it = assemblies_.lower_bound(lo);
       it != assemblies_.end() && it->first.first == origin;) {
    if (!it->second.completed) {
      it = reclaim_partial(it);
    } else {
      ++it;
    }
  }
}

}  // namespace splap::lapi
