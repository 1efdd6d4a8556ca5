// lapi_msg and lapi_bulk: two tasks. Task 0 drives a closed loop of LAPI
// operations at task 1; task 1 sits in LAPI_Gfence while its dispatcher
// serves everything (LAPI is one-sided, so the target never calls in).
//
// Every outstanding operation owns one slot: its own completion counter and
// its own disjoint region at the target. A slot is reused only after its
// previous operation completed, so the driver's shadow copy of the target
// region is exact and every get and the final target checksum can be
// checked against it.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "base/checksum.hpp"
#include "common.hpp"
#include "lapi/context.hpp"

namespace perfbench {
namespace {

using namespace splap;

enum class OpKind : std::uint8_t { kPut, kGet, kAm };

struct Spec {
  int window;             // operations kept outstanding
  double put_frac;
  double get_frac;        // the rest are amsend
  std::int64_t min_len;
  std::int64_t max_len;
  bool log_uniform;       // sizes log-uniform, else uniform
  double loss_rate;       // seeded uniform packet loss (FaultConfig)
  std::int64_t pool_bytes;  // seeded source pool payloads are cut from
  int round_ops;          // operations per timed round
  int warmup_ops;         // minimum-size ops before the timed rounds
  int segment_rounds;     // timed rounds per segment (one machine)
  int rss_rounds;         // rounds covered by peak_rss_mb
};

// Single-packet messages: 976 B is one packet's LAPI payload.
constexpr Spec kMsgSpec{8, 0.5, 0.3, 16, 976, false, 0.0, 64 << 10,
                        1024, 256, 20, 16};
// Rendezvous-sized messages (30..2150 packets) over a 0.1% lossy fabric.
constexpr Spec kBulkSpec{2, 0.7, 0.3, 32 << 10, 2 << 20, true, 0.001, 4 << 20,
                         16, 4, 10, 8};

// AM user header: the slot index, so the target handler picks the landing
// region without any shared state.
constexpr std::int64_t kUhdrBytes = 8;

struct Op {
  OpKind kind = OpKind::kPut;
  std::int64_t len = 0;
  std::int64_t src_off = 0;
};

/// The seeded op sequence, drawn one round at a time. A round is stratified:
/// exact kind counts, and one size from each of its equal-probability size
/// strata, both in seeded order. Every round therefore carries the same work
/// up to the jitter inside each stratum, on every seed, so per-round times
/// compare like with like.
class OpStream {
 public:
  OpStream(const Spec& s, std::uint64_t seed, int segment)
      : spec_(s), rng_(substream(seed, 1) + static_cast<std::uint64_t>(segment)) {}

  std::vector<Op> round(int n, bool min_size) {
    std::vector<OpKind> kinds(static_cast<std::size_t>(n), OpKind::kAm);
    const auto puts = static_cast<std::size_t>(std::lround(n * spec_.put_frac));
    const auto gets = static_cast<std::size_t>(std::lround(n * spec_.get_frac));
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (i < puts) {
        kinds[i] = OpKind::kPut;
      } else if (i < puts + gets) {
        kinds[i] = OpKind::kGet;
      }
    }
    std::vector<std::int64_t> lens;
    for (int i = 0; i < n; ++i) {
      lens.push_back(min_size ? spec_.min_len
                              : size_at((i + rng_.unit()) / static_cast<double>(n)));
    }
    seeded_shuffle(kinds, rng_);
    seeded_shuffle(lens, rng_);
    std::vector<Op> ops(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ops[i] = Op{kinds[i], lens[i], rng_.range(0, spec_.pool_bytes - lens[i])};
    }
    return ops;
  }

 private:
  /// Inverse CDF of the size distribution.
  std::int64_t size_at(double u) const {
    const auto lo = static_cast<double>(spec_.min_len);
    const auto hi = static_cast<double>(spec_.max_len);
    const double len = spec_.log_uniform
                           ? std::exp(std::log(lo) + (std::log(hi) - std::log(lo)) * u)
                           : lo + (hi - lo + 1) * u;
    return std::clamp<std::int64_t>(static_cast<std::int64_t>(len), spec_.min_len,
                                    spec_.max_len);
  }

  const Spec& spec_;
  SeedRng rng_;
};

/// One simulated node of one segment's machine. `stats` and `spans` belong
/// to the run and collect this node index's record across segments.
struct NodeState {
  OpStats* stats = nullptr;
  SpanRecorder* spans = nullptr;
  // --- origin role (task 0) ---
  std::vector<std::byte> get_buf;
  std::vector<std::byte> shadow;  // what task 1's region must hold
  std::unique_ptr<lapi::Counter[]> cntr;
  std::vector<Op> inflight;
  std::vector<char> busy;
  std::vector<char> timed;
  std::vector<std::int64_t> op_id;
  std::vector<std::int64_t> issued_at;
  std::vector<int> op_span;
  std::vector<std::uint64_t> uhdr;
  std::int64_t issued_ok = 0;
  std::int64_t am_issued = 0;
  double setup_s = 0;
  Phase phase;
  Fingerprint round1;
  Fingerprint final_fp;
  CounterMap round1_delta;
  std::int64_t round1_bytes = 0;
  // --- target role (task 1) ---
  std::vector<std::byte> region;
  std::vector<std::byte> am_sink;  // landing pad for malformed AM headers
  lapi::Counter tgt;
  std::int64_t tgt_expect = 0;  // written by task 0 with a LAPI put
  std::int64_t tgt_seen = 0;
  std::int64_t am_headers = 0;
  std::int64_t am_completions = 0;
  std::int64_t am_bad = 0;
  std::uint32_t region_crc = 0;
};

class LapiRun {
 public:
  LapiRun(const Spec& spec, const Options& o)
      : spec_(spec), o_(o), slot_bytes_(spec.max_len),
        pool_(static_cast<std::size_t>(spec.pool_bytes)) {
    fill_bytes(pool_.data(), pool_.size(), substream(o.seed, 2));
    stats_[0].lat_us.reserve(std::size_t{1} << 20);
  }

  Result run() {
    Result r;
    const int rounds = o_.rounds > 0 ? o_.rounds : spec_.segment_rounds;
    const SegmentClock clock(o_);
    std::vector<double> setup_s;
    std::vector<Phase> phases;
    for (int k = 0; clock.more(k); ++k) {
      const bool traced = clock.traced(k);
      auto nodes = std::make_unique<std::array<NodeState, 2>>();
      prepare(*nodes);
      release_free_memory();
      const std::int64_t t0 = wall_ns();
      net::Machine::Config mc;
      mc.tasks = 2;
      if (spec_.loss_rate > 0) {
        mc.fabric.fault.loss = net::LossModel::kUniform;
        mc.fabric.fault.loss_rate = spec_.loss_rate;
        mc.fabric.fault.seed = substream(o_.seed, 3) + static_cast<std::uint64_t>(k);
      }
      net::Machine m(mc);
      const int rss_rounds = k == 0 ? spec_.rss_rounds : 0;
      const Status st = m.run_spmd([&](net::Node& n) {
        body(n, (*nodes)[static_cast<std::size_t>(n.id())], k, rounds, rss_rounds,
             traced, t0);
      });
      if (st != Status::kOk) {
        r.failed += 1;
        r.errors.push_back("run_spmd: " + std::string(to_string(st)));
      }
      check(*nodes, r);
      const NodeState& o = (*nodes)[0];
      setup_s.push_back(o.setup_s);
      phases.push_back(o.phase);
      if (k == 0) {
        round1_ = o.round1;
        round1_delta_ = o.round1_delta;
        round1_bytes_ = o.round1_bytes;
      }
      final_fp_ = o.final_fp;
    }
    report(setup_s, phases, r);
    return r;
  }

 private:
  void prepare(std::array<NodeState, 2>& nodes) {
    const auto w = static_cast<std::size_t>(spec_.window);
    const auto bytes = w * static_cast<std::size_t>(slot_bytes_);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i].stats = &stats_[i];
      nodes[i].spans = &spans_[i];
    }
    NodeState& o = nodes[0];
    o.get_buf.assign(bytes, std::byte{0});
    o.shadow.assign(bytes, std::byte{0});
    o.cntr = std::make_unique<lapi::Counter[]>(w);
    o.inflight.assign(w, Op{});
    o.busy.assign(w, 0);
    o.timed.assign(w, 0);
    o.op_id.assign(w, 0);
    o.issued_at.assign(w, 0);
    o.op_span.assign(w, -1);
    o.uhdr.assign(w, 0);
    NodeState& t = nodes[1];
    t.region.assign(bytes, std::byte{0});
    t.am_sink.assign(static_cast<std::size_t>(slot_bytes_), std::byte{0});
  }

  void body(net::Node& n, NodeState& me, int segment, int rounds,
            int rss_rounds, bool traced, std::int64_t t0) {
    lapi::Context ctx(n);
    // Every task registers the same handler table, so ids agree.
    const lapi::AmHandlerId am = ctx.register_handler(
        [this, &me](lapi::Context&, const lapi::AmDelivery& d) {
          return on_am(me, d);
        });
    std::vector<void*> regions(2);
    std::vector<void*> counters(2);
    std::vector<void*> expects(2);
    ctx.address_init(me.region.data(), regions);
    ctx.address_init(&me.tgt, counters);
    ctx.address_init(&me.tgt_expect, expects);
    if (n.id() == 0) {
      drive(ctx, n.machine(), me, am, static_cast<std::byte*>(regions[1]),
            static_cast<lapi::Counter*>(counters[1]), segment, rounds, rss_rounds,
            traced, t0);
      // Tell the target how many target-counter bumps to wait for: a get's
      // bump fires at the target only when its reply is acked, which can be
      // after the origin already holds the data.
      lapi::Counter sent;
      const Status st = ctx.put(
          1, std::as_bytes(std::span(&me.issued_ok, 1)),
          static_cast<std::byte*>(expects[1]), nullptr, nullptr, &sent);
      if (st != Status::kOk || ctx.waitcntr(sent, 1) != Status::kOk) {
        me.stats->fail("sending the op count to the target");
      }
    }
    const Status g = ctx.gfence();
    if (g != Status::kOk) me.stats->fail("gfence: " + std::string(to_string(g)));
    if (n.id() == 1) {
      if (me.tgt_expect > 0 &&
          ctx.waitcntr(me.tgt, me.tgt_expect) != Status::kOk) {
        me.stats->fail("target counter wait failed");
      }
      // Any bump beyond one per op shows up as a leftover count.
      me.tgt_seen = me.tgt_expect + ctx.getcntr(me.tgt);
      me.region_crc = crc32(me.region.data(), me.region.size());
    } else {
      for (int s = 0; s < spec_.window; ++s) {
        if (ctx.getcntr(me.cntr[static_cast<std::size_t>(s)]) != 0) {
          me.stats->fail("slot counter bumped more than once per op");
        }
      }
    }
  }

  // Target side, dispatcher context: must not block.
  lapi::AmReply on_am(NodeState& me, const lapi::AmDelivery& d) {
    ++me.am_headers;
    std::uint64_t slot = ~std::uint64_t{0};
    if (d.uhdr.size() == sizeof slot) std::memcpy(&slot, d.uhdr.data(), sizeof slot);
    lapi::AmReply r;
    if (slot >= static_cast<std::uint64_t>(spec_.window) ||
        d.udata_len > slot_bytes_) {
      ++me.am_bad;
      r.buffer = me.am_sink.data();
      return r;
    }
    r.buffer = me.region.data() + slot * static_cast<std::uint64_t>(slot_bytes_);
    r.completion = [&me](lapi::Context&, sim::Actor&) { ++me.am_completions; };
    return r;
  }

  void drive(lapi::Context& ctx, net::Machine& m, NodeState& me,
             lapi::AmHandlerId am, std::byte* remote, lapi::Counter* tgt,
             int segment, int rounds, int rss_rounds, bool traced,
             std::int64_t t0) {
    Loop lp{ctx, me, am, remote, tgt, OpStream(spec_, o_.seed, segment)};
    run_ops(lp, lp.ops.round(spec_.warmup_ops, true), false);
    me.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;
    me.spans->enable(traced);

    Pacer pacer(spec_.round_ops, rounds, rss_rounds, traced);
    for (bool done = false; !done;) {
      const bool first = pacer.rounds() == 0;
      const CounterMap c0 = first ? read_counters(m) : CounterMap{};
      const std::int64_t bytes0 = me.stats->timed_bytes;
      const std::vector<Op> ops = lp.ops.round(spec_.round_ops, false);
      pacer.begin_round();
      run_ops(lp, ops, true);
      done = pacer.end_round();
      if (first) {
        me.round1 = Fingerprint::take(m);
        me.round1_delta = counter_delta(c0, read_counters(m));
        me.round1_bytes = me.stats->timed_bytes - bytes0;
      }
    }
    me.spans->enable(false);
    me.phase = pacer.phase();
    me.final_fp = Fingerprint::take(m);
  }

  struct Loop {
    lapi::Context& ctx;
    NodeState& me;
    lapi::AmHandlerId am;
    std::byte* remote;
    lapi::Counter* tgt;
    OpStream ops;
    std::int64_t next_id = 0;
  };

  /// Closed loop over `ops`: op i uses slot i % window, so the slot being
  /// reused always holds the oldest outstanding op. Drains at the end.
  void run_ops(Loop& lp, const std::vector<Op>& ops, bool timed) {
    const int w = spec_.window;
    for (const Op& op : ops) {
      const auto slot = static_cast<std::size_t>(lp.next_id % w);
      if (lp.me.busy[slot] != 0) complete(lp, slot);
      issue(lp, slot, op, timed);
    }
    for (int k = 0; k < w; ++k) {
      const auto slot = static_cast<std::size_t>((lp.next_id + k) % w);
      if (lp.me.busy[slot] != 0) complete(lp, slot);
    }
  }

  void issue(Loop& lp, std::size_t slot, const Op& op, bool timed) {
    NodeState& me = lp.me;
    const std::int64_t id = lp.next_id++;
    ++me.stats->attempted;
    me.inflight[slot] = op;
    me.timed[slot] = timed ? 1 : 0;
    me.op_id[slot] = id;
    std::byte* remote = lp.remote + slot * static_cast<std::size_t>(slot_bytes_);
    lapi::Counter* c = &me.cntr[slot];
    const std::byte* src = pool_.data() + op.src_off;
    const int os = me.spans->begin("op", -1, id);
    me.op_span[slot] = os;
    me.issued_at[slot] = wall_ns();
    Status st = Status::kOk;
    switch (op.kind) {
      case OpKind::kPut: {
        const int cs = me.spans->begin("lapi.put_call", os, id);
        st = lp.ctx.put(1, {src, static_cast<std::size_t>(op.len)}, remote,
                        lp.tgt, nullptr, c);
        me.spans->end(cs);
        break;
      }
      case OpKind::kGet: {
        const int cs = me.spans->begin("lapi.get_call", os, id);
        st = lp.ctx.get(1, op.len, remote,
                        me.get_buf.data() + slot * static_cast<std::size_t>(slot_bytes_),
                        lp.tgt, c);
        me.spans->end(cs);
        break;
      }
      case OpKind::kAm: {
        me.uhdr[slot] = slot;
        const int cs = me.spans->begin("lapi.am_call", os, id);
        st = lp.ctx.amsend(
            1, lp.am, std::as_bytes(std::span(&me.uhdr[slot], 1)),
            {src, static_cast<std::size_t>(op.len - kUhdrBytes)}, lp.tgt,
            nullptr, c);
        me.spans->end(cs);
        break;
      }
    }
    if (st != Status::kOk) {
      me.spans->end(os);
      me.stats->fail("issue: " + std::string(to_string(st)));
      return;
    }
    me.busy[slot] = 1;
    ++me.issued_ok;
    if (op.kind == OpKind::kAm) ++me.am_issued;
  }

  void complete(Loop& lp, std::size_t slot) {
    NodeState& me = lp.me;
    const Op& op = me.inflight[slot];
    const int ws = me.spans->begin("lapi.wait", me.op_span[slot], me.op_id[slot]);
    const Status st = lp.ctx.waitcntr(me.cntr[slot], 1);
    const std::int64_t done = wall_ns();
    me.spans->end(ws);
    me.spans->end(me.op_span[slot]);
    me.busy[slot] = 0;
    std::byte* sh = me.shadow.data() + slot * static_cast<std::size_t>(slot_bytes_);
    const std::byte* src = pool_.data() + op.src_off;
    bool ok = st == Status::kOk;
    if (op.kind == OpKind::kGet) {
      ok = ok && std::memcmp(me.get_buf.data() +
                                 slot * static_cast<std::size_t>(slot_bytes_),
                             sh, static_cast<std::size_t>(op.len)) == 0;
    } else if (ok) {
      const std::int64_t landed = op.kind == OpKind::kAm ? op.len - kUhdrBytes : op.len;
      std::memcpy(sh, src, static_cast<std::size_t>(landed));
    }
    if (!ok) {
      me.stats->fail(st != Status::kOk ? "waitcntr: " + std::string(to_string(st))
                                      : std::string("get returned wrong bytes"));
      return;
    }
    if (me.timed[slot] != 0) {
      ++me.stats->timed_ops;
      me.stats->timed_bytes += op.len;
      me.stats->lat_us.push_back(static_cast<double>(done - me.issued_at[slot]) * 1e-3);
    }
  }

  /// Cross-node checks, on the main thread after the machine has drained.
  void check(const std::array<NodeState, 2>& nodes, Result& r) const {
    const NodeState& o = nodes[0];
    const NodeState& t = nodes[1];
    const auto mismatch = [&r](std::int64_t n, const std::string& what) {
      r.failed += std::max<std::int64_t>(n, 1);
      if (r.errors.size() < 16) r.errors.push_back(what);
    };
    if (t.tgt_seen != o.issued_ok) {
      mismatch(std::abs(t.tgt_seen - o.issued_ok),
               "target counter saw " + std::to_string(t.tgt_seen) + " of " +
                   std::to_string(o.issued_ok) + " ops");
    }
    if (t.am_headers != o.am_issued || t.am_completions != o.am_issued) {
      mismatch(std::abs(t.am_completions - o.am_issued),
               "AM handlers ran " + std::to_string(t.am_headers) + "/" +
                   std::to_string(t.am_completions) + " times for " +
                   std::to_string(o.am_issued) + " sends");
    }
    if (t.am_bad != 0) mismatch(t.am_bad, "malformed AM header");
    if (crc32(o.shadow.data(), o.shadow.size()) != t.region_crc) {
      mismatch(1, "target region checksum differs from the driver's reference");
    }
  }

  void report(const std::vector<double>& setup_s,
              const std::vector<Phase>& phases, Result& r) const {
    for (const OpStats& s : stats_) r.absorb(s);
    r.fingerprints.emplace_back("lapi.round1", round1_);
    r.fingerprints.emplace_back("lapi.final", final_fp_);
    add_round_counts(r, round1_delta_, spec_.round_ops, round1_bytes_);
    const Phase all = merge_phases(phases);
    if (!o_.trace) {
      add_end_to_end(r, {{&stats_[0]}}, {all}, setup_s);
      return;
    }
    add_proc_layer(r, {all});
    const std::vector<const SpanRecorder*> spans{&spans_[0], &spans_[1]};
    add_span_layer(r, spans, {"lapi.put_call", "lapi.get_call", "lapi.am_call"});
    if (!o_.trace_out.empty() && !write_spans(o_.trace_out, spans)) {
      r.errors.push_back("cannot write " + o_.trace_out);
    }
  }

  const Spec& spec_;
  const Options& o_;
  const std::int64_t slot_bytes_;
  std::vector<std::byte> pool_;  // read-only after construction
  // Run-long records per node index, filled segment by segment.
  std::array<OpStats, 2> stats_;
  std::array<SpanRecorder, 2> spans_;
  Fingerprint round1_;
  Fingerprint final_fp_;
  CounterMap round1_delta_;
  std::int64_t round1_bytes_ = 0;
};

}  // namespace

Result run_lapi_msg(const Options& o) { return LapiRun(kMsgSpec, o).run(); }
Result run_lapi_bulk(const Options& o) { return LapiRun(kBulkSpec, o).run(); }

}  // namespace perfbench
