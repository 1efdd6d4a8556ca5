// ga_app: the Section 5.4 SCF-like kernel of bench/bench_app_speedup.cpp in
// its comm-heavy setting, on 4 tasks. Tasks self-schedule work units through
// Runtime::read_inc, get a density patch, compute, and accumulate into the
// Fock matrix. A round is one kernel execution; each round draws from the
// seed which half of its units use 1-D (column band) and which 2-D (block)
// access. Every segment of the run sets up a LAPI-backed and an MPL-backed
// machine and gives each half of the segment's time.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <string>

#include "common.hpp"
#include "ga/runtime.hpp"

namespace perfbench {
namespace {

using namespace splap;

constexpr int kTasks = 4;
constexpr std::int64_t kN = 192;
constexpr std::int64_t kBlock = 48;
constexpr std::int64_t kNblk = kN / kBlock;
constexpr std::int64_t kUnits = kNblk * kNblk;
// Every task draws one past the last unit, so a round consumes this many
// read_inc values.
constexpr std::int64_t kIncsPerRound = kUnits + kTasks;
// GA calls of one round over all tasks: a get and an acc per unit plus
// every read_inc.
constexpr std::int64_t kRoundOps = 2 * kUnits + kIncsPerRound;
// Virtual compute per fetched element, comm-heavy column of the §5.4 sweep.
constexpr double kWork1dUs = 9.0;
constexpr double kWork2dUs = 0.01;
constexpr int kSegmentRounds = 50;  // timed rounds per machine and segment
constexpr int kRssRounds = 32;      // per machine of the first segment

using Mix = std::array<bool, kUnits>;  // true: the unit uses 1-D access

/// The seeded inputs. Read-only; every node derives what it needs.
class Kernel {
 public:
  explicit Kernel(std::uint64_t seed)
      : seed_(seed), density_(static_cast<std::size_t>(kN * kN)) {
    // Small integers: 0.5 * x and every sum of them are exact doubles, so
    // the Fock reference holds regardless of accumulation order.
    SeedRng vals(substream(seed, 12));
    for (double& d : density_) d = static_cast<double>(vals.range(0, 1023));
  }

  /// The access mix of one round of one segment: exactly half the units
  /// 1-D, at seeded positions, so rounds differ in placement but not in
  /// kind counts.
  Mix mix(int segment, std::int64_t round) const {
    std::vector<char> m(kUnits, 0);
    std::fill(m.begin(), m.begin() + kUnits / 2, 1);
    SeedRng rng(substream(seed_ ^ static_cast<std::uint64_t>(round), 11) +
                static_cast<std::uint64_t>(segment));
    seeded_shuffle(m, rng);
    Mix out{};
    for (std::size_t u = 0; u < out.size(); ++u) out[u] = m[u] != 0;
    return out;
  }

  static ga::Patch patch(const Mix& mix, std::int64_t unit) {
    const std::int64_t bi = unit % kNblk;
    const std::int64_t bj = unit / kNblk;
    if (mix[static_cast<std::size_t>(unit)]) {
      return ga::Patch{0, kN - 1, bj * kBlock + bi, bj * kBlock + bi};
    }
    return ga::Patch{bi * kBlock, (bi + 1) * kBlock - 1, bj * kBlock,
                     (bj + 1) * kBlock - 1};
  }

  static double work_us(const Mix& mix, std::int64_t unit) {
    return mix[static_cast<std::size_t>(unit)] ? kWork1dUs : kWork2dUs;
  }

  /// User payload bytes of one round (8 per read_inc, the patch per get
  /// and per acc).
  static std::int64_t round_bytes(const Mix& mix) {
    std::int64_t b = 8 * kIncsPerRound;
    for (std::int64_t u = 0; u < kUnits; ++u) b += 2 * 8 * patch(mix, u).elems();
    return b;
  }

  double density(std::int64_t i, std::int64_t j) const {
    return density_[static_cast<std::size_t>(j * kN + i)];
  }

 private:
  std::uint64_t seed_;
  std::vector<double> density_;  // kN x kN, column-major
};

struct Names {
  const char* read_inc;
  const char* get;
  const char* acc;
};
constexpr Names kLapiNames{"ga.lapi.read_inc", "ga.lapi.get", "ga.lapi.acc"};
constexpr Names kMplNames{"ga.mpl.read_inc", "ga.mpl.get", "ga.mpl.acc"};

/// One simulated node of one machine. `stats` and `spans` belong to the
/// run and collect this node index's record across segments.
struct NodeState {
  OpStats* stats = nullptr;
  SpanRecorder* spans = nullptr;
  int segment = 0;
  std::vector<double> buf;
  std::int64_t kernel_rounds = 0;
  /// Per element of this node's Fock block: patches that covered it.
  std::vector<double> coverage;
  // Task 0 only: it paces the phase and takes the machine readings.
  double setup_s = 0;
  Phase phase;
  Fingerprint round1;
  Fingerprint final_fp;
  CounterMap round1_delta;
};

using Nodes = std::array<NodeState, kTasks>;

/// The run-long record of one backend: per node index, across segments.
struct Backend {
  Backend(ga::Transport t, const Names& n) : transport(t), names(n) {}
  ga::Transport transport;
  Names names;
  std::array<OpStats, kTasks> stats;
  std::array<SpanRecorder, kTasks> spans;
  std::vector<double> setup_s;
  std::vector<Phase> phases;
  Fingerprint round1;
  Fingerprint final_fp;
  CounterMap round1_delta;
};

class GaRun {
 public:
  explicit GaRun(const Options& o) : o_(o), kernel_(o.seed) {}

  Result run() {
    Result r;
    const int rounds = o_.rounds > 0 ? o_.rounds : kSegmentRounds;
    const SegmentClock clock(o_);
    auto lapi = std::make_unique<Backend>(ga::Transport::kLapi, kLapiNames);
    auto mpl = std::make_unique<Backend>(ga::Transport::kMpl, kMplNames);
    for (int k = 0; clock.more(k); ++k) {
      const bool traced = clock.traced(k);
      for (Backend* b : {lapi.get(), mpl.get()}) {
        machine(*b, k, rounds, k == 0 ? kRssRounds : 0, traced, r);
      }
    }
    for (Backend* b : {lapi.get(), mpl.get()}) {
      for (const OpStats& s : b->stats) r.absorb(s);
    }
    r.fingerprints.emplace_back("ga.lapi.round1", lapi->round1);
    r.fingerprints.emplace_back("ga.lapi.final", lapi->final_fp);
    r.fingerprints.emplace_back("ga.mpl.round1", mpl->round1);
    r.fingerprints.emplace_back("ga.mpl.final", mpl->final_fp);
    CounterMap d = lapi->round1_delta;
    for (const auto& [name, v] : mpl->round1_delta) d[name] += v;
    // A round's GA calls are spread over all tasks but fixed per seed, so
    // the round's ops and bytes come from the schedule. Round 1 follows the
    // warm-up round 0.
    add_round_counts(r, d, 2 * kRoundOps, 2 * Kernel::round_bytes(kernel_.mix(0, 1)));
    std::vector<std::vector<const OpStats*>> stats;
    std::vector<const SpanRecorder*> spans;
    std::vector<Phase> phases;
    for (Backend* b : {lapi.get(), mpl.get()}) {
      stats.emplace_back();
      for (std::size_t i = 0; i < kTasks; ++i) {
        stats.back().push_back(&b->stats[i]);
        spans.push_back(&b->spans[i]);
      }
      phases.push_back(merge_phases(b->phases));
    }
    if (!o_.trace) {
      std::vector<double> setup_s;
      for (std::size_t i = 0; i < lapi->setup_s.size(); ++i) {
        setup_s.push_back(lapi->setup_s[i] + mpl->setup_s[i]);
      }
      add_end_to_end(r, stats, phases, setup_s);
      return r;
    }
    add_proc_layer(r, phases);
    add_span_layer(r, spans,
                   {kLapiNames.read_inc, kLapiNames.get, kLapiNames.acc,
                    kMplNames.read_inc, kMplNames.get, kMplNames.acc});
    if (!o_.trace_out.empty() && !write_spans(o_.trace_out, spans)) {
      r.errors.push_back("cannot write " + o_.trace_out);
    }
    return r;
  }

 private:
  /// Build one machine of backend `b`, set up GA on it and run a segment of
  /// `rounds` timed rounds.
  void machine(Backend& b, int segment, int rounds, int rss_rounds,
               bool traced, Result& r) {
    auto nodes = std::make_unique<Nodes>();
    for (std::size_t i = 0; i < kTasks; ++i) {
      NodeState& n = (*nodes)[i];
      n.segment = segment;
      n.stats = &b.stats[i];
      n.spans = &b.spans[i];
      n.buf.assign(static_cast<std::size_t>(kN * kBlock), 0.0);
    }
    release_free_memory();
    const std::int64_t t0 = wall_ns();
    net::Machine::Config mc;
    mc.tasks = kTasks;
    net::Machine m(mc);
    const Status st = m.run_spmd([&](net::Node& n) {
      body(n, (*nodes)[static_cast<std::size_t>(n.id())], b, rounds,
           rss_rounds, traced, t0);
    });
    if (st != Status::kOk) {
      r.failed += 1;
      r.errors.push_back("run_spmd: " + std::string(to_string(st)));
    }
    NodeState& n0 = (*nodes)[0];
    b.setup_s.push_back(n0.setup_s);
    b.phases.push_back(n0.phase);
    if (segment == 0) {
      b.round1 = n0.round1;
      b.round1_delta = n0.round1_delta;
    }
    b.final_fp = n0.final_fp;
  }

  void body(net::Node& n, NodeState& me, const Backend& b, int rounds,
            int rss_rounds, bool traced, std::int64_t t0) {
    ga::Config cfg;
    cfg.transport = b.transport;
    ga::Runtime rt(n, cfg);
    ga::GlobalArray density = rt.create(kN, kN);
    ga::GlobalArray fock = rt.create(kN, kN);
    // Owner-computes initialisation of the density matrix.
    const ga::Patch mine = density.my_block();
    me.coverage.assign(static_cast<std::size_t>(mine.elems()), 0.0);
    double* local = density.access();
    for (std::int64_t j = mine.lo2; j <= mine.hi2; ++j) {
      for (std::int64_t i = mine.lo1; i <= mine.hi1; ++i) {
        local[(j - mine.lo2) * mine.rows() + (i - mine.lo1)] = kernel_.density(i, j);
      }
    }
    rt.sync();
    // Warm-up: one untimed kernel round.
    round(n, rt, density, fock, me, b.names, false);
    if (n.id() == 0) me.setup_s = static_cast<double>(wall_ns() - t0) * 1e-9;
    me.spans->enable(traced);
    timed_rounds(n, rt, density, fock, me, b.names, rounds, rss_rounds, traced);
    me.spans->enable(false);
    check_fock(fock, me);
    rt.destroy(fock);
    rt.destroy(density);
    if (rt.comm_status() != Status::kOk) {
      me.stats->fail("comm_status: " + std::string(to_string(rt.comm_status())));
    }
  }

  /// Every task runs the same fixed number of rounds; task 0 times them and
  /// takes the machine readings.
  void timed_rounds(net::Node& n, ga::Runtime& rt, ga::GlobalArray& density,
                    ga::GlobalArray& fock, NodeState& me, const Names& names,
                    int rounds, int rss_rounds, bool traced) {
    std::unique_ptr<Pacer> pacer;
    if (n.id() == 0) pacer = std::make_unique<Pacer>(kRoundOps, rounds, rss_rounds, traced);
    net::Machine& m = n.machine();
    for (int k = 0; k < rounds; ++k) {
      const CounterMap c0 = pacer && k == 0 ? read_counters(m) : CounterMap{};
      if (pacer) pacer->begin_round();
      round(n, rt, density, fock, me, names, true);
      if (pacer) pacer->end_round();
      if (k != 0) continue;
      if (pacer) {
        me.round1 = Fingerprint::take(m);
        me.round1_delta = counter_delta(c0, read_counters(m));
      }
      // While task 0 reads the fingerprint the other tasks run on; one more
      // sync makes what they run the same whatever follows round 1, so the
      // fingerprint does not depend on the segment's length.
      rt.sync();
    }
    if (pacer) {
      me.phase = pacer->phase();
      me.final_fp = Fingerprint::take(m);
    }
  }

  void round(net::Node& n, ga::Runtime& rt, ga::GlobalArray& density,
             ga::GlobalArray& fock, NodeState& me, const Names& names,
             bool timed) {
    const Mix mix = kernel_.mix(me.segment, me.kernel_rounds);
    note_coverage(fock.my_block(), mix, me);
    const std::int64_t base = me.kernel_rounds * kIncsPerRound;
    for (;;) {
      std::int64_t ticket = 0;
      call(me, names.read_inc, 8, timed, [&] { ticket = rt.read_inc(0, 1); });
      const std::int64_t unit = ticket - base;
      if (unit < 0 || unit >= kUnits) {
        if (unit < 0 || unit >= kIncsPerRound) me.stats->fail("read_inc out of sequence");
        break;
      }
      const ga::Patch p = Kernel::patch(mix, unit);
      const std::int64_t bytes = 8 * p.elems();
      call(me, names.get, bytes, timed,
           [&] { density.get(p, me.buf.data(), p.rows()); });
      if (!patch_matches(p, me.buf)) me.stats->fail("get returned wrong values");
      n.task().compute(static_cast<Time>(Kernel::work_us(mix, unit) * 1e3 *
                                         static_cast<double>(p.elems())));
      call(me, names.acc, bytes, timed,
           [&] { fock.acc(p, me.buf.data(), p.rows(), 0.5); });
    }
    const int s = me.spans->begin("ga.sync", -1, -1);
    rt.sync();
    me.spans->end(s);
    ++me.kernel_rounds;
  }

  template <class F>
  void call(NodeState& me, const char* name, std::int64_t bytes, bool timed,
            F&& fn) {
    OpStats& st = *me.stats;
    ++st.attempted;
    const int s = me.spans->begin(name, -1, st.attempted);
    const std::int64_t t = wall_ns();
    fn();
    const std::int64_t done = wall_ns();
    me.spans->end(s);
    if (!timed) return;
    ++st.timed_ops;
    st.timed_bytes += bytes;
    st.lat_us.push_back(static_cast<double>(done - t) * 1e-3);
  }

  bool patch_matches(const ga::Patch& p, const std::vector<double>& buf) const {
    const std::int64_t ld = p.rows();
    for (std::int64_t j = p.lo2; j <= p.hi2; ++j) {
      for (std::int64_t i = p.lo1; i <= p.hi1; ++i) {
        if (buf[static_cast<std::size_t>((j - p.lo2) * ld + (i - p.lo1))] !=
            kernel_.density(i, j)) {
          return false;
        }
      }
    }
    return true;
  }

  /// Count, for this node's own block, the patches of one round's mix.
  static void note_coverage(const ga::Patch& mine, const Mix& mix, NodeState& me) {
    for (std::int64_t u = 0; u < kUnits; ++u) {
      const ga::Patch p = Kernel::patch(mix, u).intersect(mine);
      for (std::int64_t j = p.lo2; j <= p.hi2; ++j) {
        for (std::int64_t i = p.lo1; i <= p.hi1; ++i) {
          me.coverage[static_cast<std::size_t>((j - mine.lo2) * mine.rows() +
                                               (i - mine.lo1))] += 1.0;
        }
      }
    }
  }

  /// Each owner checks its own Fock block: every patch covering an element
  /// added 0.5 * density to it once.
  void check_fock(ga::GlobalArray& fock, NodeState& me) const {
    const ga::Patch mine = fock.my_block();
    const double* local = fock.access();
    std::int64_t bad = 0;
    for (std::int64_t j = mine.lo2; j <= mine.hi2; ++j) {
      for (std::int64_t i = mine.lo1; i <= mine.hi1; ++i) {
        const auto k = static_cast<std::size_t>((j - mine.lo2) * mine.rows() +
                                                (i - mine.lo1));
        if (local[k] != 0.5 * me.coverage[k] * kernel_.density(i, j)) ++bad;
      }
    }
    if (bad != 0) {
      me.stats->fail("Fock block differs from the reference in " +
                     std::to_string(bad) + " elements");
    }
  }

  const Options& o_;
  const Kernel kernel_;
};

}  // namespace

Result run_ga_app(const Options& o) { return GaRun(o).run(); }

}  // namespace perfbench
