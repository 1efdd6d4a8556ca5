// Shared driver machinery: options, the seeded input generator, wall clocks,
// per-node span recording, process counters, virtual fingerprints, and the
// result record every workload fills in.
//
// Threading contract of the driver: every simulated node owns one NodeState
// (defined per workload) and only that node's actor and callbacks touch it.
// Cross-node reads happen only after Machine::run_spmd has returned, on the
// main thread. No counter or buffer is shared mutably between nodes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/machine.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// >0: timed rounds per segment instead of the workload default.
  int rounds = 0;
  /// >0: run exactly this many segments instead of filling `seconds`
  /// (fingerprint pinning and the pinned/unpinned smoke check use 1).
  int setups = 0;
  /// Where a traced run writes its spans.
  std::string trace_out;
};

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64. The benchmark draws its inputs from its own generator so the
/// op sequence of a seed never changes when the library's RNG does.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t x_;
};

/// An independent stream of the run seed for one purpose (op mix, payload
/// bytes, fault draws, ...).
inline std::uint64_t substream(std::uint64_t seed, std::uint64_t purpose) {
  return SeedRng(seed ^ (purpose * 0xd1b54a32d192ed03ULL)).next();
}

/// Fill `n` bytes at `p` from a seeded stream.
void fill_bytes(std::byte* p, std::size_t n, std::uint64_t seed);

/// Fisher-Yates with the benchmark's own generator (std::shuffle's draw
/// order is library-specific).
template <class T>
void seeded_shuffle(std::vector<T>& v, SeedRng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next() % i)]);
  }
}

struct Span {
  const char* name;  // string literal
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index of the causing span in the same recorder
  std::int64_t op;
};

/// One node's spans, recorded by the driver around its calls into a layer.
/// Kept in memory and written out when the run ends. Past kCap, spans are
/// counted and dropped so tracing cannot grow memory without bound.
class SpanRecorder {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 17;

  void enable(bool on) {
    on_ = on;
    if (on && spans_.capacity() == 0) spans_.reserve(kCap);
  }
  bool on() const { return on_; }

  int begin(const char* name, int parent, std::int64_t op) {
    if (!on_) return -1;
    if (spans_.size() >= kCap) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, wall_ns(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_ns = wall_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t dropped() const { return dropped_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::int64_t dropped_ = 0;
};

/// Process resource counters (getrusage) at one instant.
struct ProcSample {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t vol_cs = 0;
  std::int64_t invol_cs = 0;
  std::int64_t minor_faults = 0;
  static ProcSample now();
  ProcSample operator-(const ProcSample& o) const;
  ProcSample& operator+=(const ProcSample& o);
};
/// Current resident set size and OS thread count (/proc/self/status).
struct HostSample {
  double rss_mb = 0;
  int threads = 0;
  static HostSample now();
};

/// What the simulation did, independent of how fast the host did it. Two
/// runs of one seed must agree on it exactly, on any host.
struct Fingerprint {
  std::int64_t vt_ns = 0;
  std::int64_t events = 0;
  std::int64_t packets = 0;
  std::int64_t retransmits = 0;
  static Fingerprint take(splap::net::Machine& m);
  bool operator==(const Fingerprint&) const = default;
};

/// Hand memory freed by earlier machines back to the OS, so the next
/// machine's RSS checkpoints measure only what it holds.
void release_free_memory();

/// Counter values of one machine at one instant: the engine's named
/// counters plus the event and fabric totals.
using CounterMap = std::map<std::string, std::int64_t>;
CounterMap read_counters(splap::net::Machine& m);
/// b - a, per name (names missing from a count from zero).
CounterMap counter_delta(const CounterMap& a, const CounterMap& b);

/// One node's operation record.
struct OpStats {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t timed_ops = 0;
  std::int64_t timed_bytes = 0;
  std::vector<double> lat_us;  // timed ops only
  std::vector<std::string> errors;
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// The timed phase of one machine, as seen by the node that paced it. A
/// phase is whole rounds of a fixed op count, so per-round times compare
/// like with like and their median shrugs off bursts of host noise.
struct Phase {
  std::int64_t round_ops = 0;
  std::vector<double> round_s;      // wall seconds of each round
  std::vector<double> round_cpu_s;  // process CPU seconds of each round
  std::int64_t ops = 0;
  ProcSample cpu;                   // whole phase
  // Peak over the first rss_rounds rounds: a fixed amount of work, so a
  // faster build that completes more rounds is not charged for them.
  double rss_mb = 0;
  int threads = 0;
  // Trace runs record spans in their odd-numbered segments only.
  std::vector<char> round_traced;
};

/// One machine kind's segments as one phase: rounds pooled, totals summed.
Phase merge_phases(const std::vector<Phase>& segments);

/// Times one segment: a fixed number of rounds on one freshly built
/// machine. Fixed work per machine matters: the library's per-message state
/// grows over a machine's life (on ga_app a round at 40 s costs half again
/// what it does at 5 s), so a segment of fixed duration would charge a
/// faster build for the extra rounds it reaches.
class Pacer {
 public:
  Pacer(std::int64_t round_ops, int rounds, int rss_rounds, bool traced);
  void begin_round();
  /// Record the round; true when the segment's last round is done.
  bool end_round();
  int rounds() const { return static_cast<int>(phase_.round_s.size()); }
  const Phase& phase() const { return phase_; }

 private:
  void sample_host();

  const int rounds_;
  const int rss_rounds_;
  const bool traced_;
  Phase phase_;
  std::int64_t round_start_ = 0;
  ProcSample cpu_start_;
  ProcSample round_cpu_;
};

/// Decides how many segments a run makes: exactly Options::setups when
/// given, else segments until --seconds have passed (at least kMin), with
/// every odd-numbered one traced in a trace run.
class SegmentClock {
 public:
  static constexpr int kMin = 3;
  explicit SegmentClock(const Options& o) : o_(o), start_(wall_ns()) {}
  bool more(int done) const;
  bool traced(int k) const;

 private:
  const Options& o_;
  const std::int64_t start_;
};

struct Metric {
  double value;
  const char* unit;
};

/// Everything a workload run reports. Metrics are keyed by their
/// BENCHMARK.json names; run.py picks the ones a run must print.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, Fingerprint>> fingerprints;
  std::vector<std::pair<std::string, Metric>> metrics;
  std::int64_t spans_dropped = 0;

  void metric(std::string name, double v, const char* unit) {
    metrics.emplace_back(std::move(name), Metric{v, unit});
  }
  void absorb(const OpStats& s);
};

double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// End-to-end metrics of an untraced run from its timed phases and setups.
/// `groups` holds the nodes of each machine kind; latency percentiles are
/// taken per kind and averaged, so a faster kind's larger sample count does
/// not decide which kind the percentile lands in.
void add_end_to_end(Result& r,
                    const std::vector<std::vector<const OpStats*>>& groups,
                    const std::vector<Phase>& phases,
                    const std::vector<double>& setup_s);
/// Per-op count metrics from counter deltas over the pinned first round.
void add_round_counts(Result& r, const CounterMap& d, std::int64_t ops,
                      std::int64_t payload_bytes);
/// proc.* and trace.overhead_pct from a traced run's timed phases.
void add_proc_layer(Result& r, const std::vector<Phase>& phases);
/// span.call_ns_p50/p99 plus the per-name call table, from every node's
/// spans whose name is listed in `calls`.
void add_span_layer(Result& r, const std::vector<const SpanRecorder*>& nodes,
                    const std::vector<const char*>& calls);
/// Write every node's spans to `path` (one JSON object per line).
bool write_spans(const std::string& path,
                 const std::vector<const SpanRecorder*>& nodes);

Result run_lapi_msg(const Options& o);
Result run_lapi_bulk(const Options& o);
Result run_ga_app(const Options& o);
/// The layer probes: sim.event_ns, sim.handoff_ns, net.packet_ns,
/// lapi.pkt_ns. Each drives one layer alone through its public functions.
void run_probes(Result& r);

}  // namespace perfbench
