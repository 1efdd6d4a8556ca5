#include "common.hpp"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

void fill_bytes(std::byte* p, std::size_t n, std::uint64_t seed) {
  SeedRng rng(seed);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(p + i, &w, 8);
  }
  if (i < n) {
    const std::uint64_t w = rng.next();
    std::memcpy(p + i, &w, n - i);
  }
}

ProcSample ProcSample::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  s.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  s.vol_cs = ru.ru_nvcsw;
  s.invol_cs = ru.ru_nivcsw;
  s.minor_faults = ru.ru_minflt;
  return s;
}

ProcSample ProcSample::operator-(const ProcSample& o) const {
  ProcSample d;
  d.user_s = user_s - o.user_s;
  d.sys_s = sys_s - o.sys_s;
  d.vol_cs = vol_cs - o.vol_cs;
  d.invol_cs = invol_cs - o.invol_cs;
  d.minor_faults = minor_faults - o.minor_faults;
  return d;
}

ProcSample& ProcSample::operator+=(const ProcSample& o) {
  user_s += o.user_s;
  sys_s += o.sys_s;
  vol_cs += o.vol_cs;
  invol_cs += o.invol_cs;
  minor_faults += o.minor_faults;
  return *this;
}

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

HostSample HostSample::now() {
  HostSample s;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      s.rss_mb = std::stod(line.substr(6)) / 1024.0;  // reported in kB
    } else if (line.rfind("Threads:", 0) == 0) {
      s.threads = std::stoi(line.substr(8));
    }
  }
  return s;
}

Pacer::Pacer(std::int64_t round_ops, int rounds, int rss_rounds, bool traced)
    : rounds_(rounds), rss_rounds_(rss_rounds), traced_(traced) {
  phase_.round_ops = round_ops;
  if (rss_rounds_ > 0) sample_host();
  cpu_start_ = ProcSample::now();
}

void Pacer::begin_round() {
  round_cpu_ = ProcSample::now();
  round_start_ = wall_ns();
}

bool Pacer::end_round() {
  const std::int64_t now = wall_ns();
  const ProcSample cpu = ProcSample::now();
  const ProcSample d = cpu - round_cpu_;
  phase_.round_s.push_back(static_cast<double>(now - round_start_) * 1e-9);
  phase_.round_cpu_s.push_back(d.user_s + d.sys_s);
  phase_.round_traced.push_back(traced_ ? 1 : 0);
  const int done = rounds();
  if (done <= rss_rounds_) sample_host();
  if (done < rounds_) return false;
  phase_.ops = done * phase_.round_ops;
  phase_.cpu = cpu - cpu_start_;
  return true;
}

bool SegmentClock::more(int done) const {
  if (o_.setups > 0) return done < o_.setups;
  return done < kMin || wall_ns() - start_ < static_cast<std::int64_t>(o_.seconds * 1e9);
}

bool SegmentClock::traced(int k) const { return o_.trace && k % 2 == 1; }

void Pacer::sample_host() {
  const HostSample h = HostSample::now();
  phase_.rss_mb = std::max(phase_.rss_mb, h.rss_mb);
  phase_.threads = std::max(phase_.threads, h.threads);
}

Phase merge_phases(const std::vector<Phase>& segments) {
  Phase all;
  for (const Phase& p : segments) {
    all.round_ops = p.round_ops;
    all.round_s.insert(all.round_s.end(), p.round_s.begin(), p.round_s.end());
    all.round_cpu_s.insert(all.round_cpu_s.end(), p.round_cpu_s.begin(),
                           p.round_cpu_s.end());
    all.round_traced.insert(all.round_traced.end(), p.round_traced.begin(),
                            p.round_traced.end());
    all.ops += p.ops;
    all.cpu += p.cpu;
    all.rss_mb = std::max(all.rss_mb, p.rss_mb);
    all.threads = std::max(all.threads, p.threads);
  }
  return all;
}

Fingerprint Fingerprint::take(splap::net::Machine& m) {
  Fingerprint f;
  f.vt_ns = m.engine().now();
  f.events = static_cast<std::int64_t>(m.engine().events_executed());
  f.packets = m.fabric().packets_sent();
  f.retransmits = m.engine().counters().get("lapi.retransmits") +
                  m.engine().counters().get("mpl.retransmits");
  return f;
}

CounterMap read_counters(splap::net::Machine& m) {
  CounterMap c;
  for (const auto& [name, v] : m.engine().counters().all()) c[name] = v;
  c["sim.events"] = static_cast<std::int64_t>(m.engine().events_executed());
  c["net.packets"] = m.fabric().packets_sent();
  c["net.bytes_on_wire"] = m.fabric().bytes_on_wire();
  c["net.drops"] = m.fabric().packets_dropped();
  return c;
}

CounterMap counter_delta(const CounterMap& a, const CounterMap& b) {
  CounterMap d;
  for (const auto& [name, v] : b) {
    const auto it = a.find(name);
    d[name] = v - (it == a.end() ? 0 : it->second);
  }
  return d;
}

void Result::absorb(const OpStats& s) {
  attempted += s.attempted;
  failed += s.failed;
  for (const std::string& e : s.errors) {
    if (errors.size() < 16) errors.push_back(e);
  }
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  // Nearest-rank on the sorted samples: p99 of n >= 1000 samples has at
  // least ten samples beyond it.
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void add_end_to_end(Result& r,
                    const std::vector<std::vector<const OpStats*>>& groups,
                    const std::vector<Phase>& phases,
                    const std::vector<double>& setup_s) {
  // Throughput and CPU from median rounds: each phase contributes its
  // round's ops over its median round time.
  double ops = 0;
  double round_s = 0;
  double round_cpu_s = 0;
  double rss = 0;
  for (const Phase& p : phases) {
    ops += static_cast<double>(p.round_ops);
    round_s += median(p.round_s);
    round_cpu_s += median(p.round_cpu_s);
    rss = std::max(rss, p.rss_mb);
  }
  // Latency percentiles per window of kWindow consecutive samples of one
  // node (p99 then has ten samples beyond it), lower quartile over windows;
  // a node with fewer samples forms one window. Host contention only adds
  // latency, and it inflates the tail most (on ga_app, p99 / p50 went from
  // about 9 to about 16 with three busy processes beside it on a 4-core
  // host), so the quieter windows of a run are the ones that measure the
  // program.
  constexpr std::size_t kWindow = 1000;
  constexpr double kOverWindows = 0.25;
  std::int64_t bytes = 0;
  std::int64_t timed_ops = 0;
  std::size_t samples = 0;
  double p50 = 0;
  double p99 = 0;
  for (const std::vector<const OpStats*>& group : groups) {
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (const OpStats* s : group) {
      bytes += s->timed_bytes;
      timed_ops += s->timed_ops;
      samples += s->lat_us.size();
      const std::size_t n = s->lat_us.size();
      for (std::size_t lo = 0; lo < n;) {
        const std::size_t hi = n - lo < 2 * kWindow ? n : lo + kWindow;
        const std::vector<double> w(s->lat_us.begin() + static_cast<std::ptrdiff_t>(lo),
                                    s->lat_us.begin() + static_cast<std::ptrdiff_t>(hi));
        p50s.push_back(percentile(w, 0.50));
        p99s.push_back(percentile(w, 0.99));
        lo = hi;
      }
    }
    p50 += percentile(std::move(p50s), kOverWindows) / static_cast<double>(groups.size());
    p99 += percentile(std::move(p99s), kOverWindows) / static_cast<double>(groups.size());
  }
  const double ops_per_s = round_s > 0 ? ops / round_s : 0.0;
  const double bytes_per_op =
      timed_ops > 0 ? static_cast<double>(bytes) / static_cast<double>(timed_ops) : 0.0;
  r.metric("ops_per_s", ops_per_s, "1/s");
  r.metric("bytes_per_s", ops_per_s * bytes_per_op, "B/s");
  r.metric("op_us_p50", p50, "us");
  r.metric("op_us_p99", p99, "us");
  r.metric("op_samples", static_cast<double>(samples), "count");
  r.metric("cpu_us_per_op", ops > 0 ? round_cpu_s * 1e6 / ops : 0.0, "us");
  r.metric("setup_s", median(setup_s), "s");
  r.metric("peak_rss_mb", rss, "MB");
  r.metric("op_fail_ratio",
           r.attempted > 0 ? static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted)
                           : 1.0,
           "ratio");
}

void add_round_counts(Result& r, const CounterMap& d, std::int64_t ops,
                      std::int64_t payload_bytes) {
  const auto get = [&](const char* name) {
    const auto it = d.find(name);
    return static_cast<double>(it == d.end() ? 0 : it->second);
  };
  const double n = static_cast<double>(std::max<std::int64_t>(ops, 1));
  r.metric("sim.events_per_op", get("sim.events") / n, "count");
  r.metric("net.packets_per_op", get("net.packets") / n, "count");
  const double wire = get("net.bytes_on_wire");
  r.metric("net.goodput_ratio",
           wire > 0 ? static_cast<double>(payload_bytes) / wire : 0.0, "ratio");
  r.metric("net.drops", get("net.drops"), "count");
  r.metric("lapi.pkts_rx_per_op", get("lapi.pkts_rx") / n, "count");
  r.metric("lapi.interrupts_per_op", get("lapi.interrupts") / n, "count");
  r.metric("lapi.retransmits_per_op", get("lapi.retransmits") / n, "count");
  r.metric("lapi.nack_fast_rtx", get("lapi.nack_fast_rtx"), "count");
  r.metric("lapi.credit_stalls", get("lapi.credit_stalls"), "count");
  r.metric("lapi.failed_ops", get("lapi.failed_ops"), "count");
  r.metric("mpl.sends_per_op", get("mpl.sends") / n, "count");
  r.metric("mpl.rcvncalls", get("mpl.rcvncalls"), "count");
  r.metric("mpl.unexpected_copies", get("mpl.unexpected_copies"), "count");
  r.metric("mpl.retransmits", get("mpl.retransmits"), "count");
  r.metric("ga.lapi.am_get", get("ga.lapi.am_get"), "count");
  r.metric("ga.lapi.rmc_columns", get("ga.lapi.rmc_columns"), "count");
  r.metric("ga.acc_in_header", get("ga.acc_in_header"), "count");
  r.metric("ga.acc_in_completion", get("ga.acc_in_completion"), "count");
}

void add_proc_layer(Result& r, const std::vector<Phase>& phases) {
  std::int64_t ops = 0;
  ProcSample cpu;
  int threads = 0;
  // Tracing overhead: median round time of the traced (odd) segments against
  // the untraced (even) ones of the same phases; alternating them cancels a
  // steady drift of host speed over the run.
  double untraced_s = 0;
  double traced_s = 0;
  for (const Phase& p : phases) {
    ops += p.ops;
    cpu += p.cpu;
    threads = std::max(threads, p.threads);
    std::vector<double> untraced;
    std::vector<double> traced;
    for (std::size_t i = 0; i < p.round_s.size(); ++i) {
      (p.round_traced[i] != 0 ? traced : untraced).push_back(p.round_s[i]);
    }
    untraced_s += median(std::move(untraced));
    traced_s += median(std::move(traced));
  }
  const double n = static_cast<double>(std::max<std::int64_t>(ops, 1));
  r.metric("proc.cpu_user_us_per_op", cpu.user_s * 1e6 / n, "us");
  r.metric("proc.cpu_sys_us_per_op", cpu.sys_s * 1e6 / n, "us");
  r.metric("proc.vol_ctx_switches_per_op", static_cast<double>(cpu.vol_cs) / n,
           "count");
  r.metric("proc.invol_ctx_switches_per_op",
           static_cast<double>(cpu.invol_cs) / n, "count");
  r.metric("proc.minor_faults_per_op",
           static_cast<double>(cpu.minor_faults) / n, "count");
  r.metric("proc.threads", threads, "count");
  r.metric("trace.overhead_pct",
           untraced_s > 0 && traced_s > 0
               ? 100.0 * (traced_s - untraced_s) / untraced_s
               : 0.0,
           "%");
}

void add_span_layer(Result& r, const std::vector<const SpanRecorder*>& nodes,
                    const std::vector<const char*>& calls) {
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> all_calls;
  for (const SpanRecorder* rec : nodes) {
    r.spans_dropped += rec->dropped();
    for (const Span& s : rec->spans()) {
      if (s.end_ns == 0) continue;
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      by_name[s.name].push_back(ns);
      for (const char* c : calls) {
        if (std::strcmp(c, s.name) == 0) all_calls.push_back(ns);
      }
    }
  }
  r.metric("span.call_ns_p50", percentile(all_calls, 0.50), "ns");
  r.metric("span.call_ns_p99", percentile(all_calls, 0.99), "ns");
  for (auto& [name, v] : by_name) {
    if (name == "op") continue;
    r.metric(name + "_ns_p50", percentile(v, 0.50), "ns");
    r.metric(name + "_ns_p99", percentile(v, 0.99), "ns");
  }
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanRecorder*>& nodes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const std::vector<Span>& spans = nodes[n]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"node\":%zu,\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"op\":%lld}\n",
                   n, i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.op));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
