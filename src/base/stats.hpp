// Small statistics helpers used by the benchmark harnesses and by internal
// instrumentation counters (packets sent, copies performed, retransmissions).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.hpp"

namespace splap {

/// Welford running mean/variance plus min/max.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

  void reset() { *this = RunningStat{}; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Named monotonically increasing counter set, used to assert protocol-level
/// properties in tests ("exactly one copy on this path", "N retransmits").
/// Per-packet paths must not pay a name lookup per bump, so hot callers
/// resolve a Handle once at construction and bump through it.
class CounterSet {
  struct Entry {
    std::string name;
    std::int64_t v = 0;
  };

 public:
  /// A resolved counter: bump() is one add, no name lookup. Handles stay
  /// valid for the CounterSet's lifetime (entries live in a deque and never
  /// move); reset() zeroes values but keeps entries, so cached handles
  /// survive it.
  class Handle {
   public:
    Handle() = default;
    void bump(std::int64_t by = 1) const { e_->v += by; }

   private:
    friend class CounterSet;
    explicit Handle(Entry* e) : e_(e) {}
    Entry* e_ = nullptr;
  };

  /// Find-or-create the named counter and return its stable handle.
  Handle handle(std::string_view name) {
    for (auto& e : entries_) {
      if (e.name == name) return Handle(&e);
    }
    entries_.emplace_back();
    entries_.back().name = std::string(name);
    return Handle(&entries_.back());
  }

  // string_view keys: callers bump with string literals, and a std::string
  // parameter would allocate a temporary on every call. The string is
  // materialized only when a counter is first created. Hot paths should
  // resolve a Handle once instead (no per-bump name scan).
  void bump(std::string_view name, std::int64_t by = 1) {
    handle(name).bump(by);
  }

  std::int64_t get(std::string_view name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return e.v;
    }
    return 0;
  }

  /// Every counter that currently holds a nonzero value, in creation order.
  /// Zero-valued entries are skipped: reset() zeroes values but keeps the
  /// entries alive so cached Handles stay valid across it.
  std::vector<std::pair<std::string, std::int64_t>> all() const {
    std::vector<std::pair<std::string, std::int64_t>> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) {
      if (e.v != 0) out.emplace_back(e.name, e.v);
    }
    return out;
  }

  void reset() {
    for (auto& e : entries_) e.v = 0;
  }

 private:
  // deque: entry addresses (and therefore Handles) survive growth.
  std::deque<Entry> entries_;
};

}  // namespace splap
