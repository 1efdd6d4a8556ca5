// Recycling pools shared by the simulator's hot paths.
//
// BufferPool: fixed-capacity buffers for active-message receive staging.
// Section 5.3.1 of the paper explains why GA cannot use dynamic allocation in
// the header handler (the handler must not block or return NULL, and under
// contention arrival rate can exceed consumption rate). The pool makes the
// capacity explicit: acquisition either succeeds immediately or reports
// exhaustion so the caller can fall back (GA falls back to its round-trip
// protocol for large requests).
//
// SlabBufferPool / ObjectPool: growable free lists for the discrete-event
// engine and fabric hot paths (event nodes, packet payloads, in-flight
// records), where steady state must be allocation-free but peak population
// is workload-dependent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/audit.hpp"
#include "base/status.hpp"

namespace splap {

/// Process-wide cache of slabs that are KNOWN to be all-zero, shared across
/// SlabBufferPool lifetimes (the same idea as an OS zero-page pool or an
/// allocator's retained zeroed extents). A pool that dies with every buffer
/// returned still-zero donates its slabs here; the next pool of the same
/// geometry takes them back and can hand out buffers whose zero fill has
/// already happened. Workloads that build a machine per run (benchmark
/// iterations, parameter sweeps) then zero each payload byte exactly once
/// per process instead of once per run.
class ZeroSlabCache {
 public:
  static ZeroSlabCache& instance() {
    static ZeroSlabCache cache;
    return cache;
  }

  /// A cached all-zero slab of exactly `bytes`, or nullptr.
  std::unique_ptr<std::byte[]> take(std::size_t bytes) {
    for (auto& e : slabs_) {
      if (e.bytes == bytes && e.slab != nullptr) {
        held_bytes_ -= bytes;
        return std::move(e.slab);
      }
    }
    return nullptr;
  }

  /// Donate a slab the caller guarantees is entirely zero. The cache is
  /// bounded; beyond the cap the slab is simply freed.
  void put(std::size_t bytes, std::unique_ptr<std::byte[]> slab) {
    if (held_bytes_ + bytes > kMaxHeldBytes) return;  // slab freed here
    held_bytes_ += bytes;
    for (auto& e : slabs_) {
      if (e.slab == nullptr) {
        e = Entry{bytes, std::move(slab)};
        return;
      }
    }
    slabs_.emplace_back(bytes, std::move(slab));
  }

 private:
  static constexpr std::size_t kMaxHeldBytes = 64u << 20;
  struct Entry {
    std::size_t bytes;
    std::unique_ptr<std::byte[]> slab;
  };
  std::vector<Entry> slabs_;
  std::size_t held_bytes_ = 0;
};

class BufferPool {
 public:
  BufferPool(std::size_t buffer_bytes, std::size_t count)
      : buffer_bytes_(buffer_bytes),
        storage_(buffer_bytes * count) {
    free_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      free_.push_back(storage_.data() + i * buffer_bytes);
    }
    total_ = count;
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a buffer of `buffer_bytes()` or nullptr when exhausted.
  std::byte* try_acquire() {
    if (free_.empty()) {
      ++exhaustions_;
      return nullptr;
    }
    std::byte* b = free_.back();
    free_.pop_back();
    if (total_ - free_.size() > high_water_) high_water_ = total_ - free_.size();
#ifdef SPLAP_AUDIT
    audit_live_.insert(b, "BufferPool::try_acquire");
#endif
    return b;
  }

  void release(std::byte* b) {
    SPLAP_REQUIRE(owns(b), "releasing a buffer this pool does not own");
    SPLAP_REQUIRE(free_.size() < total_, "double release into buffer pool");
#ifdef SPLAP_AUDIT
    // The SPLAP_REQUIREs above catch foreign pointers and free-list
    // overflow; the shadow set additionally pins double release of one
    // specific buffer while others are still outstanding.
    audit_live_.remove(b, "BufferPool::release");
#endif
    free_.push_back(b);
  }

  bool owns(const std::byte* b) const {
    return b >= storage_.data() && b < storage_.data() + storage_.size() &&
           (b - storage_.data()) % static_cast<std::ptrdiff_t>(buffer_bytes_) == 0;
  }

  std::size_t buffer_bytes() const { return buffer_bytes_; }
  std::size_t capacity() const { return total_; }
  std::size_t in_use() const { return total_ - free_.size(); }
  std::size_t high_water() const { return high_water_; }
  std::int64_t exhaustions() const { return exhaustions_; }

 private:
  std::size_t buffer_bytes_;
  std::vector<std::byte> storage_;
  std::vector<std::byte*> free_;
  std::size_t total_ = 0;
  std::size_t high_water_ = 0;
  std::int64_t exhaustions_ = 0;
#ifdef SPLAP_AUDIT
  audit::LiveSet audit_live_{"BufferPool live-buffer"};
#endif
};

/// Growable recycling pool of fixed-size byte buffers, used for hot-path
/// objects whose peak population is workload-dependent (in-flight packet
/// payloads): unlike BufferPool it never reports exhaustion — it grows by a
/// slab — but in steady state every acquire is a free-list pop and every
/// release a push, with zero allocator traffic. `capacity()` is therefore the
/// observable for "did the workload reach steady state": it stops growing
/// once the in-flight high-water mark has been seen.
class SlabBufferPool {
 public:
  explicit SlabBufferPool(std::size_t buffer_bytes,
                          std::size_t buffers_per_slab = 32)
      : buffer_bytes_(buffer_bytes),
        buffers_per_slab_(buffers_per_slab == 0 ? 1 : buffers_per_slab) {}

  SlabBufferPool(const SlabBufferPool&) = delete;
  SlabBufferPool& operator=(const SlabBufferPool&) = delete;

  ~SlabBufferPool() {
    // If every buffer came home still fully zero, the slabs are provably
    // all-zero end to end — donate them so the next pool of this geometry
    // skips both the allocation and the zeroing.
    if (free_.size() != total_ || slabs_.empty()) return;
    for (const Buffer& b : free_) {
      if (b.zeroed < buffer_bytes_) return;
    }
    const std::size_t slab_bytes = buffer_bytes_ * buffers_per_slab_;
    for (auto& slab : slabs_) {
      ZeroSlabCache::instance().put(slab_bytes, std::move(slab));
    }
  }

  /// A pooled buffer plus its zero guarantee: bytes [0, zeroed) are known to
  /// be zero. Callers that only ever zero-fill a recycled buffer (the packet
  /// path: resize + deliver, no payload writes) get their fill for free on
  /// every reuse — the same idea as an OS handing out pre-zeroed pages.
  struct Buffer {
    std::byte* data;
    std::uint32_t zeroed;
  };

  Buffer acquire() {
    if (free_.empty()) grow();
    Buffer b = free_.back();
    free_.pop_back();
    if (total_ - free_.size() > high_water_) high_water_ = total_ - free_.size();
#ifdef SPLAP_AUDIT
    audit_live_.insert(b.data, "SlabBufferPool::acquire");
#endif
    return b;
  }

  /// `zeroed` is the caller's guarantee about the returned buffer's prefix;
  /// pass 0 when unsure — correctness never depends on it, only fill cost.
  void release(std::byte* b, std::uint32_t zeroed = 0) {
    SPLAP_REQUIRE(b != nullptr, "releasing a null buffer");
#ifdef SPLAP_AUDIT
    audit_live_.remove(b, "SlabBufferPool::release");
#endif
    free_.push_back(Buffer{b, zeroed});
  }

  std::size_t buffer_bytes() const { return buffer_bytes_; }
  /// Buffers allocated so far (monotone; constant once steady state hit).
  std::size_t capacity() const { return total_; }
  std::size_t in_use() const { return total_ - free_.size(); }
  std::size_t high_water() const { return high_water_; }

 private:
  void grow() {
    const std::size_t slab_bytes = buffer_bytes_ * buffers_per_slab_;
    std::unique_ptr<std::byte[]> slab =
        ZeroSlabCache::instance().take(slab_bytes);
    if (slab == nullptr) {
      // Value-initialized on purpose: one bulk zeroing here is what lets
      // every buffer start with a full zeroed-prefix guarantee, making the
      // per-packet zero fill in Payload::resize free — and lets the whole
      // slab be donated back to the ZeroSlabCache if it stays clean.
      slab = std::make_unique<std::byte[]>(slab_bytes);
    }
    slabs_.push_back(std::move(slab));
    std::byte* base = slabs_.back().get();
    free_.reserve(free_.size() + buffers_per_slab_);
    for (std::size_t i = buffers_per_slab_; i-- > 0;) {
      free_.push_back(Buffer{base + i * buffer_bytes_,
                             static_cast<std::uint32_t>(buffer_bytes_)});
    }
    total_ += buffers_per_slab_;
  }

  std::size_t buffer_bytes_;
  std::size_t buffers_per_slab_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<Buffer> free_;
  std::size_t total_ = 0;
  std::size_t high_water_ = 0;
#ifdef SPLAP_AUDIT
  audit::LiveSet audit_live_{"SlabBufferPool live-buffer"};
#endif
};

/// Growable recycling pool of default-constructed T. Objects come back from
/// release() un-destructed: the caller resets whatever state matters before
/// reuse (the discrete-event engine recycles event nodes this way, the fabric
/// its in-flight packet records). Slab storage means pointers stay stable for
/// the pool's lifetime, so recycled objects can be referenced from scheduled
/// events.
template <class T>
class ObjectPool {
 public:
  explicit ObjectPool(std::size_t objects_per_slab = 64)
      : objects_per_slab_(objects_per_slab == 0 ? 1 : objects_per_slab) {}

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  T* acquire() {
    if (free_.empty()) grow();
    T* p = free_.back();
    free_.pop_back();
    if (total_ - free_.size() > high_water_) high_water_ = total_ - free_.size();
#ifdef SPLAP_AUDIT
    audit_live_.insert(p, "ObjectPool::acquire");
#endif
    return p;
  }

  void release(T* p) {
    SPLAP_REQUIRE(p != nullptr, "releasing a null object");
#ifdef SPLAP_AUDIT
    audit_live_.remove(p, "ObjectPool::release");
#endif
    free_.push_back(p);
  }

  std::size_t capacity() const { return total_; }
  std::size_t in_use() const { return total_ - free_.size(); }
  std::size_t high_water() const { return high_water_; }

#ifdef SPLAP_AUDIT
  /// Audit builds only: abort if `p` is not currently acquired from this
  /// pool. Owners of recycled records call this before dereferencing one
  /// from a context that may have outlived it (a scheduled event, say).
  void audit_expect_live(const T* p, const char* where) const {
    audit_live_.expect(p, where);
  }
#endif

 private:
  void grow() {
    // Default-init, not value-init: T's constructor still runs, but padding
    // and any trailing uninitialized members are not zero-filled first. For
    // an 88-byte event node that halves the memory touched per slab.
    slabs_.push_back(std::make_unique_for_overwrite<T[]>(objects_per_slab_));
    T* base = slabs_.back().get();
    free_.reserve(free_.size() + objects_per_slab_);
    for (std::size_t i = objects_per_slab_; i-- > 0;) free_.push_back(base + i);
    total_ += objects_per_slab_;
  }

  std::size_t objects_per_slab_;
  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<T*> free_;
  std::size_t total_ = 0;
  std::size_t high_water_ = 0;
#ifdef SPLAP_AUDIT
  audit::LiveSet audit_live_{"ObjectPool live-object"};
#endif
};

}  // namespace splap
