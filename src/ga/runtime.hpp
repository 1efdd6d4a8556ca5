// Global Arrays: portable shared-memory-style access to dense distributed
// 2-D double-precision arrays (Section 5 of the paper; the GA toolkit of
// Nieplocha, Harrison & Littlefield).
//
// Two interchangeable transports implement the one-sided operations:
//
//   Backend::kLapi — the paper's new implementation (Section 5.3): hybrid
//     protocols that switch between direct remote memory copy (contiguous
//     or very large requests) and pipelined ~900-byte active messages
//     (strided small/medium requests), generalized per-target counters for
//     fence/sync, a preallocated AM buffer pool, and a mutex-protected
//     atomic accumulate that may run in the header handler (try-lock) or a
//     completion handler.
//
//   Backend::kMpl — the previous implementation (Section 5.2): every
//     operation is a combined header+data message (MPL's in-order progress
//     rule prevents separating them), delivered through the rcvncall
//     interrupt handler, with message-buffer copies on both sides and
//     lockrnc-based atomicity.
//
// All operations are unilateral: progress never requires the target task to
// make GA calls. Out-of-order completion is permitted except for
// overlapping patches (callers order those with fence, Section 5.1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "base/pool.hpp"
#include "base/strided.hpp"
#include "ga/distribution.hpp"
#include "lapi/context.hpp"
#include "mpl/comm.hpp"
#include "net/machine.hpp"
#include "sim/sync.hpp"

namespace splap::ga {

enum class Transport { kLapi, kMpl };

struct Config {
  Transport transport = Transport::kLapi;
  /// LAPI context configuration (kLapi transport).
  lapi::Config lapi;
  /// MPL send buffering (kMpl transport): the old SP MPL buffered
  /// considerably more than MPI's default 4 KB eager limit — this is what
  /// lets GA-MPL put return sooner in the 1–20 KB range (Figure 3).
  std::int64_t mpl_eager_limit = 20 * 1024;
  /// Requests at or above this size switch from the AM protocol to direct
  /// per-column remote memory copies ("approx. 0.5 MB", Section 5.4).
  std::int64_t big_request_bytes = 512 * 1024;
  /// Preallocated active-message buffer pool (Section 5.3.1).
  int am_buffers = 64;
  std::int64_t am_buffer_bytes = 2048;
  /// Use the LAPI_Putv/Getv non-contiguous interface (the paper's
  /// Section 6 future-work item 1) for strided put/get instead of the
  /// 1998 AM-chunk protocol. Off by default to reproduce the paper's
  /// figures; bench_ablation_strided quantifies the win.
  bool use_strided_rmc = false;
};

/// Shared atomic cells: GA exposes a fixed set of counters (read_inc) and
/// mutexes (lock/unlock), distributed round-robin over the tasks.
inline constexpr int kAtomicCells = 64;

class Runtime;

/// Value handle to a global array (copyable; the Runtime owns the state).
class GlobalArray {
 public:
  GlobalArray() = default;

  std::int64_t dim1() const;
  std::int64_t dim2() const;

  /// One-sided block transfers; `ld` is the leading dimension (in doubles)
  /// of the caller's column-major local buffer. put/acc return once `buf`
  /// is reusable; get is blocking (Section 5.4).
  void put(const Patch& p, const double* buf, std::int64_t ld);
  void get(const Patch& p, double* buf, std::int64_t ld);
  /// Atomic A(p) += alpha * buf.
  void acc(const Patch& p, const double* buf, std::int64_t ld, double alpha);

  /// Element-wise transfers (subscript arrays).
  void scatter(std::span<const double> v, std::span<const std::int64_t> i,
               std::span<const std::int64_t> j);
  void gather(std::span<double> v, std::span<const std::int64_t> i,
              std::span<const std::int64_t> j);

  // Locality information and control (the memory-hierarchy awareness GA is
  // built around, Section 5.1).
  int owner(std::int64_t i, std::int64_t j) const;
  Patch my_block() const;
  Patch block_of(int task) const;
  const Distribution& distribution() const;
  /// Direct access to the local block (owner-computes); ld via my_block().
  double* access();

  bool valid() const { return rt_ != nullptr; }
  int id() const { return id_; }

 private:
  friend class Runtime;
  GlobalArray(Runtime* rt, int id) : rt_(rt), id_(id) {}
  Runtime* rt_ = nullptr;
  int id_ = -1;
};

class Runtime {
 public:
  /// Collective (SPMD): every task constructs its Runtime.
  Runtime(net::Node& node, Config config = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int me() const { return node_.id(); }
  int nprocs() const { return node_.machine().tasks(); }
  Transport transport() const { return config_.transport; }
  net::Node& node() const { return node_; }
  sim::Engine& engine() const { return node_.engine(); }
  const CostModel& cost() const { return node_.cost(); }

  /// Collective: create / destroy a dim1 x dim2 array of doubles.
  GlobalArray create(std::int64_t dim1, std::int64_t dim2);
  void destroy(GlobalArray& a);

  /// Complete all operations this task initiated (ga_fence).
  void fence();
  /// Collective barrier + completion of all outstanding operations
  /// (ga_sync).
  void sync();

  /// Atomic fetch-and-add on shared cell `counter_id` (read_inc).
  std::int64_t read_inc(int counter_id, std::int64_t inc);
  /// Mutual exclusion on shared mutex cells.
  void lock(int mutex_id);
  void unlock(int mutex_id);

  /// Small collectives for applications (broadcast, global sum).
  void brdcst(std::span<double> data, int root);
  void gop_sum(std::span<double> data);

  /// Sticky transport health: the first non-kOk status any GA wait or sync
  /// observed — a retry-exhausted transfer (kResourceExhausted) or a dead
  /// participant (kPeerFailed, from the transport's crash detector)
  /// surfaces here instead of silently delivering stale data or hanging a
  /// collective. kOk on a healthy run; never reset.
  Status comm_status() const { return comm_status_; }

  // Internal API used by GlobalArray (public for the handler plumbing).
  struct ArrayState {
    bool alive = false;
    Distribution dist;
    std::vector<double> local;          // my block, column-major
    std::vector<double*> bases;         // per-task base pointers (kLapi)
  };

  ArrayState& state(int id);
  void op_put(int id, const Patch& p, const double* buf, std::int64_t ld);
  void op_get(int id, const Patch& p, double* buf, std::int64_t ld);
  void op_acc(int id, const Patch& p, const double* buf, std::int64_t ld,
              double alpha);
  void op_scatter(int id, std::span<const double> v,
                  std::span<const std::int64_t> i,
                  std::span<const std::int64_t> j);
  void op_gather(int id, std::span<double> v,
                 std::span<const std::int64_t> i,
                 std::span<const std::int64_t> j);

 private:
  struct Piece {
    int owner;
    Patch patch;
  };

  /// StridedRegion over task `t`'s block storage for `piece` (kLapi uses
  /// exchanged base pointers; the target-side handlers use their own).
  StridedRegion region_of(ArrayState& st, int task, const Patch& piece,
                          double* base) const;
  StridedRegion user_region(const Patch& piece, const double* buf,
                            std::int64_t ld) const;

  // ---- LAPI transport (Section 5.3) ----
  void lapi_init();
  void lapi_put_acc(int id, const Patch& p, const double* buf,
                    std::int64_t ld, bool acc, double alpha);
  void lapi_get(int id, const Patch& p, double* buf, std::int64_t ld);
  void lapi_scatter(int id, std::span<const double> v,
                    std::span<const std::int64_t> i,
                    std::span<const std::int64_t> j);
  void lapi_gather(int id, std::span<double> v,
                   std::span<const std::int64_t> i,
                   std::span<const std::int64_t> j);
  lapi::AmReply lapi_handle_am(lapi::Context& c, const lapi::AmDelivery& d);
  /// Chunk a strided piece into AM-payload-sized sub-patches (~900 B each,
  /// Section 5.3.1).
  std::vector<Patch> chunk_patch(const Patch& piece) const;
  std::int64_t am_payload_doubles() const;

  // ---- MPL transport (Section 5.2) ----
  void mpl_init();
  void mpl_request(int target, std::span<const std::byte> msg);
  void mpl_put_acc(int id, const Patch& p, const double* buf, std::int64_t ld,
                   bool acc, double alpha);
  void mpl_get(int id, const Patch& p, double* buf, std::int64_t ld);
  void mpl_scatter(int id, std::span<const double> v,
                   std::span<const std::int64_t> i,
                   std::span<const std::int64_t> j);
  void mpl_gather(int id, std::span<double> v,
                  std::span<const std::int64_t> i,
                  std::span<const std::int64_t> j);
  void mpl_handle(mpl::Comm& comm, const mpl::RcvncallDelivery& d);
  std::int64_t next_reply_tag();

  // ---- generalized counters (Section 5.3.2) ----
  struct GenCntr {
    lapi::Counter cntr;
    std::int64_t outstanding = 0;
    std::uint8_t last_op = 0;
  };

  /// Latch the first communication failure (see comm_status()). Precedence:
  /// kPeerFailed is the strongest verdict and upgrades a softer
  /// kPeerSuspected latch (a gray-failing peer that later dies); any other
  /// first failure sticks. kPeerSuspected records that some collective ran
  /// degraded even if the suspect later healed.
  void note(Status st) {
    if (st == Status::kOk) return;
    if (comm_status_ == Status::kOk ||
        (st == Status::kPeerFailed &&
         comm_status_ == Status::kPeerSuspected)) {
      comm_status_ = st;
    }
  }

  net::Node& node_;
  Config config_;
  Status comm_status_ = Status::kOk;

  std::unique_ptr<lapi::Context> ctx_;  // kLapi
  std::unique_ptr<mpl::Comm> comm_;     // kMpl
  lapi::AmHandlerId ga_handler_ = -1;

  std::vector<ArrayState> arrays_;
  std::vector<GenCntr> gen_;  // per target task

  // Atomic cells hosted by this task (cell c lives on task c % nprocs).
  std::vector<std::int64_t> cells_;
  std::vector<std::int64_t*> cell_bases_;  // per-task cell array base (kLapi)

  // AM receive buffering (Section 5.3.1) and accumulate atomicity (5.3.3).
  std::unique_ptr<BufferPool> am_pool_;
  std::unique_ptr<sim::SimMutex> acc_mutex_;
  std::int64_t pool_overflows_ = 0;

  // MPL bookkeeping.
  std::int64_t reply_seq_ = 0;
  std::vector<bool> mpl_touched_;  // targets with outstanding requests

  friend struct GaAmCodec;
};

}  // namespace splap::ga
