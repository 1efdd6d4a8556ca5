// Ordering and bootstrap collectives of the Context facade: LAPI_Fence,
// LAPI_Gfence (dissemination barrier over handler id 0), LAPI_Address_init,
// and the per-machine Universe registry that stands in for the out-of-band
// PSSP job-start infrastructure of the real SP.
#include "lapi/context.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "base/log.hpp"

namespace splap::lapi {

namespace {

/// Payload of the internal dissemination-barrier pulse (handler id 0).
struct BarrierPulse {
  std::int64_t seq;
  int round;
};

}  // namespace

// ---------------------------------------------------------------------------
// Universe: per-machine context registry (the out-of-band bootstrap channel
// the PSSP job-start infrastructure provides on the real SP), kept in the
// machine's LAPI client-state slot.
// ---------------------------------------------------------------------------

struct Context::Universe {
  std::vector<Context*> ctxs;
  int attached = 0;

  struct Slot {
    std::vector<void*> addrs;
    int count = 0;
    bool done = false;
  };
  std::vector<Slot> slots;

  static Universe& of(net::Machine& machine) {
    std::shared_ptr<void>& state = machine.client_state(net::Client::kLapi);
    if (state == nullptr) {
      auto u = std::make_shared<Universe>();
      u->ctxs.resize(static_cast<std::size_t>(machine.tasks()), nullptr);
      state = std::move(u);
    }
    return *static_cast<Universe*>(state.get());
  }

  void attach(Context* c) {
    auto& slot = ctxs[static_cast<std::size_t>(c->task_id())];
    SPLAP_REQUIRE(slot == nullptr, "duplicate LAPI_Init on a task");
    slot = c;
    ++attached;
  }

  // The last detach frees the registry, so a LAPI_Init after every task has
  // left (a whole-job restart) starts a fresh address exchange.
  void detach(Context* c) {
    ctxs[static_cast<std::size_t>(c->task_id())] = nullptr;
    if (--attached == 0) {
      // Self-destructs; do not touch *this after.
      c->node_.machine().client_state(net::Client::kLapi).reset();
    }
  }
};

Context::Universe& Context::universe() { return Universe::of(node_.machine()); }

void Context::init_collectives() {
  // Handler id 0 is reserved for the internal gfence barrier pulse.
  handlers_.push_back([](Context& ctx, const AmDelivery& d) -> AmReply {
    SPLAP_REQUIRE(d.uhdr.size() == sizeof(BarrierPulse),
                  "malformed barrier pulse");
    BarrierPulse p;
    std::memcpy(&p, d.uhdr.data(), sizeof p);
    ++ctx.barrier_got_[{p.seq, p.round}];
    ctx.notify();
    AmReply r;
    r.header_cost = nanoseconds(300);
    return r;
  });

  universe().attach(this);
}

void Context::detach_universe() { universe().detach(this); }

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

void Context::fence() {
  sim::Actor* a = sim::Actor::current();
  SPLAP_REQUIRE(a != nullptr, "LAPI_Fence must run in a task context");
  enter_library();
  a->compute(call_entry_cost());
  while (send_.outstanding_data() > 0 || send_.outstanding_gets() > 0) {
    progress_.waiters().add(*a);
    a->suspend("lapi-fence");
  }
  exit_library();
}

Status Context::gfence() {
  sim::Actor* a = sim::Actor::current();
  SPLAP_REQUIRE(a != nullptr, "LAPI_Gfence must run in a task context");
  fence();
  const int n = num_tasks();
  const std::int64_t seq = barrier_seq_++;
  if (n == 1) return Status::kOk;
  // Degraded termination: when a barrier partner is (or becomes) a latched
  // failure, its round is skipped instead of waited on, and the barrier
  // returns kPeerFailed. Later rounds still pulse live partners so the
  // survivors' own waits unblock — the dissemination pattern keeps every
  // live task's exit bounded once the gossip latch lands everywhere.
  // A *suspected* partner (gray failure) is a softer tier: the barrier still
  // completes — the pulse toward the suspect parks in quarantine and either
  // drains on heal or fails over on escalation — but the caller learns that
  // progress degraded via kPeerSuspected. A latched death outranks it.
  bool degraded = false;
  bool degraded_suspected = false;
  int round = 0;
  for (int dist = 1; dist < n; dist <<= 1, ++round) {
    const int to = (task_id() + dist) % n;
    if (send_.peer_suspected(to)) degraded_suspected = true;
    if (send_.peer_failed(to)) {
      degraded = true;
    } else {
      BarrierPulse p{seq, round};
      std::span<const std::byte> uhdr(reinterpret_cast<const std::byte*>(&p),
                                      sizeof p);
      const Status st = amsend(to, 0, uhdr, {}, nullptr, nullptr, nullptr);
      SPLAP_REQUIRE(st == Status::kOk, "barrier pulse send failed");
    }
    const int from = (task_id() - dist + n) % n;
    enter_library();
    const auto key = std::pair<std::int64_t, int>{seq, round};
    while (barrier_got_[key] < 1) {
      if (send_.peer_failed(from)) {
        degraded = true;
        break;
      }
      if (send_.peer_suspected(from)) degraded_suspected = true;
      progress_.waiters().add(*a);
      a->suspend("lapi-gfence");
    }
    exit_library();
  }
  // GC this generation's pulses.
  barrier_got_.erase(barrier_got_.lower_bound({seq, 0}),
                     barrier_got_.upper_bound({seq, round}));
  // Every task has passed its fence, so every Get aimed at this task has
  // landed at its origin. A reply this task served during the barrier may
  // still await its data ack, though, and a resend would read a region the
  // caller may free once gfence returns (GA's destroy does): such a reply
  // keeps a copy instead.
  send_.own_streamed_payloads();
  if (degraded) return Status::kPeerFailed;
  return degraded_suspected ? Status::kPeerSuspected : Status::kOk;
}

void Context::broadcast_peer_death(int peer, bool direct) {
  // The out-of-band membership channel (PSSP group services on the real SP):
  // a detected node death is announced to every attached context directly
  // through the Universe registry, not over the wire — exactly how the SP's
  // switch fault daemon fanned out membership changes.
  Universe& u = universe();
  for (Context* c : u.ctxs) {
    if (c != nullptr && c != this) c->note_peer_death(peer, direct, task_id());
  }
}

void Context::address_init(void* mine, std::span<void*> table) {
  sim::Actor* a = sim::Actor::current();
  SPLAP_REQUIRE(a != nullptr, "LAPI_Address_init must run in a task context");
  SPLAP_REQUIRE(static_cast<int>(table.size()) == num_tasks(),
                "address table size must equal the task count");
  enter_library();
  a->compute(call_entry_cost());
  // The Universe slot is out-of-band shared memory (the PSSP job-start
  // channel, not simulated traffic): the last arriver mutates every peer's
  // wait set directly.
  Universe& u = universe();
  const auto k = static_cast<std::size_t>(xchg_seq_++);
  if (u.slots.size() <= k) u.slots.resize(k + 1);
  auto& slot = u.slots[k];
  if (slot.addrs.empty()) slot.addrs.resize(static_cast<std::size_t>(num_tasks()));
  slot.addrs[static_cast<std::size_t>(task_id())] = mine;
  if (++slot.count == num_tasks()) {
    slot.done = true;
    for (Context* c : u.ctxs) {
      if (c != nullptr) c->notify();
    }
  } else {
    while (!slot.done) {
      progress_.waiters().add(*a);
      a->suspend("lapi-address-init");
    }
  }
  std::copy(slot.addrs.begin(), slot.addrs.end(), table.begin());
  exit_library();
}

}  // namespace splap::lapi
