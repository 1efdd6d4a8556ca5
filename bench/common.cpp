#include "common.hpp"

#include <vector>

namespace splap::benchx {

namespace {

/// Abort loudly on any unexpected LAPI/MPL failure: a benchmark that
/// silently swallows an error reports a meaningless number.
inline void ok(Status s) { SPLAP_REQUIRE(s == Status::kOk, "operation failed"); }


net::Machine::Config machine2() {
  net::Machine::Config c;
  c.tasks = 2;
  return c;
}

/// LAPI one-way latency: 4-byte put, polling mode, time from the call to
/// the target-counter update observed at the target.
double lapi_one_way_us() {
  net::Machine m(machine2());
  lapi::Config cfg;
  cfg.interrupt_mode = false;
  // 4-byte landing buffer: the put below writes 4 bytes (a single-byte cell
  // here is an out-of-bounds write that can corrupt adjacent locals).
  std::byte cell[4] = {};
  lapi::Counter tgt;
  Time sent = kNoTime, landed = kNoTime;
  const Status st = m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n, cfg);
    std::vector<void*> tab(2);
    ctx.address_init(&tgt, tab);
    if (ctx.task_id() == 0) {
      ctx.node().task().compute(microseconds(100));
      std::byte b[4] = {};
      sent = ctx.engine().now();
      (void)ctx.put(1, std::span<const std::byte>(b, 4), cell,
                    static_cast<lapi::Counter*>(tab[1]), nullptr, nullptr);
    } else {
      ok(ctx.waitcntr(tgt, 1));
      landed = ctx.engine().now();
    }
    ok(ctx.gfence());
  });
  SPLAP_REQUIRE(st == Status::kOk, "lapi one-way failed");
  return to_us(landed - sent);
}

/// LAPI polling round trip: counter-driven ping-pong, both sides blocked in
/// Waitcntr (which polls the adapter).
double lapi_polling_rt_us(bool interrupt_mode) {
  net::Machine m(machine2());
  lapi::Config cfg;
  cfg.interrupt_mode = interrupt_mode;
  std::byte ping[4] = {}, pong[4] = {};  // 4-byte landing buffers
  lapi::Counter ping_c, pong_c;
  Time rt = 0;
  const Status st = m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n, cfg);
    std::vector<void*> pt(2), qt(2);
    ctx.address_init(&ping_c, pt);
    ctx.address_init(&pong_c, qt);
    std::byte b[4] = {};
    if (ctx.task_id() == 0) {
      ctx.node().task().compute(microseconds(50));
      const Time t0 = ctx.engine().now();
      (void)ctx.put(1, std::span<const std::byte>(b, 4), ping,
                    static_cast<lapi::Counter*>(pt[1]), nullptr, nullptr);
      ok(ctx.waitcntr(pong_c, 1));
      rt = ctx.engine().now() - t0;
    } else {
      ok(ctx.waitcntr(ping_c, 1));
      (void)ctx.put(0, std::span<const std::byte>(b, 4), pong,
                    static_cast<lapi::Counter*>(qt[0]), nullptr, nullptr);
    }
    ok(ctx.gfence());
  });
  SPLAP_REQUIRE(st == Status::kOk, "lapi rt failed");
  return to_us(rt);
}

/// LAPI interrupt round trip: both sides OUTSIDE the library (the target
/// echoes from its header handler while computing; the origin polls the
/// pong counter from user code), so each delivery pays the interrupt.
double lapi_interrupt_rt_us() {
  net::Machine m(machine2());
  lapi::Counter pong_c;
  Time rt = 0;
  const Status st = m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n);
    std::vector<void*> tab(2);
    ctx.address_init(&pong_c, tab);
    const lapi::AmHandlerId echo = ctx.register_handler(
        [&, tab](lapi::Context& c, const lapi::AmDelivery& d) -> lapi::AmReply {
          if (c.task_id() == 1) {
            (void)c.amsend(d.origin, 1, {}, {},
                           static_cast<lapi::Counter*>(tab[0]), nullptr,
                           nullptr);
          }
          return {};
        });
    if (ctx.task_id() == 0) {
      ctx.node().task().compute(microseconds(50));
      const Time t0 = ctx.engine().now();
      (void)ctx.amsend(1, echo, {}, {}, nullptr, nullptr, nullptr);
      for (;;) {
        ctx.node().task().compute(nanoseconds(500));
        if (ctx.getcntr(pong_c) > 0) break;
      }
      rt = ctx.engine().now() - t0;
    } else {
      ctx.node().task().compute(milliseconds(1.0));
    }
    ok(ctx.gfence());
  });
  SPLAP_REQUIRE(st == Status::kOk, "lapi interrupt rt failed");
  return to_us(rt);
}

double mpi_one_way_us() {
  net::Machine m(machine2());
  Time sent = kNoTime, recvd = kNoTime;
  const Status st = m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n);
    if (comm.rank() == 1) {
      std::byte b[4] = {};
      const mpl::Request r = comm.irecv(0, 1, std::span<std::byte>(b, 4));
      comm.barrier();
      comm.wait(r);
      recvd = comm.engine().now();
    } else {
      comm.barrier();
      comm.node().task().compute(microseconds(30));
      std::byte b[4] = {};
      sent = comm.engine().now();
      (void)comm.send(1, 1, std::span<const std::byte>(b, 4));
    }
    comm.barrier();
  });
  SPLAP_REQUIRE(st == Status::kOk, "mpi one-way failed");
  return to_us(recvd - sent);
}

double mpi_rt_us() {
  net::Machine m(machine2());
  Time rt = 0;
  const Status st = m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n);
    std::byte b[4] = {};
    if (comm.rank() == 0) {
      std::byte in[4] = {};
      const mpl::Request r = comm.irecv(1, 2, std::span<std::byte>(in, 4));
      comm.barrier();
      comm.node().task().compute(microseconds(30));
      const Time t0 = comm.engine().now();
      (void)comm.send(1, 1, std::span<const std::byte>(b, 4));
      comm.wait(r);
      rt = comm.engine().now() - t0;
    } else {
      std::byte in[4] = {};
      const mpl::Request r = comm.irecv(0, 1, std::span<std::byte>(in, 4));
      comm.barrier();
      comm.wait(r);
      (void)comm.send(0, 2, std::span<const std::byte>(b, 4));
    }
    comm.barrier();
  });
  SPLAP_REQUIRE(st == Status::kOk, "mpi rt failed");
  return to_us(rt);
}

double mpl_rcvncall_rt_us() {
  net::Machine m(machine2());
  Time rt = 0;
  bool echoed = false;
  std::byte token{1};
  const Status st = m.run_spmd([&](net::Node& n) {
    mpl::Comm comm(n);
    comm.rcvncall(1, [&](mpl::Comm& c, const mpl::RcvncallDelivery& d) {
      if (c.rank() == 1) {
        (void)c.isend(d.source, 1,
                      std::span<const std::byte>(&token, 1));
      } else {
        echoed = true;
      }
    });
    comm.barrier();
    if (comm.rank() == 0) {
      comm.node().task().compute(microseconds(30));
      const Time t0 = comm.engine().now();
      (void)comm.send(1, 1, std::span<const std::byte>(&token, 1));
      while (!echoed) comm.node().task().compute(microseconds(2));
      rt = comm.engine().now() - t0;
    }
    comm.barrier();
  });
  SPLAP_REQUIRE(st == Status::kOk, "mpl rcvncall rt failed");
  return to_us(rt);
}

}  // namespace

Table2 measure_table2() {
  Table2 t;
  t.lapi_polling_us = lapi_one_way_us();
  t.lapi_polling_rt_us = lapi_polling_rt_us(false);
  t.lapi_interrupt_rt_us = lapi_interrupt_rt_us();
  t.mpi_polling_us = mpi_one_way_us();
  t.mpi_polling_rt_us = mpi_rt_us();
  t.mpl_rcvncall_rt_us = mpl_rcvncall_rt_us();
  return t;
}

PipelineLatency measure_pipeline_latency() {
  PipelineLatency out{};
  net::Machine m(machine2());
  std::byte cell{1};
  const Status st = m.run_spmd([&](net::Node& n) {
    lapi::Context ctx(n);
    if (ctx.task_id() == 0) {
      ctx.node().task().compute(microseconds(50));
      std::byte b{2};
      Time t0 = ctx.engine().now();
      (void)ctx.put(1, std::span<const std::byte>(&b, 1), &cell, nullptr,
                    nullptr, nullptr);
      out.put_us = to_us(ctx.engine().now() - t0);
      ctx.node().task().compute(microseconds(50));
      lapi::Counter org;
      t0 = ctx.engine().now();
      (void)ctx.get(1, 1, &cell, &b, nullptr, &org);
      out.get_us = to_us(ctx.engine().now() - t0);
      ok(ctx.waitcntr(org, 1));
    }
    ok(ctx.gfence());
  });
  SPLAP_REQUIRE(st == Status::kOk, "pipeline latency failed");
  return out;
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("%-44s %12s %12s %8s\n", "measurement", "measured", "paper",
              "ratio");
}

void print_row(const std::string& label, double measured, double paper,
               const char* unit) {
  if (paper > 0) {
    std::printf("%-44s %9.1f %s %9.1f %s %7.2fx\n", label.c_str(), measured,
                unit, paper, unit, measured / paper);
  } else {
    std::printf("%-44s %9.1f %s %12s\n", label.c_str(), measured, unit, "-");
  }
}

}  // namespace splap::benchx
