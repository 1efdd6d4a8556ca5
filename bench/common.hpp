// Shared micro-measurement functions for the benchmark binaries: the raw
// LAPI / MPI / MPL latency experiments of Table 2 and the pipeline-latency
// numbers of Section 4. (The GA-level and bandwidth measurements live in
// src/ga/bench_harness.hpp, shared with the calibration tests.)
#pragma once

#include <cstdio>
#include <string>

#include "ga/bench_harness.hpp"
#include "lapi/context.hpp"
#include "mpl/comm.hpp"

namespace splap::benchx {

struct Table2 {
  double lapi_polling_us;
  double lapi_polling_rt_us;
  double lapi_interrupt_rt_us;
  double mpi_polling_us;
  double mpi_polling_rt_us;
  double mpl_rcvncall_rt_us;
};

/// Reproduce every row of Table 2 on the simulated SP.
Table2 measure_table2();

struct PipelineLatency {
  double put_us;  // paper: 16us
  double get_us;  // paper: 19us
};
PipelineLatency measure_pipeline_latency();

/// One Figure 2 curve point (LAPI put+wait, or MPI send+echo at a given
/// MP_EAGER_LIMIT) — thin wrappers around the shared harness.
inline double fig2_lapi(std::int64_t bytes) {
  return ga::bench::raw_lapi_put_mb_s(bytes);
}
inline double fig2_mpi(std::int64_t bytes, std::int64_t eager_limit) {
  return ga::bench::raw_mpi_mb_s(bytes, eager_limit);
}

/// Pretty printing helpers shared by the bench mains.
void print_header(const std::string& title, const std::string& paper_ref);
void print_row(const std::string& label, double measured, double paper,
               const char* unit);

}  // namespace splap::benchx
