// Regenerates Figure 2: one-way bandwidth of LAPI (put + completion wait)
// vs MPI (send + completion echo) with the default 4 KB eager limit and
// with MP_EAGER_LIMIT=65536, for message sizes 16 B .. 2 MB.
//
// Paper shape: asymptotes ~97 (LAPI) / ~98 (MPI) MB/s; the LAPI curve rises
// much faster (half-bandwidth point ~8 KB vs ~23 KB); the default MPI curve
// flattens above the 4 KB eager limit (rendezvous round trip); the eager-64K
// setting defers that; at medium sizes LAPI leads; at the top MPI ends
// slightly above LAPI (16- vs 48-byte packet headers).
// With --json_out=PATH it additionally sweeps the three transfer protocols
// (eager forced / rendezvous forced / zero-copy cold & warm cache) over the
// same put+completion-wait series and writes BENCH_rdma.json
// (schema splap-rdma-v1: bandwidth per protocol per size + the crossover
// points). The default invocation's stdout is unchanged.
#include <cstdio>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "ga/bench_harness.hpp"

namespace {

/// One protocol-forced bandwidth curve over `sizes`.
std::vector<double> protocol_curve(
    const std::vector<std::int64_t>& sizes,
    const splap::ga::bench::RawPutOpts& opts) {
  std::vector<double> curve;
  for (const std::int64_t b : sizes) {
    curve.push_back(splap::ga::bench::raw_lapi_put_mb_s(b, opts));
  }
  return curve;
}

/// Smallest size at which the challenger's bandwidth strictly exceeds the
/// incumbent's; 0 = never within the sweep.
long long crossover_bytes(const std::vector<std::int64_t>& sizes,
                          const std::vector<double>& incumbent,
                          const std::vector<double>& challenger) {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (challenger[i] > incumbent[i]) return sizes[i];
  }
  return 0;
}

void emit_rdma_json(const char* path) {
  using splap::ga::bench::RawPutOpts;
  std::vector<std::int64_t> sizes;
  for (std::int64_t b = 1024; b <= (2 << 20); b *= 2) sizes.push_back(b);

  // Eager: bcopy limit above every sweep size. Rendezvous: limit 0, rdma
  // off. Zero-copy: limit 0 and a threshold at the sweep floor, so every
  // point rides the registered-memory path — cold repins each transfer
  // (cache disabled), warm uses the default cache and amortizes the pin
  // over the measurement series.
  RawPutOpts eager;
  eager.bcopy_limit_override = 4 << 20;
  RawPutOpts rendezvous;
  rendezvous.bcopy_limit_override = 0;
  RawPutOpts cold = rendezvous;
  cold.lapi.rdma_enabled = true;
  cold.lapi.rdma_threshold = 1024;
  cold.lapi.reg_cache_entries = 0;
  RawPutOpts warm = cold;
  warm.lapi.reg_cache_entries = 64;

  const std::vector<double> eager_c = protocol_curve(sizes, eager);
  const std::vector<double> rndv_c = protocol_curve(sizes, rendezvous);
  const std::vector<double> cold_c = protocol_curve(sizes, cold);
  const std::vector<double> warm_c = protocol_curve(sizes, warm);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"splap-rdma-v1\",\n");
  std::fprintf(f, "  \"series\": [\n");
  const struct {
    const char* name;
    const std::vector<double>* curve;
  } series[] = {{"eager", &eager_c},
                {"rendezvous", &rndv_c},
                {"zero_copy_cold", &cold_c},
                {"zero_copy_warm", &warm_c}};
  for (std::size_t s = 0; s < 4; ++s) {
    std::fprintf(f, "    {\"name\": \"%s\", \"points\": [\n", series[s].name);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::fprintf(f, "      {\"bytes\": %lld, \"mb_s\": %.3f}%s\n",
                   static_cast<long long>(sizes[i]), (*series[s].curve)[i],
                   i + 1 < sizes.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", s + 1 < 4 ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"crossover_eager_to_rendezvous_bytes\": %lld,\n",
               crossover_bytes(sizes, eager_c, rndv_c));
  std::fprintf(f, "  \"crossover_rendezvous_to_zero_copy_cold_bytes\": %lld,\n",
               crossover_bytes(sizes, rndv_c, cold_c));
  std::fprintf(f, "  \"crossover_rendezvous_to_zero_copy_warm_bytes\": %lld\n",
               crossover_bytes(sizes, rndv_c, warm_c));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace splap::benchx;
  const char* json_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      json_out = argv[i] + 11;
    }
  }
  std::vector<std::int64_t> sizes;
  for (std::int64_t b = 16; b <= (2 << 20); b *= 2) sizes.push_back(b);

  std::vector<double> lapi_curve, mpi_curve, mpi64_curve;
  for (const std::int64_t b : sizes) {
    lapi_curve.push_back(fig2_lapi(b));
    mpi_curve.push_back(fig2_mpi(b, 4096));
    mpi64_curve.push_back(fig2_mpi(b, 65536));
  }

  std::printf("\n=== Figure 2: one-way bandwidth (MB/s) ===\n");
  std::printf("reproduces: Shah et al., IPPS'98, Figure 2\n");
  std::printf("%10s %12s %16s %16s\n", "bytes", "LAPI", "MPI(eager=4K)",
              "MPI(eager=64K)");
  double lapi_peak = 0, mpi_peak = 0;
  double lapi_half_point = 0, mpi_half_point = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%10lld %12.2f %16.2f %16.2f\n",
                static_cast<long long>(sizes[i]), lapi_curve[i], mpi_curve[i],
                mpi64_curve[i]);
    lapi_peak = std::max(lapi_peak, lapi_curve[i]);
    mpi_peak = std::max(mpi_peak, mpi64_curve[i]);
  }
  // Interpolate the half-bandwidth points.
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    if (lapi_half_point == 0 && lapi_curve[i] >= lapi_peak / 2) {
      lapi_half_point = static_cast<double>(sizes[i]);
    }
    if (mpi_half_point == 0 && mpi_curve[i] >= mpi_peak / 2) {
      mpi_half_point = static_cast<double>(sizes[i]);
    }
  }
  std::printf("\nderived quantities            measured      paper\n");
  std::printf("LAPI asymptotic bandwidth   %8.1f MB/s   ~97 MB/s\n", lapi_peak);
  std::printf("MPI  asymptotic bandwidth   %8.1f MB/s   ~98 MB/s\n", mpi_peak);
  std::printf("LAPI half-bandwidth point   %8.0f B      ~8 KB\n",
              lapi_half_point);
  std::printf("MPI  half-bandwidth point   %8.0f B      ~23 KB\n",
              mpi_half_point);
  if (json_out != nullptr) emit_rdma_json(json_out);
  return 0;
}
