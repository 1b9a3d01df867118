/// \file bench_kernels.cpp
/// \brief Kernel-layer regression harness: times every peachy::kernels
/// primitive against its scalar reference twin and emits the results as
/// machine-readable JSON (schema "peachy-bench/1") so each PR has a perf
/// trajectory to compare against.
///
/// Usage:
///   bench_kernels [--tiny] [--repeat N] [--out FILE]
///
/// --tiny shrinks every workload to smoke-test size (for scripts/check.sh
/// bench-smoke: validates the wiring and the JSON schema, not the
/// numbers).  Default output file: BENCH_kernels.json in the CWD.
///
/// Method: best-of-R wall time per benchmark (minimum is the standard
/// noise-robust microbenchmark estimator), identical buffers and sizes
/// for the scalar and dispatched runs, results accumulated into a sink
/// that is printed so the optimizer cannot delete the work.  --repeat N
/// runs the whole suite N times and keeps the per-row minimum: on shared
/// or frequency-scaled hosts, interference arrives in bursts that can
/// swallow all reps of a single pass, so passes spaced over the full
/// suite duration are needed for the minimum to reach the machine's
/// quiet-state floor (what the committed baseline and the <2% CI gates
/// are defined against).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "data/points.hpp"
#include "kernels/kernels.hpp"
#include "rng/lcg.hpp"
#include "rng/distributions.hpp"
#include "support/aligned.hpp"
#include "support/timer.hpp"

namespace {

namespace pk = peachy::kernels;
namespace ps = peachy::support;
namespace rng = peachy::rng;

double g_sink = 0.0;  // defeats dead-code elimination; printed at the end

struct Row {
  std::string name;
  std::string shape;
  std::uint64_t items;  // elements of useful work per run (for context)
  double scalar_ns;
  double kernel_ns;
  double speedup;
};

std::vector<Row> g_rows;

/// Time scalar vs dispatched variants of one workload and record a row.
/// Each timed rep runs the workload `inner` times (amortizes clock
/// granularity and scheduler noise for sub-100us workloads); reported
/// nanoseconds are per single run.
template <typename ScalarFn, typename KernelFn>
void bench(const std::string& name, const std::string& shape, std::uint64_t items, int reps,
           int inner, ScalarFn&& scalar, KernelFn&& kernel) {
  const double s = ps::time_best_of(reps, [&] {
                     for (int r = 0; r < inner; ++r) scalar();
                   }) *
                   1e9 / inner;
  const double v = ps::time_best_of(reps, [&] {
                     for (int r = 0; r < inner; ++r) kernel();
                   }) *
                   1e9 / inner;
  for (Row& row : g_rows) {
    if (row.name == name) {  // later --repeat pass: keep the per-row minimum
      row.scalar_ns = std::min(row.scalar_ns, s);
      row.kernel_ns = std::min(row.kernel_ns, v);
      row.speedup = row.scalar_ns / row.kernel_ns;
      return;
    }
  }
  g_rows.push_back({name, shape, items, s, v, s / v});
  std::printf("%-28s %-22s scalar %12.0f ns   kernel %12.0f ns   speedup %5.2fx\n",
              name.c_str(), shape.c_str(), s, v, s / v);
}

ps::aligned_vector<double> random_buffer(std::size_t n, std::uint64_t seed) {
  rng::Lcg64 gen{seed};
  ps::aligned_vector<double> buf(n);
  for (double& x : buf) x = rng::uniform_real(gen, -1.0, 1.0);
  return buf;
}

void run_all(bool tiny) {
  const int reps = tiny ? 1 : 11;

  // The fused k-means assignment step (argmin + sums/counts), the
  // k-means/kNN hot path, at the assignment-typical and
  // acceptance-criterion dimensions; then the bounded scan's kernel.
  for (const std::size_t d : {2ul, 8ul, 32ul}) {
    const std::size_t n = tiny ? 64 : 20000;
    const std::size_t k = tiny ? 5 : 64;
    peachy::data::PointSet pts{n, d};
    {
      auto buf = random_buffer(n * d, 11);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < d; ++j) pts.at(i, j) = buf[i * d + j];
      }
    }
    peachy::data::PointSet cents{k, d};
    {
      auto buf = random_buffer(k * d, 13);
      for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t j = 0; j < d; ++j) cents.at(c, j) = buf[c * d + j];
      }
    }
    const auto panel = cents.transposed_panel();
    const std::string shape =
        "n=" + std::to_string(n) + " k=" + std::to_string(k) + " d=" + std::to_string(d);
    std::vector<std::int32_t> assign(n, -1);
    ps::aligned_vector<double> sums(k * d);
    std::vector<std::int64_t> counts(k);
    bench(
        "argmin_assign_d" + std::to_string(d), shape, n, reps, 1,
        [&] {
          std::fill(sums.begin(), sums.end(), 0.0);
          std::fill(counts.begin(), counts.end(), 0);
          g_sink += static_cast<double>(pk::ref::argmin_assign(
              pts.values().data(), n, d, panel.data(), k, panel.padded, assign.data(),
              sums.data(), counts.data()));
        },
        [&] {
          std::fill(sums.begin(), sums.end(), 0.0);
          std::fill(counts.begin(), counts.end(), 0);
          g_sink += static_cast<double>(pk::argmin_assign(pts.values().data(), n, d,
                                                          panel.data(), k, panel.padded,
                                                          assign.data(), sums.data(),
                                                          counts.data()));
        });

    // The bounded k-means scan (nearest and second-nearest centroid over
    // a row list) at the same shape, every row listed.
    std::vector<std::int32_t> rows(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = static_cast<std::int32_t>(i);
    ps::aligned_vector<double> best(n), second(n);
    bench(
        "argmin2_rows_d" + std::to_string(d), shape, n, reps, 1,
        [&] {
          g_sink += static_cast<double>(pk::ref::argmin2_rows(
              pts.values().data(), rows.data(), n, d, panel.data(), k, panel.padded,
              assign.data(), best.data(), second.data()));
        },
        [&] {
          g_sink += static_cast<double>(pk::argmin2_rows(pts.values().data(), rows.data(), n,
                                                         d, panel.data(), k, panel.padded,
                                                         assign.data(), best.data(),
                                                         second.data()));
        });
  }

  // Pairwise distances, row-batched (kNN brute force; kmeans++ seeding).
  {
    const std::size_t n = tiny ? 64 : 50000;
    const std::size_t d = 16;
    const auto pts = random_buffer(n * d, 17);
    const auto q = random_buffer(d, 19);
    ps::aligned_vector<double> out(n);
    const std::string shape = "n=" + std::to_string(n) + " d=" + std::to_string(d);
    bench(
        "rows_distances_d16", shape, n, reps, tiny ? 1 : 16,
        [&] {
          pk::ref::squared_distances_rows(pts.data(), n, d, q.data(), out.data());
          g_sink += out[n - 1];
        },
        [&] {
          pk::squared_distances_rows(pts.data(), n, d, q.data(), out.data());
          g_sink += out[n - 1];
        });
  }

  // Heat stencil row (the explicit update of §6).  Cache-resident size:
  // the experiment grids are at most a few 10^4 cells, and far beyond the
  // LLC the kernel is DRAM-bandwidth-bound (vectorization can't help a
  // 2 doubles/elem streaming loop there).
  {
    const std::size_t n = tiny ? 128 : (1u << 16);
    const auto src = random_buffer(n + 2, 23);
    ps::aligned_vector<double> dst(n + 2);
    const std::string shape = "n=" + std::to_string(n);
    bench(
        "stencil_row", shape, n, reps, tiny ? 1 : 16,
        [&] {
          pk::ref::stencil_row(dst.data() + 1, src.data() + 1, n, 0.25);
          g_sink += dst[n];
        },
        [&] {
          pk::stencil_row(dst.data() + 1, src.data() + 1, n, 0.25);
          g_sink += dst[n];
        });
  }

  // Register-tiled matmul (the MLP forward/backward product of §7).
  {
    const std::size_t n = tiny ? 12 : 192;
    const auto a = random_buffer(n * n, 29);
    const auto b = random_buffer(n * n, 31);
    ps::aligned_vector<double> c(n * n);
    const std::string shape =
        std::to_string(n) + "x" + std::to_string(n) + "x" + std::to_string(n);
    bench(
        "gemm_block", shape, n * n * n, reps, 1,
        [&] {
          std::fill(c.begin(), c.end(), 0.0);
          pk::ref::gemm_block(a.data(), b.data(), c.data(), n, n, n);
          g_sink += c[n * n - 1];
        },
        [&] {
          std::fill(c.begin(), c.end(), 0.0);
          pk::gemm_block(a.data(), b.data(), c.data(), n, n, n);
          g_sink += c[n * n - 1];
        });
  }

  // Dot product / axpy (backprop's a_bt product and SGD update).
  {
    const std::size_t n = tiny ? 100 : 100000;
    const auto a = random_buffer(n, 37);
    const auto b = random_buffer(n, 41);
    ps::aligned_vector<double> y(n, 0.0);
    const std::string shape = "n=" + std::to_string(n);
    bench(
        "dot", shape, n, reps, tiny ? 1 : 16, [&] { g_sink += pk::ref::dot(a.data(), b.data(), n); },
        [&] { g_sink += pk::dot(a.data(), b.data(), n); });
    bench(
        "axpy", shape, n, reps, tiny ? 1 : 16,
        [&] {
          pk::ref::axpy(y.data(), a.data(), 0.5, n);
          g_sink += y[n - 1];
        },
        [&] {
          pk::axpy(y.data(), a.data(), 0.5, n);
          g_sink += y[n - 1];
        });
  }
}

void write_json(const std::string& path, bool tiny) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"peachy-bench/1\",\n");
  std::fprintf(f, "  \"harness\": \"bench_kernels\",\n");
  std::fprintf(f, "  \"isa\": \"%s\",\n", pk::isa_name(pk::active_isa()));
  std::fprintf(f, "  \"tiny\": %s,\n", tiny ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"items\": %llu, "
                 "\"scalar_ns\": %.1f, \"kernel_ns\": %.1f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.shape.c_str(), static_cast<unsigned long long>(r.items),
                 r.scalar_ns, r.kernel_ns, r.speedup, i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu benchmarks, isa=%s)\n", path.c_str(), g_rows.size(),
              pk::isa_name(pk::active_isa()));
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  int repeat = 1;
  std::string out = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) {
        std::fprintf(stderr, "bench_kernels: --repeat wants a positive count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_kernels [--tiny] [--repeat N] [--out FILE]\n");
      return 2;
    }
  }
  std::printf("bench_kernels: active isa = %s%s\n", pk::isa_name(pk::active_isa()),
              tiny ? " (tiny smoke sizes)" : "");
  for (int pass = 0; pass < repeat; ++pass) {
    if (repeat > 1) std::printf("-- pass %d/%d --\n", pass + 1, repeat);
    run_all(tiny);
  }
  write_json(out, tiny);
  std::printf("sink=%g\n", g_sink);
  return 0;
}
