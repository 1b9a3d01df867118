/// \file variants.cpp
/// \brief The OpenMP-strategy stages of the k-means assignment (paper §3).
///
/// The four stages the students walk through — critical regions, atomic
/// operations, reductions, and cache-aware reductions — implemented as
/// selectable variants over the shared thread pool.  Each iteration's
/// parallel region mirrors `#pragma omp parallel for` with a static
/// schedule over the points.

#include <atomic>
#include <mutex>

#include "kernels/kernels.hpp"
#include "kmeans/detail.hpp"
#include "kmeans/kmeans.hpp"
#include "support/check.hpp"
#include "support/parallel_for.hpp"

namespace peachy::kmeans {

namespace {

/// Cache-line padded accumulator block for the kReductionPadded variant.
struct alignas(64) PaddedCounter {
  std::size_t value = 0;
};

}  // namespace

Result cluster_parallel(const data::PointSet& points, const Options& opts, Variant variant,
                        support::ThreadPool& pool, std::size_t threads) {
  detail::validate(points, opts);
  PEACHY_CHECK(threads >= 1, "kmeans: threads must be at least 1");
  const std::size_t n = points.size();
  const std::size_t d = points.dims();
  const std::size_t k = opts.k;

  Result res;
  res.centroids = initial_centroids(points, opts);
  res.assignment.assign(n, -1);

  // Shared accumulators for the critical/atomic stages.
  std::vector<double> sums(k * d);
  std::vector<std::int64_t> counts(k);

  for (res.iterations = 1; res.iterations <= opts.max_iterations; ++res.iterations) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    std::size_t changes = 0;

    // One centroid panel per iteration, shared read-only by all threads
    // — the same kernel every other k-means implementation uses, so
    // assignments agree bit-for-bit across variants.
    const auto panel = res.centroids.transposed_panel();

    switch (variant) {
      case Variant::kCritical: {
        // Stage 2: every shared update inside one critical region.  The
        // distance computation stays outside (or nothing would scale).
        std::mutex critical;
        support::parallel_for_threads(
            pool, n, threads, [&](std::size_t, std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                const auto c = static_cast<std::int32_t>(kernels::argmin_batch(
                    points.point(i).data(), d, panel.data(), k, panel.padded));
                const auto p = points.point(i);
                std::lock_guard guard{critical};
                if (c != res.assignment[i]) ++changes;
                res.assignment[i] = c;
                ++counts[static_cast<std::size_t>(c)];
                for (std::size_t j = 0; j < d; ++j) {
                  sums[static_cast<std::size_t>(c) * d + j] += p[j];
                }
              }
            });
        break;
      }

      case Variant::kAtomic: {
        // Stage 3: atomic fetch-adds replace the critical region.  Each
        // point's writes are independent; assignment[i] is only written by
        // the owner of i, so only the accumulators need atomics.
        std::atomic<std::size_t> a_changes{0};
        std::vector<std::atomic<double>> a_sums(k * d);
        std::vector<std::atomic<std::int64_t>> a_counts(k);
        support::parallel_for_threads(
            pool, n, threads, [&](std::size_t, std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                const auto c = static_cast<std::int32_t>(kernels::argmin_batch(
                    points.point(i).data(), d, panel.data(), k, panel.padded));
                if (c != res.assignment[i]) a_changes.fetch_add(1, std::memory_order_relaxed);
                res.assignment[i] = c;
                a_counts[static_cast<std::size_t>(c)].fetch_add(1, std::memory_order_relaxed);
                const auto p = points.point(i);
                for (std::size_t j = 0; j < d; ++j) {
                  a_sums[static_cast<std::size_t>(c) * d + j].fetch_add(
                      p[j], std::memory_order_relaxed);
                }
              }
            });
        changes = a_changes.load();
        for (std::size_t i = 0; i < k * d; ++i) sums[i] = a_sums[i].load();
        for (std::size_t c = 0; c < k; ++c) counts[c] = a_counts[c].load();
        break;
      }

      case Variant::kReduction:
      case Variant::kReductionPadded: {
        // Stage 4: per-thread private accumulators, merged in thread
        // order — no synchronization in the hot loop, deterministic sums.
        const bool padded = variant == Variant::kReductionPadded;
        // Padded layout rounds each thread's buffer up to whole cache
        // lines so threads never write the same line (false sharing).
        const std::size_t stride =
            padded ? ((k * d + 7) / 8) * 8 : k * d;  // 8 doubles = 64 bytes
        std::vector<double> t_sums(threads * stride, 0.0);
        std::vector<std::int64_t> t_counts(threads * k, 0);
        std::vector<PaddedCounter> t_changes(threads);
        support::parallel_for_threads(
            pool, n, threads, [&](std::size_t t, std::size_t lo, std::size_t hi) {
              // The fused kernel runs the whole block: assignment writes
              // land in this thread's slice of res.assignment, sums and
              // counts in its private accumulators (point order, then
              // dimension order — the sequential reference order, so the
              // thread-ordered merge below is deterministic).
              t_changes[t].value = kernels::argmin_assign(
                  points.values().data() + lo * d, hi - lo, d, panel.data(), k, panel.padded,
                  res.assignment.data() + lo, t_sums.data() + t * stride,
                  t_counts.data() + t * k);
            });
        for (std::size_t t = 0; t < threads; ++t) {
          changes += t_changes[t].value;
          for (std::size_t i = 0; i < k * d; ++i) sums[i] += t_sums[t * stride + i];
          for (std::size_t c = 0; c < k; ++c) counts[c] += t_counts[t * k + c];
        }
        break;
      }
    }

    if (detail::end_iteration(opts, changes, sums, counts, res.centroids, res)) break;
  }
  res.inertia = inertia(points, res.centroids, res.assignment);
  return res;
}

}  // namespace peachy::kmeans
