#include "kmeans/simt_kmeans.hpp"

#include <algorithm>
#include <atomic>

#include "kernels/kernels.hpp"
#include "kmeans/detail.hpp"
#include "support/check.hpp"
#include "support/parallel_for.hpp"

namespace peachy::kmeans {

Result cluster_simt(const data::PointSet& points, const Options& opts, const SimtConfig& cfg,
                    support::ThreadPool& pool, SimtStats* stats) {
  detail::validate(points, opts);
  PEACHY_CHECK(cfg.block_size >= 1, "simt: block size must be positive");
  const std::size_t n = points.size();
  const std::size_t d = points.dims();
  const std::size_t k = opts.k;
  const std::size_t nblocks = (n + cfg.block_size - 1) / cfg.block_size;

  Result res;
  res.centroids = initial_centroids(points, opts);
  res.assignment.assign(n, -1);

  std::atomic<std::uint64_t> atomic_updates{0};
  std::size_t blocks_launched = 0;

  std::vector<double> sums(k * d);
  std::vector<std::int64_t> counts(k);

  for (res.iterations = 1; res.iterations <= opts.max_iterations; ++res.iterations) {
    // Global device buffers for this iteration.
    std::vector<std::atomic<double>> g_sums(k * d);
    std::vector<std::atomic<std::int64_t>> g_counts(k);
    std::atomic<std::size_t> g_changes{0};

    // One read-only centroid panel per iteration, shared by all blocks.
    const auto panel = res.centroids.transposed_panel();

    // Kernel launch: one pool task per block; lanes are loop iterations.
    support::parallel_for(pool, 0, nblocks, [&](std::size_t block) {
      const std::size_t lo = block * cfg.block_size;
      const std::size_t hi = std::min(n, lo + cfg.block_size);

      if (cfg.reduce == SimtReduce::kGlobalAtomic) {
        for (std::size_t i = lo; i < hi; ++i) {  // each lane: one point
          const auto c = static_cast<std::int32_t>(kernels::argmin_batch(
              points.point(i).data(), d, panel.data(), k, panel.padded));
          if (c != res.assignment[i]) g_changes.fetch_add(1, std::memory_order_relaxed);
          res.assignment[i] = c;
          g_counts[static_cast<std::size_t>(c)].fetch_add(1, std::memory_order_relaxed);
          const auto p = points.point(i);
          for (std::size_t j = 0; j < d; ++j) {
            g_sums[static_cast<std::size_t>(c) * d + j].fetch_add(p[j],
                                                                  std::memory_order_relaxed);
          }
          atomic_updates.fetch_add(d + 1, std::memory_order_relaxed);
        }
      } else {
        // Block-shared scratch ("__shared__"): the fused kernel runs the
        // whole block into it, then one representative lane merges.
        std::vector<double> s_sums(k * d, 0.0);
        std::vector<std::int64_t> s_counts(k, 0);
        const std::size_t s_changes = kernels::argmin_assign(
            points.values().data() + lo * d, hi - lo, d, panel.data(), k, panel.padded,
            res.assignment.data() + lo, s_sums.data(), s_counts.data());
        // One representative lane merges the block partials globally.
        std::uint64_t merges = 0;
        for (std::size_t i = 0; i < k * d; ++i) {
          if (s_sums[i] != 0.0) {
            g_sums[i].fetch_add(s_sums[i], std::memory_order_relaxed);
            ++merges;
          }
        }
        for (std::size_t c = 0; c < k; ++c) {
          if (s_counts[c] != 0) {
            g_counts[c].fetch_add(s_counts[c], std::memory_order_relaxed);
            ++merges;
          }
        }
        g_changes.fetch_add(s_changes, std::memory_order_relaxed);
        atomic_updates.fetch_add(merges + 1, std::memory_order_relaxed);
      }
    });
    blocks_launched += nblocks;

    const std::size_t changes = g_changes.load();
    for (std::size_t i = 0; i < k * d; ++i) sums[i] = g_sums[i].load();
    for (std::size_t c = 0; c < k; ++c) counts[c] = g_counts[c].load();

    if (detail::end_iteration(opts, changes, sums, counts, res.centroids, res)) break;
  }
  res.inertia = inertia(points, res.centroids, res.assignment);

  if (stats != nullptr) {
    stats->global_atomic_updates = atomic_updates.load();
    stats->blocks_launched = blocks_launched;
  }
  return res;
}

}  // namespace peachy::kmeans
