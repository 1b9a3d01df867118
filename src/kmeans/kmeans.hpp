#pragma once
/// \file kmeans.hpp
/// \brief K-means clustering assignment (paper §3).
///
/// Students receive a sequential program with "static data structures"
/// whose main loop has two phases: (1) re-assign each point to the nearest
/// centroid, tracking the number of cluster changes; (2) recompute each
/// centroid as the mean of its points.  Both phases update shared
/// accumulators — the race conditions the assignment teaches.  The
/// parallelization strategy is reproduced as selectable variants:
///
///   Variant::kCritical   — stage 2 of the strategy: all shared updates
///                          inside one critical region;
///   Variant::kAtomic     — stage 3: atomic fetch-adds;
///   Variant::kReduction  — stage 4: per-thread private accumulators
///                          merged in thread order (deterministic);
///   Variant::kReductionPadded — the "further optimizations based on
///                          cache effects": reduction buffers padded to
///                          cache lines to kill false sharing.
///
/// The distributed (mini-MPI) version is in mpi_kmeans.hpp; the
/// CUDA-style SIMT version in simt_kmeans.hpp.

#include <cstdint>
#include <string>
#include <vector>

#include "data/points.hpp"
#include "support/thread_pool.hpp"

namespace peachy::kmeans {

/// Centroid initialization method.
enum class Init {
  kRandomPoints,  ///< k distinct points drawn uniformly (the assignment's default)
  kPlusPlus,      ///< k-means++ (D² sampling)
};

/// Why the main loop stopped — the assignment's three thresholds.
enum class Termination { kMaxIterations, kMinChanges, kCentroidsConverged };

/// Clustering parameters.
struct Options {
  std::size_t k = 8;
  std::size_t max_iterations = 200;
  std::size_t min_changes = 0;       ///< stop when changed points <= this
  double move_tolerance = 1e-8;      ///< stop when max centroid displacement <= this
  Init init = Init::kRandomPoints;
  std::uint64_t seed = 1;
};

/// Clustering output.
struct Result {
  data::PointSet centroids;               ///< k × d final centroid positions
  std::vector<std::int32_t> assignment;   ///< cluster of each input point
  std::size_t iterations = 0;
  Termination termination = Termination::kMaxIterations;
  double inertia = 0.0;                   ///< Σ point-to-centroid squared distance
  std::vector<std::size_t> changes_per_iteration;
};

/// OpenMP-strategy stage (see file comment).
enum class Variant { kCritical, kAtomic, kReduction, kReductionPadded };

[[nodiscard]] std::string to_string(Variant v);

/// Initial centroids for a dataset (exposed so every implementation —
/// sequential, threaded, MPI, SIMT — starts from identical positions).
[[nodiscard]] data::PointSet initial_centroids(const data::PointSet& points,
                                               const Options& opts);

/// Index of the centroid nearest to points[i] (ties break to the lower
/// centroid index — keeps every implementation bit-agreeing).
[[nodiscard]] std::size_t nearest_centroid(const data::PointSet& centroids,
                                           std::span<const double> point);

/// The intentionally understandable sequential reference (the starter
/// code students receive).  It is also the unbounded oracle: every
/// iteration scans every point with kernels::argmin_assign, with no
/// distance bounds, so it shares no skipping logic with the bounded
/// cluster_mpi that tests and bench_e2e check against it.
[[nodiscard]] Result cluster_sequential(const data::PointSet& points, const Options& opts);

/// Shared-memory parallel clustering in the chosen strategy stage, on
/// `threads` pool tasks with a static schedule.
[[nodiscard]] Result cluster_parallel(const data::PointSet& points, const Options& opts,
                                      Variant variant, support::ThreadPool& pool,
                                      std::size_t threads);

/// Σ squared distance of each point to its assigned centroid.
[[nodiscard]] double inertia(const data::PointSet& points, const data::PointSet& centroids,
                             std::span<const std::int32_t> assignment);

}  // namespace peachy::kmeans
