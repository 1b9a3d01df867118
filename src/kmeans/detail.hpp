#pragma once
/// \file detail.hpp
/// \brief Internals shared by the k-means implementations (sequential,
/// threaded variants, mini-MPI, SIMT).  Not part of the public API.

#include <cstdint>
#include <span>

#include "data/points.hpp"
#include "kmeans/kmeans.hpp"

namespace peachy::kmeans::detail {

/// Validate (points, opts) or throw peachy::Error.
void validate(const data::PointSet& points, const Options& opts);

/// Close main-loop iteration `res.iterations` the same way in every
/// implementation: record `changes`, move each centroid to the mean of
/// its points (sums / counts; an empty cluster keeps its centroid), then
/// apply the assignment's three thresholds in order — changed points <=
/// min_changes, largest centroid move <= move_tolerance, max_iterations
/// reached.  Returns true, with res.termination set, when the main loop
/// must stop; the loop therefore never runs past max_iterations.  A
/// non-empty `moves` (k entries) receives each centroid's displacement
/// (0 for an empty cluster), for drivers that keep distance bounds.
bool end_iteration(const Options& opts, std::size_t changes, std::span<const double> sums,
                   std::span<const std::int64_t> counts, data::PointSet& centroids,
                   Result& res, std::span<double> moves = {});

}  // namespace peachy::kmeans::detail
