#include "kmeans/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "kernels/kernels.hpp"
#include "kmeans/detail.hpp"
#include "rng/distributions.hpp"
#include "rng/lcg.hpp"
#include "support/check.hpp"

namespace peachy::kmeans {

std::string to_string(Variant v) {
  switch (v) {
    case Variant::kCritical: return "critical";
    case Variant::kAtomic: return "atomic";
    case Variant::kReduction: return "reduction";
    case Variant::kReductionPadded: return "reduction+padded";
  }
  return "?";
}

namespace detail {

void validate(const data::PointSet& points, const Options& opts) {
  PEACHY_CHECK(points.size() > 0, "kmeans: empty dataset");
  PEACHY_CHECK(opts.k >= 1, "kmeans: k must be at least 1");
  PEACHY_CHECK(opts.k <= points.size(), "kmeans: k exceeds the number of points");
  PEACHY_CHECK(opts.max_iterations >= 1, "kmeans: need at least one iteration");
  PEACHY_CHECK(opts.move_tolerance >= 0.0, "kmeans: negative tolerance");
}

bool end_iteration(const Options& opts, std::size_t changes, std::span<const double> sums,
                   std::span<const std::int64_t> counts, data::PointSet& centroids,
                   Result& res, std::span<double> moves) {
  res.changes_per_iteration.push_back(changes);

  // Phase 2: new centroid positions and the largest displacement.
  const std::size_t k = centroids.size();
  const std::size_t d = centroids.dims();
  double max_move2 = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (!moves.empty()) moves[c] = 0.0;
    if (counts[c] == 0) continue;
    double move2 = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double nv = sums[c * d + j] / static_cast<double>(counts[c]);
      const double diff = nv - centroids.at(c, j);
      move2 += diff * diff;
      centroids.at(c, j) = nv;
    }
    if (!moves.empty()) moves[c] = std::sqrt(move2);
    max_move2 = std::max(max_move2, move2);
  }
  const double max_move = std::sqrt(max_move2);

  if (changes <= opts.min_changes) {
    res.termination = Termination::kMinChanges;
  } else if (max_move <= opts.move_tolerance) {
    res.termination = Termination::kCentroidsConverged;
  } else if (res.iterations >= opts.max_iterations) {
    res.termination = Termination::kMaxIterations;
  } else {
    return false;
  }
  return true;
}

}  // namespace detail

data::PointSet initial_centroids(const data::PointSet& points, const Options& opts) {
  detail::validate(points, opts);
  rng::Lcg64 gen{opts.seed};
  data::PointSet centroids(opts.k, points.dims());

  if (opts.init == Init::kRandomPoints) {
    // k distinct points, drawn uniformly.
    std::set<std::size_t> chosen;
    while (chosen.size() < opts.k) {
      chosen.insert(static_cast<std::size_t>(rng::uniform_below(gen, points.size())));
    }
    std::size_t c = 0;
    for (std::size_t idx : chosen) {
      const auto p = points.point(idx);
      std::copy(p.begin(), p.end(), centroids.point(c++).begin());
    }
    return centroids;
  }

  // k-means++: first centroid uniform, then D² sampling.
  std::vector<double> d2(points.size());
  const auto first = static_cast<std::size_t>(rng::uniform_below(gen, points.size()));
  std::copy(points.point(first).begin(), points.point(first).end(),
            centroids.point(0).begin());
  kernels::squared_distances_rows(points.values().data(), points.size(), points.dims(),
                                  centroids.point(0).data(), d2.data());
  for (std::size_t c = 1; c < opts.k; ++c) {
    double total = 0.0;
    for (double v : d2) total += v;
    std::size_t pick = 0;
    if (total > 0.0) {
      const double u = rng::uniform01(gen) * total;
      double acc = 0.0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        acc += d2[i];
        if (acc >= u) {
          pick = i;
          break;
        }
      }
    } else {
      pick = static_cast<std::size_t>(rng::uniform_below(gen, points.size()));
    }
    std::copy(points.point(pick).begin(), points.point(pick).end(),
              centroids.point(c).begin());
    const double* pv = points.values().data();
    const double* cv = centroids.point(c).data();
    const std::size_t dims = points.dims();
    for (std::size_t i = 0; i < points.size(); ++i) {
      // Exact-duplicate guard: a point at distance 0 can never move
      // closer, so skip its distance computation entirely.
      if (d2[i] == 0.0) continue;
      d2[i] = std::min(d2[i], kernels::squared_distance(pv + i * dims, cv, dims));
    }
  }
  return centroids;
}

std::size_t nearest_centroid(const data::PointSet& centroids, std::span<const double> point) {
  PEACHY_CHECK(point.size() == centroids.dims(), "nearest_centroid: dimension mismatch");
  // Convenience form: builds the panel per call.  The hot loops build it
  // once per iteration and call kernels::argmin_batch directly — both
  // paths share the kernel, so every k-means implementation agrees on
  // assignments bit-for-bit (strict <, ties keep the lower index).
  const auto panel = centroids.transposed_panel();
  return kernels::argmin_batch(point.data(), centroids.dims(), panel.data(), panel.count,
                               panel.padded);
}

double inertia(const data::PointSet& points, const data::PointSet& centroids,
               std::span<const std::int32_t> assignment) {
  PEACHY_CHECK(assignment.size() == points.size(), "inertia: assignment size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    total += centroids.squared_distance(static_cast<std::size_t>(assignment[i]),
                                        points.point(i));
  }
  return total;
}

Result cluster_sequential(const data::PointSet& points, const Options& opts) {
  detail::validate(points, opts);
  const std::size_t n = points.size();
  const std::size_t d = points.dims();
  const std::size_t k = opts.k;

  Result res;
  res.centroids = initial_centroids(points, opts);
  res.assignment.assign(n, -1);

  std::vector<double> sums(k * d);
  std::vector<std::int64_t> counts(k);

  for (res.iterations = 1; res.iterations <= opts.max_iterations; ++res.iterations) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);

    // Phase 1 (+ fused accumulation for phase 2): one pass of the fused
    // assignment kernel over the current centroid panel.
    const auto panel = res.centroids.transposed_panel();
    const std::size_t changes =
        kernels::argmin_assign(points.values().data(), n, d, panel.data(), k, panel.padded,
                               res.assignment.data(), sums.data(), counts.data());
    if (detail::end_iteration(opts, changes, sums, counts, res.centroids, res)) break;
  }
  res.inertia = inertia(points, res.centroids, res.assignment);
  return res;
}

}  // namespace peachy::kmeans
