#pragma once
/// \file points.hpp
/// \brief Dense point-set container and synthetic dataset generators.
///
/// The kNN and k-means assignments both operate on "n objects represented
/// as d-dimensional points" (paper §2, §3).  `PointSet` is the shared
/// row-major container; `LabeledPoints` adds a class label per point.
/// Because the container has no external datasets, `gaussian_blobs` /
/// `two_moons` generate datahub.io-style classification instances with a
/// controllable difficulty (cluster spread), and CSV import/export
/// round-trips them through the §2 "parse the database from a CSV file"
/// code path.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/csv.hpp"
#include "rng/lcg.hpp"
#include "support/aligned.hpp"

namespace peachy::data {

/// SoA-transposed centroid panel in the peachy::kernels layout: centroids
/// grouped kernels::kPanelLane at a time, each group dimension-major —
/// `values[(g*dims + j)*lane_width + lane]` is coordinate j of centroid
/// `g*lane_width + lane`.  Padded tail lanes hold +infinity so they can
/// never win an argmin.  Built by PointSet::transposed_panel(); consumed
/// by kernels::argmin_batch / argmin_assign.
struct TransposedPanel {
  std::size_t count = 0;   ///< real centroids
  std::size_t dims = 0;    ///< coordinates per centroid
  std::size_t padded = 0;  ///< count rounded up to whole lane groups
  support::aligned_vector<double> values;

  [[nodiscard]] const double* data() const noexcept { return values.data(); }
};

/// Row-major dense matrix of n points in d dimensions.
class PointSet {
 public:
  PointSet() = default;

  /// Allocate n×d zeros.
  PointSet(std::size_t n, std::size_t d);

  /// Wrap existing row-major values (size must be n*d).
  PointSet(std::size_t n, std::size_t d, std::vector<double> values);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t dims() const noexcept { return d_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// The i-th point as a span of d coordinates.
  [[nodiscard]] std::span<const double> point(std::size_t i) const;
  [[nodiscard]] std::span<double> point(std::size_t i);

  [[nodiscard]] double& at(std::size_t i, std::size_t j);
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// Backing storage: row-major, 64-byte aligned (kernel-layer contract).
  [[nodiscard]] const support::aligned_vector<double>& values() const noexcept {
    return values_;
  }

  /// The same storage, writable in place (e.g. to receive rows into it).
  [[nodiscard]] std::span<double> mutable_values() noexcept { return values_; }

  /// Build the SoA-transposed panel of these points for the batched
  /// distance kernels (centroid role: k-means calls this per iteration
  /// on the current centroids).
  [[nodiscard]] TransposedPanel transposed_panel() const;

  /// Append one point (dimension must match; first append fixes d for an
  /// empty set).
  void push_back(std::span<const double> p);

  /// Squared Euclidean distance between point i and an external point q.
  [[nodiscard]] double squared_distance(std::size_t i, std::span<const double> q) const;

 private:
  std::size_t n_ = 0;
  std::size_t d_ = 0;
  support::aligned_vector<double> values_;
};

/// Points plus one integer class label per point.
struct LabeledPoints {
  PointSet points;
  std::vector<std::int32_t> labels;

  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
  [[nodiscard]] std::size_t dims() const noexcept { return points.dims(); }
  [[nodiscard]] std::size_t num_classes() const;
};

/// Parameters for the Gaussian-mixture generator.
struct BlobsSpec {
  std::size_t points_per_class = 100;
  std::size_t classes = 3;
  std::size_t dims = 2;
  double center_box = 10.0;  ///< class centers drawn uniformly in [-box, box]^d
  double spread = 1.0;       ///< per-class isotropic stddev; larger = harder
  std::uint64_t seed = 1;
};

/// Gaussian blobs: `classes` isotropic clusters — the classic kNN /
/// k-means training instance.  Points are emitted class-by-class.
[[nodiscard]] LabeledPoints gaussian_blobs(const BlobsSpec& spec);

/// Two interleaving half-moons in 2-D (binary classification, non-convex
/// decision boundary) — exercises kNN where linear models fail.
[[nodiscard]] LabeledPoints two_moons(std::size_t points_per_class, double noise,
                                      std::uint64_t seed);

/// Uniform noise points in [lo,hi]^d (background/stress workloads).
[[nodiscard]] PointSet uniform_points(std::size_t n, std::size_t d, double lo, double hi,
                                      std::uint64_t seed);

/// Split into train/test by shuffling with `seed`; test_fraction in (0,1).
struct TrainTestSplit {
  LabeledPoints train;
  LabeledPoints test;
};
[[nodiscard]] TrainTestSplit train_test_split(const LabeledPoints& all, double test_fraction,
                                              std::uint64_t seed);

/// Z-score normalize each dimension in-place using mean/stddev computed
/// from `fit`; applies the same transform to `apply` (test data must be
/// scaled with train statistics).  Constant dimensions are left unscaled.
void zscore_normalize(PointSet& fit, PointSet* apply = nullptr);

/// Export as CSV rows: d coordinate columns then a "label" column.
[[nodiscard]] std::vector<CsvRow> to_csv(const LabeledPoints& data, bool header = true);

/// Import from CSV rows produced by to_csv (or hand-written files in the
/// same layout).  Throws peachy::Error on ragged rows or non-numeric
/// coordinates.
[[nodiscard]] LabeledPoints from_csv(const std::vector<CsvRow>& rows, bool header = true);

}  // namespace peachy::data
