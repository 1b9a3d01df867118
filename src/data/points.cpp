#include "data/points.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>

#include "kernels/kernels.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix.hpp"
#include "support/check.hpp"

namespace peachy::data {

PointSet::PointSet(std::size_t n, std::size_t d) : n_{n}, d_{d}, values_(n * d, 0.0) {
  PEACHY_CHECK(d > 0 || n == 0, "points need at least one dimension");
}

PointSet::PointSet(std::size_t n, std::size_t d, std::vector<double> values)
    : n_{n}, d_{d}, values_{values.begin(), values.end()} {
  // Copied, not moved: the backing store is re-homed into aligned memory
  // so the kernel layer can assume 64-byte-aligned rows.
  PEACHY_CHECK(values_.size() == n * d, "PointSet: values size != n*d");
  PEACHY_CHECK(d > 0 || n == 0, "points need at least one dimension");
}

std::span<const double> PointSet::point(std::size_t i) const {
  PEACHY_CHECK(i < n_, "point index out of range");
  return {values_.data() + i * d_, d_};
}

std::span<double> PointSet::point(std::size_t i) {
  PEACHY_CHECK(i < n_, "point index out of range");
  return {values_.data() + i * d_, d_};
}

double& PointSet::at(std::size_t i, std::size_t j) {
  PEACHY_CHECK(i < n_ && j < d_, "PointSet::at out of range");
  return values_[i * d_ + j];
}

double PointSet::at(std::size_t i, std::size_t j) const {
  PEACHY_CHECK(i < n_ && j < d_, "PointSet::at out of range");
  return values_[i * d_ + j];
}

void PointSet::push_back(std::span<const double> p) {
  if (n_ == 0 && d_ == 0) d_ = p.size();
  PEACHY_CHECK(p.size() == d_, "push_back: dimension mismatch");
  PEACHY_CHECK(d_ > 0, "push_back: zero-dimensional point");
  values_.insert(values_.end(), p.begin(), p.end());
  ++n_;
}

double PointSet::squared_distance(std::size_t i, std::span<const double> q) const {
  PEACHY_CHECK(q.size() == d_, "squared_distance: dimension mismatch");
  return kernels::squared_distance(values_.data() + i * d_, q.data(), d_);
}

TransposedPanel PointSet::transposed_panel() const {
  TransposedPanel panel;
  panel.count = n_;
  panel.dims = d_;
  panel.padded = kernels::padded_count(n_);
  // +inf padding: padded lanes are "centroids at infinity" that can never
  // win a strict-< argmin, so kernels need no per-lane masking.
  panel.values.assign(panel.padded * d_, std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < n_; ++c) {
    const std::size_t g = c / kernels::kPanelLane;
    const std::size_t lane = c % kernels::kPanelLane;
    const double* src = values_.data() + c * d_;
    double* grp = panel.values.data() + g * d_ * kernels::kPanelLane;
    for (std::size_t j = 0; j < d_; ++j) grp[j * kernels::kPanelLane + lane] = src[j];
  }
  return panel;
}

std::size_t LabeledPoints::num_classes() const {
  std::set<std::int32_t> classes(labels.begin(), labels.end());
  return classes.size();
}

LabeledPoints gaussian_blobs(const BlobsSpec& spec) {
  PEACHY_CHECK(spec.classes > 0 && spec.dims > 0, "blobs: classes and dims must be positive");
  PEACHY_CHECK(spec.spread >= 0.0, "blobs: negative spread");
  rng::Lcg64 gen{spec.seed};

  // Class centers first, then points, so the layout is reproducible.
  PointSet centers(spec.classes, spec.dims);
  for (std::size_t c = 0; c < spec.classes; ++c) {
    for (std::size_t j = 0; j < spec.dims; ++j) {
      centers.at(c, j) = rng::uniform_real(gen, -spec.center_box, spec.center_box);
    }
  }

  const std::size_t n = spec.points_per_class * spec.classes;
  LabeledPoints out;
  out.points = PointSet(n, spec.dims);
  out.labels.resize(n);
  std::size_t idx = 0;
  for (std::size_t c = 0; c < spec.classes; ++c) {
    for (std::size_t i = 0; i < spec.points_per_class; ++i, ++idx) {
      for (std::size_t j = 0; j < spec.dims; ++j) {
        out.points.at(idx, j) = centers.at(c, j) + rng::normal(gen, 0.0, spec.spread);
      }
      out.labels[idx] = static_cast<std::int32_t>(c);
    }
  }
  return out;
}

LabeledPoints two_moons(std::size_t points_per_class, double noise, std::uint64_t seed) {
  PEACHY_CHECK(points_per_class > 0, "two_moons: need at least one point per class");
  PEACHY_CHECK(noise >= 0.0, "two_moons: negative noise");
  rng::Lcg64 gen{seed};
  constexpr double kPi = 3.14159265358979323846;

  LabeledPoints out;
  out.points = PointSet(2 * points_per_class, 2);
  out.labels.resize(2 * points_per_class);
  for (std::size_t i = 0; i < points_per_class; ++i) {
    const double t = kPi * rng::uniform01(gen);
    // Upper moon.
    out.points.at(i, 0) = std::cos(t) + rng::normal(gen, 0.0, noise);
    out.points.at(i, 1) = std::sin(t) + rng::normal(gen, 0.0, noise);
    out.labels[i] = 0;
    // Lower moon, shifted to interleave.
    const std::size_t k = points_per_class + i;
    const double u = kPi * rng::uniform01(gen);
    out.points.at(k, 0) = 1.0 - std::cos(u) + rng::normal(gen, 0.0, noise);
    out.points.at(k, 1) = 0.5 - std::sin(u) + rng::normal(gen, 0.0, noise);
    out.labels[k] = 1;
  }
  return out;
}

PointSet uniform_points(std::size_t n, std::size_t d, double lo, double hi, std::uint64_t seed) {
  PEACHY_CHECK(d > 0, "uniform_points: dims must be positive");
  rng::Lcg64 gen{seed};
  PointSet out(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) out.at(i, j) = rng::uniform_real(gen, lo, hi);
  }
  return out;
}

TrainTestSplit train_test_split(const LabeledPoints& all, double test_fraction,
                                std::uint64_t seed) {
  PEACHY_CHECK(test_fraction > 0.0 && test_fraction < 1.0, "test_fraction must be in (0,1)");
  PEACHY_CHECK(all.size() >= 2, "need at least 2 points to split");
  PEACHY_CHECK(all.labels.size() == all.size(), "labels/points size mismatch");

  std::vector<std::size_t> order(all.size());
  std::iota(order.begin(), order.end(), 0);
  // Fisher–Yates with our own generator for cross-platform determinism.
  rng::SplitMix64 gen{seed};
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng::uniform_below(gen, i + 1));
    std::swap(order[i], order[j]);
  }

  auto n_test = static_cast<std::size_t>(std::round(test_fraction * static_cast<double>(all.size())));
  n_test = std::clamp<std::size_t>(n_test, 1, all.size() - 1);

  TrainTestSplit split;
  for (std::size_t k = 0; k < order.size(); ++k) {
    LabeledPoints& dst = k < n_test ? split.test : split.train;
    dst.points.push_back(all.points.point(order[k]));
    dst.labels.push_back(all.labels[order[k]]);
  }
  return split;
}

void zscore_normalize(PointSet& fit, PointSet* apply) {
  if (fit.empty()) return;
  const std::size_t d = fit.dims();
  PEACHY_CHECK(apply == nullptr || apply->dims() == d, "zscore: dimension mismatch");
  for (std::size_t j = 0; j < d; ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < fit.size(); ++i) sum += fit.at(i, j);
    const double m = sum / static_cast<double>(fit.size());
    double ss = 0.0;
    for (std::size_t i = 0; i < fit.size(); ++i) {
      const double c = fit.at(i, j) - m;
      ss += c * c;
    }
    const double sd = std::sqrt(ss / static_cast<double>(fit.size()));
    if (sd == 0.0) continue;  // constant dimension: leave unscaled
    for (std::size_t i = 0; i < fit.size(); ++i) fit.at(i, j) = (fit.at(i, j) - m) / sd;
    if (apply != nullptr) {
      for (std::size_t i = 0; i < apply->size(); ++i) {
        apply->at(i, j) = (apply->at(i, j) - m) / sd;
      }
    }
  }
}

std::vector<CsvRow> to_csv(const LabeledPoints& data, bool header) {
  PEACHY_CHECK(data.labels.size() == data.size(), "labels/points size mismatch");
  std::vector<CsvRow> rows;
  rows.reserve(data.size() + 1);
  if (header) {
    CsvRow h;
    for (std::size_t j = 0; j < data.dims(); ++j) {
      std::string name = "x";
      name += std::to_string(j);
      h.push_back(std::move(name));
    }
    h.push_back("label");
    rows.push_back(std::move(h));
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    CsvRow r;
    r.reserve(data.dims() + 1);
    for (std::size_t j = 0; j < data.dims(); ++j) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", data.points.at(i, j));
      r.emplace_back(buf);
    }
    r.push_back(std::to_string(data.labels[i]));
    rows.push_back(std::move(r));
  }
  return rows;
}

LabeledPoints from_csv(const std::vector<CsvRow>& rows, bool header) {
  LabeledPoints out;
  const std::size_t first = header ? 1 : 0;
  PEACHY_CHECK(rows.size() > first, "csv has no data rows");
  const std::size_t arity = rows[first].size();
  PEACHY_CHECK(arity >= 2, "csv rows need at least one coordinate and a label");
  std::vector<double> coords(arity - 1);
  for (std::size_t r = first; r < rows.size(); ++r) {
    const auto& row = rows[r];
    PEACHY_CHECK(row.size() == arity,
                 "csv row " + std::to_string(r + 1) + ": ragged arity");
    for (std::size_t j = 0; j + 1 < arity; ++j) {
      PEACHY_CHECK(parse_double(row[j], coords[j]),
                   "csv row " + std::to_string(r + 1) + ": non-numeric coordinate '" + row[j] +
                       "'");
    }
    std::int64_t label = 0;
    PEACHY_CHECK(parse_int(row[arity - 1], label) &&
                     label >= std::numeric_limits<std::int32_t>::min() &&
                     label <= std::numeric_limits<std::int32_t>::max(),
                 "csv row " + std::to_string(r + 1) + ": non-integer label '" + row[arity - 1] +
                     "'");
    out.labels.push_back(static_cast<std::int32_t>(label));
    out.points.push_back(coords);
  }
  return out;
}

}  // namespace peachy::data
