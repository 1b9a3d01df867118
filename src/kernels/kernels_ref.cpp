/// \file kernels_ref.cpp
/// \brief Scalar reference twins — the semantics oracle and measurement
/// baseline for every kernel.
///
/// This translation unit is compiled with the auto-vectorizer disabled
/// (see the set_source_files_properties in CMakeLists.txt): it stands in
/// for the element-at-a-time consumer loops the dispatched kernels
/// replaced, so bench speedups measure "kernel layer vs. what the repo
/// used to do", not "GCC vs. GCC".
///
/// The fixed summation trees (4-lane partials for reductions, ascending
/// dimension order for panel distances) are the contract the intrinsic
/// paths must reproduce bit-for-bit — change them here and every ISA
/// path must change in lockstep.

#include "kernels/kernels.hpp"

#include <limits>

namespace peachy::kernels::ref {

double squared_distance(const double* a, const double* b, std::size_t d) {
  // 4 independent partial sums, lane = i mod 4.  The AVX2 pair kernel
  // keeps the identical tree (one register of partials, same combine),
  // so both paths produce the same bits.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  if (i < d) {
    const double d0 = a[i] - b[i];
    s0 += d0 * d0;
  }
  if (i + 1 < d) {
    const double d1 = a[i + 1] - b[i + 1];
    s1 += d1 * d1;
  }
  if (i + 2 < d) {
    const double d2 = a[i + 2] - b[i + 2];
    s2 += d2 * d2;
  }
  return (s0 + s1) + (s2 + s3);
}

double dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  if (i < n) s0 += a[i] * b[i];
  if (i + 1 < n) s1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) s2 += a[i + 2] * b[i + 2];
  return (s0 + s1) + (s2 + s3);
}

void squared_distances_rows(const double* pts, std::size_t n, std::size_t d, const double* q,
                            double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = squared_distance(pts + i * d, q, d);
  }
}

void axpy(double* y, const double* x, double a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

std::size_t argmin_batch(const double* q, std::size_t d, const double* panel, std::size_t k,
                         std::size_t kp, double* best_d2) {
  // Start from +inf with strict < so NaN distances never win and ties
  // break to the lower index.  Padded lanes hold +inf coordinates, so
  // their distances are +inf (or NaN) and also never win.
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t g = 0; g * kPanelLane < kp; ++g) {
    const double* grp = panel + g * d * kPanelLane;
    for (std::size_t lane = 0; lane < kPanelLane; ++lane) {
      const std::size_t c = g * kPanelLane + lane;
      if (c >= k) break;
      double acc = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double diff = q[j] - grp[j * kPanelLane + lane];
        acc += diff * diff;
      }
      if (acc < best) {
        best = acc;
        best_idx = c;
      }
    }
  }
  if (best_d2 != nullptr) *best_d2 = best;
  return best_idx;
}

std::size_t argmin_assign(const double* pts, std::size_t n, std::size_t d, const double* panel,
                          std::size_t k, std::size_t kp, std::int32_t* assignment, double* sums,
                          std::int64_t* counts) {
  std::size_t changes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* p = pts + i * d;
    const std::size_t best = argmin_batch(p, d, panel, k, kp);
    if (assignment[i] != static_cast<std::int32_t>(best)) {
      assignment[i] = static_cast<std::int32_t>(best);
      ++changes;
    }
    double* dst = sums + best * d;
    for (std::size_t j = 0; j < d; ++j) dst[j] += p[j];
    ++counts[best];
  }
  return changes;
}

std::size_t argmin2_rows(const double* pts, const std::int32_t* rows, std::size_t m,
                         std::size_t d, const double* panel, std::size_t k, std::size_t kp,
                         std::int32_t* assignment, double* best_d2, double* second_d2) {
  // argmin_batch's scan, also keeping the runner-up: a value that does not
  // beat the best (a tie included) may still beat the second.  NaN and
  // +inf never enter either slot, and neither do the padded lanes.
  std::size_t changes = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const auto r = static_cast<std::size_t>(rows[i]);
    const double* q = pts + r * d;
    double best = std::numeric_limits<double>::infinity();
    double second = best;
    std::size_t best_idx = 0;
    for (std::size_t g = 0; g * kPanelLane < kp; ++g) {
      const double* grp = panel + g * d * kPanelLane;
      for (std::size_t lane = 0; lane < kPanelLane; ++lane) {
        const std::size_t c = g * kPanelLane + lane;
        if (c >= k) break;
        double acc = 0.0;
        for (std::size_t j = 0; j < d; ++j) {
          const double diff = q[j] - grp[j * kPanelLane + lane];
          acc += diff * diff;
        }
        if (acc < best) {
          second = best;
          best = acc;
          best_idx = c;
        } else if (acc < second) {
          second = acc;
        }
      }
    }
    if (assignment[r] != static_cast<std::int32_t>(best_idx)) {
      assignment[r] = static_cast<std::int32_t>(best_idx);
      ++changes;
    }
    best_d2[r] = best;
    second_d2[r] = second;
  }
  return changes;
}

void stencil_row(double* dst, const double* src, std::size_t n, double alpha) {
  // Fixed association: (left - 2*mid) + right, then one multiply-add.
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = src[i] + alpha * ((src[i - 1] - 2.0 * src[i]) + src[i + 1]);
  }
}

void gemm_block(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
                std::size_t m) {
  // i-k-j order: for each C row, rank-1 updates in ascending k.  Each
  // C[i][j] therefore accumulates a[i][0]*b[0][j] + a[i][1]*b[1][j] + …
  // as a single running sum — the order the blocked path preserves.
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * m;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      const double* brow = b + kk * m;
      for (std::size_t j = 0; j < m; ++j) {
        crow[j] += aik * brow[j];
      }
    }
  }
}

}  // namespace peachy::kernels::ref
