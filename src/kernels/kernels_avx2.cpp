/// \file kernels_avx2.cpp
/// \brief AVX2 (4-wide double) backend.
///
/// Compiled with -mavx2 (and only this TU — the dispatcher probes the
/// CPU before ever calling in here).  Bit-equivalence with the reference
/// twins is load-bearing, not best-effort: every kernel vectorizes
/// across *independent* output elements (centroids, grid cells, matrix
/// columns) or keeps the reference's fixed 4-lane summation tree, so
/// each scalar FP chain executes the same operations in the same order
/// as kernels_ref.cpp.  The module is built with FP contraction off and
/// without FMA codegen, so mul+add never fuses behind our back.

#include "kernels/detail.hpp"

// Without the build-level opt-in this TU compiles to nothing, keeping
// non-x86 builds working with no CMake special-casing beyond the flag.
#if PEACHY_HAVE_AVX2

#include <immintrin.h>

#include <limits>

#include "kernels/kernels.hpp"

namespace peachy::kernels::detail::avx2 {

namespace {

/// Lane-wise extract of a ymm register of partial sums.
struct Lanes {
  alignas(32) double v[4];
  explicit Lanes(__m256d r) { _mm256_store_pd(v, r); }
};

}  // namespace

double squared_distance(const double* a, const double* b, std::size_t d) {
  // One register holds the reference's four partial sums (lane = i mod 4).
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  const Lanes s{acc};
  double s0 = s.v[0], s1 = s.v[1], s2 = s.v[2], s3 = s.v[3];
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
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  const Lanes s{acc};
  double s0 = s.v[0], s1 = s.v[1], s2 = s.v[2], s3 = s.v[3];
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
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

namespace {

/// Distances from q to the 4 centroids of panel group g, as one register.
/// Per lane this is the reference's single running sum over ascending j.
/// always_inline: left to itself the inliner may outline this into a real
/// call inside the hot distance loop, measured ~20% slower at d8/d32.
[[gnu::always_inline]] inline __m256d group_distances(const double* q, std::size_t d,
                                                      const double* grp) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t j = 0; j < d; ++j) {
    const __m256d diff =
        _mm256_sub_pd(_mm256_set1_pd(q[j]), _mm256_loadu_pd(grp + j * kPanelLane));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  return acc;
}

}  // namespace

std::size_t argmin_batch(const double* q, std::size_t d, const double* panel, std::size_t k,
                         std::size_t kp, double* best_d2) {
  // The d-loop (the hot part) is vectorized per group; the 4-lane scan
  // stays scalar so the reference's ascending-index strict-< tie-break
  // is preserved verbatim.
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t g = 0; g * kPanelLane < kp; ++g) {
    const Lanes s{group_distances(q, d, panel + g * d * kPanelLane)};
    const std::size_t c0 = g * kPanelLane;
    for (std::size_t lane = 0; lane < kPanelLane && c0 + lane < k; ++lane) {
      if (s.v[lane] < best) {
        best = s.v[lane];
        best_idx = c0 + lane;
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
    const std::size_t best = argmin_batch(p, d, panel, k, kp, nullptr);
    if (assignment[i] != static_cast<std::int32_t>(best)) {
      assignment[i] = static_cast<std::int32_t>(best);
      ++changes;
    }
    double* dst = sums + best * d;
    std::size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      _mm256_storeu_pd(dst + j,
                       _mm256_add_pd(_mm256_loadu_pd(dst + j), _mm256_loadu_pd(p + j)));
    }
    for (; j < d; ++j) dst[j] += p[j];
    ++counts[best];
  }
  return changes;
}

namespace {

/// Per-lane running state of the two-point argmin: lane l of group g is
/// centroid g*kPanelLane + l, so each lane keeps the best and second-best
/// distance over its own centroids and the group of its best.
struct Top2 {
  __m256d best = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d second = best;
  __m256d group = _mm256_setzero_pd();
};

/// Fold one group's distances into the lanes, in ascending group order.
/// Strict _CMP_LT_OQ is false on NaN and on ties, so NaN never enters and
/// an equal later group cannot displace the earlier (lower) index; a value
/// that loses to the best may still take the second slot.
[[gnu::always_inline]] inline void fold(Top2& t, __m256d v, double g) {
  const __m256d lt_best = _mm256_cmp_pd(v, t.best, _CMP_LT_OQ);
  const __m256d lt_second = _mm256_cmp_pd(v, t.second, _CMP_LT_OQ);
  t.second = _mm256_blendv_pd(_mm256_blendv_pd(t.second, v, lt_second), t.best, lt_best);
  t.best = _mm256_blendv_pd(t.best, v, lt_best);
  t.group = _mm256_blendv_pd(t.group, _mm256_set1_pd(g), lt_best);
}

/// Fold groups [g, g + G) for two points at once: 2×G independent
/// accumulator chains share each panel load and each broadcast.  Per lane
/// each chain is group_distances' ascending-j running sum.
template <std::size_t G>
[[gnu::always_inline]] inline void fold_groups(const double* q0, const double* q1,
                                               std::size_t d, const double* panel,
                                               std::size_t g, Top2& t0, Top2& t1) {
  __m256d a0[G], a1[G];
  for (std::size_t gg = 0; gg < G; ++gg) a0[gg] = a1[gg] = _mm256_setzero_pd();
  const double* grp = panel + g * d * kPanelLane;
  for (std::size_t j = 0; j < d; ++j) {
    const __m256d x0 = _mm256_set1_pd(q0[j]);
    const __m256d x1 = _mm256_set1_pd(q1[j]);
    for (std::size_t gg = 0; gg < G; ++gg) {
      const __m256d c = _mm256_loadu_pd(grp + (gg * d + j) * kPanelLane);
      const __m256d d0 = _mm256_sub_pd(x0, c);
      const __m256d d1 = _mm256_sub_pd(x1, c);
      a0[gg] = _mm256_add_pd(a0[gg], _mm256_mul_pd(d0, d0));
      a1[gg] = _mm256_add_pd(a1[gg], _mm256_mul_pd(d1, d1));
    }
  }
  for (std::size_t gg = 0; gg < G; ++gg) {
    fold(t0, a0[gg], static_cast<double>(g + gg));
    fold(t1, a1[gg], static_cast<double>(g + gg));
  }
}

/// Minimum over the four lanes, broadcast to every lane.  Only ever fed
/// NaN-free values, so _mm256_min_pd's NaN asymmetry never applies.
[[gnu::always_inline]] inline __m256d lane_min(__m256d v) {
  v = _mm256_min_pd(v, _mm256_permute2f128_pd(v, v, 1));
  return _mm256_min_pd(v, _mm256_permute_pd(v, 0b0101));
}

/// The one cross-lane pick, branch-free: the smallest lane best wins, ties
/// to the lowest centroid index; when no lane holds a finite distance every
/// lane still has group 0 and +inf, so index 0 wins with +inf.  The
/// runner-up is the minimum over the lanes after the winning lane's best
/// is replaced by its own second-best.  Returns the index and writes both
/// distances.
[[gnu::always_inline]] inline std::size_t pick(const Top2& t, double& best_out,
                                               double& second_out) {
  const __m256d index = _mm256_add_pd(_mm256_mul_pd(t.group, _mm256_set1_pd(kPanelLane)),
                                      _mm256_set_pd(3.0, 2.0, 1.0, 0.0));
  const __m256d best = lane_min(t.best);
  const __m256d at_best = _mm256_cmp_pd(t.best, best, _CMP_EQ_OQ);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d best_index = lane_min(_mm256_blendv_pd(inf, index, at_best));
  const __m256d winner = _mm256_cmp_pd(index, best_index, _CMP_EQ_OQ);
  best_out = _mm256_cvtsd_f64(best);
  second_out = _mm256_cvtsd_f64(lane_min(_mm256_blendv_pd(t.best, t.second, winner)));
  return static_cast<std::size_t>(_mm256_cvtsd_f64(best_index));
}

}  // namespace

std::size_t argmin2_rows(const double* pts, const std::int32_t* rows, std::size_t m,
                         std::size_t d, const double* panel, std::size_t /*k*/, std::size_t kp,
                         std::int32_t* assignment, double* best_d2, double* second_d2) {
  // Padded lanes (index >= k) hold +inf coordinates: their distances are
  // +inf or NaN, which never enter a lane's best or second slot, so the
  // vector path needs no mask.  An odd last row is paired with itself.
  constexpr std::size_t kGroups = 2;  // groups per panel pass (2 points × 2 groups)
  const std::size_t groups = kp / kPanelLane;
  std::size_t changes = 0;
  const auto emit = [&](std::size_t r, const Top2& t) {
    const auto best = static_cast<std::int32_t>(pick(t, best_d2[r], second_d2[r]));
    if (assignment[r] != best) {
      assignment[r] = best;
      ++changes;
    }
  };
  for (std::size_t i = 0; i < m; i += 2) {
    const auto r0 = static_cast<std::size_t>(rows[i]);
    const auto r1 = static_cast<std::size_t>(rows[i + 1 < m ? i + 1 : i]);
    Top2 t0, t1;
    std::size_t g = 0;
    for (; g + kGroups <= groups; g += kGroups) {
      fold_groups<kGroups>(pts + r0 * d, pts + r1 * d, d, panel, g, t0, t1);
    }
    for (; g < groups; ++g) fold_groups<1>(pts + r0 * d, pts + r1 * d, d, panel, g, t0, t1);
    emit(r0, t0);
    if (i + 1 < m) emit(r1, t1);
  }
  return changes;
}

void stencil_row(double* dst, const double* src, std::size_t n, double alpha) {
  const __m256d av = _mm256_set1_pd(alpha);
  const __m256d two = _mm256_set1_pd(2.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d left = _mm256_loadu_pd(src + i - 1);
    const __m256d mid = _mm256_loadu_pd(src + i);
    const __m256d right = _mm256_loadu_pd(src + i + 1);
    const __m256d lap =
        _mm256_add_pd(_mm256_sub_pd(left, _mm256_mul_pd(two, mid)), right);
    _mm256_storeu_pd(dst + i, _mm256_add_pd(mid, _mm256_mul_pd(av, lap)));
  }
  for (; i < n; ++i) {
    dst[i] = src[i] + alpha * ((src[i - 1] - 2.0 * src[i]) + src[i + 1]);
  }
}

namespace {

/// MR×NR register-tile micro-kernel: MR×(NR/4) ymm accumulators per
/// tile, k ascending, so each C element's chain is exactly the reference
/// i-k-j running sum — true for *any* tile shape, so the shape is a
/// performance choice, not a contract change.  Tails fall back to
/// the reference loop structure (innermost j elementwise, k ascending)
/// which keeps the same per-element chains.  MR/NR are compile-time so
/// the accumulator array lives entirely in registers; the constexpr
/// loops below fully unroll.
template <std::size_t MR, std::size_t NR>
void gemm_tile(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
               std::size_t m) {
  static_assert(NR % 4 == 0, "gemm tile width must be a whole number of ymm lanes");
  constexpr std::size_t kCols = NR / 4;
  std::size_t i0 = 0;
  for (; i0 + MR <= n; i0 += MR) {
    std::size_t j0 = 0;
    for (; j0 + NR <= m; j0 += NR) {
      __m256d acc[MR][kCols];
      for (std::size_t r = 0; r < MR; ++r) {
        for (std::size_t cc = 0; cc < kCols; ++cc) {
          acc[r][cc] = _mm256_loadu_pd(c + (i0 + r) * m + j0 + cc * 4);
        }
      }
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* brow = b + kk * m + j0;
        __m256d bv[kCols];
        for (std::size_t cc = 0; cc < kCols; ++cc) bv[cc] = _mm256_loadu_pd(brow + cc * 4);
        for (std::size_t r = 0; r < MR; ++r) {
          const __m256d av = _mm256_set1_pd(a[(i0 + r) * k + kk]);
          for (std::size_t cc = 0; cc < kCols; ++cc) {
            acc[r][cc] = _mm256_add_pd(acc[r][cc], _mm256_mul_pd(av, bv[cc]));
          }
        }
      }
      for (std::size_t r = 0; r < MR; ++r) {
        for (std::size_t cc = 0; cc < kCols; ++cc) {
          _mm256_storeu_pd(c + (i0 + r) * m + j0 + cc * 4, acc[r][cc]);
        }
      }
    }
    if (j0 < m) {
      for (std::size_t r = 0; r < MR; ++r) {
        const double* arow = a + (i0 + r) * k;
        double* crow = c + (i0 + r) * m;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const double aik = arow[kk];
          const double* brow = b + kk * m;
          for (std::size_t j = j0; j < m; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
  for (; i0 < n; ++i0) {
    const double* arow = a + i0 * k;
    double* crow = c + i0 * m;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      const double* brow = b + kk * m;
      for (std::size_t j = 0; j < m; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace

void gemm_block(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
                std::size_t m) {
  gemm_tile<4, 8>(a, b, c, n, k, m);
}

}  // namespace peachy::kernels::detail::avx2

#endif  // PEACHY_HAVE_AVX2
