// Tests for peachy::kernels: the bit-reproducibility contract between
// the scalar reference twins and the dispatched (AVX2) paths, argmin
// semantics (tie-breaks, NaN, +inf padding lanes), panel construction,
// and ISA dispatch controls.  Equivalence is asserted on *bits*, not
// within a tolerance — the kernel contract is exact.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "data/points.hpp"
#include "kernels/crc32c.hpp"
#include "kernels/kernels.hpp"
#include "rng/lcg.hpp"
#include "rng/distributions.hpp"
#include "support/aligned.hpp"
#include "support/check.hpp"

namespace pk = peachy::kernels;
namespace pd = peachy::data;
namespace ps = peachy::support;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

ps::aligned_vector<double> random_values(std::size_t n, std::uint64_t seed) {
  peachy::rng::Lcg64 gen{seed};
  ps::aligned_vector<double> v(n);
  for (double& x : v) x = peachy::rng::uniform_real(gen, -3.0, 3.0);
  return v;
}

/// Bit-exact double comparison that also treats matching NaN payloads as
/// equal (EXPECT_EQ on doubles fails for NaN == NaN).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// Build a panel from k centroids given as row-major k×d values.
pd::TransposedPanel make_panel(const std::vector<double>& rows, std::size_t k, std::size_t d) {
  pd::PointSet set{k, d, rows};
  return set.transposed_panel();
}

bool have_avx2() { return pk::isa_available(pk::Isa::kAvx2); }

// The shapes every sweep runs: primes, lane boundaries, d=1, and sizes
// with every possible tail length against the 4-wide vector width.
const std::vector<std::size_t> kDims = {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 31, 32, 100};
const std::vector<std::size_t> kCounts = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17};

}  // namespace

// ---- dispatch controls ------------------------------------------------------------

TEST(KernelsIsa, ScalarAlwaysAvailable) {
  EXPECT_TRUE(pk::isa_available(pk::Isa::kScalar));
  EXPECT_STREQ(pk::isa_name(pk::Isa::kScalar), "scalar");
  EXPECT_STREQ(pk::isa_name(pk::Isa::kAvx2), "avx2");
}

TEST(KernelsIsa, ForceScalarPinsDispatch) {
  {
    pk::ScopedIsa pin{pk::Isa::kScalar};
    EXPECT_EQ(pk::active_isa(), pk::Isa::kScalar);
  }
  // After the scope ends, automatic selection resumes.
  EXPECT_TRUE(pk::active_isa() == pk::Isa::kScalar || pk::active_isa() == pk::Isa::kAvx2);
}

TEST(KernelsIsa, ForcingUnavailableIsaThrows) {
  if (have_avx2()) GTEST_SKIP() << "AVX2 available; cannot exercise the failure path";
  EXPECT_THROW(pk::force_isa(pk::Isa::kAvx2), peachy::Error);
}

TEST(KernelsIsa, PaddedCountRoundsToLaneGroups) {
  EXPECT_EQ(pk::padded_count(1), 4u);
  EXPECT_EQ(pk::padded_count(4), 4u);
  EXPECT_EQ(pk::padded_count(5), 8u);
  EXPECT_EQ(pk::padded_count(8), 8u);
}

// ---- panel construction -----------------------------------------------------------

TEST(KernelsPanel, LayoutAndInfinitePadding) {
  const std::size_t k = 5, d = 3;
  auto vals = std::vector<double>(k * d);
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<double>(i);
  const auto panel = make_panel(vals, k, d);
  ASSERT_EQ(panel.count, k);
  ASSERT_EQ(panel.padded, 8u);
  ASSERT_EQ(panel.values.size(), panel.padded * d);
  for (std::size_t c = 0; c < panel.padded; ++c) {
    const std::size_t g = c / pk::kPanelLane, lane = c % pk::kPanelLane;
    for (std::size_t j = 0; j < d; ++j) {
      const double got = panel.values[(g * d + j) * pk::kPanelLane + lane];
      if (c < k) {
        EXPECT_EQ(got, vals[c * d + j]);
      } else {
        EXPECT_EQ(got, kInf);  // padding lanes can never win an argmin
      }
    }
  }
}

// ---- scalar-vs-vector bit equivalence ---------------------------------------------

TEST(KernelsEquivalence, SquaredDistanceAndDotAllDims) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 path in this build/CPU";
  for (const std::size_t d : kDims) {
    // +1 offset: deliberately misaligned inputs (kernels take any pointers).
    const auto a = random_values(d + 1, 7 * d + 1);
    const auto b = random_values(d + 1, 9 * d + 2);
    const double rs = pk::ref::squared_distance(a.data() + 1, b.data() + 1, d);
    const double rd = pk::ref::dot(a.data() + 1, b.data() + 1, d);
    pk::ScopedIsa pin{pk::Isa::kAvx2};
    EXPECT_TRUE(bits_equal(rs, pk::squared_distance(a.data() + 1, b.data() + 1, d))) << "d=" << d;
    EXPECT_TRUE(bits_equal(rd, pk::dot(a.data() + 1, b.data() + 1, d))) << "d=" << d;
  }
}

TEST(KernelsEquivalence, RowsDistancesUnalignedTails) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 path in this build/CPU";
  for (const std::size_t d : {1ul, 3ul, 8ul, 13ul}) {
    const std::size_t n = 23;
    const auto pts = random_values(n * d, 31 * d);
    const auto q = random_values(d, 37 * d);
    std::vector<double> want(n), got(n);
    pk::ref::squared_distances_rows(pts.data(), n, d, q.data(), want.data());
    pk::ScopedIsa pin{pk::Isa::kAvx2};
    pk::squared_distances_rows(pts.data(), n, d, q.data(), got.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(bits_equal(want[i], got[i])) << i;
  }
}

TEST(KernelsEquivalence, ArgminBatchAllShapes) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 path in this build/CPU";
  for (const std::size_t k : kCounts) {
    for (const std::size_t d : {1ul, 2ul, 5ul, 8ul, 13ul}) {
      const auto cent = random_values(k * d, 11 * k + d);
      const auto panel = make_panel({cent.begin(), cent.end()}, k, d);
      // Nine random queries, then one query next to each centroid so that
      // every lane of every panel group wins at least once and its
      // distance bits are compared.
      const std::size_t n = 9 + k;
      auto pts = random_values(n * d, 13 * k + d);
      for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t j = 0; j < d; ++j) {
          pts[(9 + c) * d + j] = cent[c * d + j] + 1e-3 * pts[(9 + c) * d + j];
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double* q = pts.data() + i * d;
        double want_d2 = 0.0, got_d2 = 0.0;
        const std::size_t want = pk::ref::argmin_batch(q, d, panel.data(), k, panel.padded,
                                                       &want_d2);
        pk::ScopedIsa pin{pk::Isa::kAvx2};
        const std::size_t got = pk::argmin_batch(q, d, panel.data(), k, panel.padded, &got_d2);
        if (i >= 9) {
          ASSERT_EQ(want, i - 9) << "k=" << k << " d=" << d;  // lane coverage
        }
        EXPECT_EQ(want, got) << "k=" << k << " d=" << d << " i=" << i;
        EXPECT_TRUE(bits_equal(want_d2, got_d2)) << "k=" << k << " d=" << d << " i=" << i;
      }
    }
  }
}

TEST(KernelsEquivalence, ArgminAssignFullState) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 path in this build/CPU";
  for (const std::size_t k : {1ul, 3ul, 4ul, 7ul, 16ul}) {
    const std::size_t d = 5, n = 57;
    const auto cent = random_values(k * d, 3 * k);
    const auto panel = make_panel({cent.begin(), cent.end()}, k, d);
    const auto pts = random_values(n * d, 5 * k);

    std::vector<std::int32_t> assign_r(n, -1), assign_v(n, -1);
    std::vector<double> sums_r(k * d, 0.0), sums_v(k * d, 0.0);
    std::vector<std::int64_t> counts_r(k, 0), counts_v(k, 0);
    const std::size_t changes_r =
        pk::ref::argmin_assign(pts.data(), n, d, panel.data(), k, panel.padded, assign_r.data(),
                               sums_r.data(), counts_r.data());
    std::size_t changes_v = 0;
    {
      pk::ScopedIsa pin{pk::Isa::kAvx2};
      changes_v = pk::argmin_assign(pts.data(), n, d, panel.data(), k, panel.padded,
                                    assign_v.data(), sums_v.data(), counts_v.data());
    }
    EXPECT_EQ(changes_r, changes_v) << "k=" << k;
    EXPECT_EQ(assign_r, assign_v) << "k=" << k;
    EXPECT_EQ(counts_r, counts_v) << "k=" << k;
    for (std::size_t i = 0; i < k * d; ++i) {
      EXPECT_TRUE(bits_equal(sums_r[i], sums_v[i])) << "k=" << k << " i=" << i;
    }
  }
}

TEST(KernelsEquivalence, StencilOddLengthsAndOffsets) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 path in this build/CPU";
  for (const std::size_t n : {1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 9ul, 31ul, 1000ul}) {
    for (const std::size_t off : {0ul, 1ul, 3ul}) {
      const auto src = random_values(n + 2 + off, 17 * n + off);
      std::vector<double> want(n + 2 + off, 0.0), got(n + 2 + off, 0.0);
      pk::ref::stencil_row(want.data() + 1 + off, src.data() + 1 + off, n, 0.1);
      pk::ScopedIsa pin{pk::Isa::kAvx2};
      pk::stencil_row(got.data() + 1 + off, src.data() + 1 + off, n, 0.1);
      for (std::size_t i = 0; i < n + 2 + off; ++i) {
        EXPECT_TRUE(bits_equal(want[i], got[i])) << "n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(KernelsEquivalence, GemmAllTailShapes) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 path in this build/CPU";
  // Cover every i-tail (n mod 4) and j-tail (m mod 8) combination.
  for (const std::size_t n : {1ul, 2ul, 4ul, 5ul, 7ul, 12ul}) {
    for (const std::size_t m : {1ul, 3ul, 8ul, 9ul, 17ul}) {
      const std::size_t k = 6;
      const auto a = random_values(n * k, n + 41);
      const auto b = random_values(k * m, m + 43);
      // C starts nonzero: gemm accumulates (C += A·B).
      auto want = random_values(n * m, n * m + 47);
      std::vector<double> got(want.begin(), want.end());
      pk::ref::gemm_block(a.data(), b.data(), want.data(), n, k, m);
      pk::ScopedIsa pin{pk::Isa::kAvx2};
      pk::gemm_block(a.data(), b.data(), got.data(), n, k, m);
      for (std::size_t i = 0; i < n * m; ++i) {
        EXPECT_TRUE(bits_equal(want[i], got[i])) << "n=" << n << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(KernelsEquivalence, AxpyTails) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 path in this build/CPU";
  for (const std::size_t n : {1ul, 4ul, 5ul, 127ul}) {
    const auto x = random_values(n, n + 3);
    auto want = random_values(n, n + 5);
    std::vector<double> got(want.begin(), want.end());
    pk::ref::axpy(want.data(), x.data(), -0.75, n);
    pk::ScopedIsa pin{pk::Isa::kAvx2};
    pk::axpy(got.data(), x.data(), -0.75, n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(bits_equal(want[i], got[i])) << i;
  }
}

TEST(KernelsEquivalence, NanInputsPropagateIdentically) {
  if (!have_avx2()) GTEST_SKIP() << "no AVX2 path in this build/CPU";
  const std::size_t d = 7;
  auto a = random_values(d, 1);
  auto b = random_values(d, 2);
  a[3] = kNan;
  const double want = pk::ref::squared_distance(a.data(), b.data(), d);
  EXPECT_TRUE(std::isnan(want));
  pk::ScopedIsa pin{pk::Isa::kAvx2};
  EXPECT_TRUE(bits_equal(want, pk::squared_distance(a.data(), b.data(), d)));
}

// ---- argmin semantics (both paths) ------------------------------------------------

class KernelsArgmin : public ::testing::TestWithParam<pk::Isa> {
 protected:
  void SetUp() override {
    if (!pk::isa_available(GetParam())) GTEST_SKIP() << "isa unavailable";
  }
};

TEST_P(KernelsArgmin, TieBreaksToLowestIndex) {
  pk::ScopedIsa pin{GetParam()};
  // Centroids 1 and 2 are identical and equidistant winners.
  const std::vector<double> cent = {5.0, 5.0, 1.0, 1.0, 1.0, 1.0, 9.0, 9.0};
  const auto panel = make_panel(cent, 4, 2);
  const std::vector<double> q = {1.0, 1.0};
  double best = -1.0;
  EXPECT_EQ(pk::argmin_batch(q.data(), 2, panel.data(), 4, panel.padded, &best), 1u);
  EXPECT_EQ(best, 0.0);
}

TEST_P(KernelsArgmin, NanCentroidNeverWins) {
  pk::ScopedIsa pin{GetParam()};
  const std::vector<double> cent = {kNan, kNan, 2.0, 2.0, 100.0, 100.0};
  const auto panel = make_panel(cent, 3, 2);
  const std::vector<double> q = {0.0, 0.0};
  EXPECT_EQ(pk::argmin_batch(q.data(), 2, panel.data(), 3, panel.padded), 1u);
}

TEST_P(KernelsArgmin, AllNanReturnsIndexZeroWithInfiniteDistance) {
  pk::ScopedIsa pin{GetParam()};
  const std::vector<double> cent = {kNan, kNan, kNan, kNan};
  const auto panel = make_panel(cent, 2, 2);
  const std::vector<double> q = {0.0, 0.0};
  double best = 0.0;
  // NaN distances never beat the +inf starting best under strict <, so
  // the fallback index 0 is reported with the untouched +inf distance.
  EXPECT_EQ(pk::argmin_batch(q.data(), 2, panel.data(), 2, panel.padded, &best), 0u);
  EXPECT_EQ(best, kInf);
}

TEST_P(KernelsArgmin, PaddingLanesNeverSelected) {
  pk::ScopedIsa pin{GetParam()};
  // k=5 pads to 8; make the real centroids enormous so the padded +inf
  // lanes are "closest" to losing — they must still never be selected.
  std::vector<double> cent(5 * 3, 1e300);
  cent[4 * 3] = cent[4 * 3 + 1] = cent[4 * 3 + 2] = 0.5;  // centroid 4 wins
  const auto panel = make_panel(cent, 5, 3);
  const std::vector<double> q = {0.0, 0.0, 0.0};
  EXPECT_EQ(pk::argmin_batch(q.data(), 3, panel.data(), 5, panel.padded), 4u);
}

INSTANTIATE_TEST_SUITE_P(BothIsas, KernelsArgmin,
                         ::testing::Values(pk::Isa::kScalar, pk::Isa::kAvx2),
                         [](const ::testing::TestParamInfo<pk::Isa>& param_info) {
                           return pk::isa_name(param_info.param);
                         });

// ---- two-point argmin over a row list (both paths) ---------------------------------
//
// Each case runs argmin2_rows three ways: the scalar twin, the dispatched
// path under the parameter's ISA, and a test-local oracle that computes
// every distance by the panel's ascending-j chain and then takes the
// lowest-index minimum and the minimum of the rest (NaN as +inf).  All
// three must agree on index, change count and the bits of both distances.

namespace {

struct Top2 {
  std::int32_t index;
  double best, second;
};

Top2 top2_oracle(const double* q, const std::vector<double>& cent, std::size_t k,
                 std::size_t d) {
  std::vector<double> d2(k);
  for (std::size_t c = 0; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = q[j] - cent[c * d + j];
      acc += diff * diff;
    }
    d2[c] = std::isnan(acc) ? kInf : acc;
  }
  Top2 t{0, kInf, kInf};
  for (std::size_t c = 0; c < k; ++c) {
    if (d2[c] < t.best) {
      t.best = d2[c];
      t.index = static_cast<std::int32_t>(c);
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (c != static_cast<std::size_t>(t.index)) t.second = std::min(t.second, d2[c]);
  }
  return t;
}

/// Run one argmin2_rows case every way and compare.  `start` is the
/// assignment before the call; listed rows may repeat.
void expect_argmin2_agrees(pk::Isa isa, const std::vector<double>& pts,
                           const std::vector<double>& cent, std::size_t k, std::size_t d,
                           const std::vector<std::int32_t>& rows,
                           const std::vector<std::int32_t>& start, const std::string& what) {
  const auto panel = make_panel(cent, k, d);
  const std::size_t n = start.size();
  std::vector<std::int32_t> assign_r = start, assign_v = start;
  std::vector<double> best_r(n, -1.0), second_r(n, -1.0), best_v(n, -1.0), second_v(n, -1.0);
  const std::size_t changes_r =
      pk::ref::argmin2_rows(pts.data(), rows.data(), rows.size(), d, panel.data(), k,
                            panel.padded, assign_r.data(), best_r.data(), second_r.data());
  std::size_t changes_v = 0;
  {
    pk::ScopedIsa pin{isa};
    changes_v = pk::argmin2_rows(pts.data(), rows.data(), rows.size(), d, panel.data(), k,
                                 panel.padded, assign_v.data(), best_v.data(), second_v.data());
  }
  EXPECT_EQ(changes_r, changes_v) << what;
  EXPECT_EQ(assign_r, assign_v) << what;
  std::vector<bool> listed(n, false);
  for (const std::int32_t r : rows) listed[static_cast<std::size_t>(r)] = true;
  std::size_t changes_want = 0;
  std::vector<std::int32_t> assign_want = start;
  for (const std::int32_t r : rows) {
    const auto i = static_cast<std::size_t>(r);
    const Top2 want = top2_oracle(pts.data() + i * d, cent, k, d);
    if (assign_want[i] != want.index) ++changes_want;
    assign_want[i] = want.index;
    EXPECT_TRUE(bits_equal(best_r[i], want.best)) << what << " ref best, row " << i;
    EXPECT_TRUE(bits_equal(second_r[i], want.second)) << what << " ref second, row " << i;
    EXPECT_TRUE(bits_equal(best_v[i], want.best)) << what << " best, row " << i;
    EXPECT_TRUE(bits_equal(second_v[i], want.second)) << what << " second, row " << i;
  }
  EXPECT_EQ(changes_r, changes_want) << what;
  EXPECT_EQ(assign_r, assign_want) << what;
  for (std::size_t i = 0; i < n; ++i) {
    if (listed[i]) continue;  // unlisted rows are left alone
    EXPECT_EQ(best_v[i], -1.0) << what << " row " << i;
    EXPECT_EQ(second_v[i], -1.0) << what << " row " << i;
  }
}

}  // namespace

class KernelsArgmin2 : public ::testing::TestWithParam<pk::Isa> {
 protected:
  void SetUp() override {
    if (!pk::isa_available(GetParam())) GTEST_SKIP() << "isa unavailable";
  }
};

TEST_P(KernelsArgmin2, MatchesTheOracleOverShapesAndRowLists) {
  for (const std::size_t k : {1ul, 2ul, 3ul, 4ul, 5ul, 8ul, 9ul, 33ul}) {
    for (const std::size_t d : {1ul, 2ul, 16ul, 32ul}) {
      const auto cent_a = random_values(k * d, 101 * k + d);
      const std::vector<double> cent(cent_a.begin(), cent_a.end());
      // Random points, then one near each centroid so every lane of every
      // group wins somewhere.
      const std::size_t n = 23 + k;
      auto pts_a = random_values(n * d, 103 * k + d);
      std::vector<double> pts(pts_a.begin(), pts_a.end());
      for (std::size_t c = 0; c < k; ++c) {
        for (std::size_t j = 0; j < d; ++j) {
          pts[(23 + c) * d + j] = cent[c * d + j] + 1e-3 * pts[(23 + c) * d + j];
        }
      }
      // Every row, descending (unsorted); an odd list with repeats; a
      // single row; the empty list.  Half the rows start on their answer.
      std::vector<std::int32_t> start(n);
      for (std::size_t i = 0; i < n; ++i) {
        start[i] = i % 2 == 0 ? top2_oracle(pts.data() + i * d, cent, k, d).index : -1;
      }
      std::vector<std::int32_t> all(n);
      for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::int32_t>(n - 1 - i);
      const std::vector<std::int32_t> repeats = {3, 0, 3, 7, 7, 1, 5};
      const std::string shape = "k=" + std::to_string(k) + " d=" + std::to_string(d);
      expect_argmin2_agrees(GetParam(), pts, cent, k, d, all, start, shape + " all rows");
      expect_argmin2_agrees(GetParam(), pts, cent, k, d, repeats, start, shape + " repeats");
      expect_argmin2_agrees(GetParam(), pts, cent, k, d, {4}, start, shape + " one row");
      expect_argmin2_agrees(GetParam(), pts, cent, k, d, {}, start, shape + " no rows");
    }
  }
}

TEST_P(KernelsArgmin2, TiesBreakToTheLowestIndexWithinAndAcrossLanesAndGroups) {
  // k = 10 fills groups 0 and 1 and half of group 2.  Centroid pairs at
  // the same spot: 1 and 5 share lane 1 (groups 0 and 1), 2 and 3 are
  // neighbouring lanes of group 0, 6 and 9 differ in lane and group.
  const std::size_t k = 10, d = 2;
  std::vector<double> cent(k * d);
  for (std::size_t c = 0; c < k; ++c) {
    cent[c * d] = 10.0 * static_cast<double>(c);
    cent[c * d + 1] = -3.0;
  }
  const auto place = [&](std::size_t c, double x, double y) {
    cent[c * d] = x;
    cent[c * d + 1] = y;
  };
  place(5, 10.0, -3.0);  // = centroid 1
  place(3, 20.0, -3.0);  // = centroid 2
  place(9, 60.0, -3.0);  // = centroid 6
  // Points on each tied pair, and one exactly halfway between 0 and 1.
  const std::vector<double> pts = {10.0, -3.0, 20.0, -3.0, 60.0, -3.0, 5.0, -3.0};
  const std::vector<std::int32_t> rows = {0, 1, 2, 3};
  expect_argmin2_agrees(GetParam(), pts, cent, k, d, rows, {-1, -1, -1, -1}, "ties");

  const auto panel = make_panel(cent, k, d);
  std::vector<std::int32_t> assign(4, -1);
  std::vector<double> best(4), second(4);
  pk::ScopedIsa pin{GetParam()};
  EXPECT_EQ(pk::argmin2_rows(pts.data(), rows.data(), 4, d, panel.data(), k, panel.padded,
                             assign.data(), best.data(), second.data()),
            4u);
  EXPECT_EQ(assign, (std::vector<std::int32_t>{1, 2, 6, 0}));
  EXPECT_EQ(best, (std::vector<double>{0.0, 0.0, 0.0, 25.0}));
  EXPECT_EQ(second, best) << "a tie for best leaves the runner-up equal to it";
}

TEST_P(KernelsArgmin2, NanAndInfinityNeverWinAndAnAllNanRowIsIndexZero) {
  const std::size_t k = 6, d = 3;
  std::vector<double> cent = {
      kNan, 0.0,  0.0,    // 0: NaN coordinate
      kInf, 0.0,  0.0,    // 1: +inf coordinate
      5.0,  5.0,  5.0,    // 2
      -kInf, 1.0, 1.0,    // 3: -inf coordinate
      4.0,  4.0,  4.0,    // 4
      1e300, 1e300, 1e300,  // 5: overflows to +inf
  };
  const std::vector<double> pts = {
      0.0,  0.0,  0.0,   // row 0: nearest 4, then 2
      kNan, 1.0,  1.0,   // row 1: every distance NaN
      kInf, 0.0,  0.0,   // row 2: inf - inf = NaN against centroid 1
      -kInf, 0.0, 0.0,   // row 3: +inf or NaN everywhere
  };
  expect_argmin2_agrees(GetParam(), pts, cent, k, d, {0, 1, 2, 3}, {-1, -1, -1, -1},
                        "nan/inf");
  const auto panel = make_panel(cent, k, d);
  std::vector<std::int32_t> assign(4, 9);
  std::vector<double> best(4), second(4);
  const std::vector<std::int32_t> rows = {0, 1, 3};
  pk::ScopedIsa pin{GetParam()};
  EXPECT_EQ(pk::argmin2_rows(pts.data(), rows.data(), 3, d, panel.data(), k, panel.padded,
                             assign.data(), best.data(), second.data()),
            3u);
  EXPECT_EQ(assign[0], 4);
  EXPECT_EQ(best[0], 48.0);
  EXPECT_EQ(second[0], 75.0);
  EXPECT_EQ(assign[1], 0) << "all-NaN row";
  EXPECT_EQ(best[1], kInf);
  EXPECT_EQ(second[1], kInf);
  EXPECT_EQ(assign[3], 0) << "no finite distance";
  EXPECT_EQ(best[3], kInf);
  EXPECT_EQ(second[3], kInf);
}

TEST_P(KernelsArgmin2, OneCentroidHasAnInfiniteRunnerUp) {
  const std::vector<double> cent = {1.0, 2.0};
  const std::vector<double> pts = {4.0, 6.0, 1.0, 2.0, -1.0, 0.0};
  expect_argmin2_agrees(GetParam(), pts, cent, 1, 2, {2, 0, 1}, {0, -1, 0}, "k=1");
  const auto panel = make_panel(cent, 1, 2);
  std::vector<std::int32_t> assign = {0, -1, 0};
  std::vector<double> best(3), second(3);
  const std::vector<std::int32_t> rows = {2, 0, 1};
  pk::ScopedIsa pin{GetParam()};
  EXPECT_EQ(pk::argmin2_rows(pts.data(), rows.data(), 3, 2, panel.data(), 1, panel.padded,
                             assign.data(), best.data(), second.data()),
            1u);
  EXPECT_EQ(best, (std::vector<double>{25.0, 0.0, 8.0}));
  EXPECT_EQ(second, (std::vector<double>{kInf, kInf, kInf}));
}

INSTANTIATE_TEST_SUITE_P(BothIsas, KernelsArgmin2,
                         ::testing::Values(pk::Isa::kScalar, pk::Isa::kAvx2),
                         [](const ::testing::TestParamInfo<pk::Isa>& param_info) {
                           return pk::isa_name(param_info.param);
                         });

// ---- degenerate shapes ------------------------------------------------------------

TEST(KernelsEdge, ZeroLengthInputs) {
  EXPECT_EQ(pk::squared_distance(nullptr, nullptr, 0), 0.0);
  EXPECT_EQ(pk::dot(nullptr, nullptr, 0), 0.0);
  pk::stencil_row(nullptr, nullptr, 0, 0.5);  // no-op, must not crash
  pk::axpy(nullptr, nullptr, 2.0, 0);
}

// ---- crc32c (wire frame + durable checkpoint checksum) ----------------------------

TEST(KernelsCrc32c, KnownVector) {
  // The canonical CRC32C check value: "123456789" -> 0xE3069283
  // (RFC 3720 appendix B / every iSCSI test suite).
  const char* s = "123456789";
  EXPECT_EQ(pk::ref::crc32c(0, s, 9), 0xE3069283u);
  EXPECT_EQ(pk::crc32c(0, s, 9), 0xE3069283u);
}

TEST(KernelsCrc32c, EmptyInputIsSeed) {
  EXPECT_EQ(pk::ref::crc32c(0, nullptr, 0), 0u);
  EXPECT_EQ(pk::ref::crc32c(0x12345678u, nullptr, 0), 0x12345678u);
}

TEST(KernelsCrc32c, HardwareMatchesScalarBitExactly) {
  if (!pk::crc32c_hw_available()) GTEST_SKIP() << "no SSE4.2 path in this build/CPU";
  peachy::rng::Lcg64 gen{7};
  std::vector<unsigned char> buf(1024);
  for (auto& b : buf) b = static_cast<unsigned char>(gen.next_u32() & 0xFF);
  // Every length 0..~1k and every alignment offset 0..7: the hw path's
  // align-to-8 prologue and u64 word loop must agree with the table twin
  // on all tails.
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{15},
                          std::size_t{16}, std::size_t{63}, std::size_t{64}, std::size_t{65},
                          std::size_t{255}, std::size_t{1000}}) {
    for (std::size_t off = 0; off < 8 && off + len <= buf.size(); ++off) {
      EXPECT_EQ(pk::detail::crc32c_sse42(0xDEADBEEFu, buf.data() + off, len),
                pk::ref::crc32c(0xDEADBEEFu, buf.data() + off, len))
          << "len=" << len << " off=" << off;
    }
  }
}

TEST(KernelsCrc32c, ChainsAcrossSplits) {
  // crc(a+b) == crc(crc(a), b): the frame checksum chains header then
  // payload without concatenating them.
  const char* s = "peachy parallel assignments";
  const std::size_t n = 27;
  const std::uint32_t whole = pk::crc32c(0, s, n);
  for (std::size_t cut = 0; cut <= n; ++cut) {
    EXPECT_EQ(pk::crc32c(pk::crc32c(0, s, cut), s + cut, n - cut), whole) << "cut=" << cut;
  }
}

TEST(KernelsCrc32c, ForceScalarHookDispatches) {
  const char* s = "123456789";
  pk::force_crc32c_scalar(true);
  EXPECT_EQ(pk::crc32c(0, s, 9), 0xE3069283u);
  pk::force_crc32c_scalar(false);
  EXPECT_EQ(pk::crc32c(0, s, 9), 0xE3069283u);
}
