// Tests for the k-means assignment: sequential reference behaviour,
// termination thresholds, equivalence of the four OpenMP-strategy
// variants, the distributed version for every rank count, and the
// SIMT-style version's two reduction schemes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "data/points.hpp"
#include "faults/checkpoint.hpp"
#include "kmeans/kmeans.hpp"
#include "kmeans/mpi_kmeans.hpp"
#include "kmeans/simt_kmeans.hpp"
#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace km = peachy::kmeans;
namespace pf = peachy::faults;
namespace pd = peachy::data;
namespace pm = peachy::mpi;

namespace {

pd::PointSet blobs(std::size_t per_class = 80, std::size_t classes = 3, std::size_t dims = 2,
                   double spread = 0.4, std::uint64_t seed = 5) {
  pd::BlobsSpec spec;
  spec.points_per_class = per_class;
  spec.classes = classes;
  spec.dims = dims;
  spec.spread = spread;
  spec.seed = seed;
  return pd::gaussian_blobs(spec).points;
}

km::Options default_opts(std::size_t k = 3) {
  km::Options opts;
  opts.k = k;
  opts.max_iterations = 100;
  opts.seed = 17;
  return opts;
}

/// Do two clusterings induce the same partition (up to cluster renaming)?
bool same_partition(std::span<const std::int32_t> a, std::span<const std::int32_t> b) {
  if (a.size() != b.size()) return false;
  std::map<std::int32_t, std::int32_t> fwd, bwd;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto [f, fnew] = fwd.try_emplace(a[i], b[i]);
    if (!fnew && f->second != b[i]) return false;
    const auto [g, gnew] = bwd.try_emplace(b[i], a[i]);
    if (!gnew && g->second != a[i]) return false;
  }
  return true;
}

}  // namespace

// ---- sequential reference -----------------------------------------------------------

TEST(KmeansSeq, RecoversWellSeparatedBlobs) {
  pd::BlobsSpec spec;
  spec.points_per_class = 60;
  spec.classes = 3;
  spec.dims = 2;
  spec.spread = 0.2;
  spec.seed = 9;
  const auto truth = pd::gaussian_blobs(spec);
  const auto res = km::cluster_sequential(truth.points, default_opts(3));
  // The induced partition must equal the generator's class structure.
  EXPECT_TRUE(same_partition(res.assignment, truth.labels));
  EXPECT_LE(res.changes_per_iteration.back(), 0u + 0u);
}

TEST(KmeansSeq, InertiaDecreasesMonotonically) {
  const auto points = blobs();
  km::Options opts = default_opts();
  // Run iteration-by-iteration by capping max_iterations.
  double prev = 1e300;
  for (std::size_t iters = 1; iters <= 8; ++iters) {
    opts.max_iterations = iters;
    const auto res = km::cluster_sequential(points, opts);
    EXPECT_LE(res.inertia, prev + 1e-9) << "iters=" << iters;
    prev = res.inertia;
  }
}

TEST(KmeansSeq, TerminatesOnMinChanges) {
  const auto points = blobs();
  km::Options opts = default_opts();
  opts.min_changes = points.size();  // any iteration satisfies the threshold
  const auto res = km::cluster_sequential(points, opts);
  EXPECT_EQ(res.iterations, 1u);
  EXPECT_EQ(res.termination, km::Termination::kMinChanges);
}

TEST(KmeansSeq, TerminatesOnMaxIterations) {
  const auto points = blobs();
  km::Options opts = default_opts();
  opts.max_iterations = 2;
  opts.min_changes = 0;
  opts.move_tolerance = 0.0;
  const auto res = km::cluster_sequential(points, opts);
  EXPECT_LE(res.iterations, 2u);
}

TEST(KmeansSeq, ConvergedRunReportsCentroidTermination) {
  const auto points = blobs(40, 2, 2, 0.1, 3);
  km::Options opts = default_opts(2);
  opts.min_changes = 0;
  const auto res = km::cluster_sequential(points, opts);
  // A well-separated instance converges long before 100 iterations, via
  // the zero-changes → zero-movement chain.
  EXPECT_LT(res.iterations, 50u);
  EXPECT_NE(res.termination, km::Termination::kMaxIterations);
}

TEST(KmeansSeq, DeterministicForSeed) {
  const auto points = blobs();
  const auto a = km::cluster_sequential(points, default_opts());
  const auto b = km::cluster_sequential(points, default_opts());
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids.values(), b.centroids.values());
}

TEST(KmeansSeq, ValidatesOptions) {
  const auto points = blobs(10, 2, 2);
  km::Options opts = default_opts(0);
  EXPECT_THROW((void)km::cluster_sequential(points, opts), peachy::Error);
  opts = default_opts(points.size() + 1);
  EXPECT_THROW((void)km::cluster_sequential(points, opts), peachy::Error);
  EXPECT_THROW((void)km::cluster_sequential(pd::PointSet{}, default_opts()), peachy::Error);
}

TEST(KmeansInit, RandomPointsAreDistinctDataPoints) {
  const auto points = blobs(20, 2, 3);
  km::Options opts = default_opts(5);
  const auto centroids = km::initial_centroids(points, opts);
  EXPECT_EQ(centroids.size(), 5u);
  std::set<std::vector<double>> unique;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const auto p = centroids.point(c);
    unique.insert(std::vector<double>(p.begin(), p.end()));
  }
  EXPECT_EQ(unique.size(), 5u);
}

TEST(KmeansInit, PlusPlusSpreadsCentroids) {
  // On three tight blobs, k-means++ should pick centroids in distinct
  // blobs nearly always (D² sampling), giving immediate recovery.
  pd::BlobsSpec spec;
  spec.points_per_class = 50;
  spec.classes = 3;
  spec.spread = 0.05;
  spec.seed = 4;
  const auto truth = pd::gaussian_blobs(spec);
  km::Options opts = default_opts(3);
  opts.init = km::Init::kPlusPlus;
  const auto res = km::cluster_sequential(truth.points, opts);
  EXPECT_TRUE(same_partition(res.assignment, truth.labels));
}

TEST(KmeansSeq, NearestCentroidTieBreaksLow) {
  pd::PointSet centroids{2, 1, {1.0, 3.0}};
  const double mid[] = {2.0};
  EXPECT_EQ(km::nearest_centroid(centroids, mid), 0u);
}

// ---- threaded variants -----------------------------------------------------------------

class KmeansVariants
    : public ::testing::TestWithParam<std::tuple<km::Variant, std::size_t>> {};

TEST_P(KmeansVariants, MatchesSequentialTrajectory) {
  const auto [variant, threads] = GetParam();
  const auto points = blobs(70, 3, 3, 0.5, 23);
  const km::Options opts = default_opts();
  const auto expect = km::cluster_sequential(points, opts);
  peachy::support::ThreadPool pool{4};
  const auto got = km::cluster_parallel(points, opts, variant, pool, threads);
  // Assignments and iteration count must match exactly; centroid values
  // may differ in the last bits for non-deterministic summation orders
  // (critical/atomic), so compare positions with a tight tolerance.
  EXPECT_EQ(got.assignment, expect.assignment)
      << km::to_string(variant) << " threads=" << threads;
  EXPECT_EQ(got.iterations, expect.iterations);
  EXPECT_EQ(got.changes_per_iteration, expect.changes_per_iteration);
  ASSERT_EQ(got.centroids.values().size(), expect.centroids.values().size());
  for (std::size_t i = 0; i < got.centroids.values().size(); ++i) {
    EXPECT_NEAR(got.centroids.values()[i], expect.centroids.values()[i], 1e-9);
  }
  EXPECT_NEAR(got.inertia, expect.inertia, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyStages, KmeansVariants,
    ::testing::Combine(::testing::Values(km::Variant::kCritical, km::Variant::kAtomic,
                                         km::Variant::kReduction,
                                         km::Variant::kReductionPadded),
                       ::testing::Values(1u, 2u, 4u, 7u)));

TEST(KmeansVariantsExtra, ReductionIsBitIdenticalToSequential) {
  // The reduction variant merges partials in thread order; with one
  // thread the arithmetic is the sequential order exactly.
  const auto points = blobs();
  const km::Options opts = default_opts();
  peachy::support::ThreadPool pool{2};
  const auto seq = km::cluster_sequential(points, opts);
  const auto red = km::cluster_parallel(points, opts, km::Variant::kReduction, pool, 1);
  EXPECT_EQ(red.centroids.values(), seq.centroids.values());
  EXPECT_EQ(red.inertia, seq.inertia);
}

TEST(KmeansVariantsExtra, ThreadedRunsAreBitIdenticalAcrossRepeats) {
  // Determinism contract: for a fixed thread count, repeated threaded
  // runs produce bit-identical centroids — the reduction variant merges
  // fixed static blocks in thread order, and the kernels layer promises
  // identical arithmetic regardless of which ISA path dispatch picks.
  const auto points = blobs(70, 3, 3, 0.5, 23);
  const km::Options opts = default_opts();
  peachy::support::ThreadPool pool{4};
  for (const auto variant : {km::Variant::kReduction, km::Variant::kReductionPadded}) {
    const auto first = km::cluster_parallel(points, opts, variant, pool, 4);
    for (int run = 0; run < 3; ++run) {
      const auto again = km::cluster_parallel(points, opts, variant, pool, 4);
      EXPECT_EQ(again.centroids.values(), first.centroids.values())
          << km::to_string(variant) << " run=" << run;
      EXPECT_EQ(again.assignment, first.assignment);
      EXPECT_EQ(again.inertia, first.inertia);
      EXPECT_EQ(again.iterations, first.iterations);
    }
  }
}

// ---- distributed -------------------------------------------------------------------------

class KmeansMpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(KmeansMpiRanks, MatchesSequentialPartition) {
  const int p = GetParam();
  const auto points = blobs(60, 3, 2, 0.4, 29);
  const km::Options opts = default_opts();
  const auto expect = km::cluster_sequential(points, opts);
  pm::run(p, [&](pm::Comm& comm) {
    // Only root supplies the data (as if it parsed the input file).
    const auto res =
        km::cluster_mpi(comm, comm.rank() == 0 ? points : pd::PointSet{}, opts);
    EXPECT_EQ(res.assignment, expect.assignment) << "ranks=" << p;
    EXPECT_EQ(res.iterations, expect.iterations);
    EXPECT_NEAR(res.inertia, expect.inertia, 1e-6);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, KmeansMpiRanks, ::testing::Values(1, 2, 3, 4, 6));

TEST(KmeansMpi, ReportsTraffic) {
  const auto points = blobs(40, 2, 2);
  const km::Options opts = default_opts(2);
  km::MpiKmeansStats stats;
  pm::run(3, [&](pm::Comm& comm) {
    km::MpiKmeansStats local;  // stats objects are rank-local (each rank fills its own)
    (void)km::cluster_mpi(comm, comm.rank() == 0 ? points : pd::PointSet{}, opts, &local);
    if (comm.rank() == 0) stats = local;
  });
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.iterations, 0u);
}

// ---- distributed restart -------------------------------------------------------------

namespace {

/// Records the next_step of every snapshot it is asked to save, and keeps
/// only those up to `keep_through` — a crash right after that checkpoint.
class RecordingStore final : public pf::CheckpointStore {
 public:
  explicit RecordingStore(std::uint64_t keep_through = UINT64_MAX)
      : keep_through_{keep_through} {}

  void save(const std::string& key, pf::Snapshot snap) override {
    saved.push_back(snap.next_step);  // rank 0 alone writes snapshots
    if (snap.next_step <= keep_through_) CheckpointStore::save(key, std::move(snap));
  }

  std::vector<std::uint64_t> saved;

 private:
  std::uint64_t keep_through_;
};

km::Options restart_opts() {
  km::Options opts = default_opts(4);
  opts.min_changes = 3;
  return opts;
}

km::Result run_ft(int p, const pd::PointSet& points, const km::Options& opts,
                  pf::CheckpointStore& store) {
  const pf::FtOptions ft{1, &store, "kmeans"};
  km::Result out;
  pm::run(p, [&](pm::Comm& comm) {
    auto res = km::cluster_mpi(comm, comm.rank() == 0 ? points : pd::PointSet{}, opts,
                               nullptr, ft);
    if (comm.rank() == 0) out = std::move(res);
  });
  return out;
}

void expect_same_run(const km::Result& got, const km::Result& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.changes_per_iteration, want.changes_per_iteration);
  EXPECT_EQ(got.termination, want.termination);
  EXPECT_EQ(got.assignment, want.assignment);
}

}  // namespace

TEST(KmeansMpiRestart, RerunOfAFinishedRunReportsTheSameResult) {
  const auto points = blobs(70, 4, 3, 1.5, 23);
  const km::Options opts = restart_opts();
  RecordingStore store;
  const km::Result first = run_ft(2, points, opts, store);
  ASSERT_EQ(first.termination, km::Termination::kMinChanges);
  ASSERT_GE(first.iterations, 3u);
  // The terminating iteration is not checkpointed: the last snapshot
  // resumes at the final iteration, which the rerun re-derives.
  ASSERT_FALSE(store.saved.empty());
  EXPECT_EQ(store.saved.back(), first.iterations);

  const km::Result again = run_ft(2, points, opts, store);
  expect_same_run(again, first);
  const auto& a = again.centroids.values();
  const auto& b = first.centroids.values();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << "centroid bits differ";
}

TEST(KmeansMpiRestart, ResumesFromAMidRunSnapshotAtMoreRanks) {
  const auto points = blobs(70, 4, 3, 1.5, 23);
  const km::Options opts = restart_opts();
  RecordingStore store{/*keep_through=*/4};  // keeps iteration 3's snapshot
  const km::Result whole = run_ft(2, points, opts, store);
  ASSERT_GT(whole.iterations, 4u) << "the run must outlive the kept snapshot";

  store.saved.clear();
  const km::Result got = run_ft(3, points, opts, store);
  ASSERT_FALSE(store.saved.empty());
  EXPECT_EQ(store.saved.front(), 5u) << "the rerun must resume at iteration 4";
  expect_same_run(got, whole);
  // Three ranks sum the partial centroids in another order than two.
  const auto& a = got.centroids.values();
  const auto& b = whole.centroids.values();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9) << "coord " << i;
}

// ---- the bounded distributed assignment against the unbounded oracle -------------------
//
// cluster_mpi rescans only the points its Hamerly bounds cannot clear;
// cluster_sequential scans every point with argmin_assign.  Every case
// must agree on the assignment, the changes of every iteration, the
// iteration count and the reason for stopping.  The kmeans.points_*
// counters show that the bounds did skip work, so agreement is not won by
// scanning everything.

namespace {

/// Check one bounded run against the oracle; returns the points it skipped.
std::int64_t expect_bounded_matches_sequential(const pd::PointSet& points,
                                               const km::Options& opts, int p,
                                               const std::string& what) {
  const km::Result want = km::cluster_sequential(points, opts);
  std::vector<km::Result> got(static_cast<std::size_t>(p));
  peachy::obs::reset();
  peachy::obs::enable();
  pm::run(p, [&](pm::Comm& comm) {
    got[static_cast<std::size_t>(comm.rank())] =
        km::cluster_mpi(comm, comm.rank() == 0 ? points : pd::PointSet{}, opts);
  });
  peachy::obs::disable();
  const std::int64_t scanned = peachy::obs::counter_value("kmeans.points_scanned");
  const std::int64_t skipped = peachy::obs::counter_value("kmeans.points_skipped");
  peachy::obs::reset();
  // Every rank counts its own block once per iteration.
  EXPECT_EQ(static_cast<std::size_t>(scanned + skipped), points.size() * want.iterations)
      << what;
  for (int r = 0; r < p; ++r) {
    const km::Result& res = got[static_cast<std::size_t>(r)];
    EXPECT_EQ(res.assignment, want.assignment) << what << " rank " << r;
    EXPECT_EQ(res.changes_per_iteration, want.changes_per_iteration) << what << " rank " << r;
    EXPECT_EQ(res.iterations, want.iterations) << what << " rank " << r;
    EXPECT_EQ(res.termination, want.termination) << what << " rank " << r;
  }
  return skipped;
}

km::Options long_run_opts(std::size_t k, std::uint64_t seed) {
  km::Options opts;
  opts.k = k;
  opts.max_iterations = 40;
  opts.min_changes = 0;
  opts.move_tolerance = 0.0;
  opts.seed = seed;
  return opts;
}

/// Points on the 5×5 integer lattice, site (x, y) repeated 1 + (x·y) mod 3
/// times: duplicates everywhere, and centroids that are means of lattice
/// points, so distances tie exactly.
pd::PointSet lattice() {
  pd::PointSet pts;
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) {
      for (int rep = 0; rep <= (x * y) % 3; ++rep) {
        const std::vector<double> p = {static_cast<double>(x), static_cast<double>(y)};
        pts.push_back(p);
      }
    }
  }
  return pts;
}

/// Points whose best and second-best centroid distances are equal.
std::size_t exact_ties(const pd::PointSet& points, const pd::PointSet& centroids) {
  const auto panel = centroids.transposed_panel();
  const std::size_t n = points.size();
  std::vector<std::int32_t> rows(n), assign(n, -1);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> best(n), second(n);
  (void)peachy::kernels::ref::argmin2_rows(points.values().data(), rows.data(), n,
                                           points.dims(), panel.data(), panel.count,
                                           panel.padded, assign.data(), best.data(),
                                           second.data());
  std::size_t ties = 0;
  for (std::size_t i = 0; i < n; ++i) ties += best[i] == second[i] ? 1 : 0;
  return ties;
}

}  // namespace

TEST(KmeansBounded, MatchesSequentialOverSeedsAndRankCounts) {
  std::int64_t skipped = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto points = blobs(50, 5, 3, 3.0, seed);
    for (const int p : {1, 3, 4}) {
      skipped += expect_bounded_matches_sequential(
          points, long_run_opts(6, seed), p,
          "seed " + std::to_string(seed) + " p=" + std::to_string(p));
    }
  }
  EXPECT_GT(skipped, 0) << "the bounds never cleared a point";
}

TEST(KmeansBounded, AnExactTieMadeByACentroidMoveIsRescanned) {
  // On a line: centroid 0 starts at -3 and centroid 1 at 2.  Iteration 1
  // puts the point at 0 in cluster 1, at distances 2 (own) and 3 (other).
  // Then cluster 0 = {-3, -1} moves by 1 to -2, straight at the point, and
  // cluster 1 = {0, 2, 4} stays at 2.  The bounds become upper = 2 and
  // lower = 3 - 1 = 2, exactly tight, and so is the tie: the point is 2
  // from both centroids, and the lowest index takes it.  A rule that
  // skipped on upper <= lower would leave it in cluster 1.
  pd::PointSet points;
  for (const double x : {-3.0, -1.0, 0.0, 2.0, 4.0}) points.push_back(std::vector<double>{x});
  km::Options opts = long_run_opts(2, 9);
  const auto init = km::initial_centroids(points, opts);
  ASSERT_EQ(init.at(0, 0), -3.0) << "seed 9 no longer draws the designed start";
  ASSERT_EQ(init.at(1, 0), 2.0) << "seed 9 no longer draws the designed start";
  const km::Result want = km::cluster_sequential(points, opts);
  ASSERT_EQ(want.changes_per_iteration, (std::vector<std::size_t>{5, 1, 0}));
  ASSERT_EQ(want.assignment, (std::vector<std::int32_t>{0, 0, 0, 1, 1}));
  for (const int p : {1, 2}) {
    expect_bounded_matches_sequential(points, opts, p, "tie p=" + std::to_string(p));
  }
}

TEST(KmeansBounded, DuplicatePointsExactTiesAndEmptyClustersMatchSequential) {
  const auto points = lattice();
  std::size_t late_ties = 0, empty_starts = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const km::Options opts = long_run_opts(5, seed);
    expect_bounded_matches_sequential(points, opts, 3, "lattice seed " + std::to_string(seed));
    // Coverage: exact ties at iterations after the first (those are the
    // ones a skip could get wrong), and duplicate initial centroids, whose
    // higher-index copy ends iteration 1 with an empty cluster.
    const km::Result run = km::cluster_sequential(points, opts);
    for (std::size_t it = 1; it < run.iterations; ++it) {
      km::Options upto = opts;
      upto.max_iterations = it;
      late_ties += exact_ties(points, km::cluster_sequential(points, upto).centroids);
    }
    const auto init = km::initial_centroids(points, opts);
    std::set<std::vector<double>> sites;
    for (std::size_t c = 0; c < init.size(); ++c) {
      sites.insert({init.point(c).begin(), init.point(c).end()});
    }
    empty_starts += sites.size() < init.size() ? 1 : 0;
  }
  EXPECT_GT(late_ties, 0u);
  EXPECT_GT(empty_starts, 0u);
}

TEST(KmeansBounded, OneClusterAndThirtyThreeClustersMatchSequential) {
  const auto points = blobs(40, 11, 4, 2.0, 41);
  for (const std::size_t k : {1ul, 33ul}) {
    for (const int p : {1, 4}) {
      expect_bounded_matches_sequential(points, long_run_opts(k, 7), p,
                                        "k=" + std::to_string(k) + " p=" + std::to_string(p));
    }
  }
}

TEST(KmeansBounded, ResumesMidRunAtFewerRanksWithFreshBounds) {
  const auto points = blobs(60, 5, 3, 3.0, 13);
  const km::Options opts = long_run_opts(6, 13);
  const km::Result want = km::cluster_sequential(points, opts);
  ASSERT_GT(want.iterations, 6u) << "the run must outlive the kept snapshot";

  RecordingStore store{/*keep_through=*/5};  // keeps iteration 4's snapshot
  const km::Result whole = run_ft(4, points, opts, store);
  expect_same_run(whole, want);

  store.saved.clear();
  const km::Result resumed = run_ft(3, points, opts, store);
  ASSERT_FALSE(store.saved.empty());
  EXPECT_EQ(store.saved.front(), 6u) << "the rerun must resume at iteration 5";
  expect_same_run(resumed, want);
}

// ---- SIMT ---------------------------------------------------------------------------------

class KmeansSimtConfigs
    : public ::testing::TestWithParam<std::tuple<km::SimtReduce, std::size_t>> {};

TEST_P(KmeansSimtConfigs, MatchesSequentialPartition) {
  const auto [reduce, block_size] = GetParam();
  const auto points = blobs(50, 3, 2, 0.4, 31);
  const km::Options opts = default_opts();
  const auto expect = km::cluster_sequential(points, opts);
  peachy::support::ThreadPool pool{4};
  km::SimtConfig cfg;
  cfg.reduce = reduce;
  cfg.block_size = block_size;
  const auto got = km::cluster_simt(points, opts, cfg, pool);
  EXPECT_EQ(got.assignment, expect.assignment);
  EXPECT_EQ(got.iterations, expect.iterations);
  EXPECT_NEAR(got.inertia, expect.inertia, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KmeansSimtConfigs,
    ::testing::Combine(::testing::Values(km::SimtReduce::kGlobalAtomic,
                                         km::SimtReduce::kBlockShared),
                       ::testing::Values(1u, 32u, 1024u)));

TEST(KmeansSimt, BlockSharedIssuesFewerGlobalAtomics) {
  const auto points = blobs(100, 4, 3, 0.6, 37);
  const km::Options opts = default_opts(4);
  peachy::support::ThreadPool pool{4};

  km::SimtConfig cfg;
  cfg.block_size = 64;
  cfg.reduce = km::SimtReduce::kGlobalAtomic;
  km::SimtStats atomic_stats;
  (void)km::cluster_simt(points, opts, cfg, pool, &atomic_stats);

  cfg.reduce = km::SimtReduce::kBlockShared;
  km::SimtStats shared_stats;
  (void)km::cluster_simt(points, opts, cfg, pool, &shared_stats);

  EXPECT_GT(atomic_stats.global_atomic_updates, 4 * shared_stats.global_atomic_updates);
  EXPECT_EQ(atomic_stats.blocks_launched, shared_stats.blocks_launched);
}

TEST(KmeansSimt, ValidatesConfig) {
  const auto points = blobs(10, 2, 2);
  peachy::support::ThreadPool pool{2};
  km::SimtConfig cfg;
  cfg.block_size = 0;
  EXPECT_THROW((void)km::cluster_simt(points, default_opts(2), cfg, pool), peachy::Error);
}

// ---- one stopping rule, every driver ------------------------------------------------
//
// All implementations close an iteration through the same stopping rule.
// For each of the three thresholds, every driver must stop where the
// sequential run stops, for the same reason, with the same history.

namespace {

struct StopCase {
  const char* name;
  km::Termination termination;
  std::size_t max_iterations;
  std::size_t min_changes;
  double move_tolerance;
};

constexpr StopCase kStopCases[] = {
    {"MinChanges", km::Termination::kMinChanges, 100, 3, 0.0},
    {"CentroidsConverged", km::Termination::kCentroidsConverged, 100, 0, 0.05},
    {"MaxIterations", km::Termination::kMaxIterations, 3, 0, 0.0},
};

using Driver = std::function<km::Result(const pd::PointSet&, const km::Options&)>;

struct NamedDriver {
  const char* name;
  Driver run;
};

km::Result run_variant(km::Variant v, const pd::PointSet& points, const km::Options& opts) {
  peachy::support::ThreadPool pool{3};
  return km::cluster_parallel(points, opts, v, pool, 3);
}

km::Result run_mpi_driver(int ranks, const pd::PointSet& points, const km::Options& opts) {
  std::vector<km::Result> got(static_cast<std::size_t>(ranks));
  pm::run(ranks, [&](pm::Comm& comm) {
    got[static_cast<std::size_t>(comm.rank())] =
        km::cluster_mpi(comm, comm.rank() == 0 ? points : pd::PointSet{}, opts);
  });
  for (const auto& r : got) {
    EXPECT_EQ(r.iterations, got[0].iterations);
    EXPECT_EQ(r.termination, got[0].termination);
    EXPECT_EQ(r.changes_per_iteration, got[0].changes_per_iteration);
  }
  return got[0];
}

km::Result run_simt_driver(km::SimtReduce reduce, const pd::PointSet& points,
                           const km::Options& opts) {
  peachy::support::ThreadPool pool{3};
  km::SimtConfig cfg;
  cfg.reduce = reduce;
  cfg.block_size = 32;
  return km::cluster_simt(points, opts, cfg, pool);
}

const NamedDriver kDrivers[] = {
    {"Sequential", km::cluster_sequential},
    {"Critical", [](auto& p, auto& o) { return run_variant(km::Variant::kCritical, p, o); }},
    {"Atomic", [](auto& p, auto& o) { return run_variant(km::Variant::kAtomic, p, o); }},
    {"Reduction", [](auto& p, auto& o) { return run_variant(km::Variant::kReduction, p, o); }},
    {"ReductionPadded",
     [](auto& p, auto& o) { return run_variant(km::Variant::kReductionPadded, p, o); }},
    {"MpiP1", [](auto& p, auto& o) { return run_mpi_driver(1, p, o); }},
    {"MpiP3", [](auto& p, auto& o) { return run_mpi_driver(3, p, o); }},
    {"SimtGlobalAtomic",
     [](auto& p, auto& o) { return run_simt_driver(km::SimtReduce::kGlobalAtomic, p, o); }},
    {"SimtBlockShared",
     [](auto& p, auto& o) { return run_simt_driver(km::SimtReduce::kBlockShared, p, o); }},
};

// gtest prints each parameter into the test's listed name.  Left to itself
// it dumps the struct's bytes, and the bytes of `name` are an address that
// moves with every build and every run, so print the names instead.
void PrintTo(const StopCase& c, std::ostream* os) { *os << c.name; }
void PrintTo(const NamedDriver& d, std::ostream* os) { *os << d.name; }

}  // namespace

class KmeansStoppingRule
    : public ::testing::TestWithParam<std::tuple<StopCase, NamedDriver>> {};

TEST_P(KmeansStoppingRule, EveryDriverStopsWhereSequentialStops) {
  const auto& [c, driver] = GetParam();
  // Sequentially: changes 280 20 18 11 8 3 1 2 1 0, largest moves 3.3 1.6
  // 0.73 0.48 0.30 0.10 0.035 …, so each threshold below fires mid-run.
  const auto points = blobs(70, 4, 3, 1.5, 23);
  km::Options opts = default_opts(4);
  opts.max_iterations = c.max_iterations;
  opts.min_changes = c.min_changes;
  opts.move_tolerance = c.move_tolerance;

  const auto expect = km::cluster_sequential(points, opts);
  // The case must stop on its own threshold, after more than one iteration.
  ASSERT_EQ(expect.termination, c.termination) << c.name;
  ASSERT_GT(expect.iterations, 1u) << c.name;

  const auto got = driver.run(points, opts);
  EXPECT_EQ(got.termination, expect.termination) << c.name << " " << driver.name;
  EXPECT_EQ(got.iterations, expect.iterations) << c.name << " " << driver.name;
  EXPECT_EQ(got.changes_per_iteration, expect.changes_per_iteration)
      << c.name << " " << driver.name;
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, KmeansStoppingRule,
    ::testing::Combine(::testing::ValuesIn(kStopCases), ::testing::ValuesIn(kDrivers)),
    [](const ::testing::TestParamInfo<KmeansStoppingRule::ParamType>& param_info) {
      return std::string{std::get<0>(param_info.param).name} + "_" +
             std::get<1>(param_info.param).name;
    });
