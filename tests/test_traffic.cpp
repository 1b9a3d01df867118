// Tests for the Nagel–Schreckenberg assignment.  The centerpiece is the
// paper's reproducibility requirement: the parallel simulation must be
// bit-identical to the serial one for every thread count, while the
// per-thread-seed shortcut must NOT be.  Model physics (no collisions,
// no overtaking, jams emerge only with randomness) are property-tested.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/splitmix.hpp"
#include "support/check.hpp"
#include "traffic/diagram.hpp"
#include "traffic/grid.hpp"
#include "traffic/traffic.hpp"

namespace tr = peachy::traffic;

namespace {

tr::Spec fig3_spec() {
  tr::Spec spec;  // defaults are exactly Fig. 3's caption
  spec.seed = 20230712;
  return spec;
}

/// Model invariant: distinct positions, all within the road, velocities
/// within [0, v_max].
void check_valid(const tr::Spec& spec, const tr::State& st) {
  std::set<std::int64_t> seen;
  for (std::size_t i = 0; i < st.pos.size(); ++i) {
    ASSERT_GE(st.pos[i], 0);
    ASSERT_LT(st.pos[i], static_cast<std::int64_t>(spec.road_length));
    ASSERT_TRUE(seen.insert(st.pos[i]).second) << "collision at " << st.pos[i];
    ASSERT_GE(st.vel[i], 0);
    ASSERT_LE(st.vel[i], spec.v_max);
  }
}

}  // namespace

// ---- initial state -----------------------------------------------------------------

TEST(TrafficInit, ValidSortedAndDeterministic) {
  const auto spec = fig3_spec();
  const auto st = tr::initial_state(spec);
  EXPECT_EQ(st.pos.size(), spec.cars);
  check_valid(spec, st);
  EXPECT_TRUE(std::is_sorted(st.pos.begin(), st.pos.end()));
  for (int v : st.vel) EXPECT_EQ(v, 0);
  EXPECT_EQ(tr::initial_state(spec), st);
}

TEST(TrafficInit, FullRoadAllowed) {
  tr::Spec spec;
  spec.road_length = 10;
  spec.cars = 10;
  const auto st = tr::initial_state(spec);
  check_valid(spec, st);
  // Bumper to bumper: every gap is zero.
  for (std::size_t i = 0; i < spec.cars; ++i) EXPECT_EQ(tr::gap_ahead(spec, st, i), 0);
}

TEST(TrafficInit, RejectsBadSpecs) {
  tr::Spec spec;
  spec.cars = spec.road_length + 1;
  EXPECT_THROW((void)tr::initial_state(spec), peachy::Error);
  spec = {};
  spec.p_slow = 1.5;
  EXPECT_THROW((void)tr::initial_state(spec), peachy::Error);
  spec = {};
  spec.v_max = 0;
  EXPECT_THROW((void)tr::initial_state(spec), peachy::Error);
}

namespace {

/// The reference for initial_state: the same seeded partial Fisher–Yates,
/// then std::sort of the chosen cells.  The bitmap scan must reproduce it
/// exactly, since every driver and every oracle (run_serial, run_grid)
/// starts from initial_state and would agree with a wrong one.
tr::State sorted_fisher_yates(const tr::Spec& spec) {
  std::vector<std::int64_t> cells(spec.road_length);
  std::iota(cells.begin(), cells.end(), 0);
  peachy::rng::SplitMix64 gen{peachy::rng::derive_seed(spec.seed, 0xCA25u)};
  for (std::size_t i = 0; i < spec.cars; ++i) {
    const auto j = i + static_cast<std::size_t>(
                           peachy::rng::uniform_below(gen, spec.road_length - i));
    std::swap(cells[i], cells[j]);
  }
  tr::State st;
  st.pos.assign(cells.begin(), cells.begin() + static_cast<std::ptrdiff_t>(spec.cars));
  std::sort(st.pos.begin(), st.pos.end());
  st.vel.assign(spec.cars, 0);
  return st;
}

}  // namespace

TEST(TrafficInit, BitmapScanMatchesTheSortedFisherYates) {
  const struct {
    std::size_t road_length;
    std::size_t cars;
  } roads[] = {
      {1, 1},   {10, 10}, {64, 64}, {130, 130}, {1000, 1},
      {63, 20}, {63, 63}, {64, 1},  {64, 33},   {65, 1},
      {65, 40}, {65, 65}, {130, 7}, {130, 129}, {1'000'000, 200'000},  // traffic-socket's size
  };
  for (const auto& r : roads) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      tr::Spec spec;
      spec.road_length = r.road_length;
      spec.cars = r.cars;
      spec.seed = seed;
      EXPECT_EQ(tr::initial_state(spec), sorted_fisher_yates(spec))
          << "L=" << r.road_length << " cars=" << r.cars << " seed=" << seed;
    }
  }
}

TEST(TrafficGap, WrapAroundComputed) {
  tr::Spec spec;
  spec.road_length = 100;
  spec.cars = 2;
  tr::State st;
  st.pos = {10, 90};
  st.vel = {0, 0};
  EXPECT_EQ(tr::gap_ahead(spec, st, 0), 79);  // 10 -> 90
  EXPECT_EQ(tr::gap_ahead(spec, st, 1), 19);  // 90 -> 10 (wrap)
}

// ---- commit_step on hand-built states ----------------------------------------------

namespace {

tr::Spec road(std::size_t road_length, std::size_t cars) {
  tr::Spec spec;
  spec.road_length = road_length;
  spec.cars = cars;
  return spec;  // v_max 5
}

}  // namespace

TEST(TrafficCommitStep, NoWrapLeavesTheOrderAlone) {
  const auto spec = road(20, 3);
  tr::State st{{2, 5, 9}, {1, 0, 4}};
  std::vector<std::int64_t> next{3, 7, 10};
  tr::commit_step(spec, st, next, 0);
  EXPECT_EQ(st, (tr::State{{3, 7, 10}, {1, 2, 1}}));
  EXPECT_EQ(next, (std::vector<std::int64_t>{2, 5, 9}));  // the old positions, to refill
}

TEST(TrafficCommitStep, WrappingLastCarLandsInFrontWithItsVelocity) {
  const auto spec = road(20, 4);
  tr::State st{{2, 5, 11, 18}, {0, 0, 0, 0}};
  std::vector<std::int64_t> next{4, 6, 11, 1};  // car 3 moves 3 cells across the end
  tr::commit_step(spec, st, next, 0);
  EXPECT_EQ(st, (tr::State{{1, 4, 6, 11}, {3, 2, 1, 0}}));
}

TEST(TrafficCommitStep, OneCarNeverRotates) {
  const auto spec = road(10, 1);
  tr::State st{{8}, {3}};
  std::vector<std::int64_t> next{2};  // wraps: 8 + 4 - 10
  tr::commit_step(spec, st, next, 0);
  EXPECT_EQ(st, (tr::State{{2}, {4}}));
  next = {5};
  tr::commit_step(spec, st, next, 1);
  EXPECT_EQ(st, (tr::State{{5}, {3}}));
}

TEST(TrafficCommitStep, TwoCarsSecondWraps) {
  const auto spec = road(10, 2);
  tr::State st{{3, 9}, {0, 0}};
  std::vector<std::int64_t> next{4, 2};  // car 1 moves 3 cells across the end
  tr::commit_step(spec, st, next, 0);
  EXPECT_EQ(st, (tr::State{{2, 4}, {3, 1}}));
}

TEST(TrafficCommitStep, FullRoadOfStoppedCarsStaysPut) {
  const auto spec = road(5, 5);
  tr::State st{{0, 1, 2, 3, 4}, {0, 0, 0, 0, 0}};
  std::vector<std::int64_t> next = st.pos;
  tr::commit_step(spec, st, next, 0);
  EXPECT_EQ(st, (tr::State{{0, 1, 2, 3, 4}, {0, 0, 0, 0, 0}}));
}

TEST(TrafficCommitStep, DisplacementAboveVmaxIsANamedError) {
  const auto spec = road(20, 3);
  tr::State st{{2, 5, 9}, {0, 0, 0}};
  std::vector<std::int64_t> next{3, 12, 10};  // car 1 moves 7 > v_max 5
  try {
    tr::commit_step(spec, st, next, 4);
    FAIL() << "commit_step accepted a displacement above v_max";
  } catch (const peachy::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("traffic exchange: car 1 moved 7 cells in step 4 (v_max 5)"),
              std::string::npos)
        << what;
  }
}

// ---- physics ------------------------------------------------------------------------

TEST(TrafficModel, InvariantsHoldOverManySteps) {
  const auto spec = fig3_spec();
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 200, &snaps);
  for (const auto& st : snaps) check_valid(spec, st);
}

TEST(TrafficModel, NoOvertaking) {
  // In canonical form positions are always sorted ascending.
  const auto spec = fig3_spec();
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 150, &snaps);
  for (const auto& st : snaps) {
    EXPECT_TRUE(std::is_sorted(st.pos.begin(), st.pos.end()));
  }
}

TEST(TrafficModel, WithoutRandomnessNoJamsAtLowDensity) {
  // "Without randomness, these [jams] do not occur": with p = 0 and
  // density below 1/(v_max+1), traffic reaches free flow — every car at
  // v_max, none stopped.
  tr::Spec spec = fig3_spec();
  spec.p_slow = 0.0;
  spec.cars = 100;  // density 0.1 < 1/6
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 400, &snaps);
  const auto& final_state = snaps.back();
  EXPECT_EQ(tr::stopped_cars(final_state), 0u);
  EXPECT_DOUBLE_EQ(tr::mean_velocity(final_state), spec.v_max);
}

TEST(TrafficModel, WithRandomnessJamsEmerge) {
  // Fig. 3's phenomenon: at the same density, p = 0.13 produces stopped
  // cars (jams) that persist through the run.
  const tr::Spec spec = fig3_spec();  // density 0.2, p = 0.13
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 400, &snaps);
  // Average the second half to skip the transient.
  std::vector<tr::State> tail(snaps.begin() + 200, snaps.end());
  EXPECT_GT(tr::jam_fraction(tail), 0.02);
}

TEST(TrafficModel, SingleCarReachesFreeFlow) {
  tr::Spec spec;
  spec.road_length = 50;
  spec.cars = 1;
  spec.p_slow = 0.0;
  const auto st = tr::run_serial(spec, 20);
  EXPECT_EQ(st.vel[0], spec.v_max);
}

// ---- reproducibility (the assignment's core requirement) ------------------------------

class TrafficThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrafficThreads, ParallelBitIdenticalToSerial) {
  const std::size_t threads = GetParam();
  const auto spec = fig3_spec();
  const auto serial = tr::run_serial(spec, 120);
  peachy::support::ThreadPool pool{4};
  const auto parallel = tr::run_parallel(spec, 120, pool, threads);
  EXPECT_EQ(parallel, serial) << "threads=" << threads;
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TrafficThreads,
                         ::testing::Values(1u, 2u, 3u, 4u, 7u, 16u));

TEST(TrafficRepro, SnapshotsAlsoIdentical) {
  const auto spec = fig3_spec();
  std::vector<tr::State> serial_snaps, parallel_snaps;
  (void)tr::run_serial(spec, 60, &serial_snaps);
  peachy::support::ThreadPool pool{3};
  (void)tr::run_parallel(spec, 60, pool, 3, nullptr, &parallel_snaps);
  EXPECT_EQ(parallel_snaps, serial_snaps);
}

TEST(TrafficRepro, IndependentSeedsAreNotReproducible) {
  // The paper's warned-against shortcut: thread-private generators give
  // thread-count-dependent trajectories.
  const auto spec = fig3_spec();
  peachy::support::ThreadPool pool{4};
  const auto t1 = tr::run_parallel_independent_rngs(spec, 80, pool, 1);
  const auto t4 = tr::run_parallel_independent_rngs(spec, 80, pool, 4);
  EXPECT_NE(t1, t4);
  // Same thread count still reproduces (it is deterministic, just not
  // thread-count invariant).
  EXPECT_EQ(tr::run_parallel_independent_rngs(spec, 80, pool, 4), t4);
}

TEST(TrafficRepro, FastForwardCountScalesWithThreadsAndSteps) {
  const auto spec = fig3_spec();
  peachy::support::ThreadPool pool{4};
  tr::ParallelStats stats2, stats4;
  (void)tr::run_parallel(spec, 50, pool, 2, &stats2);
  (void)tr::run_parallel(spec, 50, pool, 4, &stats4);
  EXPECT_EQ(stats2.fast_forwards, 50u * 2);
  EXPECT_EQ(stats4.fast_forwards, 50u * 4);
}

TEST(TrafficRepro, DifferentSeedsDifferentTrajectories) {
  tr::Spec a = fig3_spec();
  tr::Spec b = fig3_spec();
  b.seed = a.seed + 1;
  EXPECT_NE(tr::run_serial(a, 50), tr::run_serial(b, 50));
}

// ---- grid representation ----------------------------------------------------------------

class GridSteps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridSteps, GridMatchesAgentExactly) {
  const std::size_t steps = GetParam();
  tr::Spec spec = fig3_spec();
  spec.road_length = 300;
  spec.cars = 90;
  EXPECT_EQ(tr::run_grid(spec, steps), tr::run_serial(spec, steps));
}

INSTANTIATE_TEST_SUITE_P(StepCounts, GridSteps, ::testing::Values(0u, 1u, 10u, 100u));

TEST(Grid, HighDensityStillMatches) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 120;
  spec.cars = 100;  // dense: heavy braking and wraps
  EXPECT_EQ(tr::run_grid(spec, 80), tr::run_serial(spec, 80));
}

TEST(Grid, StartsFromAGivenStateAsFromTheSpecsOwn) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 120;
  spec.cars = 40;
  EXPECT_EQ(tr::run_grid(spec, tr::initial_state(spec), 30), tr::run_grid(spec, 30));
}

namespace {

/// run_grid from `init` on a 10-cell road must throw a peachy::Error
/// whose message contains `want`.
void expect_grid_rejects(const tr::State& init, const std::string& want) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 10;
  spec.cars = init.pos.size();
  try {
    (void)tr::run_grid(spec, init, 3);
    FAIL() << "run_grid accepted a bad initial state; expected: " << want;
  } catch (const peachy::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(want), std::string::npos) << what;
  }
}

}  // namespace

TEST(Grid, AnOffRoadOrSharedCellOrBadVelocityIsANamedError) {
  expect_grid_rejects({{2, 10}, {0, 0}}, "grid: car 1 at 10 is off the road [0, 10)");
  expect_grid_rejects({{-1, 4}, {0, 0}}, "grid: car 0 at -1 is off the road [0, 10)");
  expect_grid_rejects({{1 << 30}, {0}}, "grid: car 0 at 1073741824 is off the road");
  expect_grid_rejects({{3, 5, 3}, {0, 0, 0}}, "grid: cars 0 and 2 share cell 3");
  expect_grid_rejects({{3, 5}, {0, 6}}, "grid: car 1 has velocity 6 outside [0, v_max]");
  expect_grid_rejects({{3, 5}, {-1, 0}}, "grid: car 0 has velocity -1 outside [0, v_max]");
  expect_grid_rejects({{3, 5}, {0}}, "grid: initial state has 2 positions but 1 velocities");
}

// ---- diagrams & measurements ---------------------------------------------------------------

TEST(Diagram, AsciiShapeAndMarkers) {
  const auto spec = fig3_spec();
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 40, &snaps);
  const auto art = tr::spacetime_ascii(spec, snaps, 4);
  // 40 rows of road_length/4 chars.
  EXPECT_EQ(art.size(), 40u * (spec.road_length / 4 + 1));
  EXPECT_NE(art.find('#'), std::string::npos);  // jams visible
}

TEST(Diagram, PgmHeader) {
  const auto spec = fig3_spec();
  std::vector<tr::State> snaps;
  (void)tr::run_serial(spec, 5, &snaps);
  const auto pgm = tr::spacetime_pgm(spec, snaps);
  EXPECT_EQ(pgm.rfind("P5\n1000 5\n255\n", 0), 0u);
}

TEST(FundamentalDiagram, FreeFlowThenCongestionCollapse) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 500;
  const auto points = tr::fundamental_diagram(spec, {0.05, 0.12, 0.5, 0.8}, 300);
  ASSERT_EQ(points.size(), 4u);
  // Low density: near free flow (v close to v_max, lowered by p).
  EXPECT_GT(points[0].mean_velocity, 3.5);
  // Flow peaks near the critical density then collapses at high density.
  EXPECT_GT(points[1].flow, points[0].flow);
  EXPECT_LT(points[3].flow, points[1].flow);
  EXPECT_LT(points[3].mean_velocity, 0.5);
}

TEST(FundamentalDiagram, ValidatesInput) {
  const auto spec = fig3_spec();
  EXPECT_THROW((void)tr::fundamental_diagram(spec, {}, 10), peachy::Error);
  EXPECT_THROW((void)tr::fundamental_diagram(spec, {1.5}, 10), peachy::Error);
}

// ---- distributed-memory variation (paper §5: "using MPI") --------------------

#include "traffic/mpi_traffic.hpp"

class TrafficMpiRanks : public ::testing::TestWithParam<int> {};

TEST_P(TrafficMpiRanks, BitIdenticalToSerialForAnyRankCount) {
  const int ranks = GetParam();
  tr::Spec spec = fig3_spec();
  spec.road_length = 400;
  spec.cars = 80;
  const auto serial = tr::run_serial(spec, 60);
  peachy::mpi::run(ranks, [&](peachy::mpi::Comm& comm) {
    const auto got = tr::run_mpi(comm, spec, 60);
    EXPECT_EQ(got, serial) << "ranks=" << ranks;
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TrafficMpiRanks, ::testing::Values(1, 2, 3, 5, 8));

TEST(TrafficMpi, ReportsTrafficAndFastForwards) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 200;
  spec.cars = 40;
  peachy::mpi::run(4, [&](peachy::mpi::Comm& comm) {
    tr::MpiTrafficStats stats;
    (void)tr::run_mpi(comm, spec, 30, &stats);
    if (comm.rank() == 0) {
      EXPECT_GT(stats.messages, 0u);
      EXPECT_GT(stats.bytes, 0u);
      EXPECT_EQ(stats.fast_forwards, 30u);  // one jump per step per rank
    }
  });
}

TEST(TrafficMpi, MoreRanksThanCarsStillCorrect) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 40;
  spec.cars = 5;
  const auto serial = tr::run_serial(spec, 25);
  peachy::mpi::run(8, [&](peachy::mpi::Comm& comm) {
    EXPECT_EQ(tr::run_mpi(comm, spec, 25), serial);
  });
}

// ---- velocity derived from displacement: edge cases --------------------------
//
// run_mpi exchanges positions only and derives each velocity as the car's
// displacement mod L.  These cases sit on the derivation's boundaries: the
// largest possible displacement (one car, gap L−1, v_max ≥ L), a road with
// no displacement at all, the random slowdown always or never firing, a
// single-cell speed limit and ranks with empty blocks.

namespace {

struct DerivationCase {
  const char* name;
  std::size_t road_length;
  std::size_t cars;
  int v_max;
  double p_slow;
};

constexpr DerivationCase kDerivationCases[] = {
    {"OneCarVmaxAboveRoad", 7, 1, 10, 0.2},
    {"FullyJammedRoad", 12, 12, 5, 0.13},
    {"NeverSlow", 60, 15, 5, 0.0},
    {"AlwaysSlow", 60, 15, 5, 1.0},
    {"VmaxOne", 50, 20, 1, 0.3},
    {"ThreeCars", 20, 3, 5, 0.13},  // p = 4 and 8 leave blocks empty
};

// gtest prints each parameter into the test's listed name.  Left to itself
// it dumps the struct's bytes, and the bytes of `name` are an address that
// moves with every build and every run, so print the case name instead.
void PrintTo(const DerivationCase& c, std::ostream* os) { *os << c.name; }

tr::Spec derivation_spec(const DerivationCase& c) {
  tr::Spec spec;
  spec.road_length = c.road_length;
  spec.cars = c.cars;
  spec.v_max = c.v_max;
  spec.p_slow = c.p_slow;
  spec.seed = 4242;
  return spec;
}

}  // namespace

class TrafficMpiDerivation
    : public ::testing::TestWithParam<std::tuple<DerivationCase, int>> {};

TEST_P(TrafficMpiDerivation, BitIdenticalToSerial) {
  const auto& [c, ranks] = GetParam();
  const tr::Spec spec = derivation_spec(c);
  const std::size_t steps = 40;
  const auto serial = tr::run_serial(spec, steps);
  std::vector<tr::State> finals(static_cast<std::size_t>(ranks));
  peachy::mpi::run(ranks, [&](peachy::mpi::Comm& comm) {
    finals[static_cast<std::size_t>(comm.rank())] = tr::run_mpi(comm, spec, steps);
  });
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(finals[static_cast<std::size_t>(r)], serial) << c.name << " rank " << r;
  }
  if (spec.cars == spec.road_length) {
    EXPECT_EQ(tr::stopped_cars(serial), spec.cars);  // nobody can ever move
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TrafficMpiDerivation,
    ::testing::Combine(::testing::ValuesIn(kDerivationCases), ::testing::Values(1, 2, 3, 4, 8)),
    [](const ::testing::TestParamInfo<TrafficMpiDerivation::ParamType>& param_info) {
      return std::string{std::get<0>(param_info.param).name} + "_p" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(TrafficMpiSteps, VelocitiesMatchReferenceAfterEveryStep) {
  // Step run_mpi one step at a time — every call resumes from the previous
  // call's snapshot and runs exactly one more step — and compare the
  // derived velocities (and positions) with step_reference after each.
  tr::Spec spec = fig3_spec();
  spec.road_length = 120;
  spec.cars = 30;
  const peachy::rng::SharedStream<peachy::rng::Lcg64> stream{spec.seed};
  tr::State expected = tr::initial_state(spec);
  peachy::faults::CheckpointStore store;
  for (std::size_t s = 0; s < 40; ++s) {
    tr::step_reference(spec, expected, stream, s);
    std::array<tr::State, 3> got;
    peachy::mpi::run(3, [&](peachy::mpi::Comm& comm) {
      got[static_cast<std::size_t>(comm.rank())] =
          tr::run_mpi(comm, spec, s + 1, nullptr, {1, &store, "steps"});
    });
    ASSERT_EQ(store.load("steps")->next_step, s + 1);
    for (const auto& st : got) {
      ASSERT_EQ(st.vel, expected.vel) << "after step " << s;
      ASSERT_EQ(st.pos, expected.pos) << "after step " << s;
    }
  }
}

// ---- restored snapshots are validated ----------------------------------------

TEST(TrafficMpiRestore, RejectsAnImpossibleSnapshotByName) {
  tr::Spec spec = fig3_spec();
  spec.road_length = 50;
  spec.cars = 4;
  const struct {
    std::vector<std::int64_t> pos;
    std::vector<int> vel;
    const char* names;
  } bad[] = {
      {{1, 2, 3}, {0, 0, 0}, "car count does not match"},
      {{1, 9, 5, 20}, {0, 0, 0, 0}, "snapshot car 2 at 5 breaks strictly ascending"},
      {{1, 9, 9, 20}, {0, 0, 0, 0}, "snapshot car 2 at 9 breaks strictly ascending"},
      {{-1, 9, 15, 20}, {0, 0, 0, 0}, "snapshot car 0 at -1 breaks"},
      {{1, 9, 15, 50}, {0, 0, 0, 0}, "snapshot car 3 at 50 breaks"},
      {{1, 9, 15, 20}, {0, -1, 0, 0}, "snapshot car 1 has velocity -1 outside [0, v_max]"},
      {{1, 9, 15, 20}, {0, 0, 6, 0}, "snapshot car 2 has velocity 6 outside [0, v_max]"},
  };
  for (const auto& b : bad) {
    peachy::faults::CheckpointStore store;
    peachy::faults::BlobWriter w;
    w.put_vec(b.pos);
    w.put_vec(b.vel);
    store.save("bad", peachy::faults::Snapshot{3, std::move(w).take()});
    std::array<std::string, 2> errors;
    peachy::mpi::run(2, [&](peachy::mpi::Comm& comm) {
      try {
        (void)tr::run_mpi(comm, spec, 10, nullptr, {5, &store, "bad"});
      } catch (const peachy::Error& e) {
        errors[static_cast<std::size_t>(comm.rank())] = e.what();
      }
    });
    for (const auto& what : errors) {
      EXPECT_NE(what.find("traffic restart"), std::string::npos) << what;
      EXPECT_NE(what.find(b.names), std::string::npos) << what;
    }
  }
}

// ---- the step core against the grid oracle -------------------------------------
//
// Every agent driver runs the same advance_block + commit_step, so
// comparing them with run_serial cannot catch a fault in that core.
// run_grid shares only initial_state with them: it finds gaps by scanning
// cells and returns a freshly sorted state.  These tiny roads put both
// cases of the rotation back to ascending order on the table — steps where
// no car wraps and steps where one does — plus v_max above the road
// length, a full road, and empty thread/rank blocks.  Several cars never
// wrap in one step: every car but the last brakes to a gap that ends
// before the car ahead, so only the last car can pass the end of the road.

namespace {

struct OracleCase {
  const char* name;
  std::size_t road_length;
  std::size_t cars;
  int v_max;
  double p_slow;
};

constexpr OracleCase kOracleCases[] = {
    {"OneCarVmaxAboveRoad", 7, 1, 10, 0.13},
    {"OneCarNeverSlow", 9, 1, 3, 0.0},
    {"TwoCarsVmaxAboveRoad", 5, 2, 9, 0.13},
    {"TwoCarsNeverSlow", 11, 2, 5, 0.0},
    {"ThreeCars", 10, 3, 5, 0.13},
    {"ThreeCarsNeverSlow", 8, 3, 5, 0.0},
    {"ThreeCarsVmaxAboveRoad", 6, 3, 8, 0.13},
    {"FullRoad", 6, 6, 5, 0.13},
};

// As for DerivationCase: a listed name must not carry an address.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

constexpr std::size_t kOracleSteps = 40;

tr::Spec oracle_spec(const OracleCase& c) {
  tr::Spec spec;
  spec.road_length = c.road_length;
  spec.cars = c.cars;
  spec.v_max = c.v_max;
  spec.p_slow = c.p_slow;
  spec.seed = 777;
  return spec;
}

/// Cars that crossed the end of the road between two grid states: the
/// position sum grows by the step's velocities and drops by L per wrap.
std::int64_t wraps_between(const tr::Spec& spec, const tr::State& before,
                           const tr::State& after) {
  std::int64_t moved = 0;
  for (std::size_t i = 0; i < after.pos.size(); ++i) {
    moved += before.pos[i] + after.vel[i] - after.pos[i];
  }
  return moved / static_cast<std::int64_t>(spec.road_length);
}

}  // namespace

class TrafficGridOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(TrafficGridOracle, EveryDriverMatchesTheGridAfterEveryStep) {
  const auto& c = GetParam();
  const tr::Spec spec = oracle_spec(c);

  std::vector<tr::State> grid{tr::initial_state(spec)};
  for (std::size_t s = 1; s <= kOracleSteps; ++s) grid.push_back(tr::run_grid(spec, s));

  std::vector<tr::State> serial;
  (void)tr::run_serial(spec, kOracleSteps, &serial);
  ASSERT_EQ(serial.size(), kOracleSteps);
  for (std::size_t s = 1; s <= kOracleSteps; ++s) {
    ASSERT_EQ(serial[s - 1], grid[s]) << c.name << ": run_serial after " << s << " steps";
  }

  peachy::support::ThreadPool pool{3};
  for (std::size_t threads = 1; threads <= 3; ++threads) {
    std::vector<tr::State> parallel;
    (void)tr::run_parallel(spec, kOracleSteps, pool, threads, nullptr, &parallel);
    for (std::size_t s = 1; s <= kOracleSteps; ++s) {
      ASSERT_EQ(parallel[s - 1], grid[s])
          << c.name << ": run_parallel threads=" << threads << " after " << s << " steps";
    }
  }

  for (int ranks = 1; ranks <= 4; ++ranks) {
    std::vector<std::vector<tr::State>> got(static_cast<std::size_t>(ranks));
    peachy::mpi::run(ranks, [&](peachy::mpi::Comm& comm) {
      auto& mine = got[static_cast<std::size_t>(comm.rank())];
      for (std::size_t s = 1; s <= kOracleSteps; ++s) mine.push_back(tr::run_mpi(comm, spec, s));
    });
    for (int r = 0; r < ranks; ++r) {
      for (std::size_t s = 1; s <= kOracleSteps; ++s) {
        ASSERT_EQ(got[static_cast<std::size_t>(r)][s - 1], grid[s])
            << c.name << ": run_mpi p=" << ranks << " rank " << r << " after " << s
            << " steps";
      }
    }
  }

}

INSTANTIATE_TEST_SUITE_P(Roads, TrafficGridOracle, ::testing::ValuesIn(kOracleCases),
                         [](const ::testing::TestParamInfo<OracleCase>& param_info) {
                           return std::string{param_info.param.name};
                         });

TEST(TrafficGridOracleCases, CoverStepsWithAndWithoutAWrap) {
  std::set<std::int64_t> wraps;
  for (const auto& c : kOracleCases) {
    const tr::Spec spec = oracle_spec(c);
    tr::State before = tr::initial_state(spec);
    for (std::size_t s = 1; s <= kOracleSteps; ++s) {
      tr::State after = tr::run_grid(spec, s);
      wraps.insert(wraps_between(spec, before, after));
      before = std::move(after);
    }
  }
  EXPECT_EQ(wraps, (std::set<std::int64_t>{0, 1}));
}
