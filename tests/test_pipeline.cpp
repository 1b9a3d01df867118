// Tests for the data-science-pipeline assignment: the generic stage
// runner's contract, and the Fig. 2 crime workflow against its serial
// oracle — including partition-count invariance and the three analysis
// problems' cross-consistency.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "geo/city.hpp"
#include "pipeline/crime.hpp"
#include "pipeline/pipeline.hpp"
#include "support/check.hpp"

namespace pp = peachy::pipeline;

// ---- stage runner -------------------------------------------------------------

TEST(Pipeline, RunsStagesInOrderAndTimesThem) {
  pp::Pipeline pipe;
  std::vector<int> order;
  pipe.stage("first", [&] { order.push_back(1); })
      .stage("second", [&] { order.push_back(2); })
      .stage("third", [&] { order.push_back(3); });
  pipe.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  ASSERT_EQ(pipe.timings().size(), 3u);
  EXPECT_EQ(pipe.timings()[1].name, "second");
  EXPECT_GE(pipe.total_seconds(), 0.0);
  EXPECT_NE(pipe.report().find("second"), std::string::npos);
}

TEST(Pipeline, FailurePropagatesWithStageName) {
  pp::Pipeline pipe;
  pipe.stage("ok", [] {}).stage("boom", [] { throw std::runtime_error{"bad data"}; });
  try {
    pipe.run();
    FAIL() << "expected throw";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("boom"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("bad data"), std::string::npos);
  }
}

TEST(Pipeline, GuardsMisuse) {
  pp::Pipeline empty;
  EXPECT_THROW(empty.run(), peachy::Error);
  pp::Pipeline pipe;
  pipe.stage("a", [] {});
  pipe.run();
  EXPECT_THROW(pipe.run(), peachy::Error);
  EXPECT_THROW(pipe.stage("late", [] {}), peachy::Error);
  pp::Pipeline bad;
  EXPECT_THROW(bad.stage("", [] {}), peachy::Error);
}

// ---- crime workflow ------------------------------------------------------------

namespace {

pp::CrimeConfig small_config() {
  pp::CrimeConfig cfg;
  cfg.city.rows = 4;
  cfg.city.cols = 4;
  cfg.historic_arrests = 3000;
  cfg.current_arrests = 2000;
  cfg.partitions = 4;
  cfg.threads = 2;
  cfg.raster_width = 32;
  cfg.raster_height = 24;
  return cfg;
}

}  // namespace

TEST(Crime, MatchesSerialOracle) {
  const auto cfg = small_config();
  const auto report = pp::run_crime_pipeline(cfg);
  const auto oracle = pp::crime_rates_serial(cfg);
  ASSERT_EQ(report.rates.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(report.rates[i].nta, oracle[i].nta) << i;
    EXPECT_EQ(report.rates[i].arrests, oracle[i].arrests);
    EXPECT_EQ(report.rates[i].population, oracle[i].population);
    EXPECT_DOUBLE_EQ(report.rates[i].per_100k, oracle[i].per_100k);
  }
}

TEST(Crime, PartitionCountDoesNotChangeResults) {
  auto cfg = small_config();
  const auto base = pp::run_crime_pipeline(cfg);
  cfg.partitions = 1;
  cfg.threads = 1;
  const auto single = pp::run_crime_pipeline(cfg);
  ASSERT_EQ(base.rates.size(), single.rates.size());
  for (std::size_t i = 0; i < base.rates.size(); ++i) {
    EXPECT_EQ(base.rates[i].nta, single.rates[i].nta);
    EXPECT_EQ(base.rates[i].arrests, single.rates[i].arrests);
  }
  EXPECT_EQ(base.offenses, single.offenses);
  EXPECT_EQ(base.borough_by_year, single.borough_by_year);
}

TEST(Crime, CountsAreInternallyConsistent) {
  const auto report = pp::run_crime_pipeline(small_config());
  const auto cfg = small_config();
  EXPECT_EQ(report.events_ingested, cfg.historic_arrests + cfg.current_arrests);
  // All current-year events carry the target year.
  EXPECT_EQ(report.events_in_target_year, cfg.current_arrests);
  // Locator may drop boundary-edge events but nearly all must match.
  EXPECT_GE(report.events_located, report.events_in_target_year * 99 / 100);

  // Problem 1 totals == located events.
  std::int64_t rate_total = 0;
  for (const auto& r : report.rates) rate_total += r.arrests;
  EXPECT_EQ(static_cast<std::size_t>(rate_total), report.events_located);

  // Problem 2 totals == target-year events.
  std::int64_t offense_total = 0;
  for (const auto& [off, c] : report.offenses) offense_total += c;
  EXPECT_EQ(static_cast<std::size_t>(offense_total), report.events_in_target_year);

  // Problem 3: the target-year borough slice must sum to the located count.
  std::int64_t borough_year_total = 0;
  for (const auto& [borough, years] : report.borough_by_year) {
    const auto it = years.find(cfg.target_year);
    if (it != years.end()) borough_year_total += it->second;
  }
  EXPECT_EQ(static_cast<std::size_t>(borough_year_total), report.events_located);
}

TEST(Crime, RatesSortedDescending) {
  const auto report = pp::run_crime_pipeline(small_config());
  ASSERT_GT(report.rates.size(), 2u);
  for (std::size_t i = 1; i < report.rates.size(); ++i) {
    EXPECT_GE(report.rates[i - 1].per_100k, report.rates[i].per_100k);
  }
  for (const auto& r : report.rates) {
    EXPECT_GT(r.population, 0);
    EXPECT_NEAR(r.per_100k, 1e5 * static_cast<double>(r.arrests) /
                                static_cast<double>(r.population), 1e-9);
  }
}

TEST(Crime, HeatMapRendered) {
  const auto cfg = small_config();
  const auto report = pp::run_crime_pipeline(cfg);
  EXPECT_EQ(report.heat_map_pgm.rfind("P5\n32 24\n255\n", 0), 0u);
  // ASCII map has height rows and visible ink.
  EXPECT_EQ(std::count(report.heat_map_ascii.begin(), report.heat_map_ascii.end(), '\n'),
            static_cast<std::ptrdiff_t>(cfg.raster_height));
  EXPECT_NE(report.heat_map_ascii.find_first_not_of(" \n"), std::string::npos);
}

TEST(Crime, TelemetryPopulated) {
  const auto report = pp::run_crime_pipeline(small_config());
  EXPECT_EQ(report.stage_timings.size(), 7u);
  EXPECT_GT(report.engine.tasks, 0u);
  EXPECT_GT(report.engine.shuffles, 0u);  // reduce_by_key + join stages
  EXPECT_GT(report.engine.shuffle_records, 0u);
}

TEST(Crime, DeterministicForSeed) {
  const auto a = pp::run_crime_pipeline(small_config());
  const auto b = pp::run_crime_pipeline(small_config());
  ASSERT_EQ(a.rates.size(), b.rates.size());
  for (std::size_t i = 0; i < a.rates.size(); ++i) {
    EXPECT_EQ(a.rates[i].nta, b.rates[i].nta);
    EXPECT_EQ(a.rates[i].arrests, b.rates[i].arrests);
  }
  EXPECT_EQ(a.offenses, b.offenses);
}

// The arrests CSV the pipeline ingests writes each coordinate with
// std::to_chars(general, 12).  The standard specifies that as
// printf("%.12g"), the format the CSV text was first written with; this pins
// the two byte for byte on every coordinate the generator produces and on
// the edge values of the double range.
TEST(Crime, CoordinateTextMatchesPrintfG12) {
  const auto g12 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return std::string{buf};
  };
  const auto to_chars12 = [](double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 12);
    EXPECT_EQ(res.ec, std::errc{});
    return std::string(buf, res.ptr);
  };

  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 7.0, 123456789012.0, 1234567890123.0,
                                999999999999.5, 9007199254740992.0, 1e300, -1e300, 1e-300,
                                -1e-300, 0.1, 1.0 / 3.0, 1e-5, 9.99999999999949e-5, 1e11, 1e12,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min() / 3.0,
                                std::nextafter(std::numeric_limits<double>::min(), 0.0),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  const peachy::geo::SyntheticCity city{pp::CrimeConfig{}.city};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& ev : city.generate_arrests(5000, seed)) {
      values.push_back(ev.location.x);
      values.push_back(ev.location.y);
    }
  }
  for (const double v : values) ASSERT_EQ(to_chars12(v), g12(v)) << std::hexfloat << v;
}

TEST(Crime, ValidatesConfig) {
  auto cfg = small_config();
  cfg.partitions = 0;
  EXPECT_THROW((void)pp::run_crime_pipeline(cfg), peachy::Error);
}
