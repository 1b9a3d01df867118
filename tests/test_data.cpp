// Tests for peachy::data — CSV round trips, PointSet invariants, dataset
// generators, train/test splitting, normalization, and the Frame
// mini-dataframe's relational operators.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <set>

#include "data/csv.hpp"
#include "data/frame.hpp"
#include "data/points.hpp"
#include "support/check.hpp"

namespace pd = peachy::data;

// ---- csv --------------------------------------------------------------------

TEST(Csv, ParsesSimpleRows) {
  const auto rows = pd::read_csv_string("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (pd::CsvRow{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (pd::CsvRow{"1", "2", "3"}));
}

TEST(Csv, HandlesQuotedFields) {
  const auto rows = pd::read_csv_string("\"hello, world\",\"say \"\"hi\"\"\",plain\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "hello, world");
  EXPECT_EQ(rows[0][1], "say \"hi\"");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST(Csv, HandlesEmbeddedNewlineInQuotes) {
  const auto rows = pd::read_csv_string("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
}

TEST(Csv, EmptyFieldsPreserved) {
  const auto rows = pd::read_csv_string("a,,c\n,,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (pd::CsvRow{"a", "", "c"}));
  EXPECT_EQ(rows[1], (pd::CsvRow{"", "", ""}));
}

TEST(Csv, LastLineWithoutNewline) {
  const auto rows = pd::read_csv_string("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (pd::CsvRow{"c", "d"}));
}

TEST(Csv, CrLfTolerated) {
  const auto rows = pd::read_csv_string("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (pd::CsvRow{"a", "b"}));
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW((void)pd::read_csv_string("\"oops\n"), peachy::Error);
}

TEST(Csv, GarbageAfterClosingQuoteThrows) {
  // `"a"b` used to parse silently as `ab`; now it is a named error that
  // points at the offending line.
  EXPECT_THROW((void)pd::read_csv_string("\"a\"b,c\n"), peachy::Error);
  try {
    (void)pd::read_csv_string("ok,row\n\"a\"b\n");
    FAIL() << "expected peachy::Error";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string{e.what()}.find("garbage after closing quote"),
              std::string::npos)
        << e.what();
  }
  // A new quote opening right after a closed field is the same defect
  // (`"a" "b"` — note the separator-less space, caught as garbage).
  EXPECT_THROW((void)pd::read_csv_string("\"a\" \"b\",c\n"), peachy::Error);
  // But an escaped quote inside the field stays legal.
  EXPECT_EQ(pd::read_csv_string("\"a\"\"b\",c\n"),
            (std::vector<pd::CsvRow>{{"a\"b", "c"}}));
}

TEST(Csv, QuotedCrlfFieldRoundTrips) {
  const std::vector<pd::CsvRow> original{{"crlf\r\ninside", "plain"}};
  const auto text = pd::write_csv_string(original);
  EXPECT_EQ(pd::read_csv_string(text), original);
  // And parsing an explicit quoted CRLF keeps both characters.
  const auto rows = pd::read_csv_string("\"a\r\nb\",c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (pd::CsvRow{"a\r\nb", "c"}));
}

TEST(Csv, RoundTripsTrickyContent) {
  const std::vector<pd::CsvRow> original{
      {"plain", "with,comma", "with\"quote"},
      {"multi\nline", "", "trailing space "},
  };
  const auto text = pd::write_csv_string(original);
  EXPECT_EQ(pd::read_csv_string(text), original);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW((void)pd::read_csv_file("/nonexistent/nope.csv"), peachy::Error);
}

// ---- point set ------------------------------------------------------------------

TEST(PointSet, ConstructAndAccess) {
  pd::PointSet p{3, 2};
  p.at(1, 0) = 5.0;
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.dims(), 2u);
  EXPECT_DOUBLE_EQ(p.point(1)[0], 5.0);
  EXPECT_DOUBLE_EQ(p.point(1)[1], 0.0);
}

TEST(PointSet, FromValuesValidatesSize) {
  EXPECT_NO_THROW((pd::PointSet{2, 2, {1, 2, 3, 4}}));
  EXPECT_THROW((pd::PointSet{2, 2, {1, 2, 3}}), peachy::Error);
}

TEST(PointSet, PushBackFixesDimension) {
  pd::PointSet p;
  const double a[] = {1.0, 2.0, 3.0};
  p.push_back(a);
  EXPECT_EQ(p.dims(), 3u);
  const double b[] = {4.0, 5.0};
  EXPECT_THROW(p.push_back(b), peachy::Error);
}

TEST(PointSet, SquaredDistance) {
  pd::PointSet p{1, 2, {0.0, 0.0}};
  const double q[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(p.squared_distance(0, q), 25.0);
}

TEST(PointSet, OutOfRangeThrows) {
  pd::PointSet p{2, 2};
  EXPECT_THROW((void)p.point(2), peachy::Error);
  EXPECT_THROW((void)p.at(0, 5), peachy::Error);
}

// ---- generators ------------------------------------------------------------------

TEST(Generators, GaussianBlobsShapeAndLabels) {
  pd::BlobsSpec spec;
  spec.points_per_class = 50;
  spec.classes = 4;
  spec.dims = 3;
  const auto data = pd::gaussian_blobs(spec);
  EXPECT_EQ(data.size(), 200u);
  EXPECT_EQ(data.dims(), 3u);
  EXPECT_EQ(data.num_classes(), 4u);
}

TEST(Generators, GaussianBlobsReproducible) {
  pd::BlobsSpec spec;
  spec.seed = 7;
  const auto a = pd::gaussian_blobs(spec);
  const auto b = pd::gaussian_blobs(spec);
  EXPECT_EQ(a.points.values(), b.points.values());
  spec.seed = 8;
  const auto c = pd::gaussian_blobs(spec);
  EXPECT_NE(a.points.values(), c.points.values());
}

TEST(Generators, TightBlobsAreSeparable) {
  // With tiny spread, every point must be far closer to its own class
  // centroid than to any other — the k-means/kNN ground truth.
  pd::BlobsSpec spec;
  spec.points_per_class = 30;
  spec.classes = 3;
  spec.spread = 0.01;
  spec.seed = 3;
  const auto data = pd::gaussian_blobs(spec);
  // Compute per-class centroids.
  std::vector<std::vector<double>> centroid(3, std::vector<double>(data.dims(), 0.0));
  std::vector<int> count(3, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = data.labels[i];
    ++count[c];
    for (std::size_t j = 0; j < data.dims(); ++j) centroid[c][j] += data.points.at(i, j);
  }
  for (int c = 0; c < 3; ++c) {
    for (auto& x : centroid[c]) x /= count[c];
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto own = data.labels[i];
    const double down = data.points.squared_distance(i, centroid[own]);
    for (int c = 0; c < 3; ++c) {
      if (c == own) continue;
      EXPECT_LT(down, data.points.squared_distance(i, centroid[c]));
    }
  }
}

TEST(Generators, TwoMoonsShape) {
  const auto data = pd::two_moons(100, 0.05, 5);
  EXPECT_EQ(data.size(), 200u);
  EXPECT_EQ(data.dims(), 2u);
  EXPECT_EQ(data.num_classes(), 2u);
}

TEST(Generators, UniformPointsInBox) {
  const auto p = pd::uniform_points(500, 3, -2.0, 2.0, 11);
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(p.at(i, j), -2.0);
      EXPECT_LT(p.at(i, j), 2.0);
    }
  }
}

TEST(Generators, RejectsBadSpecs) {
  pd::BlobsSpec bad;
  bad.classes = 0;
  EXPECT_THROW((void)pd::gaussian_blobs(bad), peachy::Error);
  EXPECT_THROW((void)pd::two_moons(0, 0.1, 1), peachy::Error);
  EXPECT_THROW((void)pd::uniform_points(5, 0, 0, 1, 1), peachy::Error);
}

// ---- split & normalize ------------------------------------------------------------

TEST(Split, PartitionsWithoutLossOrDuplication) {
  pd::BlobsSpec spec;
  spec.points_per_class = 40;
  spec.classes = 2;
  spec.dims = 1;
  spec.seed = 13;
  const auto all = pd::gaussian_blobs(spec);
  const auto split = pd::train_test_split(all, 0.25, 99);
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.size(), 60u);
  // Every original coordinate value appears exactly once across the split
  // (1-D values are almost surely distinct).
  std::multiset<double> orig(all.points.values().begin(), all.points.values().end());
  std::multiset<double> both;
  for (double v : split.train.points.values()) both.insert(v);
  for (double v : split.test.points.values()) both.insert(v);
  EXPECT_EQ(orig, both);
}

TEST(Split, RejectsDegenerateFractions) {
  pd::BlobsSpec spec;
  const auto all = pd::gaussian_blobs(spec);
  EXPECT_THROW((void)pd::train_test_split(all, 0.0, 1), peachy::Error);
  EXPECT_THROW((void)pd::train_test_split(all, 1.0, 1), peachy::Error);
}

TEST(Normalize, ZscoreGivesZeroMeanUnitVariance) {
  auto p = pd::uniform_points(1000, 2, 5.0, 9.0, 3);
  pd::zscore_normalize(p);
  for (std::size_t j = 0; j < 2; ++j) {
    double sum = 0, ss = 0;
    for (std::size_t i = 0; i < p.size(); ++i) sum += p.at(i, j);
    const double m = sum / static_cast<double>(p.size());
    for (std::size_t i = 0; i < p.size(); ++i) ss += (p.at(i, j) - m) * (p.at(i, j) - m);
    EXPECT_NEAR(m, 0.0, 1e-9);
    EXPECT_NEAR(ss / static_cast<double>(p.size()), 1.0, 1e-9);
  }
}

TEST(Normalize, AppliesTrainStatsToTest) {
  pd::PointSet train{2, 1, {0.0, 2.0}};   // mean 1, sd 1
  pd::PointSet test{1, 1, {3.0}};
  pd::zscore_normalize(train, &test);
  EXPECT_DOUBLE_EQ(test.at(0, 0), 2.0);  // (3-1)/1
}

TEST(Normalize, ConstantDimensionLeftAlone) {
  pd::PointSet p{3, 1, {4.0, 4.0, 4.0}};
  pd::zscore_normalize(p);
  EXPECT_DOUBLE_EQ(p.at(1, 0), 4.0);
}

// ---- labeled csv round trip ----------------------------------------------------------

TEST(LabeledCsv, RoundTripsExactly) {
  pd::BlobsSpec spec;
  spec.points_per_class = 10;
  spec.classes = 2;
  spec.dims = 4;
  const auto data = pd::gaussian_blobs(spec);
  const auto back = pd::from_csv(pd::to_csv(data));
  EXPECT_EQ(back.labels, data.labels);
  ASSERT_EQ(back.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < data.dims(); ++j) {
      EXPECT_DOUBLE_EQ(back.points.at(i, j), data.points.at(i, j));
    }
  }
}

TEST(LabeledCsv, RejectsMalformedInput) {
  EXPECT_THROW((void)pd::from_csv({{"x0", "label"}}), peachy::Error);  // no data
  EXPECT_THROW((void)pd::from_csv({{"x0", "label"}, {"abc", "0"}}), peachy::Error);
  EXPECT_THROW((void)pd::from_csv({{"x0", "label"}, {"1.0", "zero"}}), peachy::Error);
  EXPECT_THROW((void)pd::from_csv({{"x0", "label"}, {"1.0", "0"}, {"2.0"}}), peachy::Error);
}

TEST(LabeledCsv, RejectsLabelsThatUsedToTruncateOrWrap) {
  // "3.7" once loaded as 3, "1abc" as 1 and "4294967297" (2^32 + 1) as 1.
  for (const std::string label : {"3.7", "1abc", "4294967297", "-2147483649", ""}) {
    try {
      (void)pd::from_csv({{"x0", "label"}, {"1.0", "0"}, {"2.0", label}});
      ADD_FAILURE() << "label '" << label << "' was accepted";
    } catch (const peachy::Error& e) {
      EXPECT_NE(std::string{e.what()}.find("csv row 3: non-integer label '" + label + "'"),
                std::string::npos)
          << e.what();
    }
  }
  const auto edges = pd::from_csv({{"x0", "label"}, {"1.0", "2147483647"}, {"2.0", "-2147483648"}});
  EXPECT_EQ(edges.labels, (std::vector<std::int32_t>{2147483647, -2147483647 - 1}));
}

TEST(LabeledCsv, NamesTheBadCoordinate) {
  for (const std::string x : {"abc", "1.5abc", "1e999", ""}) {
    try {
      (void)pd::from_csv({{"x0", "label"}, {x, "0"}});
      ADD_FAILURE() << "coordinate '" << x << "' was accepted";
    } catch (const peachy::Error& e) {
      EXPECT_NE(std::string{e.what()}.find("csv row 2: non-numeric coordinate '" + x + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- frame -------------------------------------------------------------------------

namespace {

pd::Frame sample_frame() {
  pd::Frame f{{"nta", "borough", "arrests"},
              {pd::ColType::kString, pd::ColType::kString, pd::ColType::kInt}};
  f.push_row({std::string{"BK01"}, std::string{"Brooklyn"}, std::int64_t{10}});
  f.push_row({std::string{"BK02"}, std::string{"Brooklyn"}, std::int64_t{30}});
  f.push_row({std::string{"MN01"}, std::string{"Manhattan"}, std::int64_t{20}});
  return f;
}

}  // namespace

TEST(Frame, SchemaValidation) {
  EXPECT_THROW((pd::Frame{{"a", "a"}, {pd::ColType::kInt, pd::ColType::kInt}}), peachy::Error);
  EXPECT_THROW((pd::Frame{{"a"}, {}}), peachy::Error);
  auto f = sample_frame();
  EXPECT_THROW(f.push_row({std::string{"X"}, std::string{"Y"}}), peachy::Error);
  EXPECT_THROW(f.push_row({std::string{"X"}, std::string{"Y"}, 1.5}), peachy::Error);
}

TEST(Frame, SelectReordersColumns) {
  const auto f = sample_frame().select({"arrests", "nta"});
  EXPECT_EQ(f.names(), (std::vector<std::string>{"arrests", "nta"}));
  EXPECT_EQ(f.integer(1, "arrests"), 30);
  EXPECT_THROW((void)sample_frame().select({"missing"}), peachy::Error);
}

TEST(Frame, FilterKeepsMatchingRows) {
  const auto f = sample_frame();
  const auto brooklyn = f.filter([&](std::size_t r) { return f.str(r, "borough") == "Brooklyn"; });
  EXPECT_EQ(brooklyn.rows(), 2u);
  EXPECT_EQ(brooklyn.str(1, "nta"), "BK02");
}

TEST(Frame, GroupByCountAndSum) {
  const auto f = sample_frame();
  const auto counts = f.group_by("borough", pd::Frame::Agg::kCount, "borough");
  ASSERT_EQ(counts.rows(), 2u);
  EXPECT_EQ(counts.str(0, "borough"), "Brooklyn");
  EXPECT_EQ(counts.integer(0, "count"), 2);
  EXPECT_EQ(counts.integer(1, "count"), 1);

  const auto sums = f.group_by("borough", pd::Frame::Agg::kSum, "arrests");
  EXPECT_DOUBLE_EQ(sums.num(0, "sum_arrests"), 40.0);
  EXPECT_DOUBLE_EQ(sums.num(1, "sum_arrests"), 20.0);
}

TEST(Frame, GroupByMeanMinMax) {
  const auto f = sample_frame();
  EXPECT_DOUBLE_EQ(
      f.group_by("borough", pd::Frame::Agg::kMean, "arrests").num(0, "mean_arrests"), 20.0);
  EXPECT_DOUBLE_EQ(f.group_by("borough", pd::Frame::Agg::kMin, "arrests").num(0, "min_arrests"),
                   10.0);
  EXPECT_DOUBLE_EQ(f.group_by("borough", pd::Frame::Agg::kMax, "arrests").num(0, "max_arrests"),
                   30.0);
}

TEST(Frame, GroupByRejectsStringAggregate) {
  const auto f = sample_frame();
  EXPECT_THROW((void)f.group_by("borough", pd::Frame::Agg::kSum, "nta"), peachy::Error);
}

TEST(Frame, JoinMatchesOnKey) {
  const auto f = sample_frame();
  pd::Frame pop{{"nta", "population"}, {pd::ColType::kString, pd::ColType::kInt}};
  pop.push_row({std::string{"BK01"}, std::int64_t{50000}});
  pop.push_row({std::string{"MN01"}, std::int64_t{80000}});
  pop.push_row({std::string{"QN01"}, std::int64_t{70000}});  // unmatched

  const auto joined = f.join(pop, "nta");
  ASSERT_EQ(joined.rows(), 2u);  // BK02 has no population row; QN01 no arrests
  EXPECT_EQ(joined.str(0, "nta"), "BK01");
  EXPECT_EQ(joined.integer(0, "population"), 50000);
  EXPECT_EQ(joined.integer(1, "population"), 80000);
}

TEST(Frame, JoinRejectsDuplicateColumns) {
  const auto f = sample_frame();
  EXPECT_THROW((void)f.join(sample_frame(), "nta"), peachy::Error);
}

TEST(Frame, SortByNumericAndString) {
  const auto by_arrests = sample_frame().sort_by("arrests", /*desc=*/true);
  EXPECT_EQ(by_arrests.integer(0, "arrests"), 30);
  EXPECT_EQ(by_arrests.integer(2, "arrests"), 10);
  const auto by_name = sample_frame().sort_by("nta");
  EXPECT_EQ(by_name.str(0, "nta"), "BK01");
  EXPECT_EQ(by_name.str(2, "nta"), "MN01");
}

TEST(Frame, HeadTruncates) {
  EXPECT_EQ(sample_frame().head(2).rows(), 2u);
  EXPECT_EQ(sample_frame().head(99).rows(), 3u);
}

TEST(Frame, CsvRoundTripInfersTypes) {
  const auto csv = sample_frame().to_csv();
  const auto back = pd::Frame::from_csv(csv);
  EXPECT_EQ(back.types()[0], pd::ColType::kString);
  EXPECT_EQ(back.types()[2], pd::ColType::kInt);
  EXPECT_EQ(back.integer(1, "arrests"), 30);
}

TEST(Frame, FromCsvInfersDoubleForMixedNumeric) {
  const auto f = pd::Frame::from_csv({{"v"}, {"1"}, {"2.5"}});
  EXPECT_EQ(f.types()[0], pd::ColType::kDouble);
  EXPECT_DOUBLE_EQ(f.num(1, "v"), 2.5);
}

// ---- frame from_csv: differential test against the stoll/stod inference ----------

namespace {

// The inference Frame::from_csv used while it parsed with std::stoll /
// std::stod inside try/catch: a cell is an int (double) when the call
// succeeds and consumes the whole cell.  It is kept here as the oracle that
// pins the accepted set, the inferred types and the cell values.
bool oracle_int(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  std::size_t used = 0;
  try {
    out = std::stoll(s, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == s.size();
}

bool oracle_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  std::size_t used = 0;
  try {
    out = std::stod(s, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == s.size();
}

struct OracleFrame {
  std::string error;  // the message of the check that fails, if one does
  std::vector<pd::ColType> types;
  std::vector<std::vector<pd::Value>> columns;
};

OracleFrame oracle_from_csv(const std::vector<pd::CsvRow>& rows) {
  OracleFrame out;
  if (rows.empty()) {
    out.error = "frame from_csv: missing header";
    return out;
  }
  const std::size_t ncols = rows.front().size();
  if (ncols == 0) {
    out.error = "frame from_csv: empty header";
    return out;
  }
  for (std::size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != ncols) {
      out.error = "frame from_csv: row " + std::to_string(r + 1) + " is ragged";
      return out;
    }
  }
  out.columns.resize(ncols);
  for (std::size_t c = 0; c < ncols; ++c) {
    bool all_int = true, all_num = true;
    for (std::size_t r = 1; r < rows.size(); ++r) {
      std::int64_t i;
      double d;
      if (!oracle_int(rows[r][c], i)) all_int = false;
      if (!oracle_double(rows[r][c], d)) all_num = false;
    }
    pd::ColType t = all_int ? pd::ColType::kInt
                            : (all_num ? pd::ColType::kDouble : pd::ColType::kString);
    if (rows.size() == 1) t = pd::ColType::kString;
    out.types.push_back(t);
    for (std::size_t r = 1; r < rows.size(); ++r) {
      if (t == pd::ColType::kInt) {
        std::int64_t i = 0;
        oracle_int(rows[r][c], i);
        out.columns[c].emplace_back(i);
      } else if (t == pd::ColType::kDouble) {
        double d = 0;
        oracle_double(rows[r][c], d);
        out.columns[c].emplace_back(d);
      } else {
        out.columns[c].emplace_back(rows[r][c]);
      }
    }
  }
  return out;
}

// Bit-for-bit equality: doubles compare by memcmp, so NaN payloads and the
// sign of zero count.
bool same_bits(const pd::Value& a, const pd::Value& b) {
  if (a.index() != b.index()) return false;
  if (const auto* x = std::get_if<double>(&a)) {
    const double y = std::get<double>(b);
    return std::memcmp(x, &y, sizeof y) == 0;
  }
  return a == b;
}

std::string describe(const std::vector<pd::CsvRow>& rows) {
  std::string s;
  for (const auto& row : rows) {
    s += '[';
    for (std::size_t i = 0; i < row.size(); ++i) s += (i ? "|'" : "'") + row[i] + "'";
    s += "] ";
  }
  return s;
}

void expect_matches_oracle(const std::vector<pd::CsvRow>& rows) {
  SCOPED_TRACE(describe(rows));
  const OracleFrame want = oracle_from_csv(rows);
  if (!want.error.empty()) {
    try {
      (void)pd::Frame::from_csv(rows);
      ADD_FAILURE() << "expected error: " << want.error;
    } catch (const peachy::Error& e) {
      const std::string what = e.what();
      const std::string tail = "\xE2\x80\x94 " + want.error;  // "— " + message
      EXPECT_TRUE(what.size() >= tail.size() &&
                  what.compare(what.size() - tail.size(), tail.size(), tail) == 0)
          << what;
    }
    return;
  }
  const pd::Frame got = pd::Frame::from_csv(rows);
  ASSERT_EQ(got.types(), want.types);
  ASSERT_EQ(got.rows(), rows.size() - 1);
  for (std::size_t c = 0; c < got.cols(); ++c) {
    for (std::size_t r = 0; r < got.rows(); ++r) {
      EXPECT_TRUE(same_bits(got.cell(r, c), want.columns[c][r]))
          << "row " << r << " col " << c << ": '" << rows[r + 1][c] << "'";
    }
  }
}

}  // namespace

TEST(FrameFromCsvDifferential, HandPickedCellsMatchStollStodInference) {
  const std::vector<std::string> cells = {
      " 7",   "+5",    "-0",    "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809", "1e999", "-1e999", "1e-400",
      "4.9e-324", "2.2250738585072014e-308", "0x1p3", "0x10", "nan", "-nan", "NAN(123)",
      "inf", "-INF", "infinity", "", "12abc", "3.", ".5", "1e5", "7 ", "\t-3", "+-1", "abc",
      "ASSAULT", "1,5"};
  for (const auto& c : cells) {
    expect_matches_oracle({{"v"}, {c}});
    expect_matches_oracle({{"v", "w"}, {c, "1"}, {"2", c}});
  }
  // An int column that turns double only on its last row, next to a double
  // column that turns string only on its last row.
  expect_matches_oracle({{"a", "b"}, {"1", "0.5"}, {"2", "1e3"}, {"3", "7"}, {"4.5", "x"}});
  expect_matches_oracle({{"a", "b", "c"}});  // header only: every column is a string
  expect_matches_oracle({{"a", "b"}, {"1", "2"}, {"3"}, {"4", "5", "6"}});  // ragged row
  expect_matches_oracle({{"a"}, {"1"}, {"2"}, {}});
  expect_matches_oracle({{}});
  expect_matches_oracle({});
}

TEST(FrameFromCsvDifferential, SeededRandomColumnsMatchStollStodInference) {
  const std::vector<std::string> ints = {"0", "7", "-12", "+5", " 7", "-0", "42",
                                         "9223372036854775807", "-9223372036854775808"};
  const std::vector<std::string> reals = {"3.", ".5", "2.5", "-0.25", "1e5", "0x1p3", "nan",
                                          "inf", "-inf", "1e-300", "4.9e-324",
                                          "9223372036854775808"};
  const std::vector<std::string> bad = {"", "12abc", "abc", "1e999", "1e-400", "7 ", "ASSAULT",
                                        "+", "-", ".", "e5", "0x"};
  std::vector<std::string> all = ints;
  all.insert(all.end(), reals.begin(), reals.end());
  all.insert(all.end(), bad.begin(), bad.end());

  for (std::uint32_t seed = 1; seed <= 400; ++seed) {
    std::mt19937 gen{seed};
    const auto pick = [&gen](const std::vector<std::string>& from) {
      return from[gen() % from.size()];
    };
    const std::size_t ncols = 1 + gen() % 4;
    const std::size_t nrows = gen() % 12;
    std::vector<pd::CsvRow> rows(nrows + 1);
    rows[0] = pd::CsvRow{"a", "b", "c", "d"};
    rows[0].resize(ncols);
    for (std::size_t c = 0; c < ncols; ++c) {
      // Skew each column toward one type, so that int and double columns
      // are as common as string ones and the rare cell decides the type.
      const std::uint32_t flavor = gen() % 4;
      for (std::size_t r = 1; r <= nrows; ++r) {
        std::string cell;
        const bool rare = gen() % 10 == 0;
        switch (rare ? 3 : flavor) {
          case 0: cell = pick(ints); break;
          case 1: cell = pick(gen() % 2 ? ints : reals); break;
          case 2:
            cell = pick(all);
            if (gen() % 3 == 0) cell.append(pick(all));  // "7+5", "nan.5", "1e5abc", ...
            break;
          default: cell = pick(all); break;
        }
        rows[r].push_back(std::move(cell));
      }
    }
    expect_matches_oracle(rows);
  }
}
