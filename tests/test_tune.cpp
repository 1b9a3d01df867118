/// \file test_tune.cpp
/// \brief peachy::tune — profile parsing/fallback, selection rules, and
/// the correctness contracts of the algorithmic collectives.
///
/// The two load-bearing guarantees under test:
///
///  1. *Algorithm choice never changes integer results and never makes
///     float results nondeterministic.*  Integer reductions are
///     bit-identical across every algorithm; float reductions have a
///     fixed deterministic combine order per algorithm, so the same
///     (algorithm, p) always produces the same bytes — including under
///     fault injection (delays/stalls reorder wall-clock, never the
///     combine order).
///
///  2. *A bad profile can cost performance, never correctness.*
///     Corrupt, missing, version-mismatched, or partially-specified
///     profiles fall back to compiled-in defaults with named warnings —
///     no crash, no half-applied state, and no malformed rule loaded
///     (a seeded mutation fuzz over the committed profile pins this).

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "faults/plan.hpp"
#include "mpi/mpi.hpp"
#include "tune/tune.hpp"

namespace pt = peachy::tune;
namespace pm = peachy::mpi;
namespace pf = peachy::faults;

namespace {

/// Tunables forcing `algo` for `op` everywhere.
pt::Tunables forced(pt::CollOp op, pt::CollAlgo algo) {
  pt::Tunables t;
  pt::CollRule rule;
  rule.op = op;
  rule.algo = algo;
  t.coll_rules.push_back(rule);
  return t;
}

constexpr pt::CollAlgo kAllAlgos[] = {pt::CollAlgo::kAuto, pt::CollAlgo::kLinear,
                                      pt::CollAlgo::kBinomial, pt::CollAlgo::kRing,
                                      pt::CollAlgo::kRecDouble};

}  // namespace

// ---------------------------------------------------------------------------
// Selection rules.

TEST(TuneSelect, DefaultsAreAutoEverywhere) {
  const pt::Tunables t;
  for (const pt::CollOp op : {pt::CollOp::kBroadcast, pt::CollOp::kReduce,
                              pt::CollOp::kAllreduce, pt::CollOp::kAllgather}) {
    EXPECT_EQ(t.coll_algo(op, 4, 1024), pt::CollAlgo::kAuto);
    EXPECT_EQ(t.coll_algo(op, 4, pt::kBytesUnknown), pt::CollAlgo::kAuto);
  }
}

TEST(TuneSelect, FirstMatchWins) {
  pt::Tunables t;
  pt::CollRule narrow;
  narrow.op = pt::CollOp::kAllreduce;
  narrow.p_min = 4;
  narrow.p_max = 4;
  narrow.algo = pt::CollAlgo::kRing;
  pt::CollRule broad;
  broad.op = pt::CollOp::kAllreduce;
  broad.algo = pt::CollAlgo::kLinear;
  t.coll_rules.push_back(narrow);
  t.coll_rules.push_back(broad);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kAllreduce, 4, 64), pt::CollAlgo::kRing);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kAllreduce, 8, 64), pt::CollAlgo::kLinear);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kBroadcast, 4, 64), pt::CollAlgo::kAuto);
}

TEST(TuneSelect, ByteBandsApplyOnlyToSizedQueries) {
  pt::Tunables t;
  pt::CollRule large;
  large.op = pt::CollOp::kReduce;
  large.bytes_min = 4096;
  large.algo = pt::CollAlgo::kRing;
  t.coll_rules.push_back(large);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kReduce, 4, 8192), pt::CollAlgo::kRing);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kReduce, 4, 100), pt::CollAlgo::kAuto);
  // Unknown payload size must not match a byte-constrained rule: ranks
  // could disagree, and selection must be communication-free.
  EXPECT_EQ(t.coll_algo(pt::CollOp::kReduce, 4, pt::kBytesUnknown), pt::CollAlgo::kAuto);
}

TEST(TuneSelect, UnconstrainedRuleMatchesUnknownBytes) {
  const pt::Tunables t = forced(pt::CollOp::kBroadcast, pt::CollAlgo::kLinear);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kBroadcast, 4, pt::kBytesUnknown), pt::CollAlgo::kLinear);
}

TEST(TuneSelect, RecDoubleDemotedAtNonPowerOfTwo) {
  const pt::Tunables t = forced(pt::CollOp::kAllreduce, pt::CollAlgo::kRecDouble);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kAllreduce, 8, 64), pt::CollAlgo::kRecDouble);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kAllreduce, 6, 64), pt::CollAlgo::kAuto);
  EXPECT_EQ(t.coll_algo(pt::CollOp::kAllreduce, 1, 64), pt::CollAlgo::kRecDouble);
}

// ---------------------------------------------------------------------------
// Integer collectives: bit-identical across every algorithm.

TEST(TuneCollectives, IntegerReductionsIdenticalAcrossAlgorithms) {
  for (const int p : {2, 3, 4, 5, 8}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::int64_t> expect_all(n);
      for (std::size_t i = 0; i < n; ++i) {
        // sum over ranks r of (r*31 + i): p*31*(p-1)/2 ... computed below
        std::int64_t s = 0;
        for (int r = 0; r < p; ++r) s += static_cast<std::int64_t>(r) * 31 + static_cast<std::int64_t>(i);
        expect_all[i] = s;
      }
      for (const pt::CollAlgo algo : kAllAlgos) {
        const pt::Tunables ar = forced(pt::CollOp::kAllreduce, algo);
        pm::RunOptions opts;
        opts.tunables = &ar;
        pm::run(
            p,
            [&](pm::Comm& comm) {
              std::vector<std::int64_t> data(n);
              for (std::size_t i = 0; i < n; ++i) {
                data[i] = static_cast<std::int64_t>(comm.rank()) * 31 +
                          static_cast<std::int64_t>(i);
              }
              comm.allreduce_inplace<std::int64_t>(std::span<std::int64_t>{data},
                                                   std::plus<>{});
              ASSERT_EQ(data, expect_all) << "allreduce algo="
                                          << pt::coll_algo_name(algo) << " p=" << p;
            },
            opts);

        const pt::Tunables rd = forced(pt::CollOp::kReduce, algo);
        opts.tunables = &rd;
        pm::run(
            p,
            [&](pm::Comm& comm) {
              std::vector<std::int64_t> data(n);
              for (std::size_t i = 0; i < n; ++i) {
                data[i] = static_cast<std::int64_t>(comm.rank()) * 31 +
                          static_cast<std::int64_t>(i);
              }
              comm.reduce_inplace<std::int64_t>(std::span<std::int64_t>{data},
                                                std::plus<>{}, 0);
              if (comm.rank() == 0) {
                ASSERT_EQ(data, expect_all) << "reduce algo=" << pt::coll_algo_name(algo)
                                            << " p=" << p;
              }
            },
            opts);
      }
    }
  }
}

TEST(TuneCollectives, BroadcastAndAllgatherIdenticalAcrossAlgorithms) {
  for (const int p : {2, 3, 4, 8}) {
    for (const pt::CollAlgo algo : kAllAlgos) {
      const pt::Tunables bc = forced(pt::CollOp::kBroadcast, algo);
      pm::RunOptions opts;
      opts.tunables = &bc;
      pm::run(
          p,
          [&](pm::Comm& comm) {
            std::vector<std::int32_t> data(257);
            if (comm.rank() == 1) {
              std::iota(data.begin(), data.end(), 42);
            }
            comm.broadcast_into<std::int32_t>(std::span<std::int32_t>{data}, 1);
            ASSERT_EQ(data.front(), 42);
            ASSERT_EQ(data.back(), 42 + 256);
            // The unsized variant must work under the same forced rule
            // (byte-unconstrained, so it applies to unknown sizes too).
            std::vector<std::int32_t> var;
            if (comm.rank() == 0) var.assign(13, comm.size());
            comm.broadcast<std::int32_t>(var, 0);
            ASSERT_EQ(var.size(), 13u);
            ASSERT_EQ(var.front(), comm.size());
          },
          opts);

      const pt::Tunables ag = forced(pt::CollOp::kAllgather, algo);
      opts.tunables = &ag;
      pm::run(
          p,
          [&](pm::Comm& comm) {
            const std::size_t block = 33;
            std::vector<std::int64_t> mine(block);
            for (std::size_t i = 0; i < block; ++i) {
              mine[i] = comm.rank() * 1000 + static_cast<std::int64_t>(i);
            }
            std::vector<std::int64_t> all(block * static_cast<std::size_t>(comm.size()));
            comm.allgather_into<std::int64_t>(std::span<const std::int64_t>{mine},
                                              std::span<std::int64_t>{all});
            for (int r = 0; r < comm.size(); ++r) {
              for (std::size_t i = 0; i < block; ++i) {
                ASSERT_EQ(all[static_cast<std::size_t>(r) * block + i],
                          r * 1000 + static_cast<std::int64_t>(i))
                    << "allgather algo=" << pt::coll_algo_name(algo) << " p=" << p;
              }
            }
            // Variable-size variant (unknown bytes → default path under
            // byte-banded profiles, the forced rule here is unbanded).
            const auto cat = comm.allgather<std::int64_t>(std::span<const std::int64_t>{mine});
            ASSERT_EQ(cat, all);
          },
          opts);
    }
  }
}

// ---------------------------------------------------------------------------
// Float determinism: same (algorithm, p) ⇒ same bytes, run after run,
// with and without fault injection.

namespace {

/// One allreduce over magnitude-skewed doubles; returns rank 0's result
/// bytes.  FP addition is not associative, so different algorithms MAY
/// differ — the contract is that one algorithm never differs from itself.
std::vector<double> float_allreduce_once(int p, pt::CollAlgo algo, const pf::FaultPlan* plan) {
  const pt::Tunables t = forced(pt::CollOp::kAllreduce, algo);
  pm::RunOptions opts;
  opts.tunables = &t;
  opts.plan = plan;
  std::vector<double> out;
  std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(p));
  pm::run(
      p,
      [&](pm::Comm& comm) {
        std::vector<double> data(512);
        for (std::size_t i = 0; i < data.size(); ++i) {
          // Exponent-staggered contributions make the combine order
          // visible in the low mantissa bits.
          data[i] = std::ldexp(1.0 + 1e-3 * comm.rank() + 1e-6 * static_cast<double>(i),
                               comm.rank() % 3 - 1);
        }
        comm.allreduce_inplace<double>(std::span<double>{data}, std::plus<>{});
        per_rank[static_cast<std::size_t>(comm.rank())] = data;
        if (comm.rank() == 0) out = data;
      },
      opts);
  // Every rank of one run must already agree bit-for-bit.
  for (const auto& r : per_rank) {
    EXPECT_EQ(0, std::memcmp(r.data(), out.data(), out.size() * sizeof(double)))
        << "ranks disagree, algo=" << pt::coll_algo_name(algo) << " p=" << p;
  }
  return out;
}

}  // namespace

TEST(TuneCollectives, FloatAllreduceRepeatDeterministicPerAlgorithm) {
  for (const int p : {2, 3, 4, 8}) {
    for (const pt::CollAlgo algo : kAllAlgos) {
      const std::vector<double> a = float_allreduce_once(p, algo, nullptr);
      const std::vector<double> b = float_allreduce_once(p, algo, nullptr);
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
          << "repeat divergence, algo=" << pt::coll_algo_name(algo) << " p=" << p;
    }
  }
}

TEST(TuneCollectives, FloatDeterminismHoldsUnderFaultInjection) {
  // Delays and stalls perturb wall-clock interleaving but must not
  // perturb the combine order: results with and without the plan are
  // bit-identical.
  const pf::FaultPlan plan = pf::FaultPlan::parse(
      "seed=11; delay@rank=1,prob=0.5,ns=200000; stall@rank=0,prob=0.25,ns=100000");
  for (const pt::CollAlgo algo :
       {pt::CollAlgo::kAuto, pt::CollAlgo::kRing, pt::CollAlgo::kRecDouble}) {
    const std::vector<double> clean = float_allreduce_once(4, algo, nullptr);
    const std::vector<double> faulty = float_allreduce_once(4, algo, &plan);
    ASSERT_EQ(0, std::memcmp(clean.data(), faulty.data(), clean.size() * sizeof(double)))
        << "faults changed bytes, algo=" << pt::coll_algo_name(algo);
  }
}

TEST(TuneCollectives, FloatReduceRepeatDeterministicPerAlgorithm) {
  for (const pt::CollAlgo algo :
       {pt::CollAlgo::kAuto, pt::CollAlgo::kLinear, pt::CollAlgo::kRing}) {
    std::vector<double> first;
    for (int run = 0; run < 2; ++run) {
      const pt::Tunables t = forced(pt::CollOp::kReduce, algo);
      pm::RunOptions opts;
      opts.tunables = &t;
      std::vector<double> got;
      pm::run(
          5,
          [&](pm::Comm& comm) {
            std::vector<double> data(128);
            for (std::size_t i = 0; i < data.size(); ++i) {
              data[i] = std::ldexp(1.0 + 1e-4 * comm.rank(),
                                   static_cast<int>(i % 5) + comm.rank() % 2);
            }
            comm.reduce_inplace<double>(std::span<double>{data}, std::plus<>{}, 2);
            if (comm.rank() == 2) got = data;
          },
          opts);
      if (run == 0) {
        first = got;
      } else {
        ASSERT_EQ(0, std::memcmp(first.data(), got.data(), got.size() * sizeof(double)))
            << "reduce repeat divergence, algo=" << pt::coll_algo_name(algo);
      }
    }
  }
}


// ---------------------------------------------------------------------------
// Profile parsing: corrupt input degrades to defaults with named
// warnings, never a crash; good input round-trips exactly.

TEST(TuneProfile, CorruptInputsRejectedWithWarnings) {
  for (const char* bad : {"", "not json", "{", "[1,2,3]", "42", "\"peachy\"",
                          "{\"schema\": \"peachy-tune/2\"", "{\"no_schema\": true}"}) {
    const pt::LoadResult r = pt::parse_profile(bad);
    EXPECT_FALSE(r.ok) << bad;
    ASSERT_FALSE(r.warnings.empty()) << bad;
    EXPECT_TRUE(r.profile.tunables.coll_rules.empty());
  }
}

TEST(TuneProfile, VersionMismatchRejected) {
  // A peachy-tune/1 document (the schema that still carried scalar
  // constants in a `tunables` object) is rejected as a whole by its
  // schema string, before any field is read, so it is never
  // half-applied: its valid collective rule does not load either.
  const pt::LoadResult r = pt::parse_profile(R"({
    "schema": "peachy-tune/1",
    "tunables": {"grain": 8192, "block_rows": 32},
    "collectives": [{"op": "allreduce", "algo": "ring"}]
  })");
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.warnings.size(), 1u);
  EXPECT_NE(r.warnings.front().find("schema version mismatch"), std::string::npos);
  EXPECT_NE(r.warnings.front().find("\"peachy-tune/1\""), std::string::npos);
  EXPECT_NE(r.warnings.front().find("\"peachy-tune/2\""), std::string::npos);
  EXPECT_TRUE(r.profile.tunables.coll_rules.empty());
}

TEST(TuneProfile, MissingFileIsNamedWarningNotCrash) {
  const pt::LoadResult r = pt::load_profile_file("/nonexistent/peachy-tune.json");
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.warnings.empty());
  EXPECT_NE(r.warnings.front().find("/nonexistent/peachy-tune.json"), std::string::npos);
}

TEST(TuneProfile, PartialProfileFillsGapsWithDefaults) {
  const pt::LoadResult none = pt::parse_profile(R"({"schema": "peachy-tune/2"})");
  EXPECT_TRUE(none.ok);
  EXPECT_TRUE(none.warnings.empty()) << none.warnings.front();
  EXPECT_TRUE(none.profile.tunables.coll_rules.empty());

  const pt::LoadResult r = pt::parse_profile(R"({
    "schema": "peachy-tune/2",
    "collectives": [{"op": "allreduce", "algo": "ring", "p_min": 4}]
  })");
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.warnings.empty()) << r.warnings.front();
  ASSERT_EQ(r.profile.tunables.coll_rules.size(), 1u);
  const pt::CollRule& rule = r.profile.tunables.coll_rules[0];
  const pt::CollRule defaults;
  EXPECT_EQ(rule.p_min, 4);
  EXPECT_EQ(rule.p_max, defaults.p_max);
  EXPECT_EQ(rule.bytes_min, defaults.bytes_min);
  EXPECT_EQ(rule.bytes_max, defaults.bytes_max);
}

TEST(TuneProfile, InvalidFieldValuesIndividuallyRejected) {
  // Each bad rule is skipped with its own warning; the good one applies.
  const pt::LoadResult r = pt::parse_profile(R"({
    "schema": "peachy-tune/2",
    "collectives": [
      {"op": "allreduce", "algo": "ring"},
      {"op": "frobnicate", "algo": "ring"},
      {"op": "reduce", "algo": "warp_shuffle"},
      {"op": "reduce", "algo": "ring", "p_min": -1},
      {"op": "reduce", "algo": "ring", "bytes_max": 1.5},
      {"op": "reduce", "algo": "ring", "p_min": 8, "p_max": 4},
      7
    ]
  })");
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.profile.tunables.coll_rules.size(), 1u);
  EXPECT_EQ(r.profile.tunables.coll_rules[0].op, pt::CollOp::kAllreduce);
  EXPECT_EQ(r.profile.tunables.coll_rules[0].algo, pt::CollAlgo::kRing);
  ASSERT_EQ(r.warnings.size(), 6u);
  for (std::size_t i = 0; i < r.warnings.size(); ++i) {
    EXPECT_NE(r.warnings[i].find("collectives[" + std::to_string(i + 1) + "]"),
              std::string::npos)
        << r.warnings[i];
  }
}

TEST(TuneProfile, OutOfRangeRuleFieldSkippedNotNarrowed) {
  // 4294967298 = 2^32 + 2 used to wrap to p_max = 2, so a rule written
  // for every rank count silently stopped matching p = 8.
  const pt::LoadResult r = pt::parse_profile(R"({
    "schema": "peachy-tune/2",
    "collectives": [
      {"op": "allreduce", "algo": "ring", "p_min": 2, "p_max": 4294967298},
      {"op": "allreduce", "algo": "ring", "p_min": 2147483648},
      {"op": "allreduce", "algo": "linear", "p_max": 2147483647}
    ]
  })");
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.warnings.size(), 2u);
  EXPECT_NE(r.warnings[0].find("collectives[0]: field 'p_max' = 4294967298 exceeds"),
            std::string::npos)
      << r.warnings[0];
  EXPECT_NE(r.warnings[1].find("collectives[1]: field 'p_min' = 2147483648 exceeds"),
            std::string::npos)
      << r.warnings[1];
  ASSERT_EQ(r.profile.tunables.coll_rules.size(), 1u);
  EXPECT_EQ(r.profile.tunables.coll_rules[0].p_max, std::numeric_limits<int>::max());
  EXPECT_EQ(r.profile.tunables.coll_algo(pt::CollOp::kAllreduce, 8, 64),
            pt::CollAlgo::kLinear);
}

TEST(TuneProfile, RoundTripPreservesEverything) {
  pt::Profile p;
  p.isa = "avx2";
  p.tuned_for = "round-trip test";
  pt::CollRule rule;
  rule.op = pt::CollOp::kAllreduce;
  rule.algo = pt::CollAlgo::kRecDouble;
  rule.p_min = 2;
  rule.p_max = 8;
  rule.bytes_min = 1;
  rule.bytes_max = 65536;
  p.tunables.coll_rules.push_back(rule);
  pt::CollRule open_rule;
  open_rule.op = pt::CollOp::kBroadcast;
  open_rule.algo = pt::CollAlgo::kLinear;
  p.tunables.coll_rules.push_back(open_rule);

  const std::string json = pt::to_json(p);
  EXPECT_NE(json.find("\"schema\": \"peachy-tune/2\""), std::string::npos) << json;
  EXPECT_EQ(json.find("tunables"), std::string::npos) << json;
  const pt::LoadResult r = pt::parse_profile(json);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.warnings.empty()) << r.warnings.front();
  EXPECT_EQ(r.profile.isa, p.isa);
  EXPECT_EQ(r.profile.tuned_for, p.tuned_for);
  const pt::Tunables& t = r.profile.tunables;
  ASSERT_EQ(t.coll_rules.size(), 2u);
  EXPECT_EQ(t.coll_rules[0].op, pt::CollOp::kAllreduce);
  EXPECT_EQ(t.coll_rules[0].algo, pt::CollAlgo::kRecDouble);
  EXPECT_EQ(t.coll_rules[0].p_min, 2);
  EXPECT_EQ(t.coll_rules[0].p_max, 8);
  EXPECT_EQ(t.coll_rules[0].bytes_min, 1);
  EXPECT_EQ(t.coll_rules[0].bytes_max, 65536);
  EXPECT_EQ(t.coll_rules[1].op, pt::CollOp::kBroadcast);
  EXPECT_EQ(t.coll_rules[1].algo, pt::CollAlgo::kLinear);
  EXPECT_TRUE(t.coll_rules[1].byte_range_unconstrained());
}

TEST(TuneProfile, FileRoundTrip) {
  pt::Profile p;
  p.isa = "scalar";
  p.tuned_for = "file round-trip";
  pt::CollRule rule;
  rule.op = pt::CollOp::kAllgather;
  rule.algo = pt::CollAlgo::kRecDouble;
  rule.p_min = 4;
  rule.p_max = 4;
  p.tunables.coll_rules.push_back(rule);
  const std::string path = ::testing::TempDir() + "/peachy_tune_roundtrip.json";
  ASSERT_TRUE(pt::write_profile_file(p, path));
  const pt::LoadResult r = pt::load_profile_file(path);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.warnings.empty());
  EXPECT_EQ(r.profile.isa, "scalar");
  ASSERT_EQ(r.profile.tunables.coll_rules.size(), 1u);
  EXPECT_EQ(r.profile.tunables.coll_rules[0].op, pt::CollOp::kAllgather);
  EXPECT_EQ(r.profile.tunables.coll_rules[0].algo, pt::CollAlgo::kRecDouble);
  EXPECT_EQ(r.profile.tunables.coll_rules[0].p_min, 4);
  EXPECT_EQ(r.profile.tunables.coll_rules[0].p_max, 4);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Mutation fuzz: parse_profile is a trust boundary (PEACHY_TUNE names any
// file).  Seeded byte flips, truncations, splices, duplicate keys and
// extreme numbers over the committed profile must never throw, and must
// either reject the document with a warning or load only well-formed
// rules.

namespace {

std::string committed_profile() {
  std::ifstream in{std::string{PEACHY_SOURCE_DIR} + "/TUNE_profile.json", std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Applies one seeded mutation to `doc`.
void mutate(std::string& doc, const std::string& original, std::mt19937_64& rng) {
  static const char* const kNumbers[] = {
      "-1", "0", "-0", "1.5", "1e308", "2147483647", "2147483648", "4294967298",
      "9223372036854775807", "-9223372036854775808", "9223372036854775808",
      "99999999999999999999999"};
  static const char* const kKeys[] = {"op", "algo", "p_min", "p_max", "bytes_min",
                                      "bytes_max", "schema", "collectives"};
  static const char* const kValues[] = {"\"allreduce\"", "\"ring\"", "\"nope\"", "-5",
                                        "4294967298", "null", "[]", "{}", "\"peachy-tune/2\""};
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto pos = [&]() { return pick(doc.size() + 1); };
  switch (pick(5)) {
    case 0:  // byte flip
      if (!doc.empty()) doc[pick(doc.size())] ^= static_cast<char>(1 + pick(255));
      break;
    case 1:  // truncation
      doc.resize(pos());
      break;
    case 2: {  // splice a slice of the original somewhere
      const std::size_t from = pick(original.size());
      const std::size_t len = pick(original.size() - from + 1);
      doc.insert(pos(), original, from, len);
      break;
    }
    case 3: {  // duplicate key right after an opening brace (first match wins)
      std::vector<std::size_t> braces;
      for (std::size_t i = 0; i < doc.size(); ++i) {
        if (doc[i] == '{') braces.push_back(i);
      }
      if (braces.empty()) break;
      const std::string kv = std::string{"\""} + kKeys[pick(std::size(kKeys))] +
                             "\": " + kValues[pick(std::size(kValues))] + ", ";
      doc.insert(braces[pick(braces.size())] + 1, kv);
      break;
    }
    default: {  // replace a number token with an extreme one
      std::vector<std::pair<std::size_t, std::size_t>> numbers;
      for (std::size_t i = 0; i < doc.size();) {
        if (std::isdigit(static_cast<unsigned char>(doc[i])) != 0) {
          const std::size_t b = i;
          while (i < doc.size() && std::isdigit(static_cast<unsigned char>(doc[i])) != 0) ++i;
          numbers.emplace_back(b, i - b);
        } else {
          ++i;
        }
      }
      if (numbers.empty()) break;
      const auto [b, len] = numbers[pick(numbers.size())];
      doc.replace(b, len, kNumbers[pick(std::size(kNumbers))]);
      break;
    }
  }
}

}  // namespace

TEST(TuneProfileFuzz, SeededMutationsNeverThrowOrLoadMalformedRules) {
  const std::string original = committed_profile();
  ASSERT_FALSE(original.empty()) << "cannot read TUNE_profile.json";
  const pt::LoadResult base = pt::parse_profile(original);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(base.warnings.empty()) << base.warnings.front();
  ASSERT_FALSE(base.profile.tunables.coll_rules.empty());

  std::mt19937_64 rng{20231112};
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string doc = original;
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) mutate(doc, original, rng);
    pt::LoadResult r;
    ASSERT_NO_THROW(r = pt::parse_profile(doc)) << "iter " << iter << ":\n" << doc;
    if (!r.ok) {
      ASSERT_FALSE(r.warnings.empty()) << "iter " << iter << ":\n" << doc;
      ASSERT_TRUE(r.profile.tunables.coll_rules.empty()) << "iter " << iter;
      ++rejected;
      continue;
    }
    ++accepted;
    for (const pt::CollRule& rule : r.profile.tunables.coll_rules) {
      const int op = static_cast<int>(rule.op);
      const int algo = static_cast<int>(rule.algo);
      ASSERT_TRUE(op >= 0 && op < pt::kCollOpCount) << "iter " << iter << ":\n" << doc;
      ASSERT_TRUE(algo >= 0 && algo <= static_cast<int>(pt::CollAlgo::kRecDouble))
          << "iter " << iter << ":\n" << doc;
      ASSERT_GE(rule.p_min, 0) << "iter " << iter << ":\n" << doc;
      ASSERT_LE(rule.p_min, rule.p_max) << "iter " << iter << ":\n" << doc;
      ASSERT_GE(rule.bytes_min, 0) << "iter " << iter << ":\n" << doc;
      ASSERT_LE(rule.bytes_min, rule.bytes_max) << "iter " << iter << ":\n" << doc;
    }
  }
  // Both outcomes must actually occur, or the mutations are not reaching
  // the parser's interesting paths.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}
