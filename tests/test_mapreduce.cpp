// Tests for the MapReduce engine: phase discipline, the page format and its
// fuzzed walker, shuffle placement, the grouping-order contract, the
// local-combine optimization (experiment T-kNN-3's mechanism), and the
// word-count reference app vs its serial oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "mapreduce/mapreduce.hpp"
#include "mapreduce/wordcount.hpp"
#include "rng/lcg.hpp"

namespace pmr = peachy::mapreduce;
namespace pm = peachy::mpi;

// ---- serialization -----------------------------------------------------------

TEST(PairSerialization, RoundTripsBinaryContent) {
  std::vector<pmr::KeyValue> pairs{
      {"key1", "value1"},
      {std::string{"bin\0key", 7}, std::string{"\0\1\2", 3}},
      {"", ""},
  };
  const auto bytes = pmr::serialize_pairs(pairs);
  EXPECT_EQ(pmr::deserialize_pairs(bytes), pairs);
}

TEST(PairSerialization, RejectsCorruptBuffer) {
  std::vector<pmr::KeyValue> pairs{{"abc", "def"}};
  auto bytes = pmr::serialize_pairs(pairs);
  bytes.pop_back();
  EXPECT_THROW((void)pmr::deserialize_pairs(bytes), peachy::Error);
}

TEST(RecordPacking, RoundTripsTrivialTypes) {
  std::vector<pmr::Page> pages(1);
  pmr::KvEmitter out{pages};
  struct Rec {
    double d;
    std::int32_t c;
  };
  out.emit_record("k", Rec{2.5, 7});
  const auto rec = pmr::unpack_record<Rec>(pmr::deserialize_pairs(pages[0]).at(0).value);
  EXPECT_DOUBLE_EQ(rec.d, 2.5);
  EXPECT_EQ(rec.c, 7);
  EXPECT_THROW((void)pmr::unpack_record<double>(std::string{"xx"}), peachy::Error);
}

// The page walker parses bytes that arrive from peer processes, so it is
// fuzzed: every mutated page must decode to pairs that account for every
// byte, or fail with a named peachy::Error — never read out of bounds (the
// asan-ubsan gate runs this test under AddressSanitizer).
TEST(PageWalkerFuzz, SeededMutationsReturnPairsOrNamedError) {
  // Valid pages from a small map: three destinations, binary keys, some
  // empty values.
  std::vector<pmr::Page> pages(3);
  pmr::KvEmitter out{pages};
  for (std::uint32_t i = 0; i < 40; ++i) {
    const std::string key = (i % 4 == 0 ? std::string{"k\0", 2} : "key") + std::to_string(i % 9);
    out.emit(key, i % 5 == 0 ? std::string{} : std::string(i % 13, static_cast<char>(i)));
  }
  // Offsets of every length field, per page.
  std::vector<std::vector<std::size_t>> len_fields(pages.size());
  for (std::size_t pg = 0; pg < pages.size(); ++pg) {
    ASSERT_FALSE(pages[pg].empty());
    std::size_t pos = 0;
    for (const auto& kv : pmr::deserialize_pairs(pages[pg])) {
      len_fields[pg].push_back(pos);
      len_fields[pg].push_back(pos + 4 + kv.key.size());
      pos += 8 + kv.key.size() + kv.value.size();
    }
    ASSERT_EQ(pos, pages[pg].size());
  }

  peachy::rng::Lcg64 gen{0x9a6e5eed};
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(gen.next_u64() % n); };
  int decoded = 0, rejected = 0;
  for (int c = 0; c < 2000; ++c) {
    const std::size_t pg = pick(pages.size());
    pmr::Page page = pages[pg];
    switch (c % 4) {
      case 0:  // bit flips
        for (std::size_t f = 1 + pick(4); f > 0; --f) {
          page[pick(page.size())] ^= std::byte{static_cast<unsigned char>(1u << pick(8))};
        }
        break;
      case 1:  // truncation
        page.resize(pick(page.size()));
        break;
      case 2: {  // one length field set to 0, 0xFFFFFFFF or just past the end
        const std::size_t at = len_fields[pg][pick(len_fields[pg].size())];
        const std::uint32_t values[] = {0u, 0xFFFFFFFFu,
                                        static_cast<std::uint32_t>(page.size() - (at + 4) + 1)};
        std::memcpy(page.data() + at, &values[pick(3)], 4);
        break;
      }
      default: {  // splice: a prefix of one page onto a suffix of another
        const pmr::Page& other = pages[pick(pages.size())];
        page.resize(pick(page.size() + 1));
        const std::size_t from = pick(other.size() + 1);
        page.insert(page.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
        break;
      }
    }
    try {
      const auto pairs = pmr::deserialize_pairs(page);
      std::size_t consumed = 0;
      for (const auto& kv : pairs) consumed += 8 + kv.key.size() + kv.value.size();
      EXPECT_EQ(consumed, page.size()) << "case " << c;
      ++decoded;
    } catch (const peachy::Error& e) {
      EXPECT_NE(std::string{e.what()}.find("corrupt pair buffer"), std::string::npos)
          << "case " << c << ": " << e.what();
      ++rejected;
    }
  }
  // Both outcomes occur, so the mutations reach past the happy path.
  EXPECT_GT(decoded, 100);
  EXPECT_GT(rejected, 100);
}

// ---- engine phases -------------------------------------------------------------

class MapReduceRanks : public ::testing::TestWithParam<int> {};

TEST_P(MapReduceRanks, MapRunsEveryTaskExactlyOnce) {
  const int p = GetParam();
  pm::run(p, [](pm::Comm& c) {
    pmr::MapReduce mr{c};
    const auto total = mr.map(37, [](std::size_t task, pmr::KvEmitter& out) {
      out.emit("task" + std::to_string(task), "x");
    });
    EXPECT_EQ(total, 37u);
    mr.collate();
    mr.reduce([](const std::string&, std::span<const std::string> values, pmr::KvEmitter& out) {
      EXPECT_EQ(values.size(), 1u);  // each task key emitted once globally
      out.emit("seen", "1");
    });
  });
}

TEST_P(MapReduceRanks, CollatePlacesKeysByHashOwner) {
  const int p = GetParam();
  pm::run(p, [](pm::Comm& c) {
    pmr::MapReduce mr{c};
    mr.map(40, [](std::size_t task, pmr::KvEmitter& out) {
      out.emit("key" + std::to_string(task % 10), std::to_string(task));
    });
    mr.collate();
    // After collate every local key must hash to this rank.
    mr.reduce([&](const std::string& key, std::span<const std::string>, pmr::KvEmitter&) {
      EXPECT_EQ(mr.owner_of(key), c.rank());
    });
  });
}

TEST_P(MapReduceRanks, ReduceSeesAllValuesOfAKey) {
  const int p = GetParam();
  pm::run(p, [](pm::Comm& c) {
    pmr::MapReduce mr{c};
    // 60 tasks emit into 6 keys, 10 values each.
    mr.map(60, [](std::size_t task, pmr::KvEmitter& out) {
      out.emit("k" + std::to_string(task % 6), std::to_string(task));
    });
    const auto nkeys = mr.collate();
    EXPECT_EQ(nkeys, 6u);
    mr.reduce([](const std::string&, std::span<const std::string> values, pmr::KvEmitter& out) {
      EXPECT_EQ(values.size(), 10u);
      out.emit("ok", "1");
    });
  });
}

TEST_P(MapReduceRanks, GatherReturnsAllPairsAtRoot) {
  const int p = GetParam();
  pm::run(p, [](pm::Comm& c) {
    pmr::MapReduce mr{c};
    mr.map(12, [](std::size_t task, pmr::KvEmitter& out) {
      out.emit("t" + std::to_string(task), std::to_string(task * task));
    });
    const auto pairs = mr.gather(0);
    if (c.rank() == 0) {
      ASSERT_EQ(pairs.size(), 12u);
      std::map<std::string, std::string> by_key;
      for (const auto& kv : pairs) by_key[kv.key] = kv.value;
      EXPECT_EQ(by_key.at("t5"), "25");
    } else {
      EXPECT_TRUE(pairs.empty());
    }
  });
}

TEST_P(MapReduceRanks, ChainedMapReduceRounds) {
  // reduce output can be collated and reduced again (multi-round MR).
  const int p = GetParam();
  pm::run(p, [](pm::Comm& c) {
    pmr::MapReduce mr{c};
    mr.map(20, [](std::size_t task, pmr::KvEmitter& out) {
      out.emit_record<std::uint64_t>("g" + std::to_string(task % 4), 1);
    });
    mr.collate();
    // Round 1: count per group, re-key everything to one key.
    mr.reduce([](const std::string&, std::span<const std::string> values, pmr::KvEmitter& out) {
      out.emit_record<std::uint64_t>("total", values.size());
    });
    mr.collate();
    std::uint64_t total = 0;
    mr.reduce([&](const std::string&, std::span<const std::string> values, pmr::KvEmitter& out) {
      for (const auto& v : values) total += pmr::unpack_record<std::uint64_t>(v);
      out.emit("done", "1");
    });
    const auto grand = c.allreduce_value<std::uint64_t>(total, std::plus<>{});
    EXPECT_EQ(grand, 20u);
  });
}

// Per-source pairs in emission order -> the (key, values) groups that
// `owner` sees after collate: keys in ascending byte order, each key's
// values in (source rank, emission) order.  owner < 0 groups every key.
using Groups = std::vector<std::pair<std::string, std::vector<std::string>>>;
Groups expected_groups(const std::vector<std::vector<pmr::KeyValue>>& by_source,
                       const pmr::MapReduce& mr, int owner) {
  std::map<std::string, std::vector<std::string>> m;
  for (const auto& pairs : by_source) {
    for (const auto& kv : pairs) {
      if (owner < 0 || mr.owner_of(kv.key) == owner) m[kv.key].push_back(kv.value);
    }
  }
  return {m.begin(), m.end()};
}

TEST_P(MapReduceRanks, GroupingOrderIsKeyBytesThenSourceRankThenEmission) {
  const int p = GetParam();
  // Binary keys: embedded NUL, the empty key, shared prefixes, high bytes.
  const std::vector<std::string> keys{"",  std::string{"\0", 1}, std::string{"a\0b", 3},
                                      "a", "ab",                 "abc",
                                      "b", "\xff",               "\x80z"};
  constexpr std::uint32_t kTasks = 11, kPerTask = 9;
  const auto value_of = [](std::uint32_t task, std::uint32_t e) {
    if ((task + e) % 5 == 0) return std::string{};
    std::string v(8, '\0');
    std::memcpy(v.data(), &task, 4);
    std::memcpy(v.data() + 4, &e, 4);
    return v;
  };
  // What each rank emits, in order (tasks run cyclically: t on rank t % p).
  std::vector<std::vector<pmr::KeyValue>> emitted(static_cast<std::size_t>(p));
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    for (std::uint32_t e = 0; e < kPerTask; ++e) {
      emitted[t % static_cast<std::uint32_t>(p)].push_back(
          {keys[(t * 3 + e * 5) % keys.size()], value_of(t, e)});
    }
  }

  pm::run(p, [&](pm::Comm& c) {
    pmr::MapReduce mr{c};
    const auto me = static_cast<std::size_t>(c.rank());
    // Each rank's pairs after the identity combine, and after each reduce.
    std::vector<std::vector<pmr::KeyValue>> combined(emitted.size()), round1(emitted.size());
    for (std::size_t r = 0; r < emitted.size(); ++r) {
      for (const auto& [k, vs] : expected_groups({emitted[r]}, mr, -1)) {
        for (const auto& v : vs) combined[r].push_back({k, v});
      }
    }
    for (std::size_t r = 0; r < emitted.size(); ++r) {
      for (const auto& [k, vs] : expected_groups(combined, mr, static_cast<int>(r))) {
        for (const auto& v : vs) round1[r].push_back({v, k});  // re-keyed by value
      }
    }

    mr.map(kTasks, [&](std::size_t t, pmr::KvEmitter& out) {
      for (std::uint32_t e = 0; e < kPerTask; ++e) {
        out.emit(keys[(t * 3 + e * 5) % keys.size()], value_of(static_cast<std::uint32_t>(t), e));
      }
    });
    Groups seen;
    const pmr::MapReduce::ReduceFn record_and_echo =
        [&](const std::string& k, std::span<const std::string> vs, pmr::KvEmitter& out) {
          seen.emplace_back(k, std::vector<std::string>(vs.begin(), vs.end()));
          for (const auto& v : vs) out.emit(k, v);
        };
    mr.combine(record_and_echo);
    EXPECT_EQ(seen, expected_groups({emitted[me]}, mr, -1));

    seen.clear();
    const auto nkeys = mr.collate();
    EXPECT_EQ(nkeys, expected_groups(combined, mr, -1).size());
    mr.reduce([&](const std::string& k, std::span<const std::string> vs, pmr::KvEmitter& out) {
      seen.emplace_back(k, std::vector<std::string>(vs.begin(), vs.end()));
      for (const auto& v : vs) out.emit(v, k);
    });
    EXPECT_EQ(seen, expected_groups(combined, mr, c.rank()));

    // gather: rank order, each rank's pairs stably sorted by key.
    const auto gathered = mr.gather(0);
    if (c.rank() == 0) {
      std::vector<pmr::KeyValue> want;
      for (auto pairs : round1) {
        std::stable_sort(pairs.begin(), pairs.end(),
                         [](const auto& a, const auto& b) { return a.key < b.key; });
        want.insert(want.end(), pairs.begin(), pairs.end());
      }
      EXPECT_EQ(gathered, want);
    } else {
      EXPECT_TRUE(gathered.empty());
    }

    // Chained round: reduce output is in pages again and groups the same way.
    seen.clear();
    mr.collate();
    mr.reduce(record_and_echo);
    EXPECT_EQ(seen, expected_groups(round1, mr, c.rank()));
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MapReduceRanks, ::testing::Values(1, 2, 3, 5));

TEST(MapReducePhases, EnforcesPhaseOrder) {
  pm::run(1, [](pm::Comm& c) {
    pmr::MapReduce mr{c};
    const pmr::MapReduce::ReduceFn nop = [](const std::string&, std::span<const std::string>,
                                            pmr::KvEmitter&) {};
    EXPECT_THROW(mr.collate(), peachy::Error);          // before map
    EXPECT_THROW(mr.reduce(nop), peachy::Error);        // before collate
    mr.map(1, [](std::size_t, pmr::KvEmitter& out) { out.emit("k", "v"); });
    EXPECT_THROW(mr.reduce(nop), peachy::Error);        // skipping collate
    mr.collate();
    EXPECT_THROW(mr.combine(nop), peachy::Error);       // combine after collate
    EXPECT_THROW(mr.collate(), peachy::Error);          // double collate
  });
}

// ---- local combine (the paper's communication optimization) ---------------------

TEST(LocalCombine, ReducesShuffledPairsWithoutChangingResult) {
  constexpr int kRanks = 4;
  const std::string corpus = pmr::synthetic_corpus(4000, 7);
  std::vector<pmr::WordCount> plain, combined;
  std::uint64_t pairs_plain = 0, pairs_combined = 0;

  pm::run(kRanks, [&](pm::Comm& c) {
    pmr::WordCountOptions opts;
    opts.local_combine = false;
    auto r1 = pmr::word_count(c, corpus, opts);
    pmr::MapReduce probe{c};  // re-run manually to read shuffle stats
    if (c.rank() == 0) plain = r1;

    opts.local_combine = true;
    auto r2 = pmr::word_count(c, corpus, opts);
    if (c.rank() == 0) combined = r2;
    EXPECT_EQ(r1, r2);
  });

  // Measure shuffle volume directly with the engine.
  pm::run(kRanks, [&](pm::Comm& c) {
    const auto chunks = pmr::split_corpus(corpus, 16);
    for (bool combine : {false, true}) {
      pmr::MapReduce mr{c};
      mr.map(chunks.size(), [&](std::size_t t, pmr::KvEmitter& out) {
        std::string word;
        for (char ch : chunks[t]) {
          if (std::isalnum(static_cast<unsigned char>(ch))) {
            word.push_back(ch);
          } else if (!word.empty()) {
            out.emit_record<std::uint64_t>(word, 1);
            word.clear();
          }
        }
        if (!word.empty()) out.emit_record<std::uint64_t>(word, 1);
      });
      if (combine) {
        mr.combine([](const std::string& k, std::span<const std::string> vs, pmr::KvEmitter& out) {
          std::uint64_t total = 0;
          for (const auto& v : vs) total += pmr::unpack_record<std::uint64_t>(v);
          out.emit_record<std::uint64_t>(k, total);
        });
      }
      mr.collate();
      if (c.rank() == 0) {
        (combine ? pairs_combined : pairs_plain) = mr.shuffle_stats().pairs_before;
      }
    }
  });

  EXPECT_EQ(plain, combined);
  EXPECT_GT(pairs_plain, 0u);
  // The whole point: combining slashes the pair volume entering the shuffle.
  EXPECT_LT(pairs_combined, pairs_plain / 2);
}

// ---- word count vs serial oracle ----------------------------------------------

TEST(WordCount, SplitCorpusPreservesWords) {
  const std::string text = "alpha beta gamma delta epsilon zeta eta theta";
  for (std::size_t chunks : {1u, 2u, 3u, 8u, 20u}) {
    const auto parts = pmr::split_corpus(text, chunks);
    EXPECT_EQ(parts.size(), chunks);
    std::string joined;
    for (const auto& p : parts) joined += p;
    EXPECT_EQ(joined, text);
    // No chunk boundary may split a word: each part must not start or end
    // mid-token relative to neighbors (verified via serial counts below).
    auto whole = pmr::word_count_serial(text);
    std::map<std::string, std::uint64_t> merged;
    for (const auto& p : parts) {
      for (const auto& wc : pmr::word_count_serial(p)) merged[wc.word] += wc.count;
    }
    ASSERT_EQ(merged.size(), whole.size());
    for (const auto& wc : whole) EXPECT_EQ(merged[wc.word], wc.count);
  }
}

TEST(WordCount, SerialOracleBasics) {
  const auto counts = pmr::word_count_serial("The cat and the dog. The END!");
  std::map<std::string, std::uint64_t> m;
  for (const auto& wc : counts) m[wc.word] = wc.count;
  EXPECT_EQ(m.at("the"), 3u);
  EXPECT_EQ(m.at("cat"), 1u);
  EXPECT_EQ(m.at("end"), 1u);
  EXPECT_EQ(m.size(), 5u);
}

class WordCountRanks : public ::testing::TestWithParam<int> {};

TEST_P(WordCountRanks, DistributedMatchesSerialForAnyRankCount) {
  const int p = GetParam();
  const std::string corpus = pmr::synthetic_corpus(2000, 42);
  const auto expect = pmr::word_count_serial(corpus);
  pm::run(p, [&](pm::Comm& c) {
    const auto got = pmr::word_count(c, corpus);
    EXPECT_EQ(got, expect);  // on every rank (result is broadcast)
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, WordCountRanks, ::testing::Values(1, 2, 3, 4, 6));

TEST(WordCount, EmptyCorpus) {
  pm::run(2, [](pm::Comm& c) {
    const auto got = pmr::word_count(c, "");
    EXPECT_TRUE(got.empty());
  });
}

TEST(SyntheticCorpus, DeterministicAndSkewed) {
  const auto a = pmr::synthetic_corpus(1000, 5);
  EXPECT_EQ(a, pmr::synthetic_corpus(1000, 5));
  const auto counts = pmr::word_count_serial(a);
  // Zipf skew: the most common word must dominate the median word.
  std::vector<std::uint64_t> freqs;
  for (const auto& wc : counts) freqs.push_back(wc.count);
  std::sort(freqs.rbegin(), freqs.rend());
  EXPECT_GT(freqs.front(), 10 * freqs[freqs.size() / 2]);
}
