#include "mapreduce/wordcount.hpp"

#include <algorithm>
#include <cctype>

#include "mapreduce/mapreduce.hpp"
#include "rng/distributions.hpp"
#include "rng/lcg.hpp"
#include "support/check.hpp"

namespace peachy::mapreduce {

namespace {

/// Invoke `fn(word)` for every lower-cased word in text.
template <typename Fn>
void for_each_word(const std::string& text, Fn&& fn) {
  std::string word;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      word.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!word.empty()) {
      fn(word);
      word.clear();
    }
  }
  if (!word.empty()) fn(word);
}

}  // namespace

std::vector<std::string> split_corpus(const std::string& text, std::size_t chunks) {
  PEACHY_CHECK(chunks > 0, "split_corpus: need at least one chunk");
  std::vector<std::string> out;
  out.reserve(chunks);
  const std::size_t n = text.size();
  std::size_t start = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::size_t end = c + 1 == chunks ? n : std::min(n, start + (n - start) / (chunks - c));
    // Advance end to the next word boundary so no token is cut in half.
    while (end < n && std::isalnum(static_cast<unsigned char>(text[end]))) ++end;
    out.push_back(text.substr(start, end - start));
    start = end;
  }
  return out;
}

std::vector<WordCount> word_count_serial(const std::string& text) {
  std::map<std::string, std::uint64_t> counts;
  for_each_word(text, [&](const std::string& w) { ++counts[w]; });
  std::vector<WordCount> out;
  out.reserve(counts.size());
  for (const auto& [w, c] : counts) out.push_back({w, c});
  return out;
}

std::vector<WordCount> word_count(mpi::Comm& comm, const std::string& text,
                                  const WordCountOptions& opts) {
  const auto chunks = split_corpus(text, opts.chunks);

  MapReduce mr{comm};
  mr.map(chunks.size(), [&](std::size_t task, KvEmitter& out) {
    for_each_word(chunks[task],
                  [&](const std::string& w) { out.emit_record<std::uint64_t>(w, 1); });
  });

  const MapReduce::ReduceFn sum = [](const std::string& key,
                                     std::span<const std::string> values, KvEmitter& out) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += unpack_record<std::uint64_t>(v);
    out.emit_record<std::uint64_t>(key, total);
  };

  if (opts.local_combine) mr.combine(sum);
  mr.collate();
  mr.reduce(sum);

  // Broadcast the gathered u64 count records as they are, so every rank
  // decodes and returns the same table (simplifies callers).
  auto bytes = serialize_pairs(mr.gather(0));
  comm.broadcast(bytes, 0);
  std::vector<WordCount> result;
  for (const auto& kv : deserialize_pairs(bytes)) {
    result.push_back({kv.key, unpack_record<std::uint64_t>(kv.value)});
  }
  std::sort(result.begin(), result.end(),
            [](const WordCount& a, const WordCount& b) { return a.word < b.word; });
  return result;
}

std::string synthetic_corpus(std::size_t words, std::uint64_t seed) {
  // Zipf-ish vocabulary: word k has weight 1/(k+1); 500 distinct words.
  constexpr std::size_t kVocab = 500;
  std::vector<double> cdf(kVocab);
  double acc = 0.0;
  for (std::size_t k = 0; k < kVocab; ++k) {
    acc += 1.0 / static_cast<double>(k + 1);
    cdf[k] = acc;
  }
  rng::Lcg64 gen{seed};
  std::string text;
  text.reserve(words * 7);
  for (std::size_t i = 0; i < words; ++i) {
    const double u = rng::uniform01(gen) * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto k = static_cast<std::size_t>(it - cdf.begin());
    text += 'w';
    text += std::to_string(k);
    text += (i % 12 == 11) ? '\n' : ' ';
  }
  return text;
}

}  // namespace peachy::mapreduce
