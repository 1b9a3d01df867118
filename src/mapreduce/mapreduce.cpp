#include "mapreduce/mapreduce.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <utility>

#include "obs/obs.hpp"

namespace peachy::mapreduce {

namespace {

using detail::Record;

/// Bounds-checked cursor over one page: the one parser of the record
/// format.  Pages arrive from peer processes, so every length is checked
/// against what is left of the page before it is used.
class RecordWalker {
 public:
  explicit RecordWalker(std::span<const std::byte> page) noexcept : page_{page} {}

  /// Decode the next record into `rec`; false at the end of the page.  A
  /// length that runs past the page is a named peachy::Error.
  bool next(Record& rec) {
    if (pos_ == page_.size()) return false;
    rec.klen = read_len();
    PEACHY_CHECK(rec.klen <= page_.size() - pos_, "corrupt pair buffer: truncated string");
    rec.key = reinterpret_cast<const char*>(page_.data() + pos_);
    pos_ += rec.klen;
    rec.vlen = read_len();
    PEACHY_CHECK(rec.vlen <= page_.size() - pos_, "corrupt pair buffer: truncated string");
    pos_ += rec.vlen;
    return true;
  }

 private:
  std::uint32_t read_len() {
    PEACHY_CHECK(sizeof(std::uint32_t) <= page_.size() - pos_,
                 "corrupt pair buffer: truncated u32");
    std::uint32_t v = 0;
    std::memcpy(&v, page_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  std::span<const std::byte> page_;
  std::size_t pos_ = 0;
};

/// Every record of `pages`, in page order then page position, stably
/// sorted by key bytes: keys ascend, and a key's records keep the order
/// they had across the pages.
std::vector<Record> sorted_index(std::span<const Page> pages, std::size_t expected) {
  std::vector<Record> index;
  index.reserve(expected);
  for (const Page& page : pages) {
    RecordWalker walker{page};
    Record rec;
    while (walker.next(rec)) index.push_back(rec);
  }
  std::stable_sort(index.begin(), index.end(), [](const Record& a, const Record& b) {
    return a.key_view() < b.key_view();
  });
  return index;
}

std::uint64_t sum(std::span<const std::uint64_t> xs) {
  return std::accumulate(xs.begin(), xs.end(), std::uint64_t{0});
}

}  // namespace

std::vector<std::byte> serialize_pairs(std::span<const KeyValue> pairs) {
  Page page;
  std::size_t total = 0;
  for (const auto& p : pairs) total += 2 * sizeof(std::uint32_t) + p.key.size() + p.value.size();
  page.reserve(total);
  for (const auto& p : pairs) append_record(page, p.key, p.value);
  return page;
}

std::vector<KeyValue> deserialize_pairs(std::span<const std::byte> bytes) {
  std::vector<KeyValue> pairs;
  RecordWalker walker{bytes};
  Record rec;
  while (walker.next(rec)) {
    pairs.push_back({std::string{rec.key_view()}, std::string{rec.value_view()}});
  }
  return pairs;
}

std::uint64_t MapReduce::map(std::size_t ntasks, const MapFn& fn) {
  PEACHY_CHECK(fn != nullptr, "map: null callback");
  const obs::SpanScope span{"mr", "map", "tasks",
                            static_cast<std::int64_t>(ntasks)};
  index_.clear();
  pages_.assign(static_cast<std::size_t>(comm_->size()), Page{});
  KvEmitter emitter{pages_};
  // Cyclic task assignment (MR-MPI default): task t runs on rank t % p.
  const auto p = static_cast<std::size_t>(comm_->size());
  for (std::size_t t = static_cast<std::size_t>(comm_->rank()); t < ntasks; t += p) {
    fn(t, emitter);
  }
  counts_.assign(emitter.counts().begin(), emitter.counts().end());
  phase_ = Phase::kMapped;
  return comm_->allreduce_value<std::uint64_t>(sum(counts_), std::plus<>{});
}

std::uint64_t MapReduce::fold(const std::vector<Record>& index, const ReduceFn& fn) {
  const std::vector<Page> in = std::move(pages_);  // `index` points into these
  pages_.assign(static_cast<std::size_t>(comm_->size()), Page{});
  KvEmitter emitter{pages_};
  for (std::size_t lo = 0; lo < index.size();) {
    const std::string_view key = index[lo].key_view();
    std::size_t hi = lo;
    for (; hi < index.size() && index[hi].key_view() == key; ++hi) {
      // Assigning into a reused string keeps its capacity: no allocation
      // per value once the scratch has grown to the largest group.
      if (hi - lo == values_scratch_.size()) values_scratch_.emplace_back();
      values_scratch_[hi - lo].assign(index[hi].value_view());
    }
    key_scratch_.assign(key);
    fn(key_scratch_, std::span<const std::string>{values_scratch_.data(), hi - lo}, emitter);
    lo = hi;
  }
  counts_.assign(emitter.counts().begin(), emitter.counts().end());
  return comm_->allreduce_value<std::uint64_t>(sum(counts_), std::plus<>{});
}

std::uint64_t MapReduce::combine(const ReduceFn& fn) {
  PEACHY_CHECK(fn != nullptr, "combine: null callback");
  PEACHY_CHECK(phase_ == Phase::kMapped, "combine must follow map");
  const obs::SpanScope span{"mr", "combine"};
  return fold(sorted_index(pages_, sum(counts_)), fn);
}

std::uint64_t MapReduce::collate() {
  PEACHY_CHECK(phase_ == Phase::kMapped, "collate must follow map (or combine)");
  obs::SpanScope span{"mr", "collate"};
  const auto me = static_cast<std::size_t>(comm_->rank());

  // The pages already hold each destination's records in wire format.
  std::uint64_t pairs_out = 0, bytes_out = 0;
  for (std::size_t r = 0; r < pages_.size(); ++r) {
    if (r == me) continue;
    pairs_out += counts_[r];
    bytes_out += pages_[r].size();
  }
  const std::uint64_t pairs_before = sum(counts_);

  // Move the pages into the exchange: the self-page lands in the result
  // without a copy and every outgoing page rides the transport's zero-copy
  // adoption path.  The received pages (recv[r] from rank r) are the store.
  auto received = comm_->alltoall(std::move(pages_));
  pages_ = std::move(received);
  counts_.clear();
  index_ = sorted_index(pages_, 0);

  std::uint64_t keys = 0;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (i == 0 || index_[i].key_view() != index_[i - 1].key_view()) ++keys;
  }
  phase_ = Phase::kCollated;

  std::array<std::uint64_t, 4> totals{pairs_out, bytes_out, pairs_before, keys};
  comm_->allreduce_inplace<std::uint64_t>(totals, std::plus<>{});
  shuffle_stats_ = {totals[0], totals[1], totals[2]};
  span.arg("pairs_sent", static_cast<std::int64_t>(pairs_out));
  if (obs::enabled()) {
    static obs::Counter& sp = obs::counter("mr.shuffle_pairs");
    static obs::Counter& sb = obs::counter("mr.shuffle_bytes");
    sp.add(static_cast<std::int64_t>(pairs_out));
    sb.add(static_cast<std::int64_t>(bytes_out));
  }
  return totals[3];
}

std::uint64_t MapReduce::reduce(const ReduceFn& fn) {
  PEACHY_CHECK(fn != nullptr, "reduce: null callback");
  PEACHY_CHECK(phase_ == Phase::kCollated, "reduce must follow collate");
  const obs::SpanScope span{"mr", "reduce", "records",
                            static_cast<std::int64_t>(index_.size())};
  const std::vector<Record> index = std::exchange(index_, {});
  phase_ = Phase::kMapped;  // output pairs may be collated/reduced again
  return fold(index, fn);
}

std::vector<KeyValue> MapReduce::gather(int root) {
  const obs::SpanScope span{"mr", "gather"};
  Page sorted;
  for (const Record& rec : sorted_index(pages_, sum(counts_))) {
    append_record(sorted, rec.key_view(), rec.value_view());
  }
  const auto all = comm_->gather<std::byte>(sorted, root);
  if (comm_->rank() != root) return {};
  return deserialize_pairs(all);
}

}  // namespace peachy::mapreduce
