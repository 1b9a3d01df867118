#pragma once
/// \file mapreduce.hpp
/// \brief MapReduce over mini-MPI, after Plimpton & Devine's MapReduce-MPI.
///
/// The kNN assignment (paper §2) is written against MapReduce-MPI: a C++
/// library that layers map / collate / reduce phases over MPI.  peachy's
/// engine mirrors that phase structure:
///
///   MapReduce mr{comm};
///   mr.map(ntasks, [&](std::size_t task, KvEmitter& out) { ... });
///   mr.combine(combiner);   // optional local pre-reduction (the paper's
///                           // "local reductions ... noticeably improves
///                           // the communication cost")
///   mr.collate();           // hash shuffle + group by key
///   mr.reduce([&](key, values, KvEmitter& out) { ... });
///   auto pairs = mr.gather(0);
///
/// Keys and values are binary-safe byte strings; typed helpers pack/unpack
/// trivially copyable records.  The engine counts pairs and bytes moved by
/// the shuffle so experiment T-kNN-3 can report the local-combine ablation.
///
/// Storage (MR-MPI's KV pages).  Pairs live in pages, one per destination
/// rank.  A page is a byte vector of records laid end to end:
///
///   [u32 klen][key bytes][u32 vlen][value bytes]   (native byte order)
///
/// which is also the wire format: map, combine and reduce append records
/// straight into the page of the rank that owns the key (owner_of), collate
/// moves the pages through alltoall as they are, and the received pages
/// become the store.  serialize_pairs/deserialize_pairs encode and decode
/// the same format with the same bounds-checked record walker.
///
/// Grouping order.  After collate, reduce sees each rank's keys in
/// ascending byte order, and each key's values in (source rank, emission)
/// order.  combine groups the same way over the rank's own pairs (emission
/// order within a key), and gather returns each rank's pairs stably sorted
/// by key, ranks in order.

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpi/mpi.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"

namespace peachy::mapreduce {

/// One key-value pair.  Both fields are binary-safe.
struct KeyValue {
  std::string key;
  std::string value;

  friend bool operator==(const KeyValue&, const KeyValue&) = default;
  friend auto operator<=>(const KeyValue&, const KeyValue&) = default;
};

/// A KV page: records [u32 klen][key][u32 vlen][value], back to back.
using Page = std::vector<std::byte>;

/// Append one record to a page (the page encoder).
inline void append_record(Page& page, std::string_view key, std::string_view value) {
  PEACHY_CHECK(key.size() <= UINT32_MAX && value.size() <= UINT32_MAX,
               "mapreduce: key or value longer than 4 GiB");
  const auto klen = static_cast<std::uint32_t>(key.size());
  const auto vlen = static_cast<std::uint32_t>(value.size());
  const std::size_t at = page.size();
  page.resize(at + 2 * sizeof(std::uint32_t) + klen + vlen);
  std::byte* p = page.data() + at;
  std::memcpy(p, &klen, sizeof klen);
  p += sizeof klen;
  if (klen != 0) std::memcpy(p, key.data(), klen);
  p += klen;
  std::memcpy(p, &vlen, sizeof vlen);
  p += sizeof vlen;
  if (vlen != 0) std::memcpy(p, value.data(), vlen);
}

/// Sink passed to map and reduce callbacks: appends each pair to the page
/// of the rank that owns its key, fnv1a64(key) % pages.size().
class KvEmitter {
 public:
  explicit KvEmitter(std::span<Page> pages) : pages_{pages}, counts_(pages.size(), 0) {
    PEACHY_CHECK(!pages.empty(), "KvEmitter: need at least one page");
  }

  void emit(std::string_view key, std::string_view value) {
    const std::size_t dst = pages_.size() == 1 ? 0 : support::fnv1a64(key) % pages_.size();
    append_record(pages_[dst], key, value);
    ++counts_[dst];
  }

  /// Emit with a trivially copyable value payload.
  template <typename T>
  void emit_record(std::string_view key, const T& record) {
    static_assert(std::is_trivially_copyable_v<T>);
    emit(key, std::string_view{reinterpret_cast<const char*>(&record), sizeof(T)});
  }

  /// Pairs emitted so far into each page.
  [[nodiscard]] std::span<const std::uint64_t> counts() const noexcept { return counts_; }

 private:
  std::span<Page> pages_;
  std::vector<std::uint64_t> counts_;
};

/// Decode a value emitted with emit_record.
template <typename T>
[[nodiscard]] T unpack_record(std::string_view value) {
  static_assert(std::is_trivially_copyable_v<T>);
  PEACHY_CHECK(value.size() == sizeof(T), "unpack_record: value size mismatch");
  T out;
  std::memcpy(&out, value.data(), sizeof(T));
  return out;
}

namespace detail {

/// A record located in place inside a page: the key starts at `key`, the
/// value sizeof(u32) bytes after the key's end.
struct Record {
  const char* key = nullptr;
  std::uint32_t klen = 0;
  std::uint32_t vlen = 0;

  [[nodiscard]] std::string_view key_view() const noexcept { return {key, klen}; }
  [[nodiscard]] std::string_view value_view() const noexcept {
    return {key + klen + sizeof(std::uint32_t), vlen};
  }
};

}  // namespace detail

/// Shuffle telemetry from the most recent collate().
struct ShuffleStats {
  std::uint64_t pairs_sent = 0;    ///< pairs leaving this run's ranks (total)
  std::uint64_t bytes_sent = 0;    ///< serialized bytes moved by the shuffle
  std::uint64_t pairs_before = 0;  ///< pairs that existed before the shuffle
};

/// The MapReduce engine.  One instance per rank, driven collectively: all
/// ranks must call each phase in the same order (like MR-MPI).
class MapReduce {
 public:
  /// Callback for map: produce pairs for one task.
  using MapFn = std::function<void(std::size_t task, KvEmitter& out)>;
  /// Callback for reduce/combine: fold one key's value list into output pairs.
  using ReduceFn = std::function<void(const std::string& key,
                                      std::span<const std::string> values, KvEmitter& out)>;

  explicit MapReduce(mpi::Comm& comm) noexcept : comm_{&comm} {}

  /// Run `ntasks` map tasks, distributed cyclically over ranks (MR-MPI's
  /// default task assignment).  Returns the global number of pairs emitted.
  std::uint64_t map(std::size_t ntasks, const MapFn& fn);

  /// Local pre-reduction: group this rank's pairs by key and fold each
  /// group with `fn` — no communication.  Returns the global pair count
  /// after combining.
  std::uint64_t combine(const ReduceFn& fn);

  /// Hash-shuffle pairs so all values of a key land on rank
  /// hash(key) % size, then group by key.  Returns the global number of
  /// distinct keys.
  std::uint64_t collate();

  /// Fold each local key group; must follow collate().  Returns the global
  /// number of pairs produced.
  std::uint64_t reduce(const ReduceFn& fn);

  /// Collect every rank's pairs at `root` (rank order, key-sorted within
  /// rank); other ranks get {}.
  [[nodiscard]] std::vector<KeyValue> gather(int root);

  /// Telemetry from the most recent collate().
  [[nodiscard]] const ShuffleStats& shuffle_stats() const noexcept { return shuffle_stats_; }

  /// The rank that owns a key under the shuffle hash.
  [[nodiscard]] int owner_of(std::string_view key) const noexcept {
    return static_cast<int>(support::fnv1a64(key) % static_cast<std::uint64_t>(comm_->size()));
  }

 private:
  enum class Phase { kEmpty, kMapped, kCollated };

  /// Fold the key groups of the sorted `index` with `fn` into fresh pages,
  /// replacing the store.  Returns the global number of pairs produced.
  std::uint64_t fold(const std::vector<detail::Record>& index, const ReduceFn& fn);

  mpi::Comm* comm_;
  std::vector<Page> pages_;      // the store: after map/combine/reduce one
                                 // page per destination rank, after collate
                                 // one page per source rank
  std::vector<detail::Record> index_;  // collate's key-sorted view of pages_
  std::vector<std::uint64_t> counts_;  // pairs per page, as emitted
  std::string key_scratch_;            // reduce/combine callback arguments
  std::vector<std::string> values_scratch_;
  Phase phase_ = Phase::kEmpty;
  ShuffleStats shuffle_stats_;
};

/// Serialize pairs into a byte buffer (the page format) and back — exposed
/// for tests.  deserialize_pairs throws a peachy::Error on a malformed
/// buffer.
[[nodiscard]] std::vector<std::byte> serialize_pairs(std::span<const KeyValue> pairs);
[[nodiscard]] std::vector<KeyValue> deserialize_pairs(std::span<const std::byte> bytes);

}  // namespace peachy::mapreduce
