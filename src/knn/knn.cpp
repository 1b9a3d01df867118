#include "knn/knn.hpp"

#include <algorithm>
#include <map>

#include "kernels/kernels.hpp"
#include "knn/kdtree.hpp"
#include "support/check.hpp"
#include "support/parallel_for.hpp"
#include "support/timer.hpp"

namespace peachy::knn {

namespace {

void validate(const data::LabeledPoints& db, std::span<const double> query, std::size_t k) {
  PEACHY_CHECK(db.size() > 0, "knn: empty database");
  PEACHY_CHECK(db.labels.size() == db.size(), "knn: labels/points size mismatch");
  PEACHY_CHECK(query.size() == db.dims(), "knn: query dimension mismatch");
  PEACHY_CHECK(k >= 1, "knn: k must be at least 1");
}

}  // namespace

std::vector<Neighbor> query_sort(const data::LabeledPoints& db, std::span<const double> query,
                                 std::size_t k) {
  validate(db, query, k);
  // Batch all n distances through the rows kernel, then attach labels.
  std::vector<double> d2(db.size());
  kernels::squared_distances_rows(db.points.values().data(), db.size(), db.dims(),
                                  query.data(), d2.data());
  std::vector<Neighbor> all(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    all[i] = {d2[i], static_cast<std::uint32_t>(i), db.labels[i]};
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  return all;
}

std::vector<Neighbor> query_heap(const data::LabeledPoints& db, std::span<const double> query,
                                 std::size_t k) {
  validate(db, query, k);
  // Max-heap of the best k so far (push_bounded).  Distances are computed
  // a chunk at a time through the rows kernel so the heap bookkeeping
  // stays interleaved with vectorized batches.
  constexpr std::size_t kChunk = 256;
  std::vector<double> d2(std::min<std::size_t>(kChunk, db.size()));
  std::vector<Neighbor> heap;
  heap.reserve(k);
  for (std::size_t base = 0; base < db.size(); base += kChunk) {
    const std::size_t len = std::min(kChunk, db.size() - base);
    kernels::squared_distances_rows(db.points.values().data() + base * db.dims(), len,
                                    db.dims(), query.data(), d2.data());
    for (std::size_t r = 0; r < len; ++r) {
      const std::size_t i = base + r;
      push_bounded(heap, k, {d2[r], static_cast<std::uint32_t>(i), db.labels[i]});
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

std::int32_t majority_vote(std::span<const Neighbor> neighbors) {
  PEACHY_CHECK(!neighbors.empty(), "majority_vote: no neighbors");
  struct Tally {
    std::size_t count = 0;
    Neighbor nearest{1e308, 0, -1};
  };
  std::map<std::int32_t, Tally> tallies;
  for (const Neighbor& nb : neighbors) {
    Tally& t = tallies[nb.label];
    ++t.count;
    if (nb < t.nearest) t.nearest = nb;
  }
  const Tally* best = nullptr;
  std::int32_t best_label = -1;
  for (const auto& [label, t] : tallies) {
    const bool wins = best == nullptr || t.count > best->count ||
                      (t.count == best->count && t.nearest < best->nearest);
    if (wins) {
      best = &t;
      best_label = label;
    }
  }
  return best_label;
}

std::vector<std::int32_t> classify(const data::LabeledPoints& db, const data::PointSet& queries,
                                   const ClassifyOptions& opts, support::ThreadPool* pool,
                                   ClassifyStats* stats) {
  PEACHY_CHECK(queries.dims() == db.dims(), "classify: query dimension mismatch");
  PEACHY_CHECK(opts.threads >= 1, "classify: threads must be at least 1");
  PEACHY_CHECK(opts.threads == 1 || pool != nullptr,
               "classify: a thread pool is required for threads > 1");

  support::Stopwatch sw;
  std::vector<std::int32_t> out(queries.size(), -1);

  // Tree strategies build their index once, then share it across queries.
  std::unique_ptr<KdTree> tree;
  if (opts.selection == Selection::kKdTree) tree = std::make_unique<KdTree>(db);

  const auto classify_one = [&](std::size_t qi) {
    std::vector<Neighbor> nbs;
    switch (opts.selection) {
      case Selection::kSort:
        nbs = query_sort(db, queries.point(qi), opts.k);
        break;
      case Selection::kHeap:
        nbs = query_heap(db, queries.point(qi), opts.k);
        break;
      case Selection::kKdTree:
        nbs = tree->query(queries.point(qi), opts.k);
        break;
    }
    out[qi] = majority_vote(nbs);
  };

  if (opts.threads == 1) {
    for (std::size_t qi = 0; qi < queries.size(); ++qi) classify_one(qi);
  } else {
    support::parallel_for_threads(*pool, queries.size(), opts.threads,
                                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                                    for (std::size_t qi = lo; qi < hi; ++qi) classify_one(qi);
                                  });
  }

  if (stats != nullptr) {
    stats->seconds = sw.elapsed_s();
    stats->distance_evals = opts.selection == Selection::kKdTree
                                ? tree->distance_evals()
                                : static_cast<std::uint64_t>(db.size()) * queries.size();
  }
  return out;
}

double accuracy(std::span<const std::int32_t> predicted, std::span<const std::int32_t> truth) {
  PEACHY_CHECK(predicted.size() == truth.size() && !predicted.empty(),
               "accuracy: size mismatch or empty input");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) hits += predicted[i] == truth[i];
  return static_cast<double>(hits) / static_cast<double>(predicted.size());
}

}  // namespace peachy::knn
