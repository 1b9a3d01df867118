#pragma once
/// \file knn_fwd.hpp
/// \brief Shared kNN value types (used by both the brute-force strategies
/// and the k-d tree without a circular include).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace peachy::knn {

/// One retrieved neighbor.
struct Neighbor {
  double dist2 = 0.0;       ///< squared Euclidean distance
  std::uint32_t index = 0;  ///< database row
  std::int32_t label = -1;  ///< database class

  /// Ordering for deterministic results: by distance, then index.
  friend bool operator<(const Neighbor& a, const Neighbor& b) noexcept {
    return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.index < b.index;
  }
  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Offer `cand` to `heap`, a max-heap of the best `k` so far: the root is
/// the worst of the best, so a better candidate replaces it in O(log k).
/// Strictly better only — an equal candidate never evicts the root.
inline void push_bounded(std::vector<Neighbor>& heap, std::size_t k, const Neighbor& cand) {
  if (heap.size() < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end());
  } else if (cand < heap.front()) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end());
  }
}

}  // namespace peachy::knn
