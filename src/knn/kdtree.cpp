#include "knn/kdtree.hpp"

#include <algorithm>
#include <future>
#include <numeric>

#include "kernels/kernels.hpp"
#include "support/check.hpp"

namespace peachy::knn {

KdTree::KdTree(const data::LabeledPoints& db, std::size_t leaf_size, support::ThreadPool* pool)
    : db_{&db} {
  PEACHY_CHECK(db.size() > 0, "kdtree: empty database");
  PEACHY_CHECK(db.labels.size() == db.size(), "kdtree: labels/points size mismatch");
  PEACHY_CHECK(leaf_size >= 1, "kdtree: leaf size must be positive");
  order_.resize(db.size());
  std::iota(order_.begin(), order_.end(), 0u);
  if (pool != nullptr && pool->thread_count() > 1 && db.size() > 4 * leaf_size) {
    build_parallel(leaf_size, *pool);
  } else {
    root_ = build_into(nodes_, 0, static_cast<std::uint32_t>(db.size()), leaf_size);
  }
}

bool KdTree::try_split(std::uint32_t begin, std::uint32_t end, std::size_t leaf_size,
                       Node& node, std::uint32_t& mid) {
  const std::size_t d = db_->dims();
  node.box_min.assign(d, 1e308);
  node.box_max.assign(d, -1e308);
  for (std::uint32_t i = begin; i < end; ++i) {
    const auto p = db_->points.point(order_[i]);
    for (std::size_t j = 0; j < d; ++j) {
      node.box_min[j] = std::min(node.box_min[j], p[j]);
      node.box_max[j] = std::max(node.box_max[j], p[j]);
    }
  }
  node.begin = begin;
  node.end = end;
  node.left = -1;
  node.right = -1;

  const std::size_t count = end - begin;
  if (count <= leaf_size) return false;

  // Split the widest dimension at the median.
  std::size_t split_dim = 0;
  double widest = -1.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double w = node.box_max[j] - node.box_min[j];
    if (w > widest) {
      widest = w;
      split_dim = j;
    }
  }
  if (widest <= 0.0) return false;  // all points identical: one (large) leaf

  mid = begin + static_cast<std::uint32_t>(count / 2);
  std::nth_element(order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
                   [&](std::uint32_t a, std::uint32_t b) {
                     return db_->points.at(a, split_dim) < db_->points.at(b, split_dim);
                   });
  return true;
}

std::int32_t KdTree::build_into(std::vector<Node>& out, std::uint32_t begin, std::uint32_t end,
                                std::size_t leaf_size) {
  Node node;
  std::uint32_t mid = 0;
  if (try_split(begin, end, leaf_size, node, mid)) {
    const auto id = static_cast<std::int32_t>(out.size());
    out.push_back(std::move(node));
    const std::int32_t left = build_into(out, begin, mid, leaf_size);
    const std::int32_t right = build_into(out, mid, end, leaf_size);
    out[static_cast<std::size_t>(id)].left = left;
    out[static_cast<std::size_t>(id)].right = right;
    return id;
  }
  const auto id = static_cast<std::int32_t>(out.size());
  out.push_back(std::move(node));
  return id;
}

void KdTree::build_parallel(std::size_t leaf_size, support::ThreadPool& pool) {
  // Phase 1 (sequential): split the top of the tree until the frontier
  // has ~2x the worker count of subranges.  Skeleton nodes land in
  // nodes_; each frontier entry remembers which child slot it fills.
  struct Pending {
    std::int32_t parent;  // -1 for the root itself
    bool is_left = false;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  const std::size_t target = 2 * pool.thread_count();
  std::vector<Pending> frontier{{-1, false, 0, static_cast<std::uint32_t>(db_->size())}};
  std::vector<Pending> next;
  while (frontier.size() < target) {
    bool split_any = false;
    next.clear();
    for (const Pending& task : frontier) {
      Node node;
      std::uint32_t mid = 0;
      if (frontier.size() + next.size() < 2 * target &&
          try_split(task.begin, task.end, leaf_size, node, mid)) {
        const auto id = static_cast<std::int32_t>(nodes_.size());
        nodes_.push_back(std::move(node));
        if (task.parent >= 0) {
          auto& slot = nodes_[static_cast<std::size_t>(task.parent)];
          (task.is_left ? slot.left : slot.right) = id;
        } else {
          root_ = id;
        }
        next.push_back({id, true, task.begin, mid});
        next.push_back({id, false, mid, task.end});
        split_any = true;
      } else {
        // Unsplittable range: keep as a frontier leaf-task.
        next.push_back(task);
      }
    }
    frontier.swap(next);
    if (!split_any) break;
  }

  // Phase 2 (parallel): build each frontier subtree into its own fragment.
  struct Fragment {
    std::vector<Node> nodes;
    std::int32_t root = -1;
  };
  std::vector<std::future<Fragment>> futs;
  futs.reserve(frontier.size());
  for (const Pending& task : frontier) {
    futs.push_back(pool.submit_future([this, task, leaf_size] {
      Fragment f;
      f.root = build_into(f.nodes, task.begin, task.end, leaf_size);
      return f;
    }));
  }

  // Phase 3 (sequential): merge fragments, rebasing child ids.
  for (std::size_t t = 0; t < frontier.size(); ++t) {
    Fragment f = futs[t].get();
    const auto base = static_cast<std::int32_t>(nodes_.size());
    for (Node& node : f.nodes) {
      if (node.left >= 0) node.left += base;
      if (node.right >= 0) node.right += base;
      nodes_.push_back(std::move(node));
    }
    const Pending& task = frontier[t];
    if (task.parent >= 0) {
      auto& slot = nodes_[static_cast<std::size_t>(task.parent)];
      (task.is_left ? slot.left : slot.right) = base + f.root;
    } else {
      root_ = base + f.root;
    }
  }
}

double KdTree::box_lower_bound(const Node& node, std::span<const double> q) const {
  double lb = 0.0;
  for (std::size_t j = 0; j < q.size(); ++j) {
    double gap = 0.0;
    if (q[j] < node.box_min[j]) {
      gap = node.box_min[j] - q[j];
    } else if (q[j] > node.box_max[j]) {
      gap = q[j] - node.box_max[j];
    }
    lb += gap * gap;
  }
  return lb;
}

void KdTree::search(std::int32_t node_id, std::span<const double> q, std::size_t k,
                    std::vector<Neighbor>& heap) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];
  // Prune: the best possible distance in this box cannot beat our k-th
  // best.  Strictly greater — a box at exactly the k-th distance may hold
  // an equal-distance lower-index point, which the deterministic
  // (dist, index) ordering must keep.
  if (heap.size() == k && box_lower_bound(node, q) > heap.front().dist2) return;

  if (node.left < 0) {  // leaf
    // Straight to the pair kernel: the leaf scan is the kd-tree's hot
    // loop, and the span/precondition wrapper costs more than the
    // distance at small d.
    const double* pts = db_->points.values().data();
    const std::size_t dims = db_->points.dims();
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      const std::uint32_t idx = order_[i];
      const Neighbor cand{kernels::squared_distance(pts + idx * dims, q.data(), dims), idx,
                          db_->labels[idx]};
      distance_evals_.fetch_add(1, std::memory_order_relaxed);
      push_bounded(heap, k, cand);
    }
    return;
  }
  // Visit the child whose box is nearer to the query first: tightens the
  // bound sooner, pruning the sibling more often.
  const double dl = box_lower_bound(nodes_[static_cast<std::size_t>(node.left)], q);
  const double dr = box_lower_bound(nodes_[static_cast<std::size_t>(node.right)], q);
  if (dl <= dr) {
    search(node.left, q, k, heap);
    search(node.right, q, k, heap);
  } else {
    search(node.right, q, k, heap);
    search(node.left, q, k, heap);
  }
}

std::vector<Neighbor> KdTree::query(std::span<const double> query, std::size_t k) const {
  PEACHY_CHECK(query.size() == db_->dims(), "kdtree: query dimension mismatch");
  PEACHY_CHECK(k >= 1, "kdtree: k must be at least 1");
  std::vector<Neighbor> heap;
  heap.reserve(k);
  search(root_, query, k, heap);
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

}  // namespace peachy::knn
