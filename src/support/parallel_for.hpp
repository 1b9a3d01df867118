#pragma once
/// \file parallel_for.hpp
/// \brief OpenMP-style parallel loop and reduction helpers.
///
/// The k-means and kNN assignments are written, in the paper, against
/// `#pragma omp parallel for` with `critical` / `atomic` / `reduction`
/// clauses.  peachy reproduces that programming model as a library:
///
///   parallel_for(0, n, [&](std::size_t i){ ... });                 // omp for
///   parallel_reduce(0, n, 0.0, plus, [&](i){ return f(i); });      // reduction
///   parallel_for_threads(t, [&](tid, lo, hi){ ... });              // static schedule,
///                                                                  // explicit thread id
///
/// All run on a caller-supplied ThreadPool (or the process-shared one), and
/// `parallel_for_threads` guarantees the *static block schedule* OpenMP uses
/// by default — required by the traffic assignment, whose reproducibility
/// argument depends on each thread knowing exactly which iterations it owns.

#include <cstddef>
#include <functional>
#include <vector>

#include "analysis/hooks.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace peachy::support {

/// Static block partition of [0,n): block `t` of `parts` is [begin,end).
struct BlockRange {
  std::size_t begin;
  std::size_t end;
};

/// Compute the t-th block of a near-even static partition of [0,n) into
/// `parts` blocks (first n%parts blocks get one extra element — the same
/// rule OpenMP static scheduling and Chapel's Block distribution use).
[[nodiscard]] inline BlockRange static_block(std::size_t n, std::size_t parts, std::size_t t) {
  PEACHY_CHECK(parts > 0, "static_block: parts must be positive");
  PEACHY_CHECK(t < parts, "static_block: index out of range");
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t begin = t * base + std::min(t, extra);
  const std::size_t len = base + (t < extra ? 1 : 0);
  return {begin, begin + len};
}

/// Default grain for the element-wise parallel_for: loops at or below
/// this many iterations run their blocks inline on the calling thread.
/// Sized so that a body has to be worth at least a few microseconds total
/// before task dispatch (futures + wakeups) can pay for itself.
inline constexpr std::size_t kInlineGrain = 2048;

/// Run body(tid, lo, hi) on `threads` pool tasks, one per static block of
/// [0,n).  Blocks until all complete.  Equivalent to
/// `#pragma omp parallel num_threads(threads)` + static for schedule.
///
/// `inline_exec` switches only the *physical* dispatch (run the blocks on
/// the calling thread instead of pool tasks); the logical structure —
/// block partition, epoch, per-block task scopes — is identical either
/// way, so the analysis layer sees the same parallel region.
template <typename Body>
void parallel_for_threads(ThreadPool& pool, std::size_t n, std::size_t threads, Body&& body,
                          bool inline_exec = false) {
  PEACHY_CHECK(threads > 0, "parallel_for_threads: threads must be positive");
  const obs::SpanScope region_span{"par", "parallel_for", "n",
                                   static_cast<std::int64_t>(n)};
  // One epoch per region: blocks of the same region may race with each
  // other, blocks of different regions are separated by the join below.
  // Identities are published even on the inline path — the analysis layer
  // reasons about the *logical* parallel structure, so a race is caught
  // regardless of how many cores actually ran the blocks.
  const std::uint64_t epoch = analysis::begin_parallel_region();
  // Nested parallelism guard: a pool worker blocking on futures that only
  // its own pool can run is the classic fork-join deadlock.  When the
  // caller is already one of this pool's workers, run the blocks inline —
  // outer-level parallelism already covers the machine.
  if (threads == 1 || inline_exec || pool.worker_index() != static_cast<std::size_t>(-1)) {
    for (std::size_t t = 0; t < threads; ++t) {
      const BlockRange r = static_block(n, threads, t);
      const analysis::TaskScope scope{t, epoch};
      body(t, r.begin, r.end);
    }
    return;
  }
  std::vector<std::future<void>> futs;
  futs.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    const BlockRange r = static_block(n, threads, t);
    futs.push_back(pool.submit_future([&body, t, r, epoch] {
      const analysis::TaskScope scope{t, epoch};
      body(t, r.begin, r.end);
    }));
  }
  for (auto& f : futs) f.get();  // rethrows the first worker exception
}

/// Element-wise parallel for over [begin,end) with static chunking across
/// the whole pool.  `body(i)` must be safe to run concurrently for
/// distinct i.
///
/// Loops of at most `grain` iterations run inline on the calling thread
/// (same partition, same logical region — just no task dispatch), so tiny
/// loops don't pay futures-and-wakeups overhead that dwarfs their work.
/// Pass grain = 0 to always dispatch: bodies that are expensive per
/// iteration (or callers measuring dispatch itself) want pool tasks even
/// for small n.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, Body&& body,
                  std::size_t grain = kInlineGrain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t parts = std::min(n, pool.thread_count());
  const bool inline_exec = grain != 0 && n <= grain;
  parallel_for_threads(
      pool, n, parts,
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(begin + i);
      },
      inline_exec);
}

/// Convenience overload on the shared pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body) {
  parallel_for(ThreadPool::shared(), begin, end, std::forward<Body>(body));
}

/// Parallel reduction: combines `map(i)` for i in [begin,end) with `op`,
/// starting from `init` (per-thread), then combines partials in thread
/// order — deterministic for a fixed thread count.
template <typename T, typename Op, typename Map>
[[nodiscard]] T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end, T init,
                                Op op, Map map) {
  if (begin >= end) return init;
  const std::size_t n = end - begin;
  const std::size_t parts = std::min(n, pool.thread_count());
  std::vector<T> partials(parts, init);
  parallel_for_threads(pool, n, parts, [&](std::size_t t, std::size_t lo, std::size_t hi) {
    T acc = init;
    for (std::size_t i = lo; i < hi; ++i) acc = op(std::move(acc), map(begin + i));
    partials[t] = std::move(acc);
  });
  T total = std::move(partials[0]);
  for (std::size_t t = 1; t < parts; ++t) total = op(std::move(total), std::move(partials[t]));
  return total;
}

}  // namespace peachy::support
