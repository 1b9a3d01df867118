#include "kmeans/mpi_kmeans.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>

#include "kernels/kernels.hpp"
#include "kmeans/detail.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::kmeans {

Result cluster_mpi(mpi::Comm& comm, const data::PointSet& points, const Options& opts,
                   MpiKmeansStats* stats, const faults::FtOptions& ft) {
  const int root = 0;

  // Broadcast problem shape, then scatter point blocks.
  struct Shape {
    std::uint64_t n, d;
  };
  Shape shape{points.size(), points.dims()};
  shape = comm.broadcast_value(shape, root);
  if (comm.rank() == root) {
    detail::validate(points, opts);
    PEACHY_CHECK(points.size() == shape.n, "cluster_mpi: root dataset changed during setup");
  }

  // Scatter raw coordinates in whole-point blocks.  scatter_blocks splits
  // a flat array evenly, which could cut a point in half — so scatter an
  // index-block-aligned payload instead: compute this rank's point range
  // and receive exactly those rows, straight into the aligned storage of
  // this rank's PointSet (no intermediate vector to copy from).
  const auto my_block = support::static_block(
      shape.n, static_cast<std::size_t>(comm.size()), static_cast<std::size_t>(comm.rank()));
  data::PointSet my_points{my_block.end - my_block.begin, shape.d};
  {
    const int tag = 1001;
    if (comm.rank() == root) {
      for (int r = 0; r < comm.size(); ++r) {
        const auto blk = support::static_block(shape.n, static_cast<std::size_t>(comm.size()),
                                               static_cast<std::size_t>(r));
        std::span<const double> rows{points.values().data() + blk.begin * shape.d,
                                     (blk.end - blk.begin) * shape.d};
        if (r == root) {
          std::copy(rows.begin(), rows.end(), my_points.mutable_values().begin());
        } else {
          comm.send<double>(r, tag, rows);
        }
      }
    } else {
      (void)comm.recv_into<double>(my_points.mutable_values(), root, tag);
    }
  }

  // Identical initial centroids everywhere: root computes, broadcasts.
  // (Copied out of the aligned backing store: the wire format is a plain
  // std::vector.)
  std::vector<double> centroid_values;
  if (comm.rank() == root) {
    const data::PointSet init = initial_centroids(points, opts);
    centroid_values.assign(init.values().begin(), init.values().end());
  }
  comm.broadcast(centroid_values, root);
  data::PointSet centroids{opts.k, shape.d, std::move(centroid_values)};

  Result res;
  res.assignment.assign(my_points.size(), -1);
  const std::size_t k = opts.k;
  const std::size_t d = shape.d;

  // Restart: replace the broadcast initial centroids and the virgin (-1)
  // assignment with the snapshot's, so the first resumed iteration counts
  // `changes` against the pre-crash assignment exactly as an uninterrupted
  // run would.
  std::size_t first_iter = 1;
  if (ft.active()) {
    if (const auto snap = ft.store->load(ft.key)) {
      faults::BlobReader r{snap->blob};
      auto cvals = r.get_vec<double>();
      PEACHY_CHECK(cvals.size() == k * d, "kmeans restart: snapshot centroid shape mismatch");
      centroids = data::PointSet{k, d, std::move(cvals)};
      res.changes_per_iteration = r.get_vec<std::size_t>();
      const auto full_assign = r.get_vec<std::int32_t>();
      PEACHY_CHECK(full_assign.size() == shape.n, "kmeans restart: snapshot point count mismatch");
      std::copy(full_assign.begin() + static_cast<std::ptrdiff_t>(my_block.begin),
                full_assign.begin() + static_cast<std::ptrdiff_t>(my_block.end),
                res.assignment.begin());
      first_iter = static_cast<std::size_t>(snap->next_step);
      if (obs::enabled()) obs::counter("faults.restores").add(1);
    }
  }

  // Hamerly bounds (Hamerly, "Making k-means even faster", SDM 2010).
  // Per local point, upper is at least the distance to its own centroid
  // and lower at most the distance to every other centroid.  After a scan
  // they are √ of the kernel's best and second-best d²; after each
  // centroid update upper grows by the point's own centroid move and
  // lower shrinks by the largest move (triangle inequality).  A point is
  // scanned again only when
  //
  //     !(upper < lower·(1 − ε) − 2ε·drift),   ε = kBoundSlack = 1e-9,
  //
  // drift being the sum of every iteration's largest move so far.
  //
  // Why a skip keeps the index the full scan would pick: each d² is a sum
  // of d squared rounded differences, within a relative (d+2)·2⁻⁵³ of the
  // exact value (≈2e-15 at d=16), and each move carries the same relative
  // error.  upper is a sum of non-negative terms, so its error stays
  // relative to upper, plus one rounding per iteration since the last
  // scan (below 1e-10 even after a million unscanned iterations).  lower
  // can cancel, but its error is relative to the terms it was built from,
  // which sum to at most lower + 2·drift.  ε covers each of these errors
  // with room to spare, so a skipped point's own centroid is nearer than
  // every other by a relative gap no rounding can close, and the scan
  // would return the same index.  At an exact tie the two distances
  // agree, so upper >= lower and the point is scanned; NaN or ±inf in a
  // bound fails the comparison and scans too.
  //
  // Iteration 1 and the first resumed iteration scan every point: bounds
  // are not part of the snapshot, which keeps its format unchanged.
  constexpr double kBoundSlack = 1e-9;
  const std::size_t n_local = my_points.size();
  PEACHY_CHECK(n_local <= static_cast<std::size_t>(INT32_MAX),
               "cluster_mpi: rank block exceeds the int32 row list");
  std::vector<double> upper(n_local), lower(n_local);
  std::vector<std::int32_t> rows(n_local);  // the points this iteration scans
  for (std::size_t i = 0; i < n_local; ++i) rows[i] = static_cast<std::int32_t>(i);
  std::vector<double> moves(k);
  double drift = 0.0;

  std::vector<double> sums(k * d);
  std::vector<std::int64_t> counts(k + 1);  // counts[k] carries the change count
  for (res.iterations = first_iter; res.iterations <= opts.max_iterations; ++res.iterations) {
    // Local phase: rescan the listed points; the kernel updates their
    // assignment and leaves best and second-best d² in upper and lower.
    const auto panel = centroids.transposed_panel();
    const std::size_t changes = kernels::argmin2_rows(
        my_points.values().data(), rows.data(), rows.size(), d, panel.data(), k, panel.padded,
        res.assignment.data(), upper.data(), lower.data());
    for (const std::int32_t r : rows) {
      const auto i = static_cast<std::size_t>(r);
      upper[i] = std::sqrt(upper[i]);
      lower[i] = std::sqrt(lower[i]);
    }
    if (obs::enabled()) {
      static obs::Counter& scanned = obs::counter("kmeans.points_scanned");
      static obs::Counter& skipped = obs::counter("kmeans.points_skipped");
      scanned.add(static_cast<std::int64_t>(rows.size()));
      skipped.add(static_cast<std::int64_t>(n_local - rows.size()));
    }

    // Every point, scanned or skipped, adds to its cluster in point order
    // (argmin_assign's order), so sums are the unbounded scan's bit for bit.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n_local; ++i) {
      const auto c = static_cast<std::size_t>(res.assignment[i]);
      const double* p = my_points.values().data() + i * d;
      double* dst = sums.data() + c * d;
      for (std::size_t j = 0; j < d; ++j) dst[j] += p[j];
      ++counts[c];
    }
    counts[k] = static_cast<std::int64_t>(changes);

    // The distributed reduction the assignment is about — in place, so
    // the per-iteration loop allocates nothing for transport.  The change
    // count rides along as the last element of the counts reduction.
    comm.allreduce_inplace<double>(std::span<double>{sums}, std::plus<>{});
    comm.allreduce_inplace<std::int64_t>(std::span<std::int64_t>{counts}, std::plus<>{});

    const bool done = detail::end_iteration(
        opts, static_cast<std::size_t>(counts[k]), sums,
        std::span<const std::int64_t>{counts}.first(k), centroids, res, moves);

    // Iteration-boundary checkpoint.  The terminating iteration is never
    // saved: a snapshot does not record that the run had stopped, so a
    // rerun resumes before the stop and re-derives it.  The assignment is
    // distributed, so the snapshot costs one extra allgather per
    // checkpoint (that cost is what T-FLT-1 measures); every rank
    // participates in the collective, rank 0 alone writes the blob.
    if (!done && ft.active() && res.iterations % static_cast<std::size_t>(ft.every) == 0) {
      std::vector<std::int32_t> full_assign(shape.n);
      comm.allgather_into<std::int32_t>(res.assignment, std::span<std::int32_t>{full_assign});
      if (comm.rank() == 0) {
        faults::BlobWriter w;
        w.put_span(centroids.values().data(), k * d);
        w.put_vec(res.changes_per_iteration);
        w.put_vec(full_assign);
        ft.store->save(ft.key, faults::Snapshot{res.iterations + 1, std::move(w).take()});
        if (obs::enabled()) obs::counter("faults.checkpoints").add(1);
      }
    }

    if (done) break;

    // Move the bounds with the centroids and list the points they cannot
    // clear.  A NaN move counts as an infinite one: every bound fails.
    double max_move = 0.0;
    for (const double m : moves) {
      if (!(m <= max_move)) {
        max_move = std::isnan(m) ? std::numeric_limits<double>::infinity() : m;
      }
    }
    drift += max_move;
    const double slack = 2.0 * kBoundSlack * drift;
    rows.clear();
    for (std::size_t i = 0; i < n_local; ++i) {
      upper[i] += moves[static_cast<std::size_t>(res.assignment[i])];
      lower[i] -= max_move;
      if (!(upper[i] < lower[i] * (1.0 - kBoundSlack) - slack)) {
        rows.push_back(static_cast<std::int32_t>(i));
      }
    }
  }

  // Collect the distributed results: assignments in rank order equal the
  // original point order because the blocks are contiguous (static_block
  // is exactly the layout allgather_into expects), so the ring exchange
  // can land every block straight into the full-size result.
  std::vector<std::int32_t> all_assign(shape.n);
  comm.allgather_into<std::int32_t>(res.assignment, std::span<std::int32_t>{all_assign});
  res.assignment = std::move(all_assign);
  res.centroids = std::move(centroids);

  // Inertia via one more distributed reduction.
  double local_inertia = 0.0;
  for (std::size_t i = 0; i < my_points.size(); ++i) {
    local_inertia += res.centroids.squared_distance(
        static_cast<std::size_t>(res.assignment[my_block.begin + i]), my_points.point(i));
  }
  res.inertia = comm.allreduce_value(local_inertia, std::plus<>{});

  if (stats != nullptr) {
    stats->messages = comm.traffic().messages;
    stats->bytes = comm.traffic().bytes;
    stats->iterations = res.iterations;
  }
  return res;
}

}  // namespace peachy::kmeans
