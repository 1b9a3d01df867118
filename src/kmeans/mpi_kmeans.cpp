#include "kmeans/mpi_kmeans.hpp"

#include <algorithm>

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
  // and receive exactly those rows.
  const auto my_block = support::static_block(
      shape.n, static_cast<std::size_t>(comm.size()), static_cast<std::size_t>(comm.rank()));
  std::vector<double> my_values;
  {
    const int tag = 1001;
    if (comm.rank() == root) {
      for (int r = 0; r < comm.size(); ++r) {
        const auto blk = support::static_block(shape.n, static_cast<std::size_t>(comm.size()),
                                               static_cast<std::size_t>(r));
        std::span<const double> rows{points.values().data() + blk.begin * shape.d,
                                     (blk.end - blk.begin) * shape.d};
        if (r == root) {
          my_values.assign(rows.begin(), rows.end());
        } else {
          comm.send<double>(r, tag, rows);
        }
      }
    } else {
      my_values = comm.recv<double>(root, tag);
    }
  }
  const data::PointSet my_points{my_block.end - my_block.begin, shape.d, std::move(my_values)};

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

  for (res.iterations = first_iter; res.iterations <= opts.max_iterations; ++res.iterations) {
    // Local phase: one fused-kernel pass over this rank's block — the
    // same kernel the shared-memory variants run, so assignments agree
    // bit-for-bit with them.
    std::vector<double> sums(k * d, 0.0);
    std::vector<std::int64_t> counts(k, 0);
    const auto panel = centroids.transposed_panel();
    auto changes = static_cast<std::uint64_t>(kernels::argmin_assign(
        my_points.values().data(), my_points.size(), d, panel.data(), k, panel.padded,
        res.assignment.data(), sums.data(), counts.data()));

    // The distributed reduction the assignment is about — in place, so
    // the per-iteration loop allocates nothing for transport.
    comm.allreduce_inplace<double>(std::span<double>{sums}, std::plus<>{});
    comm.allreduce_inplace<std::int64_t>(std::span<std::int64_t>{counts}, std::plus<>{});
    changes = comm.allreduce_value<std::uint64_t>(changes, std::plus<>{});

    const bool done = detail::end_iteration(opts, static_cast<std::size_t>(changes), sums,
                                            counts, centroids, res);

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
