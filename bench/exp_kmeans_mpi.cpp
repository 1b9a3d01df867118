/// \file exp_kmeans_mpi.cpp
/// \brief Experiment T-KM-2 (paper §3): the distributed-memory k-means —
/// scattered data, per-iteration distributed reductions, collective
/// result gathering — with the mini-MPI traffic counters exposed.

#include <iostream>

#include "data/points.hpp"
#include "kmeans/kmeans.hpp"
#include "kmeans/mpi_kmeans.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  peachy::support::Cli cli{argc, argv};
  const auto n = cli.get<std::size_t>("n", 40000, "points");
  const auto d = cli.get<std::size_t>("d", 4, "dimensions");
  const auto k = cli.get<std::size_t>("k", 16, "clusters");
  const auto iters = cli.get<std::size_t>("iters", 8, "fixed iteration count");
  const auto seed = cli.get<std::uint64_t>("seed", 17, "seed");
  cli.finish();

  peachy::data::BlobsSpec spec;
  spec.classes = k;
  spec.points_per_class = n / k;
  spec.dims = d;
  spec.spread = 2.0;
  spec.seed = seed;
  const auto points = peachy::data::gaussian_blobs(spec).points;

  peachy::kmeans::Options opts;
  opts.k = k;
  opts.max_iterations = iters;
  opts.min_changes = 0;
  opts.move_tolerance = 0.0;
  opts.seed = seed;

  const auto reference = peachy::kmeans::cluster_sequential(points, opts);
  std::cout << "T-KM-2 — distributed k-means (n=" << points.size() << ", d=" << d
            << ", k=" << k << ", " << iters << " iterations):\n\n";

  peachy::support::Table table;
  table.header({"ranks", "ms", "messages", "bytes", "bytes/iter/rank", "matches serial"});
  for (const int ranks : {1, 2, 4, 8}) {
    peachy::kmeans::Result res;
    peachy::support::Stopwatch sw;
    // The world's totals once every rank has finished.  (MpiKmeansStats is
    // filled by rank 0 as it returns, while other ranks may still be
    // sending, so its counts can fall a few messages short.)
    const peachy::mpi::TrafficStats stats =
        peachy::mpi::run(ranks, [&](peachy::mpi::Comm& comm) {
          auto got = peachy::kmeans::cluster_mpi(
              comm, comm.rank() == 0 ? points : peachy::data::PointSet{}, opts);
          if (comm.rank() == 0) res = std::move(got);
        });
    const double per_iter_rank = static_cast<double>(stats.bytes) /
                                 static_cast<double>(iters) / static_cast<double>(ranks);
    table.row({static_cast<std::int64_t>(ranks), sw.elapsed_ms(),
               static_cast<std::int64_t>(stats.messages),
               static_cast<std::int64_t>(stats.bytes), per_iter_rank,
               std::string{res.assignment == reference.assignment ? "yes" : "NO"}});
  }
  table.print();
  std::cout << "\nexpected shape: communication is O(k*d) per iteration per rank —\n"
               "independent of n (only centroids travel) — which is why the paper\n"
               "calls this assignment \"easier in MPI\": one distributed reduction\n"
               "replaces all the shared-memory race handling.\n";
  return 0;
}
