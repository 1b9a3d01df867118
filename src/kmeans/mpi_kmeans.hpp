#pragma once
/// \file mpi_kmeans.hpp
/// \brief Distributed k-means over mini-MPI (paper §3's second model).
///
/// "In MPI, the data structures should be distributed.  The initial data
/// and results can be communicated with collective communication
/// operations ... a distributed reduction is needed in any case."
///
/// Root scatters the points in static blocks; every rank holds the (small)
/// centroid array.  Each iteration computes local sums/counts/changes and
/// allreduces them in two reductions (sums; counts with the change count
/// as element k) — the distributed analogue of the OpenMP reduction
/// stage.  Assignments are gathered back to root at the end and broadcast.
///
/// The local assignment keeps Hamerly bounds per point (an upper bound on
/// the distance to its own centroid, a lower bound on the distance to any
/// other) and rescans, with kernels::argmin2_rows, only the points whose
/// bounds cannot prove the nearest centroid unchanged.  Every point still
/// adds to the sums in point order, so each rank's assignments, sums and
/// change count are those of the unbounded argmin_assign scan, bit for bit.

#include "data/points.hpp"
#include "faults/checkpoint.hpp"
#include "kmeans/kmeans.hpp"
#include "mpi/mpi.hpp"

namespace peachy::kmeans {

/// Telemetry for the collective-communication experiment (T-KM-2).
struct MpiKmeansStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::size_t iterations = 0;
};

/// Cluster `points` (significant at root only; other ranks may pass an
/// empty set) across the communicator.  Every rank returns the full
/// Result.  With 1 rank this is exactly the sequential algorithm.
///
/// `stats`, if non-null, is filled by the calling rank — pass a
/// rank-local object, never one shared across rank lambdas (data race).
///
/// When `ft.active()`, the ranks checkpoint every `ft.every` iterations:
/// an extra allgather collects the full assignment so the snapshot records
/// {centroids, changes history, assignment}, and a run that finds a
/// snapshot under `ft.key` resumes from that iteration with its block of
/// the saved assignment — the per-iteration `changes` counts continue
/// exactly where the interrupted run left off.  The terminating iteration
/// is never checkpointed, so a rerun against the store of a finished run
/// re-derives the same stop and reports the same Result.  (Across *different* rank
/// counts the centroid bits may differ — allreduce summation order — so
/// the recovery guarantee here is convergence equivalence, not bit
/// equality; the traffic driver provides the bit-identical variant.)
[[nodiscard]] Result cluster_mpi(mpi::Comm& comm, const data::PointSet& points,
                                 const Options& opts, MpiKmeansStats* stats = nullptr,
                                 const faults::FtOptions& ft = {});

}  // namespace peachy::kmeans
