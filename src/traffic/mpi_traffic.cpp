#include "traffic/mpi_traffic.hpp"

#include <string>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::traffic {

namespace {

/// A restored snapshot must be a state a correct run can reach: one entry
/// per car, positions strictly ascending on the road, velocities in
/// [0, v_max].  Anything else would resume into a silently wrong run.
void validate_snapshot(const Spec& spec, const State& st) {
  PEACHY_CHECK(st.pos.size() == spec.cars && st.vel.size() == spec.cars,
               "traffic restart: snapshot car count does not match the spec");
  const auto L = static_cast<std::int64_t>(spec.road_length);
  for (std::size_t i = 0; i < st.pos.size(); ++i) {
    PEACHY_CHECK(st.pos[i] >= 0 && st.pos[i] < L && (i == 0 || st.pos[i - 1] < st.pos[i]),
                 "traffic restart: snapshot car " + std::to_string(i) + " at " +
                     std::to_string(st.pos[i]) +
                     " breaks strictly ascending positions in [0, road_length)");
    PEACHY_CHECK(st.vel[i] >= 0 && st.vel[i] <= spec.v_max,
                 "traffic restart: snapshot car " + std::to_string(i) + " has velocity " +
                     std::to_string(st.vel[i]) + " outside [0, v_max]");
  }
}

/// Iteration-boundary snapshot {pos, vel} resuming at `next_step`.  Cold:
/// it runs once every ft.every steps, outside the exchange's hot path.
[[gnu::cold]] void save_snapshot(const faults::FtOptions& ft, std::size_t next_step,
                                 const State& st) {
  faults::BlobWriter w;
  w.put_vec(st.pos);
  w.put_vec(st.vel);
  ft.store->save(ft.key, faults::Snapshot{next_step, std::move(w).take()});
  if (obs::enabled()) obs::counter("faults.checkpoints").add(1);
}

}  // namespace

State run_mpi(mpi::Comm& comm, const Spec& spec, std::size_t steps, MpiTrafficStats* stats,
              const faults::FtOptions& ft) {
  // Every rank derives the identical initial state (deterministic in the
  // seed), as if root had broadcast the input file.
  State st = initial_state(spec);
  const std::size_t n = st.pos.size();
  const auto p = static_cast<std::size_t>(comm.size());
  const auto me = static_cast<std::size_t>(comm.rank());
  const rng::SharedStream<rng::Lcg64> stream{spec.seed};

  // Per-step working buffers, hoisted so the step loop allocates nothing:
  // the block partition is identical every step, and the exchange lands in
  // a second replicated position array that commit_step swaps with st.pos.
  const auto blk = support::static_block(n, p, me);
  std::vector<std::int64_t> my_pos(blk.end - blk.begin);
  std::vector<std::int64_t> next_pos(n);

  // Restart: every rank reloads the same snapshot (the store is shared
  // memory), so the replicated state stays replicated.  The PRNG cursor is
  // absolute in (step, car), so resuming at `first` consumes exactly the
  // draws an uninterrupted run would — bit-identical for any rank count.
  std::size_t first = 0;
  if (ft.active()) {
    if (const auto snap = ft.store->load(ft.key)) {
      faults::BlobReader r{snap->blob};
      st.pos = r.get_vec<std::int64_t>();
      st.vel = r.get_vec<int>();
      validate_snapshot(spec, st);
      first = static_cast<std::size_t>(snap->next_step);
      if (obs::enabled()) obs::counter("faults.restores").add(1);
    }
  }

  for (std::size_t s = first; s < steps; ++s) {
    if (blk.begin < blk.end) {
      auto gen = stream.cursor(static_cast<std::uint64_t>(s) * n + blk.begin);
      advance_block(spec, st, blk.begin, blk.end, gen, my_pos);
    }

    // Exchange: rebuild the replicated positions (ring allgather keeps
    // rank order, which is canonical-index order); allgather_into's layout
    // checks are the "exchange lost cars" guard.  Velocities need no
    // exchange: commit_step derives them from the displacements, and it
    // runs identically on every rank (pure local computation on identical
    // replicated data -> identical state everywhere).
    comm.allgather_into<std::int64_t>(my_pos, std::span<std::int64_t>{next_pos});
    commit_step(spec, st, next_pos, s);

    // Iteration-boundary checkpoint: state is replicated and identical on
    // every rank, so only rank 0 writes (checkpoint.hpp's discipline).
    // Across processes the store is per-process memory, not shared — a
    // rank-0-only write would leave every other process unable to restart
    // — so there every rank checkpoints its own (identical) copy.  An
    // explicit ft.owner pins the writer instead (durable shared stores:
    // one rank writing the file is enough for every survivor to restore).
    const bool i_checkpoint = ft.owner >= 0
                                  ? comm.rank() == ft.owner
                                  : (comm.spans_processes() || comm.rank() == 0);
    if (ft.active() && (s + 1) % static_cast<std::size_t>(ft.every) == 0 && i_checkpoint) {
      save_snapshot(ft, s + 1, st);
    }
  }

  if (stats != nullptr) {
    stats->messages = comm.traffic().messages;
    stats->bytes = comm.traffic().bytes;
    stats->fast_forwards = stream.ff_calls();
  }
  return st;
}

}  // namespace peachy::traffic
