#pragma once
/// \file traffic.hpp
/// \brief Nagel–Schreckenberg traffic model (paper §5).
///
/// A stochastic cellular automaton on a circular single-lane road: each
/// car, synchronously per time step, (1) accelerates by one up to v_max,
/// (2) brakes to the gap ahead, (3) with probability p slows by one
/// (the randomization that creates spontaneous jams), (4) advances.
///
/// The assignment's core requirement: "managing the PRNG in parallel so
/// that the output of the parallel code is exactly the same as the serial
/// code" for *any* thread count.  peachy's canonical draw assignment makes
/// that structural: the random number for car i at step s is element
/// s·N + i of one logical LCG sequence, so a thread owning cars [lo,hi)
/// fast-forwards to s·N + lo — O(log) with the Lcg64 jump — and streams
/// from there.  Every implementation (serial, parallel, grid) consumes
/// exactly one draw per car per step, drawn in car order.
///
/// Both representations from the paper are provided: the agent-based one
/// (positions+velocities of N cars — "significantly simplifies the
/// parallelization of PRNG") in this header, and the grid one in
/// grid.hpp.  Every agent driver (step_reference, run_parallel,
/// run_parallel_independent_rngs, run_mpi) runs one step core:
/// advance_block fills the next positions of a block of cars, and
/// commit_step turns the filled array into the next state.  The drivers
/// differ only in how the blocks and their generators are laid out.  The
/// grid representation shares none of it (only initial_state), so it is
/// the independent check on the step core.

#include <cstdint>
#include <span>
#include <vector>

#include "rng/lcg.hpp"
#include "rng/shared_stream.hpp"
#include "support/thread_pool.hpp"

namespace peachy::traffic {

/// Model parameters.  Defaults are Fig. 3's caption: 200 cars, road
/// length 1000, p = 0.13, v_max = 5.
struct Spec {
  std::size_t road_length = 1000;
  std::size_t cars = 200;
  int v_max = 5;
  double p_slow = 0.13;
  std::uint64_t seed = 1;

  [[nodiscard]] double density() const noexcept {
    return static_cast<double>(cars) / static_cast<double>(road_length);
  }
};

/// Car state, index-aligned: car i is at pos[i] moving at vel[i].  Cars
/// never overtake, so ascending-position order (mod wrap) is preserved.
struct State {
  std::vector<std::int64_t> pos;
  std::vector<int> vel;

  friend bool operator==(const State&, const State&) = default;
};

/// Initial configuration: cars on distinct cells (uniformly chosen via a
/// seeded partial Fisher–Yates shuffle), ascending, all velocities 0.
/// The chosen cells are marked in a bitmap of ⌈L/64⌉ words, and a scan
/// of its set bits lists them in ascending order, with no sort.
/// Deterministic in spec.seed; consumes no draws from the simulation
/// stream.
[[nodiscard]] State initial_state(const Spec& spec);

/// Gap (empty cells) in front of car i in the current state.
[[nodiscard]] std::int64_t gap_ahead(const Spec& spec, const State& state, std::size_t i);

/// The step core, first half: write the next positions of cars [lo, hi)
/// to `out` (out[i - lo] for car i; out.size() must be hi - lo).  Draws
/// exactly one value from `gen` per car, in car order, and applies
/// accelerate → brake to the gap → random slowdown → advance.  Reads
/// `state` only, so disjoint blocks may run concurrently.
void advance_block(const Spec& spec, const State& state, std::size_t lo, std::size_t hi,
                   rng::Lcg64& gen, std::span<std::int64_t> out);

/// The step core, second half: `next_pos` holds every car's position
/// after step `step` (index-aligned with `state`).  Derives each velocity
/// as the car's displacement mod road_length — a displacement outside
/// [0, v_max] is a named "traffic exchange" error, never a silently wrong
/// state — swaps `next_pos` into `state` (it comes back holding the old
/// positions, ready to be refilled) and restores ascending-position
/// order.  Only the last car can wrap in a step (every other car brakes
/// to a gap that ends before the car ahead), so the rotation is by 0 or
/// 1: when the last position is below the first, the arrays rotate right
/// by one and the wrapped car, with its velocity, becomes car 0.
void commit_step(const Spec& spec, State& state, std::vector<std::int64_t>& next_pos,
                 std::size_t step);

/// Advance `state` by one synchronous step, drawing car draws from
/// `stream` positions [step·N, (step+1)·N): one advance_block over every
/// car, then commit_step.  The serial reference; exposed for tests.
void step_reference(const Spec& spec, State& state, const rng::SharedStream<rng::Lcg64>& stream,
                    std::size_t step);

/// Run `steps` steps serially from the initial state.  Returns the final
/// state.  `snapshots`, if non-null, receives the state after every step
/// (for space–time diagrams).
[[nodiscard]] State run_serial(const Spec& spec, std::size_t steps,
                               std::vector<State>* snapshots = nullptr);

/// Telemetry for the fast-forward-cost experiment (T-TR-1).
struct ParallelStats {
  std::uint64_t fast_forwards = 0;  ///< PRNG cursor jumps issued
  double seconds = 0.0;
};

/// Reproducible parallel run: cars are block-partitioned over `threads`;
/// each thread fast-forwards the shared stream to its block's first draw
/// each step.  Output is bit-identical to run_serial for ANY thread
/// count — the assignment's requirement.
[[nodiscard]] State run_parallel(const Spec& spec, std::size_t steps,
                                 support::ThreadPool& pool, std::size_t threads,
                                 ParallelStats* stats = nullptr,
                                 std::vector<State>* snapshots = nullptr);

/// The counter-example the paper warns about: "one could parallelize the
/// code by giving each thread its own PRNG, starting from different
/// seeds.  However, this gives different results when the number of
/// threads changes."  Provided so the non-reproducibility is demonstrable.
[[nodiscard]] State run_parallel_independent_rngs(const Spec& spec, std::size_t steps,
                                                  support::ThreadPool& pool,
                                                  std::size_t threads);

/// Mean velocity of a state (flow = mean velocity × density).
[[nodiscard]] double mean_velocity(const State& state);

/// Cars standing still — the jam indicator used by the tests.
[[nodiscard]] std::size_t stopped_cars(const State& state);

}  // namespace peachy::traffic
