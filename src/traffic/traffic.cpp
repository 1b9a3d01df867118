#include "traffic/traffic.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>

#include "rng/distributions.hpp"
#include "rng/splitmix.hpp"
#include "support/check.hpp"
#include "support/parallel_for.hpp"
#include "support/timer.hpp"

namespace peachy::traffic {

namespace {

void validate(const Spec& spec) {
  PEACHY_CHECK(spec.road_length >= 1, "traffic: empty road");
  PEACHY_CHECK(spec.cars >= 1, "traffic: need at least one car");
  PEACHY_CHECK(spec.cars <= spec.road_length, "traffic: more cars than cells");
  PEACHY_CHECK(spec.v_max >= 1, "traffic: v_max must be at least 1");
  PEACHY_CHECK(spec.p_slow >= 0.0 && spec.p_slow <= 1.0, "traffic: p outside [0,1]");
}

/// Empty cells in front of car i — the one gap formula.  Unchecked: the
/// callers guarantee i < state.pos.size().
std::int64_t gap_of(const Spec& spec, const State& state, std::size_t i) {
  const std::size_t n = state.pos.size();
  if (n == 1) return static_cast<std::int64_t>(spec.road_length) - 1;
  const std::size_t ahead = (i + 1) % n;
  std::int64_t gap = state.pos[ahead] - state.pos[i] - 1;
  if (ahead == 0) gap += static_cast<std::int64_t>(spec.road_length);
  return gap;
}

}  // namespace

State initial_state(const Spec& spec) {
  validate(spec);
  // Seeded partial Fisher–Yates over cell indices: the first `cars`
  // entries are distinct uniform cells.  A separate generator keeps the
  // simulation stream's indexing at exactly one draw per car per step.
  std::vector<std::int64_t> cells(spec.road_length);
  std::iota(cells.begin(), cells.end(), 0);
  rng::SplitMix64 gen{rng::derive_seed(spec.seed, 0xCA25u)};
  for (std::size_t i = 0; i < spec.cars; ++i) {
    const auto j = i + static_cast<std::size_t>(
                           rng::uniform_below(gen, spec.road_length - i));
    std::swap(cells[i], cells[j]);
  }
  // The chosen cells are distinct, so marking them in a bitmap and
  // scanning it lists them in ascending order without a sort.
  std::vector<std::uint64_t> marked((spec.road_length + 63) / 64);
  for (std::size_t i = 0; i < spec.cars; ++i) {
    const auto c = static_cast<std::size_t>(cells[i]);
    marked[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  State st;
  st.pos.reserve(spec.cars);
  for (std::size_t w = 0; w < marked.size(); ++w) {
    for (std::uint64_t bits = marked[w]; bits != 0; bits &= bits - 1) {
      st.pos.push_back(static_cast<std::int64_t>(w * 64) + std::countr_zero(bits));
    }
  }
  st.vel.assign(spec.cars, 0);
  return st;
}

std::int64_t gap_ahead(const Spec& spec, const State& state, std::size_t i) {
  PEACHY_CHECK(i < state.pos.size(), "traffic: car index out of range");
  return gap_of(spec, state, i);
}

void advance_block(const Spec& spec, const State& state, std::size_t lo, std::size_t hi,
                   rng::Lcg64& gen, std::span<std::int64_t> out) {
  PEACHY_CHECK(lo <= hi && hi <= state.pos.size() && out.size() == hi - lo,
               "traffic: advance_block range does not match its output");
  const auto L = static_cast<std::int64_t>(spec.road_length);
  for (std::size_t i = lo; i < hi; ++i) {
    const double draw = gen.next_double();  // exactly one draw per car
    int v = std::min(state.vel[i] + 1, spec.v_max);                          // 1. accelerate
    v = static_cast<int>(std::min<std::int64_t>(v, gap_of(spec, state, i)));  // 2. brake to the gap
    if (draw < spec.p_slow && v > 0) --v;                                    // 3. random slowdown
    std::int64_t pos = state.pos[i] + v;                                     // 4. advance
    if (pos >= L) pos -= L;
    out[i - lo] = pos;
  }
}

void commit_step(const Spec& spec, State& state, std::vector<std::int64_t>& next_pos,
                 std::size_t step) {
  const std::size_t n = state.pos.size();
  PEACHY_CHECK(next_pos.size() == n, "traffic: next positions do not match the car count");
  // A car's new velocity is its displacement this step, and
  // 0 <= v <= min(v_max, gap) <= L-1 makes the displacement mod L exact.
  const auto L = static_cast<std::int64_t>(spec.road_length);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t d = next_pos[i] - state.pos[i];
    if (d < 0) d += L;
    PEACHY_CHECK(d >= 0 && d <= spec.v_max,
                 "traffic exchange: car " + std::to_string(i) + " moved " + std::to_string(d) +
                     " cells in step " + std::to_string(step) + " (v_max " +
                     std::to_string(spec.v_max) + ")");
    state.vel[i] = static_cast<int>(d);
  }
  state.pos.swap(next_pos);
  // Keep car 0 the minimum position so the index order always equals the
  // ascending-position order.  Every car but the last brakes to a gap
  // that ends before the car ahead, so only the last car can wrap; when
  // it does it is the new minimum, and one rotation right by one puts it
  // (with its velocity) in front.
  if (n >= 2 && state.pos[n - 1] < state.pos[0]) {
    std::rotate(state.pos.begin(), state.pos.end() - 1, state.pos.end());
    std::rotate(state.vel.begin(), state.vel.end() - 1, state.vel.end());
  }
}

void step_reference(const Spec& spec, State& state, const rng::SharedStream<rng::Lcg64>& stream,
                    std::size_t step) {
  const std::size_t n = state.pos.size();
  auto gen = stream.cursor(static_cast<std::uint64_t>(step) * n);
  std::vector<std::int64_t> next_pos(n);
  advance_block(spec, state, 0, n, gen, next_pos);
  commit_step(spec, state, next_pos, step);
}

State run_serial(const Spec& spec, std::size_t steps, std::vector<State>* snapshots) {
  validate(spec);
  State st = initial_state(spec);
  const rng::SharedStream<rng::Lcg64> stream{spec.seed};
  for (std::size_t s = 0; s < steps; ++s) {
    step_reference(spec, st, stream, s);
    if (snapshots != nullptr) snapshots->push_back(st);
  }
  return st;
}

State run_parallel(const Spec& spec, std::size_t steps, support::ThreadPool& pool,
                   std::size_t threads, ParallelStats* stats, std::vector<State>* snapshots) {
  validate(spec);
  PEACHY_CHECK(threads >= 1, "traffic: threads must be at least 1");
  support::Stopwatch sw;
  State st = initial_state(spec);
  const rng::SharedStream<rng::Lcg64> stream{spec.seed};
  const std::size_t n = st.pos.size();
  std::vector<std::int64_t> next_pos(n);

  for (std::size_t s = 0; s < steps; ++s) {
    // Each thread owns a car block, fast-forwards the shared stream to
    // its first draw, and fills its slice of next_pos (read-only on st).
    support::parallel_for_threads(
        pool, n, threads, [&](std::size_t, std::size_t lo, std::size_t hi) {
          if (lo >= hi) return;
          auto gen = stream.cursor(static_cast<std::uint64_t>(s) * n + lo);
          advance_block(spec, st, lo, hi, gen, std::span{next_pos}.subspan(lo, hi - lo));
        });
    commit_step(spec, st, next_pos, s);
    if (snapshots != nullptr) snapshots->push_back(st);
  }

  if (stats != nullptr) {
    stats->fast_forwards = stream.ff_calls();
    stats->seconds = sw.elapsed_s();
  }
  return st;
}

State run_parallel_independent_rngs(const Spec& spec, std::size_t steps,
                                    support::ThreadPool& pool, std::size_t threads) {
  validate(spec);
  PEACHY_CHECK(threads >= 1, "traffic: threads must be at least 1");
  State st = initial_state(spec);
  const std::size_t n = st.pos.size();
  std::vector<std::int64_t> next_pos(n);
  // One private generator per thread, seeded differently — the tempting
  // shortcut whose output depends on the thread count.
  std::vector<rng::Lcg64> gens;
  gens.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    gens.emplace_back(rng::derive_seed(spec.seed, t));
  }

  for (std::size_t s = 0; s < steps; ++s) {
    support::parallel_for_threads(
        pool, n, threads, [&](std::size_t t, std::size_t lo, std::size_t hi) {
          advance_block(spec, st, lo, hi, gens[t], std::span{next_pos}.subspan(lo, hi - lo));
        });
    commit_step(spec, st, next_pos, s);
  }
  return st;
}

double mean_velocity(const State& state) {
  PEACHY_CHECK(!state.vel.empty(), "traffic: empty state");
  double sum = 0.0;
  for (int v : state.vel) sum += v;
  return sum / static_cast<double>(state.vel.size());
}

std::size_t stopped_cars(const State& state) {
  std::size_t n = 0;
  for (int v : state.vel) n += v == 0;
  return n;
}

}  // namespace peachy::traffic
