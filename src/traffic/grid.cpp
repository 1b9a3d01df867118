#include "traffic/grid.hpp"

#include <algorithm>
#include <string>

#include "support/check.hpp"

namespace peachy::traffic {

State run_grid(const Spec& spec, std::size_t steps) {
  return run_grid(spec, initial_state(spec), steps);
}

State run_grid(const Spec& spec, const State& init, std::size_t steps) {
  PEACHY_CHECK(spec.road_length >= 1, "grid: empty road");
  PEACHY_CHECK(init.vel.size() == init.pos.size(),
               "grid: initial state has " + std::to_string(init.pos.size()) +
                   " positions but " + std::to_string(init.vel.size()) + " velocities");
  const std::size_t n = init.pos.size();
  const auto L = static_cast<std::int64_t>(spec.road_length);

  // cell[x] = car id occupying x, or -1.  Velocities are indexed by car.
  // Every initial car is checked before it is written to the grid.
  std::vector<std::int32_t> cell(spec.road_length, -1);
  std::vector<int> vel(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t x = init.pos[i];
    PEACHY_CHECK(x >= 0 && x < L, "grid: car " + std::to_string(i) + " at " +
                                      std::to_string(x) + " is off the road [0, " +
                                      std::to_string(L) + ")");
    const std::int32_t other = cell[static_cast<std::size_t>(x)];
    PEACHY_CHECK(other < 0, "grid: cars " + std::to_string(other) + " and " +
                                std::to_string(i) + " share cell " + std::to_string(x));
    PEACHY_CHECK(init.vel[i] >= 0 && init.vel[i] <= spec.v_max,
                 "grid: car " + std::to_string(i) + " has velocity " +
                     std::to_string(init.vel[i]) + " outside [0, v_max]");
    cell[static_cast<std::size_t>(x)] = static_cast<std::int32_t>(i);
    vel[i] = init.vel[i];
  }

  const rng::SharedStream<rng::Lcg64> stream{spec.seed};
  std::vector<std::int64_t> pos(init.pos);  // car id -> position (kept in sync)

  for (std::size_t s = 0; s < steps; ++s) {
    auto gen = stream.cursor(static_cast<std::uint64_t>(s) * n);
    // The canonical draw assignment is by position rank (the agent
    // representation's index order), and the road scan visits cars in
    // exactly that order — so draws are consumed as cars are encountered.
    std::vector<double> draws(n);
    for (auto& d : draws) d = gen.next_double();
    std::size_t rank = 0;

    // Scan every cell (the Θ(L) cost of this representation) computing
    // new velocities from gaps found by looking ahead through the grid.
    std::vector<int> new_vel(n);
    for (std::size_t x = 0; x < spec.road_length; ++x) {
      const std::int32_t car = cell[x];
      if (car < 0) continue;
      // Find the gap by scanning ahead (bounded by v_max+1 cells).
      std::int64_t gap = 0;
      for (int look = 1; look <= spec.v_max + 1; ++look) {
        const auto nx = static_cast<std::size_t>((static_cast<std::int64_t>(x) + look) % L);
        if (cell[nx] >= 0) break;
        ++gap;
      }
      int v = std::min(vel[car] + 1, spec.v_max);
      v = static_cast<int>(std::min<std::int64_t>(v, gap));
      if (draws[rank++] < spec.p_slow && v > 0) --v;
      new_vel[static_cast<std::size_t>(car)] = v;
    }

    // Synchronous move: rebuild the grid.
    std::fill(cell.begin(), cell.end(), -1);
    for (std::size_t car = 0; car < n; ++car) {
      vel[car] = new_vel[car];
      pos[car] = (pos[car] + new_vel[car]) % L;
      PEACHY_CHECK(cell[static_cast<std::size_t>(pos[car])] < 0,
                   "grid: two cars in one cell (model invariant violated)");
      cell[static_cast<std::size_t>(pos[car])] = static_cast<std::int32_t>(car);
    }
  }

  // Return in canonical form: sorted by position (cars never overtake, so
  // this is a rotation of the id order).
  State out;
  out.pos.resize(n);
  out.vel.resize(n);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return pos[a] < pos[b]; });
  for (std::size_t i = 0; i < n; ++i) {
    out.pos[i] = pos[order[i]];
    out.vel[i] = vel[order[i]];
  }
  return out;
}

}  // namespace peachy::traffic
