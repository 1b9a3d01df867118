#pragma once
/// \file grid.hpp
/// \brief Grid (cell-array) representation of the Nagel–Schreckenberg
/// model (paper §5's alternative representation).
///
/// "The grid representation assigns a value to every point on the
/// circular road, while the agent-based implementation stores the
/// positions and velocities of the N cars."  The grid simulation stores
/// one cell per road position (car id or empty) and scans the road each
/// step — Θ(L) per step versus the agent representation's Θ(N).  To stay
/// bit-compatible with the canonical model, draws are still assigned by
/// car index, which the grid recovers from the stored ids (this is
/// exactly why the paper says the agent approach "significantly
/// simplifies the parallelization of PRNG").

#include "traffic/traffic.hpp"

namespace peachy::traffic {

/// Run `steps` steps with the grid data structure.  Returns the final
/// state in the same (canonical agent) form — bit-identical to
/// run_serial for the same spec.
[[nodiscard]] State run_grid(const Spec& spec, std::size_t steps);

/// Run `steps` steps from `init` instead of initial_state(spec); draws
/// still go by position rank.  A car off the road, two cars in one cell,
/// or a velocity outside [0, v_max] throws peachy::Error naming the car.
[[nodiscard]] State run_grid(const Spec& spec, const State& init, std::size_t steps);

}  // namespace peachy::traffic
