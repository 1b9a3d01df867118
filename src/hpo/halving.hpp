#pragma once
/// \file halving.hpp
/// \brief Successive halving — the paper's suggested variation.
///
/// "Interesting variations of this assignment include adding the ability
/// to check the accuracy of the model at regular intervals or killing
/// some of the lowest performing nodes and reassign their resources."
///
/// Successive halving does exactly that: every round, each surviving
/// model trains for a few more epochs (peachy's Mlp::train is
/// incremental), is re-evaluated, and the bottom half is killed, its
/// compute budget implicitly reassigned to the survivors' later rounds.

#include <cstdint>
#include <vector>

#include "nn/mlp.hpp"
#include "support/thread_pool.hpp"

namespace peachy::hpo {

/// One survivor's trajectory through the rounds.
struct HalvingEntry {
  std::size_t config = 0;              ///< index into the config list
  std::vector<double> accuracy_per_round;  ///< after each round it survived
  bool survived_to_end = false;
};

/// Result of a successive-halving run.
struct HalvingResult {
  std::vector<HalvingEntry> history;   ///< one entry per starting config
  std::vector<std::size_t> final_ranking;  ///< surviving configs, best first
  std::size_t rounds = 0;
  std::size_t total_epochs_trained = 0;    ///< across all models (the budget)
};

/// Run successive halving: all configs start; each round trains
/// `epochs_per_round` more epochs (in parallel on `pool`), evaluates on
/// `val`, and keeps the top half (ties: lower config id).  Stops after
/// `rounds` rounds or when one model remains.
[[nodiscard]] HalvingResult successive_halving(const nn::Dataset& train, const nn::Dataset& val,
                                               const std::vector<nn::TrainConfig>& configs,
                                               std::size_t rounds, std::size_t epochs_per_round,
                                               support::ThreadPool& pool);

}  // namespace peachy::hpo
