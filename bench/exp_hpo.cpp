/// \file exp_hpo.cpp
/// \brief Experiment T-HPO-1 (paper §7): "how to distribute independent
/// tasks to different nodes in MPI when the number of nodes is not evenly
/// divisible by the number of tasks" — block vs cyclic vs dynamic
/// master–worker, measured by tasks-per-rank spread, busy-time imbalance,
/// and makespan.  Uncertainty quality of the resulting ensemble is also
/// reported (the Fig. 4 numbers).

#include <iostream>

#include "hpo/halving.hpp"
#include "hpo/hpo.hpp"
#include "nn/digits.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  peachy::support::Cli cli{argc, argv};
  const auto tasks = cli.get<std::size_t>("tasks", 13, "task count (13: never divisible)");
  const auto train_n = cli.get<std::size_t>("train", 500, "training samples");
  const auto val_n = cli.get<std::size_t>("val", 150, "validation samples");
  const auto seed = cli.get<std::uint64_t>("seed", 37, "seed");
  cli.finish();

  const peachy::nn::SyntheticDigits digits;
  const auto train = digits.make_dataset(train_n, seed);
  const auto val = digits.make_dataset(val_n, seed + 1);

  // Heterogeneous task sizes (hidden widths differ) make balance matter.
  std::vector<peachy::nn::TrainConfig> configs;
  for (std::size_t i = 0; i < tasks; ++i) {
    peachy::nn::TrainConfig cfg;
    cfg.hidden = {8 + 8 * (i % 4)};  // 8..32 wide: ~4x cost spread
    cfg.learning_rate = 0.1 + 0.05 * static_cast<double>(i % 3);
    cfg.momentum = 0.9;
    cfg.epochs = 6;
    cfg.seed = seed + i;
    configs.push_back(std::move(cfg));
  }

  std::cout << "T-HPO-1 — scheduling " << tasks << " uneven training tasks:\n\n";
  peachy::support::Table table;
  table.header({"ranks", "schedule", "tasks/rank", "busy imbalance (cv)", "makespan ms"});
  std::vector<peachy::hpo::TaskResult> results;
  for (const int ranks : {2, 3, 4, 5}) {
    for (const auto schedule : {peachy::hpo::Schedule::kBlock, peachy::hpo::Schedule::kCyclic,
                                peachy::hpo::Schedule::kDynamic}) {
      peachy::hpo::RunStats stats;
      peachy::mpi::run(ranks, [&](peachy::mpi::Comm& comm) {
        peachy::hpo::RunStats local;  // stats are rank-local
        auto got = peachy::hpo::distributed_search(comm, train, val, configs, schedule, &local);
        if (comm.rank() == 0) {
          results = std::move(got);
          stats = std::move(local);
        }
      });
      std::string spread;
      for (std::size_t r = 0; r < stats.tasks_per_rank.size(); ++r) {
        if (r != 0) spread += '/';
        spread += std::to_string(stats.tasks_per_rank[r]);
      }
      table.row({static_cast<std::int64_t>(ranks), peachy::hpo::to_string(schedule), spread,
                 stats.imbalance_cv, stats.makespan_seconds * 1e3});
    }
  }
  table.print();
  std::cout << "\nexpected shape: with tasks % ranks != 0 and uneven task costs, the\n"
               "dynamic master-worker schedule spreads busy time most evenly (lowest\n"
               "cv); block is worst because consecutive tasks have correlated sizes.\n"
               "(The dynamic rows use ranks-1 workers: rank 0 only coordinates.)\n";

  // ---- Fig. 4 numbers from the search's ensemble ----------------------------
  const auto ens = peachy::hpo::build_ensemble(train, configs, results, 5);
  peachy::rng::SplitMix64 gen{seed + 2};
  peachy::nn::Matrix probe{2, digits.features()};
  const auto clean = digits.render(4, gen);
  const auto morph = digits.render_morph(4, 9, 0.5, gen);
  std::copy(clean.begin(), clean.end(), probe.row(0).begin());
  std::copy(morph.begin(), morph.end(), probe.row(1).begin());
  const auto preds = ens.predict_uncertain(probe);
  std::cout << "\nFig. 4 — ensemble uncertainty (5 members, val acc " << ens.accuracy(val)
            << "):\n";
  peachy::support::Table fig4;
  fig4.header({"input", "prediction", "mean prob", "uncertainty (sigma)", "entropy"});
  fig4.row({std::string{"clean '4'"}, static_cast<std::int64_t>(preds[0].label),
            preds[0].mean_probability, preds[0].uncertainty, preds[0].entropy});
  fig4.row({std::string{"4/9 morph"}, static_cast<std::int64_t>(preds[1].label),
            preds[1].mean_probability, preds[1].uncertainty, preds[1].entropy});
  fig4.print();

  // ---- the paper's "kill the lowest performers" variation ---------------------
  peachy::support::ThreadPool pool{4};
  const auto halving =
      peachy::hpo::successive_halving(train, val, configs, 3, 2, pool);
  std::cout << "\nsuccessive halving (the suggested variation): " << configs.size()
            << " configs -> " << halving.final_ranking.size() << " survivors in "
            << halving.rounds << " rounds, " << halving.total_epochs_trained
            << " model-epochs total (vs " << configs.size() * 3 * 2
            << " without killing underperformers)\n";
  return 0;
}
