/// \file peachy_tune.cpp
/// \brief peachy-tune — offline autotuner for the peachy::tune profile.
///
/// Benchmarks the collective-algorithm space on the host it runs on and
/// persists the winners as a versioned peachy-tune/2 JSON profile of
/// selection rules (loaded at startup via PEACHY_TUNE=<file>, or per run
/// via mpi::RunOptions::tunables).  The scalar constants of the other
/// layers (parallel_for grain, gemm register tile, BufferPool parking
/// bound) are compiled in and are not tuned here.
///
/// The search engine is peachy::hpo's successive halving — the same
/// kill-the-bottom-half economics the HPO assignment teaches, pointed at
/// configurations instead of models: every round re-measures the
/// survivors with twice the repetitions, so cheap noisy screening
/// eliminates losers early and the deep low-variance timings are spent
/// only on finalists.  Collective algorithms are tuned per (op, p, size
/// band) cell and emitted as selection rules.
///
/// Usage:
///   peachy-tune [--out FILE] [--p LIST] [--rounds N] [--reps N]
///               [--quick] [--note STR]
///
///   --out FILE   output profile path (default: peachy-tune.json)
///   --p LIST     comma-separated rank counts to tune collectives for
///                (default: 2,4,8)
///   --rounds N   halving rounds per cell (default: 3)
///   --reps N     round-0 repetitions; round r uses reps<<r (default: 2)
///   --quick      smoke-test sizes: tiny workloads, 2 rounds, 1 rep
///                (what scripts/check.sh tune-smoke runs)
///   --note STR   free-text stored as the profile's tuned_for field

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "hpo/halving.hpp"
#include "kernels/kernels.hpp"
#include "mpi/mpi.hpp"
#include "support/timer.hpp"
#include "tune/tune.hpp"

namespace {

namespace pt = peachy::tune;
namespace pk = peachy::kernels;
namespace ps = peachy::support;
namespace pm = peachy::mpi;
namespace ph = peachy::hpo;

double g_sink = 0.0;  // defeats dead-code elimination; printed at the end

struct Options {
  std::string out = "peachy-tune.json";
  std::vector<int> ranks{2, 4, 8};
  std::size_t rounds = 3;
  std::size_t base_reps = 2;
  bool quick = false;
  std::string note;
};

/// Margin a challenger must clear over the compiled-in default before it
/// displaces it: anything within 10% is treated as a tie and the default
/// is kept.  This hysteresis keeps noise and bistable cells (whose
/// ranking flips run to run) from churning the committed profile with
/// rules that buy nothing — a wrong "improvement" costs every future run,
/// while a forgone 5% win costs almost nothing.
constexpr double kKeepDefaultMargin = 0.9;

/// Run one successive-halving search over `labels.size()` candidates and
/// return the winning index.  `workload(i)` runs candidate i once; the
/// score is best-of-reps wall nanoseconds.  Candidate 0 is the compiled-
/// in default.  Any other winner must then confirm in a fresh head-to-head
/// against it at the deepest rep budget (both sides timed back to back,
/// so they see the same machine conditions) and clear kKeepDefaultMargin
/// — otherwise the default is kept.
std::size_t tune_cell(const char* what, const std::vector<std::string>& labels,
                      std::size_t rounds, std::size_t base_reps,
                      const std::function<void(std::size_t)>& workload) {
  const ph::MeasuredHalvingResult r = ph::successive_halving_measured(
      labels.size(), rounds, base_reps, [&](std::size_t i, std::size_t reps) {
        return ps::time_best_of(reps, [&] { workload(i); }) * 1e9;
      });
  std::size_t best = r.final_ranking.front();
  const char* note = "";
  if (best != 0) {
    const std::size_t reps = base_reps << (r.rounds - 1);
    const double challenger = ps::time_best_of(reps, [&] { workload(best); }) * 1e9;
    const double incumbent = ps::time_best_of(reps, [&] { workload(0); }) * 1e9;
    if (challenger > kKeepDefaultMargin * incumbent) {
      best = 0;
      note = "  [kept default: within noise margin]";
    }
  }
  std::printf("  %-22s -> %-12s (", what, labels[best].c_str());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto& scores = r.history[i].score_per_round;
    std::printf("%s%s %.0fns", i == 0 ? "" : ", ", labels[i].c_str(),
                scores.empty() ? 0.0 : scores.back());
  }
  std::printf(")%s\n", note);
  return best;
}

// ---------------------------------------------------------------------------
// Collective algorithms, per (op, p, size band).

/// Candidate algorithms for an op at a rank count (kAuto = the
/// compiled-in default path, always a candidate; duplicates of it are
/// not re-timed; recursive doubling needs power-of-two p).
std::vector<pt::CollAlgo> coll_candidates(pt::CollOp op, int ranks) {
  const bool pow2 = (ranks & (ranks - 1)) == 0;
  std::vector<pt::CollAlgo> algos{pt::CollAlgo::kAuto, pt::CollAlgo::kLinear};
  switch (op) {
    case pt::CollOp::kBroadcast:
    case pt::CollOp::kReduce:
      algos.push_back(pt::CollAlgo::kRing);
      break;
    case pt::CollOp::kAllreduce:
      algos.push_back(pt::CollAlgo::kRing);
      if (pow2) algos.push_back(pt::CollAlgo::kRecDouble);
      break;
    case pt::CollOp::kAllgather:
      if (pow2) algos.push_back(pt::CollAlgo::kRecDouble);
      break;
  }
  return algos;
}

/// Run `rounds` collectives of `op` on `ranks` ranks with n doubles under
/// a tunables snapshot that forces `algo` for the op (passed through
/// RunOptions — no global state involved).
void run_coll_once(pt::CollOp op, pt::CollAlgo algo, int ranks, std::size_t n, int rounds) {
  pt::Tunables t;
  pt::CollRule rule;
  rule.op = op;
  rule.algo = algo;
  t.coll_rules.push_back(rule);
  pm::RunOptions opts;
  opts.tunables = &t;
  pm::run(
      ranks,
      [op, n, rounds](pm::Comm& comm) {
        std::vector<double> data(n, 1.0 + 1e-9 * comm.rank());
        std::vector<double> all;
        if (op == pt::CollOp::kAllgather) {
          all.resize(n * static_cast<std::size_t>(comm.size()));
        }
        for (int r = 0; r < rounds; ++r) {
          switch (op) {
            case pt::CollOp::kBroadcast:
              comm.broadcast_into<double>(std::span<double>{data}, 0);
              break;
            case pt::CollOp::kReduce:
              comm.reduce_inplace<double>(std::span<double>{data}, std::plus<>{}, 0);
              for (double& x : data) x = x * 1e-3 + 1.0;
              break;
            case pt::CollOp::kAllreduce:
              comm.allreduce_inplace<double>(std::span<double>{data}, std::plus<>{});
              for (double& x : data) x = x * 1e-3 + 1.0;
              break;
            case pt::CollOp::kAllgather:
              comm.allgather_into<double>(std::span<const double>{data}, std::span<double>{all});
              break;
          }
        }
        g_sink += op == pt::CollOp::kAllgather ? all.back() : data[0];
      },
      opts);
}

/// Byte band split: rules below tune small (<= 16 KiB) and large
/// messages separately — the latency/bandwidth crossover every MPI
/// implementation's algorithm tables encode.
constexpr std::int64_t kSmallBytesMax = 16 * 1024;

void tune_collectives(pt::Tunables& best, const Options& opt) {
  const int rounds_per_run = opt.quick ? 2 : 20;
  // Representative sizes per band (doubles): 2 KiB and 256 KiB.
  const std::vector<std::size_t> sizes =
      opt.quick ? std::vector<std::size_t>{64} : std::vector<std::size_t>{256, 32768};
  for (const pt::CollOp op : {pt::CollOp::kBroadcast, pt::CollOp::kReduce,
                              pt::CollOp::kAllreduce, pt::CollOp::kAllgather}) {
    for (const int p : opt.ranks) {
      for (const std::size_t n : sizes) {
        const std::vector<pt::CollAlgo> cand = coll_candidates(op, p);
        std::vector<std::string> labels;
        for (const pt::CollAlgo a : cand) labels.push_back(pt::coll_algo_name(a));
        const std::string what = std::string{pt::coll_op_name(op)} + " p=" +
                                 std::to_string(p) + " n=" + std::to_string(n);
        const std::size_t best_i = tune_cell(
            what.c_str(), labels, opt.rounds, opt.base_reps,
            [&](std::size_t i) { run_coll_once(op, cand[i], p, n, rounds_per_run); });
        if (cand[best_i] == pt::CollAlgo::kAuto) continue;  // default wins: no rule
        pt::CollRule rule;
        rule.op = op;
        rule.algo = cand[best_i];
        rule.p_min = p;
        rule.p_max = p;
        const bool small = static_cast<std::int64_t>(n * sizeof(double)) <= kSmallBytesMax;
        if (sizes.size() > 1) {  // quick mode tunes one size: leave bytes open
          if (small) {
            rule.bytes_max = kSmallBytesMax;
          } else {
            rule.bytes_min = kSmallBytesMax + 1;
          }
        }
        best.coll_rules.push_back(rule);
      }
    }
  }
}

// ---------------------------------------------------------------------------

void usage() {
  std::fprintf(stderr,
               "usage: peachy-tune [--out FILE] [--p LIST] [--rounds N] [--reps N] "
               "[--quick] [--note STR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "peachy-tune: %s needs a value\n", flag);
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      opt.out = next("--out");
    } else if (std::strcmp(argv[i], "--p") == 0) {
      opt.ranks.clear();
      const std::string list = next("--p");
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok = list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        const int p = std::atoi(tok.c_str());
        if (p < 1) {
          std::fprintf(stderr, "peachy-tune: bad rank count '%s'\n", tok.c_str());
          return 2;
        }
        opt.ranks.push_back(p);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      if (opt.ranks.empty()) {
        std::fprintf(stderr, "peachy-tune: --p list is empty\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      opt.rounds = static_cast<std::size_t>(std::atoi(next("--rounds")));
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      opt.base_reps = static_cast<std::size_t>(std::atoi(next("--reps")));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
      opt.rounds = 2;
      opt.base_reps = 1;
    } else if (std::strcmp(argv[i], "--note") == 0) {
      opt.note = next("--note");
    } else {
      usage();
      return 2;
    }
  }
  if (opt.rounds < 1 || opt.base_reps < 1) {
    std::fprintf(stderr, "peachy-tune: --rounds and --reps must be >= 1\n");
    return 2;
  }

  const char* isa = pk::isa_name(pk::active_isa());
  std::printf("peachy-tune: successive-halving autotune (isa=%s%s)\n", isa,
              opt.quick ? ", quick" : "");

  pt::Tunables best;
  std::printf("collective algorithms:\n");
  tune_collectives(best, opt);

  pt::Profile profile;
  profile.isa = isa;
  if (!opt.note.empty()) {
    profile.tuned_for = opt.note;
  } else {
    std::string ranks;
    for (std::size_t i = 0; i < opt.ranks.size(); ++i) {
      ranks += (i == 0 ? "" : ",") + std::to_string(opt.ranks[i]);
    }
    profile.tuned_for = std::string{"f64 collectives p="} + ranks + " on " + isa;
  }
  profile.tunables = best;
  if (!pt::write_profile_file(profile, opt.out)) {
    return 1;
  }
  std::printf("wrote %s (%zu collective rules)\n", opt.out.c_str(), best.coll_rules.size());
  std::printf("sink=%g\n", g_sink);
  return 0;
}
