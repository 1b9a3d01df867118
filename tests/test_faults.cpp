/// \file test_faults.cpp
/// \brief peachy::faults — fault plans, injection, failure detection,
/// recovery (retry / shrink / checkpoint), and the satellite regressions
/// (non-consuming recv_into, ThreadPool exception capture, wildcard recv
/// racing a crash).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "faults/checkpoint.hpp"
#include "faults/detect.hpp"
#include "faults/faults.hpp"
#include "faults/plan.hpp"
#include "faults/retry.hpp"
#include "kernels/crc32c.hpp"
#include "heat/heat.hpp"
#include "mpi/mpi.hpp"
#include "support/thread_pool.hpp"
#include "traffic/mpi_traffic.hpp"

namespace pf = peachy::faults;
namespace pm = peachy::mpi;

using namespace std::chrono_literals;

// ---- FaultPlan parsing -------------------------------------------------------

TEST(FaultPlan, ParsesSpecAndRoundTrips) {
  const auto plan = pf::FaultPlan::parse(
      "seed=99; crash@rank=1,step=40; drop@rank=0,dest=2,tag=7,step=3; "
      "dup@rank=3,step=9; delay@rank=1,step=5,ns=2000000; drop@prob=0.01");
  EXPECT_EQ(plan.seed(), 99u);
  ASSERT_EQ(plan.events().size(), 5u);
  EXPECT_EQ(plan.events()[0].kind, pf::FaultKind::crash);
  EXPECT_EQ(plan.events()[0].rank, 1);
  EXPECT_EQ(plan.events()[0].step, 40u);
  EXPECT_EQ(plan.events()[1].dest, 2);
  EXPECT_EQ(plan.events()[1].tag, 7);
  EXPECT_DOUBLE_EQ(plan.events()[4].prob, 0.01);

  // Canonical rendering reparses to the identical plan.
  EXPECT_EQ(pf::FaultPlan::parse(plan.to_string()), plan);
}

TEST(FaultPlan, ParsesFileContentsWhenSpecNamesAReadableFile) {
  const std::string path = ::testing::TempDir() + "faultplan_test.txt";
  {
    std::ofstream f{path};
    f << "# a comment line\nseed=5\ncrash@rank=0,step=2\n";
  }
  const auto plan = pf::FaultPlan::parse(path);
  std::remove(path.c_str());
  EXPECT_EQ(plan.seed(), 5u);
  ASSERT_EQ(plan.events().size(), 1u);
  EXPECT_EQ(plan.events()[0].kind, pf::FaultKind::crash);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)pf::FaultPlan::parse("crash@step=1"), peachy::Error);  // no rank
  EXPECT_THROW((void)pf::FaultPlan::parse("drop@rank=0"), peachy::Error);   // no step/prob
  EXPECT_THROW((void)pf::FaultPlan::parse("delay@rank=0,step=1"), peachy::Error);  // no ns
  EXPECT_THROW((void)pf::FaultPlan::parse("explode@rank=0,step=1"), peachy::Error);
  EXPECT_THROW((void)pf::FaultPlan::parse("drop@prob=1.5"), peachy::Error);
  EXPECT_THROW((void)pf::FaultPlan::parse("drop@rank=0,step=1,prob=0.5"), peachy::Error);
}

TEST(FaultPlan, ProbAcceptsOnlyAWholeNumberInZeroToOne) {
  EXPECT_DOUBLE_EQ(pf::FaultPlan::parse("drop@prob=0.5").events()[0].prob, 0.5);
  EXPECT_DOUBLE_EQ(pf::FaultPlan::parse("drop@prob=1").events()[0].prob, 1.0);
  for (const std::string p : {"0.5x", "1e999", "nan", "0", "1.5", "-0.5", "", "1e-400"}) {
    try {
      (void)pf::FaultPlan::parse("drop@prob=" + p);
      ADD_FAILURE() << "prob '" << p << "' was accepted";
    } catch (const peachy::Error& e) {
      EXPECT_NE(std::string{e.what()}.find("faults: prob must be in (0,1], got '" + p + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- FaultInjector determinism ----------------------------------------------

TEST(FaultInjector, SameSeedReplaysIdenticalEventLog) {
  auto plan = pf::FaultPlan::parse("seed=1234; drop@prob=0.05; stall@prob=0.02,ns=1");
  const auto drive = [&plan] {
    pf::FaultInjector inj{plan, 4};
    for (int step = 0; step < 200; ++step) {
      for (int r = 0; r < 4; ++r) (void)inj.on_send(r, (r + 1) % 4, 5);
    }
    return inj.log_string();
  };
  const std::string a = drive();
  const std::string b = drive();
  EXPECT_FALSE(a.empty());  // 4 ranks x 200 steps at p=0.05: firing is certain-ish
  EXPECT_EQ(a, b);

  // A different seed produces a different schedule.
  plan.set_seed(4321);
  EXPECT_NE(drive(), a);
}

TEST(FaultInjector, DeterministicStepEventsFireExactlyOnce) {
  const auto plan = pf::FaultPlan::parse("dup@rank=2,step=7");
  pf::FaultInjector inj{plan, 4};
  int fired = 0;
  for (int step = 0; step < 20; ++step) {
    for (int r = 0; r < 4; ++r) {
      if (inj.on_send(r, 0, 1).duplicate) ++fired;
    }
  }
  EXPECT_EQ(fired, 1);
  const auto log = inj.log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].rank, 2);
  EXPECT_EQ(log[0].step, 7u);
}

// ---- injected behaviors through the transport -------------------------------

namespace {

pm::RunOptions with_plan(const pf::FaultPlan& plan) {
  pm::RunOptions opts;
  opts.plan = &plan;
  opts.op_timeout_ns = 5'000'000'000;  // tests must fail, not hang
  return opts;
}

}  // namespace

TEST(Injection, DroppedMessageNeverArrives) {
  const auto plan = pf::FaultPlan::parse("drop@rank=0,tag=1,step=0");
  std::atomic<bool> got_second{false};
  pm::run(2,
          [&](pm::Comm& comm) {
            if (comm.rank() == 0) {
              comm.send_value<int>(1, 1, 111);  // step 0: dropped
              comm.send_value<int>(1, 2, 222);  // step 1: delivered
            } else {
              EXPECT_EQ(comm.recv_value<int>(0, 2), 222);
              got_second = true;
              EXPECT_FALSE(comm.probe(0, 1));  // the dropped one is simply gone
            }
          },
          with_plan(plan));
  EXPECT_TRUE(got_second.load());
}

TEST(Injection, DuplicatedMessageArrivesTwice) {
  const auto plan = pf::FaultPlan::parse("dup@rank=0,step=0");
  pm::run(2,
          [&](pm::Comm& comm) {
            if (comm.rank() == 0) {
              comm.send_value<int>(1, 3, 42);
            } else {
              EXPECT_EQ(comm.recv_value<int>(0, 3), 42);
              EXPECT_EQ(comm.recv_value<int>(0, 3), 42);  // the duplicate
              EXPECT_FALSE(comm.probe(0, 3));
            }
          },
          with_plan(plan));
}

TEST(Injection, DelayAndStallPreserveSemantics) {
  const auto plan =
      pf::FaultPlan::parse("delay@rank=0,step=0,ns=2000000; stall@rank=1,step=0,ns=2000000");
  std::string log;
  auto opts = with_plan(plan);
  opts.fault_log = &log;
  pm::run(2,
          [&](pm::Comm& comm) {
            if (comm.rank() == 0) {
              comm.send_value<int>(1, 1, 7);
              EXPECT_EQ(comm.recv_value<int>(1, 2), 8);
            } else {
              EXPECT_EQ(comm.recv_value<int>(0, 1), 7);
              comm.send_value<int>(0, 2, 8);
            }
          },
          opts);
  EXPECT_NE(log.find("delay rank=0"), std::string::npos);
  EXPECT_NE(log.find("stall rank=1"), std::string::npos);
}

TEST(Injection, CrashRaisesRankFailedErrorNamingTheDeadRank) {
  const auto plan = pf::FaultPlan::parse("crash@rank=1,step=0");
  std::atomic<bool> diagnosed{false};
  pm::run(2,
          [&](pm::Comm& comm) {
            if (comm.rank() == 1) {
              comm.send_value<int>(0, 1, 5);  // dies here; never delivered
              ADD_FAILURE() << "crashed rank kept running";
            } else {
              try {
                (void)comm.recv_value<int>(1, 1);
                ADD_FAILURE() << "recv from a crashed rank completed";
              } catch (const pf::RankFailedError& e) {
                EXPECT_EQ(e.rank(), 1);
                EXPECT_NE(std::string{e.what()}.find("rank 1 failed"), std::string::npos);
                diagnosed = true;
              }
            }
          },
          with_plan(plan));
  EXPECT_TRUE(diagnosed.load());
}

// Satellite (c): a wildcard ANY_SOURCE receive racing a rank crash must
// fail fast with the crashed rank's name — not hang waiting for a message
// that can never come.
TEST(Injection, WildcardRecvRacingCrashNamesTheCrashedRank) {
  const auto plan = pf::FaultPlan::parse("crash@rank=2,step=0");
  std::atomic<bool> diagnosed{false};
  pm::run(3,
          [&](pm::Comm& comm) {
            if (comm.rank() == 2) {
              comm.send_value<int>(0, 4, 1);  // dies at its first operation
            } else if (comm.rank() == 0) {
              try {
                (void)comm.recv_value<int>(pm::kAnySource, 4);
                ADD_FAILURE() << "wildcard recv completed though the only sender crashed";
              } catch (const pf::RankFailedError& e) {
                EXPECT_EQ(e.rank(), 2);
                EXPECT_NE(std::string{e.what()}.find("rank 2 failed"), std::string::npos);
                diagnosed = true;
              }
            }
            // rank 1 exits immediately.
          },
          with_plan(plan));
  EXPECT_TRUE(diagnosed.load());
}

TEST(Injection, MachineLevelReplayIsDeterministic) {
  const auto plan = pf::FaultPlan::parse("seed=77; drop@prob=0.2; dup@prob=0.1");
  const auto drive = [&plan] {
    std::string log;
    auto opts = with_plan(plan);
    opts.fault_log = &log;
    pm::run(3,
            [](pm::Comm& comm) {
              // A lossy-tolerant workload: every rank streams to its ring
              // neighbor, receiving whatever actually arrives.
              const int next = (comm.rank() + 1) % comm.size();
              const int prev = (comm.rank() + comm.size() - 1) % comm.size();
              for (int i = 0; i < 40; ++i) comm.send_value<int>(next, 1, i);
              comm.send_value<int>(next, 2, -1);  // not dropped forever w.h.p.
              int drained = 0;
              while (comm.probe(prev, 1)) {
                (void)comm.recv_value<int>(prev, 1);
                ++drained;
              }
              (void)drained;
            },
            opts);
    return log;
  };
  // The sentinel/drain shape above is racy on purpose (drops change what
  // arrives) — but the *injection schedule* must not be: it depends only
  // on (seed, kind, rank, step).
  EXPECT_EQ(drive(), drive());
}

// ---- deadlines ---------------------------------------------------------------

TEST(Deadlines, RecvTimeoutRaisesNamedTimeoutError) {
  pm::run(2, [](pm::Comm& comm) {
    if (comm.rank() == 0) {
      try {
        (void)comm.recv<int>(1, 9, 20ms);
        ADD_FAILURE() << "recv returned without a sender";
      } catch (const pf::TimeoutError& e) {
        EXPECT_NE(std::string{e.what()}.find("timed out"), std::string::npos);
      }
    }
  });
}

TEST(Deadlines, CommWideOpTimeoutAppliesToEveryRecv) {
  pm::run(2, [](pm::Comm& comm) {
    comm.set_op_timeout(20ms);
    EXPECT_EQ(comm.op_timeout(), std::chrono::nanoseconds{20ms});
    if (comm.rank() == 1) {
      EXPECT_THROW((void)comm.recv_bytes(0, 5), pf::TimeoutError);
    }
  });
}

TEST(Deadlines, TimeoutIsTransientButRankFailureIsNot) {
  static_assert(std::is_base_of_v<pf::TransientError, pf::TimeoutError>);
  static_assert(!std::is_base_of_v<pf::TransientError, pf::RankFailedError>);
  static_assert(std::is_base_of_v<pf::RankFailedError, pf::CommRevokedError>);
  static_assert(std::is_base_of_v<peachy::Error, pf::TimeoutError>);
}

// ---- revoke / shrink ---------------------------------------------------------

TEST(Recovery, RevokeWakesARankBlockedInRecv) {
  std::atomic<bool> woke{false};
  pm::run(2, [&](pm::Comm& comm) {
    comm.set_op_timeout(5s);
    if (comm.rank() == 0) {
      try {
        (void)comm.recv_value<int>(1, 1);
        ADD_FAILURE() << "recv completed on a revoked communicator";
      } catch (const pf::CommRevokedError&) {
        woke = true;
      }
    } else {
      std::this_thread::sleep_for(5ms);  // let rank 0 block first
      comm.revoke();
    }
  });
  EXPECT_TRUE(woke.load());
}

TEST(Recovery, ShrinkRenumbersSurvivorsAndCollectivesWork) {
  const auto plan = pf::FaultPlan::parse("crash@rank=2,step=0");
  std::array<int, 4> sum{};      // indexed by world rank
  std::array<int, 4> newrank{};  // local rank on the shrunken comm
  pm::run(4,
          [&](pm::Comm& world) {
            const int wr = world.rank();
            pm::Comm comm = world;
            for (;;) {
              try {
                sum[static_cast<std::size_t>(wr)] =
                    comm.allreduce_value<int>(1, std::plus<>{});
                newrank[static_cast<std::size_t>(wr)] = comm.rank();
                return;
              } catch (const pf::CommRevokedError&) {
              } catch (const pf::RankFailedError&) {
                comm.revoke();
              }
              comm = comm.shrink();
              EXPECT_EQ(comm.size(), 3);
              EXPECT_EQ(comm.group(), (std::vector<int>{0, 1, 3}));
              EXPECT_EQ(comm.world_rank(), wr);
            }
          },
          with_plan(plan));
  // Survivors 0,1,3 allreduced over the shrunken comm: sum == 3 each, and
  // they were renumbered compactly in world-rank order.
  EXPECT_EQ(sum[0], 3);
  EXPECT_EQ(sum[1], 3);
  EXPECT_EQ(sum[3], 3);
  EXPECT_EQ(newrank[0], 0);
  EXPECT_EQ(newrank[1], 1);
  EXPECT_EQ(newrank[3], 2);
}

TEST(Recovery, ShrunkenCommDoesNotSeeStaleWorldMessages) {
  const auto plan = pf::FaultPlan::parse("crash@rank=2,step=0");
  std::atomic<bool> checked{false};
  pm::run(3,
          [&](pm::Comm& world) {
            pm::Comm comm = world;
            if (world.rank() == 0) {
              comm.send_value<int>(1, 7, 123);  // world-comm message, never received
            }
            if (world.rank() == 2) {
              comm.send_value<int>(0, 1, 0);  // dies here
              return;
            }
            try {
              (void)comm.recv_value<int>(2, 1);  // both survivors block on the dead rank
            } catch (const pf::RankFailedError&) {
              comm.revoke();
            }
            try {
              comm = comm.shrink();
            } catch (const pf::CommRevokedError&) {
              comm = comm.shrink();
            }
            if (world.rank() == 1) {
              // The world-comm message from rank 0 is queued in this rank's
              // mailbox, but the shrunken comm's probe must not match it.
              EXPECT_FALSE(comm.probe(0, 7));
              checked = true;
            }
          },
          with_plan(plan));
  EXPECT_TRUE(checked.load());
}

// ---- analysis classification -------------------------------------------------

TEST(Analysis, RankFailureIsAWarningFindingAndTheReportStaysClean) {
  const auto plan = pf::FaultPlan::parse("crash@rank=1,step=0");
  auto opts = with_plan(plan);
  const auto run = pm::run_checked(
      2,
      [](pm::Comm& comm) {
        if (comm.rank() == 1) {
          comm.send_value<int>(0, 1, 5);  // dies
        } else {
          EXPECT_THROW((void)comm.recv_value<int>(1, 1), pf::RankFailedError);
        }
      },
      opts);
  EXPECT_EQ(run.report.count(peachy::analysis::FindingKind::rank_failure), 1u);
  EXPECT_TRUE(run.report.mentions("rank 1 failed"));
  // "peer crashed" is a distinct diagnosis from "deadlock", and a run that
  // handled the failure grades clean.
  EXPECT_EQ(run.report.count(peachy::analysis::FindingKind::deadlock), 0u);
  EXPECT_TRUE(run.report.clean());
}

TEST(Analysis, DeadlineBoundedWaitIsNotADeadlock) {
  pm::RunOptions opts;
  opts.op_timeout_ns = 50'000'000;
  const auto run = pm::run_checked(
      2,
      [](pm::Comm& comm) {
        // Rank 1 exits immediately — the classic "source already finished"
        // deadlock shape, except rank 0's wait carries a deadline, so the
        // checker must let the timeout fire instead of diagnosing it.
        if (comm.rank() == 0) {
          EXPECT_THROW((void)comm.recv_value<int>(1, 9), pf::TimeoutError);
        }
      },
      opts);
  EXPECT_EQ(run.report.count(peachy::analysis::FindingKind::deadlock), 0u);
  EXPECT_TRUE(run.report.clean());
}

TEST(Analysis, InjectedDuplicateIsNotAMessageLeak) {
  const auto plan = pf::FaultPlan::parse("dup@rank=0,step=0");
  auto opts = with_plan(plan);
  const auto run = pm::run_checked(
      2,
      [](pm::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<int>(1, 1, 7);
        } else {
          EXPECT_EQ(comm.recv_value<int>(0, 1), 7);
          // The injected duplicate stays queued: debris of the plan, not a
          // program bug, so the leak scan must not indict it.
        }
      },
      opts);
  EXPECT_EQ(run.report.count(peachy::analysis::FindingKind::message_leak), 0u);
  EXPECT_TRUE(run.report.clean());
}

// ---- RetryPolicy -------------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicAndExponential) {
  const pf::RetryPolicy a{5, 1000, 2.0, 0.1, 42};
  const pf::RetryPolicy b{5, 1000, 2.0, 0.1, 42};
  for (int attempt = 1; attempt <= 5; ++attempt) {
    EXPECT_EQ(a.delay_ns(attempt), b.delay_ns(attempt)) << "attempt " << attempt;
  }
  // Zero jitter: exact exponential schedule.
  const pf::RetryPolicy exact{4, 1000, 2.0, 0.0, 0};
  EXPECT_EQ(exact.delay_ns(1), 1000u);
  EXPECT_EQ(exact.delay_ns(2), 2000u);
  EXPECT_EQ(exact.delay_ns(3), 4000u);
  // 10% jitter stays within the band.
  for (int attempt = 1; attempt <= 5; ++attempt) {
    const double base = 1000.0 * std::pow(2.0, attempt - 1);
    EXPECT_GE(a.delay_ns(attempt), static_cast<std::uint64_t>(base * 0.9));
    EXPECT_LE(a.delay_ns(attempt), static_cast<std::uint64_t>(base * 1.1));
  }
  // Different seeds disagree somewhere (jitter is actually seeded).
  const pf::RetryPolicy c{5, 1000, 2.0, 0.1, 43};
  bool differs = false;
  for (int attempt = 1; attempt <= 5; ++attempt) {
    differs = differs || a.delay_ns(attempt) != c.delay_ns(attempt);
  }
  EXPECT_TRUE(differs);
}

TEST(RetryPolicy, RetriesTransientErrorsUntilSuccess) {
  const pf::RetryPolicy policy{5, 1000, 2.0, 0.0, 0};
  int attempts = 0;
  const int result = policy.run([&] {
    if (++attempts < 3) throw pf::TimeoutError{"transient"};
    return 7;
  });
  EXPECT_EQ(result, 7);
  EXPECT_EQ(attempts, 3);
}

TEST(RetryPolicy, ExhaustionRethrowsTheLastTransientError) {
  const pf::RetryPolicy policy{3, 100, 2.0, 0.0, 0};
  int attempts = 0;
  EXPECT_THROW(policy.run([&]() -> int {
    ++attempts;
    throw pf::TimeoutError{"always"};
  }),
               pf::TimeoutError);
  EXPECT_EQ(attempts, 3);
}

TEST(RetryPolicy, NonTransientErrorsPropagateWithoutRetry) {
  const pf::RetryPolicy policy{5, 100, 2.0, 0.0, 0};
  int attempts = 0;
  EXPECT_THROW(policy.run([&]() -> int {
    ++attempts;
    throw pf::RankFailedError{0, "permanent"};
  }),
               pf::RankFailedError);
  EXPECT_EQ(attempts, 1);
}

TEST(RetryPolicy, RejectsNonsenseParameters) {
  EXPECT_THROW(pf::RetryPolicy(0), peachy::Error);
  EXPECT_THROW(pf::RetryPolicy(3, 100, 0.5), peachy::Error);
  EXPECT_THROW(pf::RetryPolicy(3, 100, 2.0, 1.0), peachy::Error);
}

// ---- checkpoint / restart ----------------------------------------------------

TEST(Checkpoint, BlobRoundTripsExactBits) {
  pf::BlobWriter w;
  w.put<std::uint64_t>(31);
  w.put<double>(0.1 + 0.2);  // a value with untidy bits
  w.put_vec(std::vector<std::int32_t>{1, -2, 3});
  w.put_vec(std::vector<double>{1e-300, -0.0, 5.5});
  const auto blob = std::move(w).take();

  pf::BlobReader r{blob};
  EXPECT_EQ(r.get<std::uint64_t>(), 31u);
  const double d = r.get<double>();
  const double expect = 0.1 + 0.2;
  EXPECT_EQ(std::memcmp(&d, &expect, sizeof d), 0);
  EXPECT_EQ(r.get_vec<std::int32_t>(), (std::vector<std::int32_t>{1, -2, 3}));
  const auto doubles = r.get_vec<double>();
  EXPECT_EQ(doubles.size(), 3u);
  EXPECT_TRUE(std::signbit(doubles[1]));
  EXPECT_TRUE(r.exhausted());
}

TEST(Checkpoint, ReaderThrowsOnTruncatedBlob) {
  pf::BlobWriter w;
  w.put<std::uint64_t>(100);  // length prefix promising 100 elements
  auto blob = std::move(w).take();
  pf::BlobReader r{blob};
  EXPECT_THROW((void)r.get_vec<double>(), peachy::Error);
}

TEST(Checkpoint, StoreKeepsOnlyTheLatestSnapshotPerKey) {
  pf::CheckpointStore store;
  EXPECT_FALSE(store.has("k"));
  store.save("k", pf::Snapshot{10, {std::byte{1}}});
  store.save("k", pf::Snapshot{20, {std::byte{2}}});
  const auto snap = store.load("k");
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->next_step, 20u);
  EXPECT_EQ(snap->blob, (std::vector<std::byte>{std::byte{2}}));
  EXPECT_FALSE(store.load("other").has_value());
}

TEST(Checkpoint, HeatRestartIsBitIdentical) {
  peachy::heat::Spec spec;
  spec.nx = 64;
  spec.nt = 50;
  const auto initial = peachy::heat::sine_mode(2);
  const auto reference = peachy::heat::solve_serial(spec, initial);

  // Interrupt at step 30: a shorter run leaves its snapshot behind, then
  // the full-length run resumes from it.
  pf::CheckpointStore store;
  peachy::heat::Spec partial = spec;
  partial.nt = 30;
  (void)peachy::heat::solve_serial(partial, initial, {10, &store, "heat"});
  ASSERT_TRUE(store.has("heat"));
  EXPECT_EQ(store.load("heat")->next_step, 30u);

  const auto resumed = peachy::heat::solve_serial(spec, initial, {10, &store, "heat"});
  EXPECT_EQ(resumed, reference);  // element-wise bit equality via operator==
}

TEST(Checkpoint, TrafficMpiRestartIsBitIdenticalAcrossRankCounts) {
  peachy::traffic::Spec spec;
  spec.cars = 40;
  spec.road_length = 200;
  spec.seed = 9;
  const std::size_t steps = 60;
  const auto reference = peachy::traffic::run_serial(spec, steps);

  // Run to step 35 (snapshot lands at step 30), then resume the full run
  // on one rank fewer — the restart crosses rank counts, and the resumed
  // velocities were derived on a different block partition.
  for (const auto& [before, after] : {std::pair{3, 2}, std::pair{4, 3}}) {
    pf::CheckpointStore store;
    pm::run(before, [&](pm::Comm& comm) {
      (void)peachy::traffic::run_mpi(comm, spec, 35, nullptr, {10, &store, "t"});
    });
    ASSERT_TRUE(store.has("t"));
    EXPECT_EQ(store.load("t")->next_step, 30u);

    std::vector<peachy::traffic::State> finals(static_cast<std::size_t>(after));
    pm::run(after, [&](pm::Comm& comm) {
      finals[static_cast<std::size_t>(comm.rank())] =
          peachy::traffic::run_mpi(comm, spec, steps, nullptr, {10, &store, "t"});
    });
    for (const auto& st : finals) EXPECT_EQ(st, reference) << before << " -> " << after;
  }
}

// ---- satellite (a): non-consuming recv_into ---------------------------------

TEST(RecvInto, SizeMismatchLeavesTheMessageQueuedAndRecoverable) {
  pm::run(2, [](pm::Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> payload{1.5, 2.5, 3.5, 4.5};
      comm.send<double>(1, 3, payload);
    } else {
      // Too-small buffer: named error, message NOT consumed.
      std::array<double, 2> small{};
      try {
        (void)comm.recv_into<double>(small, 0, 3);
        ADD_FAILURE() << "oversized payload was accepted";
      } catch (const peachy::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("would be truncated"), std::string::npos) << what;
        EXPECT_NE(what.find("message left queued"), std::string::npos) << what;
      }
      // Still queued and peekable: probe reports the true size...
      pm::Status st;
      ASSERT_TRUE(comm.probe(0, 3, &st));
      EXPECT_EQ(st.bytes, 4 * sizeof(double));
      // Too-large buffer: also refused, also non-consuming.
      std::array<double, 8> big{};
      try {
        (void)comm.recv_into<double>(big, 0, 3);
        ADD_FAILURE() << "undersized payload was accepted";
      } catch (const peachy::Error& e) {
        EXPECT_NE(std::string{e.what()}.find("is shorter than"), std::string::npos);
      }
      // ...and the right-size receive still gets the intact payload.
      std::array<double, 4> right{};
      const auto status = comm.recv_into<double>(right, 0, 3);
      EXPECT_EQ(status.bytes, 4 * sizeof(double));
      EXPECT_EQ(right[0], 1.5);
      EXPECT_EQ(right[3], 4.5);
    }
  });
}

// ---- satellite (b): ThreadPool exception capture ----------------------------

TEST(ThreadPoolFaults, RawSubmitExceptionSurfacesAtWaitIdleAndPoolSurvives) {
  peachy::support::ThreadPool pool{2};
  pool.submit([] { throw std::runtime_error{"boom"}; });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle swallowed the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // The error was cleared and every worker survived: the pool is usable.
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();  // must not rethrow the old exception
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolFaults, OnlyTheFirstExceptionIsReported) {
  peachy::support::ThreadPool pool{2};
  for (int i = 0; i < 4; ++i) {
    pool.submit([] { throw std::runtime_error{"task failed"}; });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.wait_idle();  // later exceptions were dropped, not queued
}

TEST(ThreadPoolFaults, SubmitFutureExceptionsGoThroughTheFutureNotWaitIdle) {
  peachy::support::ThreadPool pool{2};
  auto fut = pool.submit_future([]() -> int { throw std::runtime_error{"via future"}; });
  EXPECT_THROW((void)fut.get(), std::runtime_error);
  pool.wait_idle();  // the future consumed the exception; nothing to rethrow
}

// ---- obs integration ---------------------------------------------------------

TEST(FaultObs, InjectionAndRecoveryExportCounters) {
  peachy::obs::reset();
  peachy::obs::enable();
  const auto plan = pf::FaultPlan::parse("crash@rank=1,step=0");
  pm::run(2,
          [](pm::Comm& world) {
            pm::Comm comm = world;
            if (world.rank() == 1) {
              comm.send_value<int>(0, 1, 5);
              return;
            }
            try {
              (void)comm.recv_value<int>(1, 1);
            } catch (const pf::RankFailedError&) {
              comm.revoke();
              comm = comm.shrink();
              EXPECT_EQ(comm.size(), 1);
            }
          },
          with_plan(plan));
  EXPECT_GE(peachy::obs::counter("faults.injected.crash").value(), 1);
  EXPECT_GE(peachy::obs::counter("faults.rank_failed").value(), 1);
  EXPECT_GE(peachy::obs::counter("faults.revokes").value(), 1);
  EXPECT_GE(peachy::obs::histogram("faults.recovery_ns").count(), 1u);
  peachy::obs::disable();
  peachy::obs::reset();
}

// ---- wire fault plans --------------------------------------------------------

TEST(WirePlan, ParsesWireClausesAndRoundTrips) {
  const auto plan = pf::FaultPlan::parse(
      "seed=7; wire_drop@prob=0.01; wire_corrupt@rank=1,step=3,frame=ping; "
      "wire_delay@prob=0.02,ns=1000; wire_truncate@rank=0,dest=1,step=2; "
      "wire_dup@frame=failed,step=0");
  EXPECT_EQ(plan.seed(), 7u);
  ASSERT_EQ(plan.events().size(), 5u);
  EXPECT_EQ(plan.events()[0].kind, pf::FaultKind::wire_drop);
  EXPECT_EQ(plan.events()[0].frame, pf::kAnyScope);  // default: data frames only
  EXPECT_EQ(plan.events()[1].frame, pf::kWireFramePing);
  EXPECT_EQ(plan.events()[2].ns, 1000u);
  EXPECT_EQ(plan.events()[3].dest, 1);
  EXPECT_EQ(plan.events()[4].frame, pf::kWireFrameFailed);

  // Canonical rendering reparses to the identical plan, frame names included.
  EXPECT_EQ(pf::FaultPlan::parse(plan.to_string()), plan);
}

TEST(WirePlan, RejectsMalformedWireClauses) {
  // frame= is wire-level; tag= is machine-level — each is rejected on the
  // other side of the boundary, and wire_delay needs a duration.
  EXPECT_THROW((void)pf::FaultPlan::parse("drop@step=0,frame=data"), peachy::Error);
  EXPECT_THROW((void)pf::FaultPlan::parse("wire_drop@step=0,tag=7"), peachy::Error);
  EXPECT_THROW((void)pf::FaultPlan::parse("wire_delay@prob=0.5"), peachy::Error);
  EXPECT_THROW((void)pf::FaultPlan::parse("wire_corrupt@step=0,frame=bogus"), peachy::Error);
}

// ---- wire injector -----------------------------------------------------------

TEST(WireInjector, ArmedOnlyWhenThePlanHasWireEvents) {
  EXPECT_FALSE(pf::WireInjector{pf::FaultPlan::parse("crash@rank=0,step=1")}.armed());
  EXPECT_TRUE(pf::WireInjector{pf::FaultPlan::parse("wire_drop@prob=0.1")}.armed());
}

TEST(WireInjector, SameSeedReplaysIdenticalLog) {
  const auto drive = [](std::uint64_t seed) {
    auto plan = pf::FaultPlan::parse("wire_drop@prob=0.3; wire_dup@prob=0.2");
    plan.set_seed(seed);
    pf::WireInjector inj{plan};
    for (int src = 0; src < 2; ++src)
      for (std::uint64_t step = 0; step < 200; ++step)
        (void)inj.on_frame(src, 1 - src, pf::kWireFrameData);
    return inj.log_string();
  };
  const std::string a = drive(11);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, drive(11));   // bit-for-bit replay
  EXPECT_NE(a, drive(12));   // and the seed actually matters
}

TEST(WireInjector, DefaultScopeMatchesOnlyDataFrames) {
  pf::WireInjector inj{pf::FaultPlan::parse("wire_drop@step=0")};
  // Step counters are per (source, frame kind): the first hello and ping
  // are step 0 of their own kinds yet must not match a data-scoped event.
  EXPECT_FALSE(inj.on_frame(0, 1, pf::kWireFrameHello).any());
  EXPECT_FALSE(inj.on_frame(0, 1, pf::kWireFramePing).any());
  EXPECT_TRUE(inj.on_frame(0, 1, pf::kWireFrameData).drop);
  EXPECT_FALSE(inj.on_frame(0, 1, pf::kWireFrameData).any());  // step 1: past it
}

TEST(WireInjector, FrameFieldWidensScopeToControlFrames) {
  pf::WireInjector inj{pf::FaultPlan::parse("wire_corrupt@step=0,frame=ping")};
  EXPECT_FALSE(inj.on_frame(0, 1, pf::kWireFrameData).any());
  EXPECT_TRUE(inj.on_frame(0, 1, pf::kWireFramePing).corrupt);
}

TEST(WireInjector, SourceAndDestScopesSelectFrames) {
  // Steps count per (source, frame kind) — a dest-scoped event still
  // indexes by the sender's own frame counter.
  pf::WireInjector inj{
      pf::FaultPlan::parse("wire_drop@rank=1,step=0; wire_dup@dest=2,step=1")};
  EXPECT_FALSE(inj.on_frame(0, 1, pf::kWireFrameData).drop);  // src 0: out of scope
  EXPECT_TRUE(inj.on_frame(1, 0, pf::kWireFrameData).drop);   // src 1, its step 0
  EXPECT_TRUE(inj.on_frame(0, 2, pf::kWireFrameData).duplicate);  // src 0's step 1
  EXPECT_FALSE(inj.on_frame(1, 2, pf::kWireFrameData).drop);  // src 1 step 1: past drop

  // The log renders in canonical order with frame names.
  const std::string log = inj.log_string();
  EXPECT_NE(log.find("wire_drop rank=1 step=0 dest=0 frame=data"), std::string::npos);
  EXPECT_NE(log.find("wire_dup"), std::string::npos);
}

// ---- heartbeat failure detection ---------------------------------------------

namespace {

/// 100ms timeout → 50ms floor interval → 50ms grace; small enough to
/// reason about in nanosecond literals.
pf::HeartbeatConfig tiny_hb() { return pf::HeartbeatConfig{100'000'000}; }

}  // namespace

TEST(Heartbeat, ConfigFromEnvGatesOnLaunchedMultiProcess) {
  const char* saved = std::getenv("PEACHY_HEARTBEAT_TIMEOUT");
  const std::string saved_val = saved != nullptr ? saved : "";
  ::unsetenv("PEACHY_HEARTBEAT_TIMEOUT");

  EXPECT_EQ(pf::HeartbeatConfig::from_env(true, 4).timeout_ns, 10'000'000'000u);
  EXPECT_FALSE(pf::HeartbeatConfig::from_env(true, 1).enabled());   // no peers
  EXPECT_FALSE(pf::HeartbeatConfig::from_env(false, 4).enabled());  // in-process world

  ::setenv("PEACHY_HEARTBEAT_TIMEOUT", "2000", 1);
  EXPECT_EQ(pf::HeartbeatConfig::from_env(true, 4).timeout_ns, 2'000'000'000u);
  EXPECT_FALSE(pf::HeartbeatConfig::from_env(false, 4).enabled());  // env never widens
  ::setenv("PEACHY_HEARTBEAT_TIMEOUT", "0", 1);
  EXPECT_FALSE(pf::HeartbeatConfig::from_env(true, 4).enabled());   // explicit off

  if (saved != nullptr)
    ::setenv("PEACHY_HEARTBEAT_TIMEOUT", saved_val.c_str(), 1);
  else
    ::unsetenv("PEACHY_HEARTBEAT_TIMEOUT");

  // Interval floors at 50ms so tiny timeouts do not busy-spin the pump.
  EXPECT_EQ(tiny_hb().interval_ns(), 50'000'000u);
  EXPECT_EQ(pf::HeartbeatConfig{40'000'000'000}.interval_ns(), 10'000'000'000u);
}

TEST(Heartbeat, SuspectThenConfirmEachReportedExactlyOnce) {
  using V = pf::HeartbeatMonitor::Verdict;
  pf::HeartbeatMonitor mon{2, tiny_hb()};
  const std::uint64_t t0 = 1'000'000'000;
  mon.alive(0, t0);

  EXPECT_EQ(mon.check(0, t0 + 100'000'000), V::kAlive);      // exactly at timeout
  EXPECT_EQ(mon.check(0, t0 + 100'000'001), V::kSuspected);  // just past it
  EXPECT_EQ(mon.check(0, t0 + 110'000'000), V::kAlive);      // transition reported once
  EXPECT_EQ(mon.check(0, t0 + 150'000'000), V::kAlive);      // still inside grace
  EXPECT_EQ(mon.check(0, t0 + 150'000'001), V::kConfirmed);  // past timeout + grace
  EXPECT_EQ(mon.check(0, t0 + 200'000'000), V::kAlive);      // confirm reported once
  EXPECT_TRUE(mon.confirmed(0));
  EXPECT_FALSE(mon.confirmed(1));
}

TEST(Heartbeat, ProofOfLifeRehabilitatesASuspect) {
  using V = pf::HeartbeatMonitor::Verdict;
  pf::HeartbeatMonitor mon{1, tiny_hb()};
  const std::uint64_t t0 = 1'000'000'000;
  mon.alive(0, t0);
  EXPECT_EQ(mon.check(0, t0 + 120'000'000), V::kSuspected);
  mon.alive(0, t0 + 130'000'000);  // it was merely descheduled
  EXPECT_EQ(mon.check(0, t0 + 140'000'000), V::kAlive);
  EXPECT_FALSE(mon.confirmed(0));
  // Fresh silence restarts the whole suspect → confirm ladder.
  EXPECT_EQ(mon.check(0, t0 + 230'000'001), V::kSuspected);
}

TEST(Heartbeat, FirstCheckAnchorsANeverHeardPeer) {
  // A peer wedged before it ever spoke must still be confirmed: the first
  // check anchors its clock, and the normal ladder runs from there.
  using V = pf::HeartbeatMonitor::Verdict;
  pf::HeartbeatMonitor mon{1, tiny_hb()};
  const std::uint64_t t0 = 5'000'000'000;
  EXPECT_EQ(mon.check(0, t0), V::kAlive);  // anchor, not a verdict
  EXPECT_EQ(mon.check(0, t0 + 100'000'001), V::kSuspected);
  EXPECT_EQ(mon.check(0, t0 + 150'000'001), V::kConfirmed);
  EXPECT_TRUE(mon.confirmed(0));
}

TEST(Heartbeat, ConfirmIsStickyAndStaleStampsAreIgnored) {
  using V = pf::HeartbeatMonitor::Verdict;
  pf::HeartbeatMonitor mon{1, tiny_hb()};
  const std::uint64_t t0 = 1'000'000'000;
  mon.alive(0, t0);
  mon.alive(0, t0 - 500'000'000);  // stale stamp must not rewind the clock
  EXPECT_EQ(mon.check(0, t0 + 100'000'001), V::kSuspected);
  EXPECT_EQ(mon.check(0, t0 + 150'000'001), V::kConfirmed);
  mon.alive(0, t0 + 200'000'000);  // too late: death is sticky, like peer_failed
  EXPECT_TRUE(mon.confirmed(0));
  EXPECT_EQ(mon.check(0, t0 + 300'000'000), V::kAlive);
}

TEST(Heartbeat, DisabledConfigNeverSuspects) {
  using V = pf::HeartbeatMonitor::Verdict;
  pf::HeartbeatMonitor mon{1, pf::HeartbeatConfig{0}};
  EXPECT_EQ(mon.check(0, 1), V::kAlive);
  EXPECT_EQ(mon.check(0, 1'000'000'000'000), V::kAlive);
  EXPECT_FALSE(mon.confirmed(0));
}

// ---- durable checkpoints -----------------------------------------------------

namespace {

/// Fresh scratch directory per test; removed on destruction.
struct CkptDir {
  std::string path;
  explicit CkptDir(const std::string& name) : path{::testing::TempDir() + name} {
    std::filesystem::remove_all(path);
  }
  ~CkptDir() { std::filesystem::remove_all(path); }
};

pf::Snapshot sample_snapshot() {
  pf::BlobWriter w;
  w.put<std::uint64_t>(42);
  w.put_vec(std::vector<double>{1.5, -2.25, 1e-300, 3.0});
  return pf::Snapshot{7, std::move(w).take()};
}

}  // namespace

TEST(DurableCheckpoint, RoundTripsAcrossStoreInstances) {
  const CkptDir dir{"peachy_ckpt_rt"};
  const pf::Snapshot snap = sample_snapshot();
  {
    pf::DurableCheckpointStore store{dir.path};
    store.save("traffic", snap);
    EXPECT_TRUE(store.has("traffic"));
    EXPECT_FALSE(store.has("kmeans"));
  }
  // A new store over the same directory — the "survivor restores what the
  // dead owner wrote" path — sees the exact bytes.
  pf::DurableCheckpointStore store{dir.path};
  const auto got = store.load("traffic");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->next_step, snap.next_step);
  EXPECT_EQ(got->blob, snap.blob);
  EXPECT_FALSE(store.load("kmeans").has_value());
}

TEST(DurableCheckpoint, KeepsOnlyTheLatestSnapshotPerKey) {
  const CkptDir dir{"peachy_ckpt_latest"};
  pf::DurableCheckpointStore store{dir.path};
  store.save("k", pf::Snapshot{1, {std::byte{0xAA}}});
  store.save("k", pf::Snapshot{2, {std::byte{0xBB}, std::byte{0xCC}}});
  const auto got = store.load("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->next_step, 2u);
  ASSERT_EQ(got->blob.size(), 2u);
  EXPECT_EQ(got->blob[0], std::byte{0xBB});
}

TEST(DurableCheckpoint, SanitizesKeysToFilesystemSafeNames) {
  const CkptDir dir{"peachy_ckpt_keys"};
  pf::DurableCheckpointStore store{dir.path};
  EXPECT_EQ(store.path_for("a/b c"), dir.path + "/a_b_c.ckpt");
  store.save("a/b c", pf::Snapshot{3, {std::byte{1}}});
  ASSERT_TRUE(store.load("a/b c").has_value());
  EXPECT_EQ(store.load("a/b c")->next_step, 3u);
}

TEST(DurableCheckpoint, TruncatedFileIsNamedCorruptionAndFallsBackFresh) {
  const CkptDir dir{"peachy_ckpt_trunc"};
  pf::DurableCheckpointStore store{dir.path};
  store.save("k", sample_snapshot());
  std::filesystem::resize_file(store.path_for("k"), 10);

  EXPECT_THROW((void)store.load_strict("k"), pf::CheckpointCorruptError);

  // The paranoid loader maps the same damage to "no snapshot" + a counter
  // so recovery falls back to a fresh start instead of crashing.
  peachy::obs::reset();
  peachy::obs::enable();
  EXPECT_FALSE(store.load("k").has_value());
  EXPECT_EQ(peachy::obs::counter("faults.ckpt.corrupt").value(), 1);
  peachy::obs::disable();
  peachy::obs::reset();
}

TEST(DurableCheckpoint, BitFlipAnywhereFailsTheCrc) {
  const CkptDir dir{"peachy_ckpt_flip"};
  pf::DurableCheckpointStore store{dir.path};
  store.save("k", sample_snapshot());
  const std::string path = store.path_for("k");
  {
    std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    const char byte = static_cast<char>(f.peek() ^ 0x01);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  try {
    (void)store.load_strict("k");
    FAIL() << "bit flip must fail validation";
  } catch (const pf::CheckpointCorruptError& e) {
    EXPECT_NE(std::string{e.what()}.find("CRC"), std::string::npos);
  }
  EXPECT_FALSE(store.load("k").has_value());
}

TEST(DurableCheckpoint, VersionMismatchIsNamedNotMisreadAsCrcDamage) {
  const CkptDir dir{"peachy_ckpt_ver"};
  pf::DurableCheckpointStore store{dir.path};
  store.save("k", sample_snapshot());
  const std::string path = store.path_for("k");

  // Forge a future-version file with a *valid* CRC: bump the version word
  // and re-seal, so the loader must blame the version, not the checksum.
  std::vector<char> bytes;
  {
    std::ifstream f{path, std::ios::binary};
    bytes.assign(std::istreambuf_iterator<char>{f}, std::istreambuf_iterator<char>{});
  }
  ASSERT_GT(bytes.size(), 28u);
  bytes[4] = 2;  // version lives at offset 4, little-endian
  const std::uint32_t crc =
      peachy::kernels::crc32c(0, bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  {
    std::ofstream f{path, std::ios::binary | std::ios::trunc};
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)store.load_strict("k");
    FAIL() << "version mismatch must be named";
  } catch (const pf::CheckpointCorruptError& e) {
    EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos);
  }
  EXPECT_FALSE(store.load("k").has_value());
}
