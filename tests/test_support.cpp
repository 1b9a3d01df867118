// Unit tests for peachy::support — pool, barrier, parallel loops, stats,
// hashing, CLI, and table rendering.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <new>
#include <numeric>
#include <set>
#include <thread>

#include "support/barrier.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/hash.hpp"
#include "support/parallel_for.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace ps = peachy::support;

// ---- check -----------------------------------------------------------------

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(PEACHY_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsWithExpressionAndMessage) {
  try {
    PEACHY_CHECK(2 < 1, "two is not less than one");
    FAIL() << "expected throw";
  } catch (const peachy::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("two is not less than one"), std::string::npos);
  }
}

TEST(Check, ThrowsWithoutMessage) { EXPECT_THROW(PEACHY_CHECK(false), peachy::Error); }

// ---- hash ------------------------------------------------------------------

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(ps::fnv1a64(""), 0xcbf29ce484222325ULL);
  // Published vector: fnv1a64("a") = 0xaf63dc4c8601ec8c.
  EXPECT_EQ(ps::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, StableAcrossCalls) {
  EXPECT_EQ(ps::stable_hash(std::string{"query17"}), ps::stable_hash(std::string{"query17"}));
  EXPECT_EQ(ps::stable_hash(12345), ps::stable_hash(12345));
  EXPECT_NE(ps::stable_hash(12345), ps::stable_hash(12346));
}

TEST(Hash, Mix64IsInjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) seen.insert(ps::mix64(i));
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Hash, PairHashing) {
  const auto a = ps::stable_hash(std::pair<int, int>{1, 2});
  const auto b = ps::stable_hash(std::pair<int, int>{2, 1});
  EXPECT_NE(a, b);
}

// ---- static_block ----------------------------------------------------------

TEST(StaticBlock, CoversRangeExactlyOnce) {
  for (std::size_t n : {0u, 1u, 7u, 100u, 101u}) {
    for (std::size_t parts : {1u, 2u, 3u, 8u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t t = 0; t < parts; ++t) {
        const auto r = ps::static_block(n, parts, t);
        EXPECT_EQ(r.begin, prev_end);
        covered += r.end - r.begin;
        prev_end = r.end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(StaticBlock, NearEven) {
  // 10 over 4 → sizes 3,3,2,2.
  EXPECT_EQ(ps::static_block(10, 4, 0).end - ps::static_block(10, 4, 0).begin, 3u);
  EXPECT_EQ(ps::static_block(10, 4, 3).end - ps::static_block(10, 4, 3).begin, 2u);
}

TEST(StaticBlock, RejectsBadArgs) {
  EXPECT_THROW((void)ps::static_block(10, 0, 0), peachy::Error);
  EXPECT_THROW((void)ps::static_block(10, 2, 2), peachy::Error);
}

// ---- thread pool -----------------------------------------------------------

TEST(ThreadPool, ExecutesAllTasks) {
  ps::ThreadPool pool{4};
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  EXPECT_GE(pool.tasks_executed(), 100u);
}

TEST(ThreadPool, FuturePropagatesValue) {
  ps::ThreadPool pool{2};
  auto f = pool.submit_future([] { return 42; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, FuturePropagatesException) {
  ps::ThreadPool pool{2};
  auto f = pool.submit_future([]() -> int { throw std::runtime_error{"boom"}; });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, NestedSubmission) {
  ps::ThreadPool pool{2};
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &count] {
      for (int j = 0; j < 10; ++j) pool.submit([&count] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WorkerIndexVisibleInsideTasks) {
  ps::ThreadPool pool{3};
  auto f = pool.submit_future([&pool] { return pool.worker_index(); });
  const std::size_t idx = f.get();
  EXPECT_LT(idx, 3u);
  EXPECT_EQ(pool.worker_index(), static_cast<std::size_t>(-1));  // caller is not a worker
}

TEST(ThreadPool, RejectsNullTask) {
  ps::ThreadPool pool{1};
  EXPECT_THROW(pool.submit(ps::ThreadPool::Task{}), peachy::Error);
}

namespace {
/// What the idle hook and the test body share.  Hooks from any other
/// pool in the process pass straight through.
struct ParkedWorker {
  const ps::ThreadPool* pool = nullptr;
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  bool ran = false;
  bool slept_with_work = false;
};
ParkedWorker g_parked;

void park_once(const ps::ThreadPool* pool, ps::test_hooks::IdleStep step) {
  if (pool != g_parked.pool) return;
  std::unique_lock lock{g_parked.mu};
  if (step == ps::test_hooks::IdleStep::kScannedEmpty) {
    if (g_parked.parked) return;
    g_parked.parked = true;
    g_parked.cv.notify_all();
    g_parked.cv.wait(lock, [] { return g_parked.released; });
  } else if (g_parked.released && !g_parked.ran) {
    // About to block with the task still queued: its wakeup was lost.
    g_parked.slept_with_work = true;
    g_parked.cv.notify_all();
  }
}
}  // namespace

// The missed-notify race, replayed deterministically: the only worker
// is parked after scanning every queue empty and before taking the idle
// mutex to sleep, a task is submitted right there, and then the worker
// is let go.  The submit's wakeup must survive the window — the worker
// runs the task instead of blocking with it queued.  The hook reports a
// worker that blocks anyway, so a regression fails here rather than
// hanging, and no clock is involved.
TEST(ThreadPool, SubmitWhileWorkerParksBeforeWaitIsNotMissed) {
  // Constructed in place so the hook knows the pool's address before its
  // worker first goes idle.
  alignas(ps::ThreadPool) unsigned char storage[sizeof(ps::ThreadPool)];
  g_parked.pool = reinterpret_cast<const ps::ThreadPool*>(storage);
  g_parked.parked = g_parked.released = g_parked.ran = g_parked.slept_with_work = false;
  ps::test_hooks::g_idle_hook.store(&park_once);
  auto* pool = new (storage) ps::ThreadPool{1};
  {
    std::unique_lock lock{g_parked.mu};
    g_parked.cv.wait(lock, [] { return g_parked.parked; });
  }
  pool->submit([] {
    const std::lock_guard lock{g_parked.mu};
    g_parked.ran = true;
    g_parked.cv.notify_all();
  });
  {
    std::unique_lock lock{g_parked.mu};
    g_parked.released = true;
    g_parked.cv.notify_all();
    g_parked.cv.wait(lock, [] { return g_parked.ran || g_parked.slept_with_work; });
  }
  EXPECT_TRUE(g_parked.ran);
  EXPECT_FALSE(g_parked.slept_with_work)
      << "the worker went to sleep with a task queued: the submit's wakeup was lost";
  pool->~ThreadPool();
  ps::test_hooks::g_idle_hook.store(nullptr);
}

// ---- barrier ---------------------------------------------------------------

TEST(CyclicBarrier, SynchronizesPhases) {
  constexpr std::size_t kParties = 4;
  constexpr int kPhases = 25;
  ps::CyclicBarrier bar{kParties};
  std::vector<int> progress(kParties, 0);
  std::atomic<bool> out_of_step{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&, t] {
      for (int ph = 0; ph < kPhases; ++ph) {
        progress[t] = ph;
        bar.arrive_and_wait();
        // After the barrier every participant must have recorded phase ph.
        for (std::size_t o = 0; o < kParties; ++o) {
          if (progress[o] < ph) out_of_step.store(true);
        }
        bar.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(out_of_step.load());
}

TEST(CyclicBarrier, ReturnsMonotonicPhase) {
  ps::CyclicBarrier bar{1};
  EXPECT_EQ(bar.arrive_and_wait(), 0u);
  EXPECT_EQ(bar.arrive_and_wait(), 1u);
  EXPECT_EQ(bar.arrive_and_wait(), 2u);
}

TEST(CyclicBarrier, RejectsZeroParties) { EXPECT_THROW(ps::CyclicBarrier{0}, peachy::Error); }

// ---- parallel_for ----------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexOnce) {
  ps::ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(1000);
  ps::parallel_for(pool, 0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ps::ThreadPool pool{2};
  int calls = 0;
  ps::parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  ps::parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, CorrectAtEveryGrain) {
  // grain 0 always dispatches, a grain at or above n runs inline, and the
  // default (kInlineGrain) dispatches this 3000-iteration loop: results
  // are the same either way.
  ps::ThreadPool pool{4};
  for (const std::size_t grain :
       {std::size_t{0}, std::size_t{1}, ps::kInlineGrain, std::size_t{100000}}) {
    std::vector<int> hits(3000, 0);
    ps::parallel_for(
        pool, 0, hits.size(), [&](std::size_t i) { hits[i] = static_cast<int>(i % 7); }, grain);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], static_cast<int>(i % 7)) << "grain=" << grain;
    }
  }
}

TEST(ParallelForThreads, StaticScheduleMatchesBlockRule) {
  ps::ThreadPool pool{4};
  std::mutex mu;
  std::map<std::size_t, std::pair<std::size_t, std::size_t>> blocks;
  ps::parallel_for_threads(pool, 103, 4, [&](std::size_t t, std::size_t lo, std::size_t hi) {
    std::lock_guard lock{mu};
    blocks[t] = {lo, hi};
  });
  ASSERT_EQ(blocks.size(), 4u);
  for (std::size_t t = 0; t < 4; ++t) {
    const auto expect = ps::static_block(103, 4, t);
    EXPECT_EQ(blocks[t].first, expect.begin);
    EXPECT_EQ(blocks[t].second, expect.end);
  }
}

TEST(ParallelReduce, SumsCorrectly) {
  ps::ThreadPool pool{4};
  const auto total = ps::parallel_reduce(
      pool, 0, 10001, std::int64_t{0}, std::plus<>{},
      [](std::size_t i) { return static_cast<std::int64_t>(i); });
  EXPECT_EQ(total, 10001LL * 10000 / 2);
}

TEST(ParallelReduce, DeterministicForFixedThreadCount) {
  ps::ThreadPool pool{3};
  auto run = [&] {
    return ps::parallel_reduce(pool, 0, 5000, 0.0, std::plus<>{},
                               [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); });
  };
  EXPECT_EQ(run(), run());  // bitwise equal: partials combined in thread order
}

// ---- stats -----------------------------------------------------------------

TEST(Stats, MeanVariancePercentile) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ps::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(ps::variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(ps::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ps::percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(ps::percentile(xs, 0.5), 3.0);
}

TEST(Stats, SummaryFields) {
  const std::vector<double> xs{4, 1, 3, 2};
  const auto s = ps::summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
}

TEST(Stats, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW((void)ps::mean(empty), peachy::Error);
  EXPECT_THROW((void)ps::summarize(empty), peachy::Error);
  EXPECT_THROW((void)ps::percentile(empty, 0.5), peachy::Error);
}

TEST(Stats, PercentileRejectsBadQ) {
  const std::vector<double> xs{1, 2};
  EXPECT_THROW((void)ps::percentile(xs, -0.1), peachy::Error);
  EXPECT_THROW((void)ps::percentile(xs, 1.1), peachy::Error);
}

TEST(Stats, ChiSquaredUniformOnPerfectHistogram) {
  const std::vector<std::uint64_t> h(16, 100);
  EXPECT_DOUBLE_EQ(ps::chi_squared_uniform(h), 0.0);
}

TEST(Stats, LoadImbalance) {
  const std::vector<double> balanced{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(ps::load_imbalance_cv(balanced), 0.0);
  const std::vector<double> skewed{10, 0, 0, 0};
  EXPECT_GT(ps::load_imbalance_cv(skewed), 1.0);
}

// ---- cli -------------------------------------------------------------------

TEST(Cli, ParsesTypedDefaultsAndOverrides) {
  const char* argv[] = {"prog", "--n=42", "--rate", "0.5", "--verbose"};
  ps::Cli cli{5, argv};
  EXPECT_EQ(cli.get<int>("n", 7), 42);
  EXPECT_DOUBLE_EQ(cli.get<double>("rate", 0.1), 0.5);
  EXPECT_EQ(cli.get<int>("missing", 9), 9);
  EXPECT_TRUE(cli.flag("verbose"));
  EXPECT_FALSE(cli.flag("quiet"));
  EXPECT_NO_THROW(cli.finish());
}

TEST(Cli, RejectsUnknownOption) {
  const char* argv[] = {"prog", "--bogus=1"};
  ps::Cli cli{2, argv};
  EXPECT_THROW(cli.finish(), peachy::Error);
}

TEST(Cli, RejectsMalformedValue) {
  const char* argv[] = {"prog", "--n=notanumber"};
  ps::Cli cli{2, argv};
  EXPECT_THROW((void)cli.get<int>("n", 0), peachy::Error);
}

TEST(Cli, StringValuesPassThrough) {
  const char* argv[] = {"prog", "--name=hello world"};
  ps::Cli cli{2, argv};
  EXPECT_EQ(cli.get<std::string>("name", ""), "hello world");
}

// ---- table -----------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  ps::Table t;
  t.header({"name", "value"});
  t.row({std::string{"alpha"}, 1.5});
  t.row({std::string{"b"}, std::int64_t{42}});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  ps::Table t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({std::string{"only-one"}}), peachy::Error);
}

// ---- timer -----------------------------------------------------------------

TEST(Stopwatch, MeasuresElapsedTime) {
  ps::Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
  EXPECT_GE(sw.elapsed_ms(), 5.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_ms(), 5.0);
}

TEST(Timer, TimeBestOfRunsAllReps) {
  int runs = 0;
  (void)ps::time_best_of(5, [&] { ++runs; });
  EXPECT_EQ(runs, 5);
}
