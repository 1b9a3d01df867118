// Tests for peachy::obs: span recording and per-thread nesting, counters
// and histograms, trace JSON output, the disabled-mode contract, and the
// cross-checks the ISSUE's bugfixes are validated through (obs counters vs
// TrafficStats, thread-pool dispatch latency).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "analysis/report.hpp"
#include "faults/detect.hpp"
#include "faults/plan.hpp"
#include "mpi/mpi.hpp"
#include "obs/obs.hpp"
#include "support/parallel_for.hpp"
#include "support/thread_pool.hpp"

namespace po = peachy::obs;
namespace ps = peachy::support;
namespace pm = peachy::mpi;

namespace {

/// RAII: enable obs for one test, restore disabled + watermark after.
struct ScopedTrace {
  ScopedTrace() {
    po::reset();
    po::enable();
  }
  ~ScopedTrace() {
    po::disable();
    po::reset();
  }
};

std::vector<po::EventView> spans_only(const std::vector<po::EventView>& evs) {
  std::vector<po::EventView> out;
  for (const auto& e : evs) {
    if (e.kind == po::EventView::Kind::kSpan) out.push_back(e);
  }
  return out;
}

}  // namespace

// ---- spans -------------------------------------------------------------------

TEST(ObsSpans, RecordsCategoryNameAndArg) {
  ScopedTrace trace;
  { const po::SpanScope s{"test", "outer", "n", 42}; }
  const auto spans = spans_only(po::snapshot_events());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].cat, "test");
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].arg_key, "n");
  EXPECT_EQ(spans[0].arg_val, 42);
}

TEST(ObsSpans, ArgCanBeSetAtScopeEnd) {
  ScopedTrace trace;
  {
    po::SpanScope s{"test", "late"};
    s.arg("result", 7);
  }
  const auto spans = spans_only(po::snapshot_events());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].arg_key, "result");
  EXPECT_EQ(spans[0].arg_val, 7);
}

TEST(ObsSpans, NestingIsWellFormedPerThread) {
  ScopedTrace trace;
  ps::ThreadPool pool{4};
  // Nested regions from many threads: outer span on each task, inner spans
  // within, plus parallel_for's own region spans.
  ps::parallel_for(
      pool, 0, 64,
      [&](std::size_t i) {
        const po::SpanScope outer{"test", "outer"};
        for (int j = 0; j < 3; ++j) {
          const po::SpanScope inner{"test", "inner", "i",
                                    static_cast<std::int64_t>(i)};
        }
      },
      /*grain=*/0);
  pool.wait_idle();

  std::map<std::uint32_t, std::vector<po::EventView>> by_tid;
  for (const auto& e : spans_only(po::snapshot_events())) {
    by_tid[e.tid].push_back(e);
  }
  ASSERT_FALSE(by_tid.empty());
  for (auto& [tid, spans] : by_tid) {
    // Within one thread, spans must form a forest: any two either nest
    // fully or don't overlap at all (RAII scopes guarantee it; this checks
    // the recorded timestamps preserve it).
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.dur_ns > b.dur_ns;
    });
    std::vector<std::uint64_t> stack;  // open span end times
    for (const auto& s : spans) {
      while (!stack.empty() && s.ts_ns >= stack.back()) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(s.ts_ns + s.dur_ns, stack.back())
            << "span [" << s.cat << ":" << s.name << "] on tid " << tid
            << " partially overlaps an enclosing span";
      }
      stack.push_back(s.ts_ns + s.dur_ns);
    }
  }
}

TEST(ObsSpans, DisabledModeRecordsNothing) {
  po::disable();
  po::reset();
  { const po::SpanScope s{"test", "ghost"}; }
  po::gauge("test.gauge", 1);
  EXPECT_TRUE(po::snapshot_events().empty());
}

TEST(ObsSpans, ResetHidesOlderEvents) {
  ScopedTrace trace;
  { const po::SpanScope s{"test", "before"}; }
  po::reset();
  { const po::SpanScope s{"test", "after"}; }
  const auto spans = spans_only(po::snapshot_events());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "after");
}

// ---- counters / histograms ---------------------------------------------------

TEST(ObsCounters, AccumulateAndReadBack) {
  ScopedTrace trace;
  po::Counter& c = po::counter("test.counter");
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12);
  EXPECT_EQ(po::counter_value("test.counter"), 12);
  EXPECT_EQ(po::counter_value("test.never_registered"), 0);
}

TEST(ObsHistogram, PercentileBoundsBracketTheData) {
  ScopedTrace trace;
  po::Histogram& h = po::histogram("test.hist");
  // 99 small values and one large outlier.
  for (int i = 0; i < 99; ++i) h.note(100);
  h.note(1'000'000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max(), 1'000'000u);
  EXPECT_GE(h.percentile_upper_bound(0.50), 100u);
  EXPECT_LT(h.percentile_upper_bound(0.50), 256u);   // 100 lives in [64,128)
  EXPECT_GE(h.percentile_upper_bound(0.999), 1'000'000u);
  EXPECT_EQ(po::histogram("test.hist").count(), 100u);  // same object
}

TEST(ObsCounters, SummaryTextListsNonZeroEntries) {
  ScopedTrace trace;
  po::counter("test.summary_counter").add(3);
  po::histogram("test.summary_hist").note(1000);
  const std::string s = po::summary_text();
  EXPECT_NE(s.find("test.summary_counter = 3"), std::string::npos);
  EXPECT_NE(s.find("test.summary_hist"), std::string::npos);
}

// ---- gauges ------------------------------------------------------------------

TEST(ObsGauges, RecordTimestampedValues) {
  ScopedTrace trace;
  po::gauge("test.depth", 3);
  po::gauge("test.depth", 1);
  std::vector<std::int64_t> vals;
  for (const auto& e : po::snapshot_events()) {
    if (e.kind == po::EventView::Kind::kGauge && e.name == "test.depth") {
      vals.push_back(e.arg_val);
    }
  }
  EXPECT_EQ(vals, (std::vector<std::int64_t>{3, 1}));
}

// ---- trace JSON --------------------------------------------------------------

TEST(ObsTrace, WritesSchemaTaggedChromeJson) {
  ScopedTrace trace;
  { const po::SpanScope s{"test", "traced \"span\"", "bytes", 17}; }
  po::gauge("test.gauge", 9);
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(po::write_trace(path));
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());

  EXPECT_NE(json.find("\"schema\": \"peachy-trace/1\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\\\"span\\\""), std::string::npos);  // quotes escaped
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Balanced braces is a cheap well-formedness proxy; scripts/check.sh
  // parses a real trace with a real JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ObsTrace, UnwritablePathReturnsFalse) {
  ScopedTrace trace;
  EXPECT_FALSE(po::write_trace("/nonexistent-dir/trace.json"));
}

// ---- substrate integration ---------------------------------------------------

TEST(ObsIntegration, MpiCountersMatchTrafficStats) {
  ScopedTrace trace;
  // Checked allreduce run: every post goes through the instrumented path,
  // so the obs counters must agree exactly with the machine's TrafficStats.
  const auto run = pm::run_checked(4, [](pm::Comm& c) {
    const double v = static_cast<double>(c.rank() + 1);
    const double total = c.allreduce_value<double>(v, std::plus<>{});
    EXPECT_DOUBLE_EQ(total, 10.0);
  });
  EXPECT_TRUE(run.report.clean()) << run.report.to_string();
  EXPECT_EQ(po::counter_value("mpi.messages"),
            static_cast<std::int64_t>(run.stats.messages));
  EXPECT_EQ(po::counter_value("mpi.bytes"),
            static_cast<std::int64_t>(run.stats.bytes));
  EXPECT_GT(run.stats.messages, 0u);
}

TEST(ObsIntegration, MpiSpansAndQueueGaugesRecorded) {
  ScopedTrace trace;
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 0, 99);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 0), 99);
    }
  });
  bool saw_post = false, saw_recv = false, saw_gauge = false;
  for (const auto& e : po::snapshot_events()) {
    if (e.kind == po::EventView::Kind::kSpan && e.cat == "mpi") {
      saw_post |= e.name == "post";
      saw_recv |= e.name == "recv";
    }
    if (e.kind == po::EventView::Kind::kGauge &&
        e.name.rfind("mpi.queue[", 0) == 0) {
      saw_gauge = true;
    }
  }
  EXPECT_TRUE(saw_post);
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_gauge);
}

TEST(ObsIntegration, PoolDwellHistogramPopulated) {
  ScopedTrace trace;
  ps::ThreadPool pool{2};
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_GE(po::histogram("pool.dwell_ns").count(), 32u);
}

// ---- wire fault / heartbeat counter cross-checks (DESIGN.md §17) ------------

TEST(ObsIntegration, WireFaultCountersMatchTheInjectorLogExactly) {
  // Deterministic step-scoped wire events: the plan fires a known number
  // of times, so `faults.wire.*` and `mpi.transport.crc_fail` must equal
  // the injector's canonical log line-for-line, not merely be nonzero.
  ScopedTrace trace;
  const auto plan = peachy::faults::FaultPlan::parse(
      "wire_dup@rank=0,step=0; wire_delay@rank=1,step=0,ns=100000; "
      "wire_corrupt@rank=0,step=2");
  std::string log;
  pm::RunOptions o;
  o.transport = pm::TransportKind::kShm;
  o.plan = &plan;
  o.check = peachy::analysis::CheckLevel::off;
  o.op_timeout_ns = 5'000'000'000;
  o.fault_log = &log;
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 1, 10);                  // step 0: duplicated
      c.send_value<int>(1, 2, 20);                  // step 1: clean
      c.send<int>(1, 3, std::vector<int>(32, 3));   // step 2: corrupted → lost
      EXPECT_EQ(c.recv_value<int>(1, 9), 90);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 1), 10);
      EXPECT_EQ(c.recv_value<int>(0, 1), 10);  // the duplicate's twin
      EXPECT_EQ(c.recv_value<int>(0, 2), 20);
      c.send_value<int>(0, 9, 90);  // rank 1 step 0: delayed, then delivered
    }
  }, o);

  const auto lines_with = [&log](const char* needle) {
    std::int64_t n = 0;
    for (std::size_t at = log.find(needle); at != std::string::npos;
         at = log.find(needle, at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(lines_with("wire_dup"), 1);
  EXPECT_EQ(lines_with("wire_delay"), 1);
  EXPECT_EQ(lines_with("wire_corrupt"), 1);
  EXPECT_EQ(po::counter("faults.wire.dup").value(), lines_with("wire_dup"));
  EXPECT_EQ(po::counter("faults.wire.delay").value(), lines_with("wire_delay"));
  EXPECT_EQ(po::counter("faults.wire.corrupt").value(), lines_with("wire_corrupt"));
  // Every corrupted frame — and nothing else in this plan — trips the
  // receive-side CRC check.
  EXPECT_EQ(po::counter("mpi.transport.crc_fail").value(), lines_with("wire_corrupt"));
  EXPECT_EQ(po::counter("faults.wire.drop").value(), 0);
  EXPECT_EQ(po::counter("faults.wire.truncate").value(), 0);
}

TEST(ObsIntegration, HeartbeatCountersMatchMonitorTransitions) {
  // Drive the failure-detector state machine directly and tally its
  // verdicts; the exported counters must agree transition-for-transition.
  ScopedTrace trace;
  using V = peachy::faults::HeartbeatMonitor::Verdict;
  peachy::faults::HeartbeatMonitor mon{2, peachy::faults::HeartbeatConfig{100'000'000}};
  const std::uint64_t t0 = 1'000'000'000;
  mon.alive(0, t0);
  mon.alive(1, t0);

  std::int64_t suspected = 0;
  std::int64_t confirmed = 0;
  const auto tally = [&](V v) {
    if (v == V::kSuspected) ++suspected;
    if (v == V::kConfirmed) ++confirmed;
  };
  tally(mon.check(0, t0 + 120'000'000));  // peer 0: suspected
  tally(mon.check(0, t0 + 160'000'000));  // ... confirmed
  tally(mon.check(1, t0 + 120'000'000));  // peer 1: suspected
  mon.alive(1, t0 + 130'000'000);         // ... rehabilitated
  tally(mon.check(1, t0 + 140'000'000));
  tally(mon.check(1, t0 + 250'000'000));  // ... suspected again (fresh ladder)

  EXPECT_EQ(suspected, 3);
  EXPECT_EQ(confirmed, 1);
  EXPECT_EQ(po::counter("mpi.transport.heartbeat.suspected").value(), suspected);
  EXPECT_EQ(po::counter("mpi.transport.heartbeat.confirmed").value(), confirmed);
}
