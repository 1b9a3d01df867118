// Cross-backend conformance for the mini-MPI transport seam: every
// user-visible behavior — point-to-point semantics, wildcards, the
// collectives, fault injection + shrink recovery, the recv_into size
// contract, and op timeouts — must be identical over
// inproc, shm, and socket (TEST_P over the three kinds).  The wire
// backends route even same-process messages through full frame
// serialization, so a single-process test binary exercises the real
// wire path; multi-process coverage is scripts/check.sh transport-smoke
// (peachy-launch + fault_demo --transport=...).

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "faults/faults.hpp"
#include "faults/plan.hpp"
#include "mpi/frame_router.hpp"
#include "mpi/mpi.hpp"
#include "obs/obs.hpp"
#include "traffic/mpi_traffic.hpp"

namespace pm = peachy::mpi;
namespace pf = peachy::faults;

namespace {

class Transports : public ::testing::TestWithParam<pm::TransportKind> {
 protected:
  [[nodiscard]] pm::RunOptions opts() const {
    pm::RunOptions o;
    o.transport = GetParam();
    return o;
  }
};

}  // namespace

// ---- point to point ---------------------------------------------------------

TEST_P(Transports, SendRecvRoundTrip) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      const std::vector<double> payload{1.5, 2.5, 3.5};
      c.send<double>(1, 7, payload);
    } else {
      pm::Status st;
      const auto got = c.recv<double>(0, 7, &st);
      EXPECT_EQ(got, (std::vector<double>{1.5, 2.5, 3.5}));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 3 * sizeof(double));
    }
  }, opts());
}

TEST_P(Transports, LargeMessagesSpanReadChunks) {
  // Payloads wider than the socket pump's 256 KiB staging chunk force a
  // frame to arrive across several read() wakes — the partial-tail
  // reassembly path — and overflow the shm inline slot capacity — the
  // spill path.  Odd element counts move the chunk boundary around so it
  // also lands inside a frame header; the small chaser after each large
  // frame must still parse in place, in order.
  pm::run(2, [](pm::Comm& c) {
    constexpr std::size_t kBig = (std::size_t{256} << 10) / sizeof(int) + 12345;
    if (c.rank() == 0) {
      for (int round = 0; round < 3; ++round) {
        std::vector<int> payload(kBig + static_cast<std::size_t>(round) * 7919);
        std::iota(payload.begin(), payload.end(), round);
        c.send<int>(1, round, payload);
        c.send_value<int>(1, 100 + round, round * 11);
      }
    } else {
      for (int round = 0; round < 3; ++round) {
        pm::Status st;
        const auto got = c.recv<int>(0, round, &st);
        ASSERT_EQ(got.size(), kBig + static_cast<std::size_t>(round) * 7919);
        std::vector<int> want(got.size());
        std::iota(want.begin(), want.end(), round);
        EXPECT_EQ(got, want);
        EXPECT_EQ(c.recv_value<int>(0, 100 + round), round * 11);
      }
    }
  }, opts());
}

TEST_P(Transports, PerSourceOrderingHolds) {
  // The wire pump must preserve per-connection order end to end.
  pm::run(3, [](pm::Comm& c) {
    if (c.rank() < 2) {
      for (int i = 0; i < 200; ++i) c.send_value<int>(2, c.rank(), i * 3 + c.rank());
    } else {
      for (int src = 0; src < 2; ++src) {
        for (int i = 0; i < 200; ++i) {
          EXPECT_EQ(c.recv_value<int>(src, src), i * 3 + src);
        }
      }
    }
  }, opts());
}

TEST_P(Transports, WildcardReceivesFromEveryone) {
  pm::run(4, [](pm::Comm& c) {
    if (c.rank() == 0) {
      std::multiset<int> got;
      for (int i = 0; i < 3; ++i) {
        pm::Status st;
        got.insert(c.recv_value<int>(pm::kAnySource, 5, &st));
        EXPECT_EQ(st.tag, 5);
      }
      EXPECT_EQ(got, (std::multiset<int>{100, 200, 300}));
    } else {
      c.send_value<int>(0, 5, c.rank() * 100);
    }
  }, opts());
}

TEST_P(Transports, LargePayloadSurvivesTheWire) {
  // Larger than the shm ring's inline slot: forces the spillover region
  // (shm) and multi-read reassembly (socket).
  std::vector<std::int64_t> big(100'000);
  std::iota(big.begin(), big.end(), 0);
  pm::run(2, [&](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send<std::int64_t>(1, 1, big);
    } else {
      EXPECT_EQ(c.recv<std::int64_t>(0, 1), big);
    }
  }, opts());
}

// ---- collectives ------------------------------------------------------------

TEST_P(Transports, CollectivesMatchSerialAtEveryRankCount) {
  for (int p : {1, 2, 3, 4, 5, 8}) {
    std::vector<long> allreduce_out(static_cast<std::size_t>(p), -1);
    std::vector<std::vector<int>> allgather_out(static_cast<std::size_t>(p));
    pm::run(p, [&](pm::Comm& c) {
      c.barrier();
      // broadcast: every rank ends with root's value.
      const int v = c.broadcast_value(c.rank() == 0 ? 424242 : -1, 0);
      EXPECT_EQ(v, 424242);
      // allreduce: sum of 0..p-1.
      allreduce_out[static_cast<std::size_t>(c.rank())] =
          c.allreduce_value<long>(c.rank(), std::plus<>{});
      // allgather: concatenation in rank order.
      const std::vector<int> mine{c.rank(), c.rank() * 10};
      allgather_out[static_cast<std::size_t>(c.rank())] = c.allgather<int>(mine);
    }, opts());
    const long expect = static_cast<long>(p) * (p - 1) / 2;
    std::vector<int> cat;
    for (int r = 0; r < p; ++r) {
      cat.push_back(r);
      cat.push_back(r * 10);
    }
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(allreduce_out[static_cast<std::size_t>(r)], expect) << "p=" << p;
      EXPECT_EQ(allgather_out[static_cast<std::size_t>(r)], cat) << "p=" << p;
    }
  }
}

// ---- determinism across backends -------------------------------------------

TEST_P(Transports, TrafficSimulationIsBitIdenticalToSerial) {
  // The end-to-end determinism pin: the Nagel–Schreckenberg solver must
  // produce the serial reference's exact state over every backend.
  peachy::traffic::Spec spec;
  spec.cars = 60;
  spec.road_length = 300;
  spec.seed = 1234;
  const std::size_t steps = 50;
  const auto reference = peachy::traffic::run_serial(spec, steps);
  std::vector<peachy::traffic::State> finals(3);
  pm::run(3, [&](pm::Comm& c) {
    finals[static_cast<std::size_t>(c.rank())] =
        peachy::traffic::run_mpi(c, spec, steps, nullptr, {});
  }, opts());
  for (const auto& st : finals) EXPECT_TRUE(st == reference);
}

// ---- fault injection + recovery --------------------------------------------

TEST_P(Transports, InjectedCrashSurfacesAsRankFailedAndShrinkRecovers) {
  pf::FaultPlan plan;
  plan.set_seed(7);
  plan.add({.kind = pf::FaultKind::crash, .rank = 1, .step = 3});
  pm::RunOptions o = opts();
  o.plan = &plan;
  o.op_timeout_ns = 5'000'000'000ULL;
  std::vector<int> shrunken_sum(3, -1);
  pm::run(3, [&](pm::Comm& world) {
    pm::Comm comm = world;
    for (;;) {
      try {
        int total = 0;
        for (int round = 0; round < 10; ++round) {
          total = comm.allreduce_value<int>(1, std::plus<>{});
        }
        shrunken_sum[static_cast<std::size_t>(world.rank())] = total;
        return;
      } catch (const pf::CommRevokedError&) {
      } catch (const pf::RankFailedError&) {
        comm.revoke();
      }
      comm = comm.shrink();
    }
  }, o);
  // Rank 1 died; the survivors' final allreduce ran on the 2-rank comm.
  EXPECT_EQ(shrunken_sum[0], 2);
  EXPECT_EQ(shrunken_sum[1], -1);
  EXPECT_EQ(shrunken_sum[2], 2);
}

// ---- recv_into size contract ------------------------------------------------

TEST_P(Transports, SizeMismatchedRecvIntoLeavesMessageQueued) {
  // A size-mismatched frame must not be half-consumed on ANY backend:
  // the error escapes, the message stays queued (probe still sees it),
  // and a correctly-sized receive then drains it intact.
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send<int>(1, 9, std::vector<int>{10, 20, 30});
    } else {
      // Wait until the frame has actually crossed the wire: on shm and
      // socket delivery is asynchronous, and the contract under test is
      // about a *queued* message.
      while (!c.probe(0, 9)) {
      }
      std::vector<int> two(2);
      EXPECT_THROW(c.recv_into<int>(two, 0, 9), peachy::Error);
      EXPECT_TRUE(c.probe(0, 9));  // still there, byte-for-byte
      std::vector<int> three(3);
      const pm::Status st = c.recv_into<int>(three, 0, 9);
      EXPECT_EQ(three, (std::vector<int>{10, 20, 30}));
      EXPECT_EQ(st.bytes, 3 * sizeof(int));
      EXPECT_FALSE(c.probe(0, 9));
    }
  }, opts());
}

// ---- timeouts ---------------------------------------------------------------

TEST_P(Transports, RecvTimeoutFiresOnEveryBackend) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 1) {
      EXPECT_THROW((void)c.recv<int>(0, 99, std::chrono::milliseconds{20}),
                   pf::TimeoutError);
      c.send_value<int>(0, 1, 1);  // unblock rank 0's plain recv below
    } else {
      (void)c.recv_value<int>(1, 1);
    }
  }, opts());
}

INSTANTIATE_TEST_SUITE_P(Backends, Transports,
                         ::testing::Values(pm::TransportKind::kInproc,
                                           pm::TransportKind::kShm,
                                           pm::TransportKind::kSocket),
                         [](const ::testing::TestParamInfo<pm::TransportKind>& param_info) {
                           return pm::transport_name(param_info.param);
                         });

// ---- selection plumbing -----------------------------------------------------

TEST(TransportSelect, NamesRoundTrip) {
  EXPECT_STREQ(pm::transport_name(pm::TransportKind::kInproc), "inproc");
  EXPECT_STREQ(pm::transport_name(pm::TransportKind::kShm), "shm");
  EXPECT_STREQ(pm::transport_name(pm::TransportKind::kSocket), "socket");
  EXPECT_EQ(pm::parse_transport("inproc"), pm::TransportKind::kInproc);
  EXPECT_EQ(pm::parse_transport("shm"), pm::TransportKind::kShm);
  EXPECT_EQ(pm::parse_transport("socket"), pm::TransportKind::kSocket);
}

TEST(TransportSelect, UnknownNameIsANamedErrorNotAFallback) {
  EXPECT_THROW((void)pm::parse_transport("tcp"), peachy::Error);
  EXPECT_THROW((void)pm::parse_transport(""), peachy::Error);
}

TEST(TransportSelect, EnvSelectionResolvesAndRejectsTypos) {
  const char* saved = std::getenv("PEACHY_TRANSPORT");
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv("PEACHY_TRANSPORT");
  EXPECT_EQ(pm::transport_from_env(), pm::TransportKind::kInproc);
  setenv("PEACHY_TRANSPORT", "shm", 1);
  EXPECT_EQ(pm::transport_from_env(), pm::TransportKind::kShm);
  setenv("PEACHY_TRANSPORT", "sockets", 1);
  EXPECT_THROW((void)pm::transport_from_env(), peachy::Error);
  if (saved != nullptr) {
    setenv("PEACHY_TRANSPORT", restore.c_str(), 1);
  } else {
    unsetenv("PEACHY_TRANSPORT");
  }
}

TEST(TransportSelect, RunOptionsBeatEnvironment) {
  const char* saved = std::getenv("PEACHY_TRANSPORT");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("PEACHY_TRANSPORT", "inproc", 1);
  pm::RunOptions o;
  o.transport = pm::TransportKind::kShm;
  pm::run(2, [](pm::Comm& c) {
    EXPECT_EQ(c.transport_kind(), pm::TransportKind::kShm);
    EXPECT_FALSE(c.spans_processes());  // un-launched: one process
  }, o);
  if (saved != nullptr) {
    setenv("PEACHY_TRANSPORT", restore.c_str(), 1);
  } else {
    unsetenv("PEACHY_TRANSPORT");
  }
}

// ---- wire fault injection ---------------------------------------------------
//
// The wire backends route even same-process frames through full
// serialization, so seeded wire faults (drop / dup / corrupt / delay,
// DESIGN.md §17) and the CRC32C integrity check are unit-testable here
// without launching processes.  The checker is off: wire chaos breaks the
// send/recv bookkeeping it audits by design (a dropped frame IS a leak).

namespace {

class WireChaos : public ::testing::TestWithParam<pm::TransportKind> {
 protected:
  [[nodiscard]] pm::RunOptions opts(const pf::FaultPlan& plan) const {
    pm::RunOptions o;
    o.transport = GetParam();
    o.plan = &plan;
    o.check = peachy::analysis::CheckLevel::off;
    o.op_timeout_ns = 5'000'000'000;  // tests must fail, not hang
    return o;
  }
};

}  // namespace

TEST_P(WireChaos, DroppedFrameVanishesLaterTrafficFlows) {
  // Rank 0's first data frame is eaten below the machine; per-source
  // ordering means the second still arrives and matches its own tag.
  const auto plan = pf::FaultPlan::parse("wire_drop@rank=0,step=0");
  std::string log;
  auto o = opts(plan);
  o.fault_log = &log;
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 1, 111);  // dropped on the wire
      c.send_value<int>(1, 2, 222);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 2), 222);
    }
  }, o);
  EXPECT_NE(log.find("wire_drop rank=0 step=0"), std::string::npos);
}

TEST_P(WireChaos, DuplicatedFrameIsDeliveredTwice) {
  const auto plan = pf::FaultPlan::parse("wire_dup@rank=0,step=0");
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 7, 31);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 7), 31);
      EXPECT_EQ(c.recv_value<int>(0, 7), 31);  // the wire-level twin
    }
  }, opts(plan));
}

TEST_P(WireChaos, CorruptFrameFailsCrcAndIsCountedNotDelivered) {
  // The injector flips a payload byte *after* the CRC seal; the receive
  // side must catch it, count it, and treat the frame as lost.
  const auto plan = pf::FaultPlan::parse("wire_corrupt@rank=0,step=0");
  peachy::obs::reset();
  peachy::obs::enable();
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send<double>(1, 1, std::vector<double>(256, 1.25));  // corrupted
      c.send_value<int>(1, 2, 99);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 2), 99);
    }
  }, opts(plan));
  EXPECT_EQ(peachy::obs::counter("faults.wire.corrupt").value(), 1);
  EXPECT_GE(peachy::obs::counter("mpi.transport.crc_fail").value(), 1);
  peachy::obs::disable();
  peachy::obs::reset();
}

namespace {

/// A p=3 allgather_into of equal-size blocks under a plan that loses rank
/// 0's first ring frame (round 0 to rank 1).  Every rank must either
/// complete with every block in its own slot or fail with a named error:
/// round 1's frame must never stand in for the lost one.  Equal sizes pass
/// the block-size check, so only the per-round tag tells the rounds apart;
/// with one tag for both rounds, rank 1 forwarded block 2 as block 0 and
/// rank 2 completed with it in slot 0.  (Losing the last round's frame
/// instead leaves nothing to stand in for it: that times out either way.)
void expect_lost_ring_frame_is_named(pm::RunOptions o) {
  constexpr int kRanks = 3;
  constexpr std::size_t kBlock = 4;
  o.op_timeout_ns = 300'000'000;
  std::vector<std::int64_t> expected(kRanks * kBlock);
  std::iota(expected.begin(), expected.end(), 100);
  std::array<std::string, kRanks> errors;
  std::array<std::vector<std::int64_t>, kRanks> results;
  pm::run(kRanks, [&](pm::Comm& c) {
    const auto me = static_cast<std::size_t>(c.rank());
    std::vector<std::int64_t> out(expected.size(), -1);
    try {
      c.allgather_into<std::int64_t>(
          std::span<const std::int64_t>{expected}.subspan(me * kBlock, kBlock),
          std::span<std::int64_t>{out});
      results[me] = std::move(out);
    } catch (const pf::TimeoutError& e) {
      errors[me] = e.what();
    } catch (const pf::RankFailedError& e) {  // revoked by a peer that timed out
      errors[me] = e.what();
    }
  }, o);
  int failed = 0;
  for (int r = 0; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (errors[i].empty()) {
      EXPECT_EQ(results[i], expected) << "rank " << r << " completed with misplaced blocks";
    } else {
      ++failed;
    }
  }
  EXPECT_GE(failed, 1) << "a lost frame must surface somewhere";
}

}  // namespace

TEST_P(WireChaos, LostRingFrameTimesOutNeverShiftsBlocks) {
  const auto plan = pf::FaultPlan::parse("wire_drop@rank=0,step=0");
  expect_lost_ring_frame_is_named(opts(plan));
}

TEST_P(WireChaos, CrcFailedRingFrameTimesOutNeverShiftsBlocks) {
  const auto plan = pf::FaultPlan::parse("wire_corrupt@rank=0,step=0");
  expect_lost_ring_frame_is_named(opts(plan));
}

TEST_P(WireChaos, DelayedFrameArrivesIntactAndReplaysByteIdentically) {
  // Delay is the one wire fault that perturbs timing without losing
  // anything — the canonical fired-event log must be byte-identical
  // across reruns (the chaos-smoke replay gate, in miniature).
  const auto drive = [this] {
    const auto plan =
        pf::FaultPlan::parse("seed=13; wire_delay@rank=0,step=1,ns=1000000");
    std::string log;
    auto o = opts(plan);
    o.fault_log = &log;
    pm::run(2, [](pm::Comm& c) {
      if (c.rank() == 0) {
        c.send<double>(1, 3, std::vector<double>{2.5, -0.5});
        c.send<double>(1, 4, std::vector<double>{8.0});  // step 1: delayed
      } else {
        EXPECT_EQ(c.recv<double>(0, 3), (std::vector<double>{2.5, -0.5}));
        EXPECT_EQ(c.recv<double>(0, 4), (std::vector<double>{8.0}));
      }
    }, o);
    return log;
  };
  const std::string first = drive();
  EXPECT_NE(first.find("wire_delay rank=0 step=1"), std::string::npos);
  EXPECT_EQ(first, drive());
}

INSTANTIATE_TEST_SUITE_P(WireBackends, WireChaos,
                         ::testing::Values(pm::TransportKind::kShm,
                                           pm::TransportKind::kSocket),
                         [](const ::testing::TestParamInfo<pm::TransportKind>& p) {
                           return pm::transport_name(p.param);
                         });

TEST(WireChaosShm, TruncatedFrameZerosTheTailAndFailsCrc) {
  // The shm ring has no short writes: "truncated" means the tail never
  // made it (zeros where content should be), and only the CRC can tell.
  // (The socket twin desyncs the byte stream instead — that teardown path
  // is exercised by WireChaosSocket.TruncatedFrameDesyncsTheStream..., below.)
  const auto plan = pf::FaultPlan::parse("wire_truncate@rank=0,step=0");
  pm::RunOptions o;
  o.transport = pm::TransportKind::kShm;
  o.plan = &plan;
  o.check = peachy::analysis::CheckLevel::off;
  o.op_timeout_ns = 5'000'000'000;
  peachy::obs::reset();
  peachy::obs::enable();
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send<int>(1, 1, std::vector<int>(64, 7));  // truncated on the wire
      c.send_value<int>(1, 2, 5);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 2), 5);
    }
  }, o);
  EXPECT_EQ(peachy::obs::counter("faults.wire.truncate").value(), 1);
  EXPECT_GE(peachy::obs::counter("mpi.transport.crc_fail").value(), 1);
  peachy::obs::disable();
  peachy::obs::reset();
}

TEST(WireChaosSocket, TruncatedFrameDesyncsTheStreamAndNeverDeliversBytes) {
  // The socket twin: a short write leaves the header's length intact, so
  // the receiver reads the next frame's bytes as the rest of this one.
  // The CRC fails, the desynced stream is retired, and nothing after the
  // truncation is ever delivered.  Retiring the stream breaks this
  // process's self-connection for good, so the run happens in a child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        const auto plan = pf::FaultPlan::parse("wire_truncate@rank=0,step=0");
        pm::RunOptions o;
        o.transport = pm::TransportKind::kSocket;
        o.plan = &plan;
        o.check = peachy::analysis::CheckLevel::off;
        peachy::obs::reset();
        peachy::obs::enable();
        int timeouts = 0;
        pm::run(2, [&timeouts](pm::Comm& c) {
          if (c.rank() == 0) {
            c.send<int>(1, 1, std::vector<int>(64, 7));  // truncated on the wire
            // Larger than the missing half: completes the short frame.
            c.send<int>(1, 2, std::vector<int>(4096, 9));
          } else {
            for (const int tag : {1, 2}) {
              try {
                (void)c.recv<int>(0, tag, std::chrono::milliseconds{300});
              } catch (const pf::TimeoutError&) {
                ++timeouts;
              }
            }
          }
        }, o);
        const auto crc_fail = peachy::obs::counter("mpi.transport.crc_fail").value();
        std::fprintf(stderr, "timeouts=%d crc_fail=%lld\n", timeouts,
                     static_cast<long long>(crc_fail));
        std::_Exit(timeouts == 2 && crc_fail >= 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "timeouts=2");
}

// ---- frame router -----------------------------------------------------------

namespace {

namespace pd = pm::detail;

/// Records every delivery and control event as one line.
class FakeSink final : public pd::TransportSink {
 public:
  void deliver(int dest, pd::Message&& m, int copies) override {
    std::string bytes(reinterpret_cast<const char*>(m.payload.data()), m.payload.size());
    events.push_back("data dest=" + std::to_string(dest) + " tag=" + std::to_string(m.tag) +
                     " copies=" + std::to_string(copies) + " '" + bytes + "'");
  }
  void on_ctrl(pd::CtrlKind k, std::uint32_t arg, const std::string& why) override {
    const char* name = k == pd::CtrlKind::kFailed   ? "failed"
                       : k == pd::CtrlKind::kRevoke ? "revoke"
                                                    : "abort";
    events.push_back(std::string{name} + " " + std::to_string(arg) + " '" + why + "'");
  }

  std::vector<std::string> events;
};

/// One sealed frame and its payload, as a wire endpoint would hand it to
/// FrameRouter::dispatch.
struct Frame {
  pd::FrameHeader h;
  std::string payload;
};

Frame data_frame(std::uint32_t seq, int dest, int tag, std::string payload) {
  pd::FrameHeader h;
  h.kind = static_cast<std::uint8_t>(pd::WireKind::kData);
  h.seq = seq;
  h.dest = dest;
  h.tag = tag;
  h.bytes = payload.size();
  Frame f{h, std::move(payload)};
  pd::seal_frame(f.h, reinterpret_cast<const std::byte*>(f.payload.data()));
  return f;
}

Frame ctrl_frame(pd::WireKind kind, std::uint32_t seq, std::uint32_t comm, std::string why = {}) {
  Frame f{pd::make_ctrl_header(kind, seq, 0, comm, why.size()), std::move(why)};
  pd::seal_frame(f.h, reinterpret_cast<const std::byte*>(f.payload.data()));
  return f;
}

pd::WireKind dispatch(pd::FrameRouter& router, const Frame& f) {
  return router.dispatch(f.h, reinterpret_cast<const std::byte*>(f.payload.data()));
}

}  // namespace

TEST(FrameRouter, FutureGenerationIsBufferedAndReplayedOnAttach) {
  pd::FrameRouter router;
  FakeSink first, second;
  const std::uint32_t seq = router.attach(&first);
  // A peer already on the next generation: its frames wait, in order.
  EXPECT_EQ(dispatch(router, data_frame(seq + 1, 1, 7, "early")), pd::WireKind::kData);
  EXPECT_EQ(dispatch(router, ctrl_frame(pd::WireKind::kRevoke, seq + 1, 3)),
            pd::WireKind::kRevoke);
  EXPECT_TRUE(first.events.empty());
  router.detach(seq);
  EXPECT_EQ(router.attach(&second), seq + 1);
  EXPECT_EQ(second.events,
            (std::vector<std::string>{"data dest=1 tag=7 copies=1 'early'", "revoke 3 ''"}));
  EXPECT_TRUE(first.events.empty());
}

TEST(FrameRouter, RetiredGenerationFramesAreDropped) {
  pd::FrameRouter router;
  FakeSink first, second, third;
  const std::uint32_t old_seq = router.attach(&first);
  router.detach(old_seq);
  const std::uint32_t seq = router.attach(&second);
  (void)dispatch(router, data_frame(old_seq, 0, 1, "stale"));
  (void)dispatch(router, ctrl_frame(pd::WireKind::kAbort, old_seq, 0, "stale abort"));
  (void)dispatch(router, data_frame(seq, 0, 2, "live"));
  EXPECT_TRUE(first.events.empty());
  EXPECT_EQ(second.events, (std::vector<std::string>{"data dest=0 tag=2 copies=1 'live'"}));
  // A detached generation is retired too: its late frames never reach a
  // later sink.
  router.detach(seq);
  (void)dispatch(router, data_frame(seq, 0, 3, "late"));
  (void)router.attach(&third);
  EXPECT_TRUE(third.events.empty());
  EXPECT_EQ(second.events.size(), 1u);
}

TEST(FrameRouter, PeerDeathsReplayOncePerRankToEveryNewSink) {
  pd::FrameRouter router;
  FakeSink first, second;
  const std::uint32_t seq = router.attach(&first);
  router.peer_failed(2, "rank 2's process died");
  router.peer_failed(2, "a second report of rank 2");
  router.peer_failed(1, "rank 1's process died");
  const std::vector<std::string> deaths{"failed 2 'rank 2's process died'",
                                        "failed 1 'rank 1's process died'"};
  EXPECT_EQ(first.events, deaths);
  (void)dispatch(router, data_frame(seq + 1, 0, 5, "next"));
  router.detach(seq);
  (void)router.attach(&second);
  // Deaths first, then the frames buffered for this generation.
  std::vector<std::string> want = deaths;
  want.push_back("data dest=0 tag=5 copies=1 'next'");
  EXPECT_EQ(second.events, want);
}

TEST(FrameRouter, BadCrcDropsDataButDeliversControl) {
  peachy::obs::reset();
  peachy::obs::enable();
  pd::FrameRouter router;
  FakeSink sink;
  const std::uint32_t seq = router.attach(&sink);
  Frame data = data_frame(seq, 1, 4, "payload");
  Frame revoke = ctrl_frame(pd::WireKind::kRevoke, seq, 9);
  Frame abort = ctrl_frame(pd::WireKind::kAbort, seq, 0, "rank 0 aborted");
  for (Frame* f : {&data, &revoke, &abort}) f->h.crc ^= 1;
  EXPECT_EQ(dispatch(router, data), pd::WireKind::kData);
  EXPECT_TRUE(sink.events.empty()) << "a corrupt data frame must be dropped";
  EXPECT_EQ(dispatch(router, revoke), pd::WireKind::kRevoke);
  EXPECT_EQ(dispatch(router, abort), pd::WireKind::kAbort);
  EXPECT_EQ(sink.events, (std::vector<std::string>{"revoke 9 ''", "abort 0 'rank 0 aborted'"}));
  EXPECT_EQ(peachy::obs::counter("mpi.transport.crc_fail").value(), 3);
  // Endpoint-level kinds are returned to the endpoint, never routed.
  EXPECT_EQ(dispatch(router, ctrl_frame(pd::WireKind::kHello, seq, 0)), pd::WireKind::kHello);
  EXPECT_EQ(sink.events.size(), 2u);
  peachy::obs::disable();
  peachy::obs::reset();
}
