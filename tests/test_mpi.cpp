// Tests for the mini-MPI runtime: point-to-point semantics, every
// collective against a serial reference, wildcards, probe, error
// propagation, and traffic accounting.  Collectives are property-tested
// across rank counts (TEST_P) because the tree/ring algorithms take
// different code paths at p = 1, 2, 3, 4, 5, 8.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "faults/faults.hpp"
#include "faults/plan.hpp"
#include "mpi/mpi.hpp"
#include "support/parallel_for.hpp"

namespace pm = peachy::mpi;

// ---- point to point ----------------------------------------------------------

TEST(MpiP2P, SendRecvRoundTrip) {
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
  });
}

TEST(MpiP2P, MessagesFromSameSenderArriveInOrder) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 100; ++i) c.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(c.recv_value<int>(0, 3), i);
    }
  });
}

TEST(MpiP2P, TagMatchingSelectsCorrectMessage) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 10, 111);
      c.send_value<int>(1, 20, 222);
    } else {
      // Receive in reverse tag order: matching must skip the tag-10 message.
      EXPECT_EQ(c.recv_value<int>(0, 20), 222);
      EXPECT_EQ(c.recv_value<int>(0, 10), 111);
    }
  });
}

TEST(MpiP2P, AnySourceReceivesFromEveryone) {
  pm::run(4, [](pm::Comm& c) {
    if (c.rank() == 0) {
      std::multiset<int> got;
      for (int i = 0; i < 3; ++i) {
        pm::Status st;
        got.insert(c.recv_value<int>(pm::kAnySource, 5, &st));
        EXPECT_GE(st.source, 1);
      }
      EXPECT_EQ(got, (std::multiset<int>{10, 20, 30}));
    } else {
      c.send_value<int>(0, 5, c.rank() * 10);
    }
  });
}

TEST(MpiP2P, SelfSendIsAllowed) {
  pm::run(1, [](pm::Comm& c) {
    c.send_value<int>(0, 1, 42);
    EXPECT_EQ(c.recv_value<int>(0, 1), 42);
  });
}

TEST(MpiP2P, ProbeSeesPendingMessage) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 9, 5);
      c.barrier();
    } else {
      c.barrier();  // after the barrier the message must be in our mailbox
      pm::Status st;
      EXPECT_TRUE(c.probe(0, 9, &st));
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_FALSE(c.probe(0, 999));
      EXPECT_EQ(c.recv_value<int>(0, 9), 5);
      EXPECT_FALSE(c.probe(0, 9));  // consumed
    }
  });
}

TEST(MpiP2P, RejectsBadDestinationAndTag) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      EXPECT_THROW(c.send_value<int>(5, 0, 1), peachy::Error);
      EXPECT_THROW(c.send_value<int>(1, -3, 1), peachy::Error);
    }
  });
}

TEST(MpiP2P, PostRejectsBadSourceRank) {
  // Symmetric with the recv-side check: a source outside [0, nranks)
  // would flow into Message::source and the checker's wait-for graph
  // (on_post indexes by source).  Comm always passes its own rank, so the
  // hazard is direct Machine::post use — validate at the machine surface.
  pm::detail::Machine machine{2};
  const std::byte token{0};
  const std::span<const std::byte> payload{&token, 1};
  EXPECT_NO_THROW(machine.post(1, 0, 7, payload));
  try {
    machine.post(-1, 0, 7, payload);
    FAIL() << "expected peachy::Error";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("post: bad source rank"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(machine.post(2, 0, 7, payload), peachy::Error);
  // The valid message is still deliverable after the rejected ones.
  pm::Status st;
  EXPECT_TRUE(machine.try_peek(0, 1, 7, st));
  EXPECT_EQ(st.source, 1);
}

TEST(MpiP2P, RejectsBadRecvAndProbeSource) {
  // A recv/probe source outside [0, nranks) is the student bug the
  // grading layer exists to diagnose: it must be a named error up front,
  // not a silent hang (unchecked) or an out-of-range wait-for-graph
  // index (checked).
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      EXPECT_THROW((void)c.recv_bytes(2, 0), peachy::Error);
      EXPECT_THROW((void)c.recv_bytes(-7, 0), peachy::Error);
      EXPECT_THROW((void)c.probe(2, 0), peachy::Error);
    }
  });
  EXPECT_THROW(pm::run(
                   2,
                   [](pm::Comm& c) {
                     if (c.rank() == 0) (void)c.recv_bytes(2, 0);
                   },
                   peachy::analysis::CheckLevel::full),
               peachy::Error);
}

TEST(MpiP2P, SizeMismatchedRecvValueThrows) {
  EXPECT_THROW(pm::run(2,
                       [](pm::Comm& c) {
                         if (c.rank() == 0) {
                           const std::vector<int> two{1, 2};
                           c.send<int>(1, 0, two);
                         } else {
                           (void)c.recv_value<int>(0, 0);  // expects exactly 1
                         }
                       }),
               peachy::Error);
}

TEST(MpiP2P, FullWildcardRecvDrainsSenderInOrder) {
  // src=any + tag=any must match the *oldest* waiting message, so a
  // single sender's stream is drained in posting order even when the
  // tags vary.
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_value<int>(1, 10, 1);
      c.send_value<int>(1, 20, 2);
      c.send_value<int>(1, 10, 3);
    } else {
      pm::Status st;
      EXPECT_EQ(c.recv_value<int>(pm::kAnySource, pm::kAnyTag, &st), 1);
      EXPECT_EQ(st.tag, 10);
      EXPECT_EQ(c.recv_value<int>(pm::kAnySource, pm::kAnyTag, &st), 2);
      EXPECT_EQ(st.tag, 20);
      EXPECT_EQ(c.recv_value<int>(pm::kAnySource, pm::kAnyTag, &st), 3);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(MpiP2P, AnyTagFromSpecificSourceSkipsOtherSources) {
  // Both messages are queued before rank 0 receives (their sends
  // happen-before the barrier tokens), so matching must *skip* rank 1's
  // older message to satisfy recv(src=2, tag=any).
  pm::run(3, [](pm::Comm& c) {
    if (c.rank() == 1) c.send_value<int>(0, 5, 111);
    if (c.rank() == 2) c.send_value<int>(0, 6, 222);
    c.barrier();
    if (c.rank() == 0) {
      pm::Status st;
      EXPECT_EQ(c.recv_value<int>(2, pm::kAnyTag, &st), 222);
      EXPECT_EQ(st.source, 2);
      EXPECT_EQ(st.tag, 6);
      EXPECT_EQ(c.recv_value<int>(pm::kAnySource, pm::kAnyTag, &st), 111);
      EXPECT_EQ(st.source, 1);
    }
  });
}

TEST(MpiP2P, ProbeThenRecvIsConsistentUnderConcurrentTraffic) {
  // The receiver polls with wildcards and immediately receives what it
  // probed while two senders keep posting.  Since only the owner removes
  // messages from its mailbox, a successful probe can never be
  // invalidated by the racing sends.
  pm::run(3, [](pm::Comm& c) {
    constexpr int kEach = 25;
    if (c.rank() > 0) {
      for (int i = 0; i < kEach; ++i) c.send_value<int>(0, c.rank(), i);
    } else {
      int got = 0;
      std::vector<int> next(3, 0);  // per-sender expected sequence number
      while (got < 2 * kEach) {
        pm::Status st;
        if (!c.probe(pm::kAnySource, pm::kAnyTag, &st)) continue;
        pm::Status rst;
        const int v = c.recv_value<int>(st.source, st.tag, &rst);
        EXPECT_EQ(rst.source, st.source);
        EXPECT_EQ(rst.tag, st.tag);
        EXPECT_EQ(rst.bytes, st.bytes);
        EXPECT_EQ(v, next[static_cast<std::size_t>(st.source)]++);
        ++got;
      }
    }
  });
}

TEST(MpiP2P, PayloadNotAMultipleOfElementSizeThrows) {
  // recv<T> must reject a byte payload whose length is not divisible by
  // sizeof(T), instead of silently truncating.
  EXPECT_THROW(pm::run(2,
                       [](pm::Comm& c) {
                         if (c.rank() == 0) {
                           const std::array<std::byte, 5> odd{};
                           c.send_bytes(1, 0, odd);
                         } else {
                           (void)c.recv<double>(0, 0);
                         }
                       }),
               peachy::Error);
}

// ---- error propagation ----------------------------------------------------------

TEST(MpiRun, RankExceptionPropagatesAndUnblocksReceivers) {
  // Rank 1 blocks forever in recv; rank 0 throws.  run() must not hang and
  // must rethrow rank 0's error.
  try {
    pm::run(2, [](pm::Comm& c) {
      if (c.rank() == 0) throw peachy::Error{"deliberate failure"};
      (void)c.recv_bytes(0, 0);
    });
    FAIL() << "expected throw";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("deliberate"), std::string::npos);
  }
}

TEST(MpiRun, AbortWakesEveryBlockedReceiverAndNamesTheReason) {
  // Rank 0 fails while three other ranks sit in receives that will never
  // be satisfied.  abort() must reliably wake *all* of them (the join
  // completing at all proves it), and the rethrown error must carry rank
  // 0's original reason, not a bare "machine aborted".
  try {
    pm::run(4, [](pm::Comm& c) {
      if (c.rank() == 0) throw peachy::Error{"boom at rank 0"};
      (void)c.recv_bytes(0, 42);
    });
    FAIL() << "expected throw";
  } catch (const peachy::Error& e) {
    EXPECT_NE(std::string{e.what()}.find("boom at rank 0"), std::string::npos);
  }
}

TEST(MpiRun, RejectsZeroRanks) {
  EXPECT_THROW(pm::run(0, [](pm::Comm&) {}), peachy::Error);
}

// ---- collectives, property-tested over rank counts -------------------------------

class MpiCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MpiCollectives, BarrierSeparatesPhases) {
  const int p = GetParam();
  std::atomic<int> phase1_arrivals{0};
  std::atomic<bool> violation{false};
  pm::run(p, [&](pm::Comm& c) {
    phase1_arrivals.fetch_add(1);
    c.barrier();
    if (phase1_arrivals.load() != p) violation.store(true);
  });
  EXPECT_FALSE(violation.load());
}

TEST_P(MpiCollectives, BroadcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    pm::run(p, [&](pm::Comm& c) {
      std::vector<int> data;
      if (c.rank() == root) data = {root * 100, root * 100 + 1, root * 100 + 2};
      c.broadcast(data, root);
      EXPECT_EQ(data, (std::vector<int>{root * 100, root * 100 + 1, root * 100 + 2}));
    });
  }
}

TEST_P(MpiCollectives, BroadcastValue) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    const double v = c.broadcast_value(c.rank() == 0 ? 3.25 : -1.0, 0);
    EXPECT_DOUBLE_EQ(v, 3.25);
  });
}

TEST_P(MpiCollectives, ReduceSumMatchesSerial) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    pm::run(p, [&](pm::Comm& c) {
      const std::vector<std::int64_t> local{c.rank() + 1, 10 * (c.rank() + 1)};
      const auto got = c.reduce<std::int64_t>(local, std::plus<>{}, root);
      if (c.rank() == root) {
        const std::int64_t s = static_cast<std::int64_t>(p) * (p + 1) / 2;
        EXPECT_EQ(got, (std::vector<std::int64_t>{s, 10 * s}));
      } else {
        EXPECT_TRUE(got.empty());
      }
    });
  }
}

TEST_P(MpiCollectives, ReduceMinMax) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    const int r = c.rank();
    const auto mins =
        c.allreduce<int>(std::span<const int>{&r, 1}, [](int a, int b) { return std::min(a, b); });
    const auto maxs =
        c.allreduce<int>(std::span<const int>{&r, 1}, [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(mins.front(), 0);
    EXPECT_EQ(maxs.front(), p - 1);
  });
}

TEST_P(MpiCollectives, AllreduceEveryRankGetsTotal) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    const double mine = 1.0;
    EXPECT_DOUBLE_EQ(c.allreduce_value(mine, std::plus<>{}), static_cast<double>(p));
  });
}

TEST_P(MpiCollectives, GatherConcatenatesInRankOrder) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    // Variable-size contributions: rank r contributes r+1 copies of r.
    std::vector<int> local(c.rank() + 1, c.rank());
    const auto all = c.gather<int>(local, 0);
    if (c.rank() == 0) {
      std::vector<int> expect;
      for (int r = 0; r < p; ++r) expect.insert(expect.end(), r + 1, r);
      EXPECT_EQ(all, expect);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST_P(MpiCollectives, AllgatherEveryRankGetsConcatenation) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    std::vector<int> local{c.rank(), c.rank() + 1000};
    const auto all = c.allgather<int>(local);
    ASSERT_EQ(all.size(), 2u * p);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[2 * r], r);
      EXPECT_EQ(all[2 * r + 1], r + 1000);
    }
  });
}

TEST_P(MpiCollectives, ScatterBlocksMatchesStaticPartition) {
  const int p = GetParam();
  constexpr int kN = 103;
  pm::run(p, [&](pm::Comm& c) {
    std::vector<int> all;
    if (c.rank() == 0) {
      all.resize(kN);
      std::iota(all.begin(), all.end(), 0);
    }
    const auto mine = c.scatter_blocks<int>(all, 0);
    const auto blk =
        peachy::support::static_block(kN, p, static_cast<std::size_t>(c.rank()));
    ASSERT_EQ(mine.size(), blk.end - blk.begin);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i], static_cast<int>(blk.begin + i));
    }
  });
}

TEST_P(MpiCollectives, AlltoallTransposesBuffers) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    // sendbufs[d] = {rank*1000 + d} repeated (d+1) times — variable sizes.
    std::vector<std::vector<int>> send(p);
    for (int d = 0; d < p; ++d) send[d].assign(d + 1, c.rank() * 1000 + d);
    const auto recv = c.alltoall(send);
    ASSERT_EQ(static_cast<int>(recv.size()), p);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recv[s].size(), static_cast<std::size_t>(c.rank() + 1));
      for (int v : recv[s]) EXPECT_EQ(v, s * 1000 + c.rank());
    }
  });
}

TEST_P(MpiCollectives, ConsecutiveCollectivesDoNotCrossTalk) {
  const int p = GetParam();
  pm::run(p, [&](pm::Comm& c) {
    for (int round = 0; round < 20; ++round) {
      const int total = c.allreduce_value(1, std::plus<>{});
      EXPECT_EQ(total, p);
      c.barrier();
      const int v = c.broadcast_value(c.rank() == 0 ? round : -1, 0);
      EXPECT_EQ(v, round);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MpiCollectives, ::testing::Values(1, 2, 3, 4, 5, 8));

// ---- exact and repeatable collective results --------------------------------------
// Integer reductions must be exact; float reductions must repeat bit for
// bit, because the binomial tree pins one combine order per (p, root).

TEST(MpiCollectiveResults, IntegerReductionsAreExact) {
  for (const int p : {2, 3, 4, 5, 8}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::int64_t> expect_all(n);
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t s = 0;
        for (int r = 0; r < p; ++r) s += static_cast<std::int64_t>(r) * 31 + static_cast<std::int64_t>(i);
        expect_all[i] = s;
      }
      const auto fill = [n](const pm::Comm& comm) {
        std::vector<std::int64_t> data(n);
        for (std::size_t i = 0; i < n; ++i) {
          data[i] = static_cast<std::int64_t>(comm.rank()) * 31 + static_cast<std::int64_t>(i);
        }
        return data;
      };
      pm::run(p, [&](pm::Comm& comm) {
        std::vector<std::int64_t> data = fill(comm);
        comm.allreduce_inplace<std::int64_t>(std::span<std::int64_t>{data}, std::plus<>{});
        ASSERT_EQ(data, expect_all) << "allreduce p=" << p << " n=" << n;
      });
      pm::run(p, [&](pm::Comm& comm) {
        std::vector<std::int64_t> data = fill(comm);
        comm.reduce_inplace<std::int64_t>(std::span<std::int64_t>{data}, std::plus<>{}, 0);
        if (comm.rank() == 0) {
          ASSERT_EQ(data, expect_all) << "reduce p=" << p << " n=" << n;
        }
      });
    }
  }
}

TEST(MpiCollectiveResults, BroadcastAndAllgatherMatchReference) {
  for (const int p : {2, 3, 4, 8}) {
    pm::run(p, [&](pm::Comm& comm) {
      std::vector<std::int32_t> data(257);
      if (comm.rank() == 1) std::iota(data.begin(), data.end(), 42);
      comm.broadcast_into<std::int32_t>(std::span<std::int32_t>{data}, 1);
      ASSERT_EQ(data.front(), 42);
      ASSERT_EQ(data.back(), 42 + 256);
      std::vector<std::int32_t> var;
      if (comm.rank() == 1) var.assign(13, comm.size());
      comm.broadcast<std::int32_t>(var, 1);
      ASSERT_EQ(var.size(), 13u);
      ASSERT_EQ(var.front(), comm.size());
    });
    pm::run(p, [&](pm::Comm& comm) {
      const std::size_t block = 33;
      std::vector<std::int64_t> mine(block);
      for (std::size_t i = 0; i < block; ++i) {
        mine[i] = comm.rank() * 1000 + static_cast<std::int64_t>(i);
      }
      std::vector<std::int64_t> all(block * static_cast<std::size_t>(comm.size()));
      comm.allgather_into<std::int64_t>(std::span<const std::int64_t>{mine},
                                        std::span<std::int64_t>{all});
      for (int r = 0; r < comm.size(); ++r) {
        for (std::size_t i = 0; i < block; ++i) {
          ASSERT_EQ(all[static_cast<std::size_t>(r) * block + i],
                    r * 1000 + static_cast<std::int64_t>(i))
              << "allgather_into p=" << p;
        }
      }
      const auto cat = comm.allgather<std::int64_t>(std::span<const std::int64_t>{mine});
      ASSERT_EQ(cat, all);
    });
    // Uneven static blocks: n % p != 0, and n < p, where some blocks are
    // empty.  allgather_into lands them in place; allgather concatenates.
    for (const std::size_t n : {std::size_t{5} * p + 1, std::size_t(p - 1)}) {
      std::vector<std::int64_t> want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = 7 * static_cast<std::int64_t>(i) + 1;
      pm::run(p, [&](pm::Comm& comm) {
        const auto blk = peachy::support::static_block(n, static_cast<std::size_t>(p),
                                                       static_cast<std::size_t>(comm.rank()));
        const std::vector<std::int64_t> mine(want.begin() + static_cast<std::ptrdiff_t>(blk.begin),
                                             want.begin() + static_cast<std::ptrdiff_t>(blk.end));
        std::vector<std::int64_t> all(n, -1);
        comm.allgather_into<std::int64_t>(std::span<const std::int64_t>{mine},
                                          std::span<std::int64_t>{all});
        ASSERT_EQ(all, want) << "allgather_into p=" << p << " n=" << n;
        ASSERT_EQ(comm.allgather<std::int64_t>(std::span<const std::int64_t>{mine}), want)
            << "allgather p=" << p << " n=" << n;
      });
    }
    // Variable-size contributions: rank r sends r copies of r.
    std::vector<std::int32_t> ragged;
    for (int r = 0; r < p; ++r) ragged.insert(ragged.end(), static_cast<std::size_t>(r), r);
    pm::run(p, [&](pm::Comm& comm) {
      const std::vector<std::int32_t> mine(static_cast<std::size_t>(comm.rank()), comm.rank());
      ASSERT_EQ(comm.allgather<std::int32_t>(std::span<const std::int32_t>{mine}), ragged)
          << "allgather p=" << p;
    });
    // Named errors.  Every rank records the peachy::Error it gets, and no
    // rank is left blocked: the receivers' errors abort the run, which
    // wakes the root out of the barrier that follows its broadcast.
    std::vector<std::string> errors(static_cast<std::size_t>(p));
    const auto record = [&errors](const pm::Comm& comm, const auto& body) {
      try {
        body();
      } catch (const peachy::Error& e) {
        errors[static_cast<std::size_t>(comm.rank())] = e.what();
        throw;
      }
    };
    EXPECT_THROW(pm::run(p,
                         [&](pm::Comm& comm) {
                           record(comm, [&comm] {
                             std::vector<std::int32_t> data(comm.rank() == 0 ? 8 : 9);
                             comm.broadcast_into<std::int32_t>(std::span<std::int32_t>{data}, 0);
                             comm.barrier();
                           });
                         }),
                 peachy::Error);
    for (int r = 0; r < p; ++r) {
      const std::string& what = errors[static_cast<std::size_t>(r)];
      EXPECT_FALSE(what.empty()) << "rank " << r << " p=" << p;
      if (r > 0) {
        EXPECT_NE(what.find("broadcast_into: received 32 bytes into a 36-byte buffer"),
                  std::string::npos)
            << what;
      }
    }
    errors.assign(static_cast<std::size_t>(p), std::string{});
    EXPECT_THROW(pm::run(p,
                         [&](pm::Comm& comm) {
                           record(comm, [&comm] {
                             // Every block of an 8-element output is at
                             // most 4 elements; 5 matches none.
                             const std::vector<std::int64_t> mine(5);
                             std::vector<std::int64_t> all(8);
                             comm.allgather_into<std::int64_t>(
                                 std::span<const std::int64_t>{mine},
                                 std::span<std::int64_t>{all});
                           });
                         }),
                 peachy::Error);
    for (int r = 0; r < p; ++r) {
      EXPECT_NE(errors[static_cast<std::size_t>(r)].find("allgather_into: local size 5"),
                std::string::npos)
          << "rank " << r << " p=" << p << ": " << errors[static_cast<std::size_t>(r)];
    }
  }
}

namespace {

/// One allreduce over magnitude-skewed doubles; returns rank 0's result
/// after checking that every rank holds the same bytes.
std::vector<double> float_allreduce_once(int p, const peachy::faults::FaultPlan* plan) {
  pm::RunOptions opts;
  opts.plan = plan;
  std::vector<double> out;
  std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(p));
  pm::run(
      p,
      [&](pm::Comm& comm) {
        std::vector<double> data(512);
        for (std::size_t i = 0; i < data.size(); ++i) {
          // Exponent-staggered contributions make the combine order
          // visible in the low mantissa bits.
          data[i] = std::ldexp(1.0 + 1e-3 * comm.rank() + 1e-6 * static_cast<double>(i),
                               comm.rank() % 3 - 1);
        }
        comm.allreduce_inplace<double>(std::span<double>{data}, std::plus<>{});
        per_rank[static_cast<std::size_t>(comm.rank())] = data;
        if (comm.rank() == 0) out = data;
      },
      opts);
  for (const auto& r : per_rank) {
    EXPECT_EQ(0, std::memcmp(r.data(), out.data(), out.size() * sizeof(double)))
        << "ranks disagree, p=" << p;
  }
  return out;
}

}  // namespace

TEST(MpiCollectiveResults, FloatAllreduceRepeatsBitForBit) {
  for (const int p : {2, 3, 4, 8}) {
    const std::vector<double> a = float_allreduce_once(p, nullptr);
    const std::vector<double> b = float_allreduce_once(p, nullptr);
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "repeat divergence, p=" << p;
  }
}

TEST(MpiCollectiveResults, FloatAllreduceBitIdenticalUnderFaultInjection) {
  // Delays and stalls perturb wall-clock interleaving but must not
  // perturb the combine order.
  const auto plan = peachy::faults::FaultPlan::parse(
      "seed=11; delay@rank=1,prob=0.5,ns=200000; stall@rank=0,prob=0.25,ns=100000");
  const std::vector<double> clean = float_allreduce_once(4, nullptr);
  const std::vector<double> faulty = float_allreduce_once(4, &plan);
  ASSERT_EQ(0, std::memcmp(clean.data(), faulty.data(), clean.size() * sizeof(double)));
}

TEST(MpiCollectiveResults, FloatReduceRepeatsBitForBit) {
  std::vector<double> first;
  for (int run = 0; run < 2; ++run) {
    std::vector<double> got;
    pm::run(5, [&](pm::Comm& comm) {
      std::vector<double> data(128);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = std::ldexp(1.0 + 1e-4 * comm.rank(), static_cast<int>(i % 5) + comm.rank() % 2);
      }
      comm.reduce_inplace<double>(std::span<double>{data}, std::plus<>{}, 2);
      if (comm.rank() == 2) got = data;
    });
    if (run == 0) {
      first = got;
    } else {
      ASSERT_EQ(0, std::memcmp(first.data(), got.data(), got.size() * sizeof(double)));
    }
  }
}

// ---- rooted collectives reject an out-of-range root -------------------------------

namespace {

/// Calls every rooted collective on `c` with root -1 and root size().
/// Each call must throw a peachy::Error naming its op before any message
/// moves, so no rank blocks; returns the number of such errors.
int count_named_bad_roots(pm::Comm& c) {
  int named = 0;
  const std::vector<int> v{c.rank(), 1};
  for (const int root : {-1, c.size()}) {
    const auto expect_named = [&](const std::string& what, const auto& call) {
      try {
        call();
        ADD_FAILURE() << what << " accepted root " << root;
      } catch (const peachy::Error& e) {
        EXPECT_NE(std::string{e.what()}.find(what), std::string::npos) << e.what();
        ++named;
      }
    };
    std::vector<int> buf = v;
    expect_named("reduce: bad root", [&] { (void)c.reduce<int>(v, std::plus<>{}, root); });
    expect_named("reduce: bad root",
                 [&] { c.reduce_inplace<int>(std::span<int>{buf}, std::plus<>{}, root); });
    expect_named("gather: bad root", [&] { (void)c.gather<int>(v, root); });
    expect_named("scatter: bad root", [&] { (void)c.scatter_blocks<int>(v, root); });
    expect_named("broadcast: bad root", [&] { c.broadcast(buf, root); });
  }
  // Nothing was sent and no collective was begun: the communicator works.
  EXPECT_EQ(c.allreduce_value(1, std::plus<>{}), c.size());
  return named;
}

constexpr int kBadRootCalls = 10;  // 2 roots x 5 rooted calls

}  // namespace

TEST(MpiCollectiveRoots, OutOfRangeRootIsANamedErrorOnTheWorld) {
  pm::RunOptions opts;
  opts.op_timeout_ns = 5'000'000'000ULL;  // a regression fails, never hangs
  std::atomic<int> named{0};
  pm::run(4, [&](pm::Comm& c) { named += count_named_bad_roots(c); }, opts);
  EXPECT_EQ(named.load(), 4 * kBadRootCalls);
}

TEST(MpiCollectiveRoots, OutOfRangeRootIsANamedErrorOnAShrunkenComm) {
  // Rank 3 crashes; the survivors shrink to a 3-rank communicator whose
  // local ranks index its group, so a bad root must not reach to_world.
  peachy::faults::FaultPlan plan;
  plan.add({.kind = peachy::faults::FaultKind::crash, .rank = 3, .step = 1});
  pm::RunOptions opts;
  opts.plan = &plan;
  opts.op_timeout_ns = 5'000'000'000ULL;
  std::atomic<int> named{0};
  std::atomic<int> shrunk{0};
  pm::run(4, [&](pm::Comm& world) {
    pm::Comm comm = world;
    for (;;) {
      try {
        for (int round = 0; round < 4; ++round) (void)comm.allreduce_value(1, std::plus<>{});
        break;
      } catch (const peachy::faults::CommRevokedError&) {
      } catch (const peachy::faults::RankFailedError&) {
        comm.revoke();
      }
      comm = comm.shrink();
    }
    ASSERT_EQ(comm.size(), 3);
    shrunk += 1;
    named += count_named_bad_roots(comm);
  }, opts);
  EXPECT_EQ(shrunk.load(), 3);
  EXPECT_EQ(named.load(), 3 * kBadRootCalls);
}

// ---- traffic accounting -----------------------------------------------------------

TEST(MpiTraffic, CountsMessagesAndBytes) {
  const auto stats = pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      const std::vector<double> payload(100, 1.0);
      c.send<double>(1, 0, payload);
    } else {
      (void)c.recv<double>(0, 0);
    }
  });
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 100 * sizeof(double));
}

TEST(MpiTraffic, TreeReduceSendsP_Minus_1_Messages) {
  // A binomial-tree reduce moves exactly p-1 payload messages.
  for (int p : {2, 4, 8}) {
    const auto stats = pm::run(p, [](pm::Comm& c) {
      const double x = 1.0;
      (void)c.reduce<double>(std::span<const double>{&x, 1}, std::plus<>{}, 0);
    });
    EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(p - 1)) << "p=" << p;
  }
}

// ---- internal collective tag sequencing -------------------------------------------

TEST(MpiCollectiveTags, SequencePastOldWrapBoundaryDoesNotAlias) {
  // Regression: the internal tag sequence used to wrap at 2^20, so
  // collective #k and collective #(k + 2^20) shared a tag and could
  // cross-match in a long run.  Jump the counter to just below the old
  // boundary and drive collectives across it: results must stay correct
  // and the sequence must keep growing monotonically.
  pm::run(3, [](pm::Comm& c) {
    c.debug_set_collective_seq((std::uint64_t{1} << 20) - 3);
    for (int round = 0; round < 8; ++round) {
      EXPECT_EQ(c.allreduce_value(1, std::plus<>{}), 3);
      EXPECT_EQ(c.broadcast_value(c.rank() == 0 ? round : -1, 0), round);
    }
    EXPECT_GT(c.collective_seq(), std::uint64_t{1} << 20);
  });
}

TEST(MpiCollectiveTags, ExhaustionIsAHardErrorNotSilentAliasing) {
  // The full 2^30 tag values above the base are available; running out is
  // diagnosed instead of wrapping onto live tags.
  EXPECT_THROW(pm::run(1,
                       [](pm::Comm& c) {
                         c.debug_set_collective_seq(std::uint64_t{1} << 30);
                         c.barrier();
                       }),
               peachy::Error);
}

// ---- timeout argument validation --------------------------------------------

TEST(MpiTimeouts, NegativeOpTimeoutIsANamedErrorNotForever) {
  // Regression: a negative duration cast to the unsigned nanosecond field
  // used to become "no deadline" — the exact opposite of what a caller
  // computing `deadline - now` under clock skew asked for.
  pm::run(1, [](pm::Comm& c) {
    try {
      c.set_op_timeout(std::chrono::milliseconds{-5});
      FAIL() << "negative timeout accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("set_op_timeout"), std::string::npos);
      EXPECT_NE(std::string{e.what()}.find("negative timeout"), std::string::npos);
    }
    // The communicator is unharmed: a valid timeout still takes effect.
    c.set_op_timeout(std::chrono::milliseconds{50});
    EXPECT_EQ(c.op_timeout(), std::chrono::milliseconds{50});
  });
}

TEST(MpiTimeouts, NegativeTimedRecvIsANamedErrorNotForever) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 1) {
      try {
        (void)c.recv<int>(0, 4, std::chrono::nanoseconds{-1});
        FAIL() << "negative recv timeout accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("negative timeout"), std::string::npos);
      }
      try {
        (void)c.recv_bytes(0, 4, std::chrono::seconds{-2});
        FAIL() << "negative recv_bytes timeout accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string{e.what()}.find("negative timeout"), std::string::npos);
      }
      // The real message is still receivable afterwards.
      EXPECT_EQ(c.recv_value<int>(0, 4), 77);
    } else {
      c.send_value<int>(1, 4, 77);
    }
  });
}

// ---- machine teardown with blocked receivers --------------------------------

TEST(MpiTeardown, DestroyingMachineWakesBlockedReceiversWithNamedReason) {
  // Regression: destroying a Machine while a rank was still blocked in
  // recv used to tear the mailboxes out from under the sleeping thread.
  // The destructor now poisons every mailbox (named abort), waits for the
  // waiters to drain, and only then frees — so the blocked thread exits
  // through a catchable error, not UB.
  std::string caught;
  std::thread receiver;
  {
    auto machine = std::make_unique<pm::detail::Machine>(2);
    pm::Comm comm{*machine, 1};
    std::promise<void> entered;
    receiver = std::thread{[&comm, &caught, &entered] {
      entered.set_value();
      try {
        (void)comm.recv_value<int>(0, 0);  // no sender exists: blocks forever
        caught = "recv unexpectedly returned";
      } catch (const peachy::Error& e) {
        caught = e.what();
      }
    }};
    entered.get_future().wait();
    // Give the receiver time to actually enter the mailbox wait before
    // the machine is destroyed under it.
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    machine.reset();  // ~Machine: poison, wake, wait for drain
  }
  receiver.join();
  EXPECT_NE(caught.find("machine destroyed while ranks were still blocked in recv"),
            std::string::npos)
      << "actual: " << caught;
}
