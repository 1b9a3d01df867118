// Tests for the pooled zero-copy transport: BufferPool slab reuse and
// adoption semantics, cross-thread acquire/share/release (the TSan
// fixture for the refcount and freelist paths), the recv_into exact-size
// contract, post_move payload integrity under wildcard matching, the
// checker's view of pooled + moved messages, and the exact TrafficStats
// regression pinning the distributed experiments' message/byte counts to
// their pre-pool values — the transport rewrite must be invisible to the
// counters.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "data/points.hpp"
#include "kmeans/mpi_kmeans.hpp"
#include "mpi/buffer_pool.hpp"
#include "mpi/mpi.hpp"
#include "obs/obs.hpp"
#include "traffic/mpi_traffic.hpp"

namespace pa = peachy::analysis;
namespace pm = peachy::mpi;

namespace {

/// True iff `what()` of a thrown peachy::Error contains `needle`.
template <typename Fn>
testing::AssertionResult throws_mentioning(Fn&& fn, const std::string& needle) {
  try {
    fn();
  } catch (const peachy::Error& e) {
    if (std::string{e.what()}.find(needle) != std::string::npos) {
      return testing::AssertionSuccess();
    }
    return testing::AssertionFailure() << "error did not mention \"" << needle
                                       << "\": " << e.what();
  }
  return testing::AssertionFailure() << "no peachy::Error thrown";
}

}  // namespace

// ---- pool mechanics ---------------------------------------------------------------

TEST(BufferPool, SlabReuseIsAHitAndLiveGaugeBalances) {
  auto& pool = pm::BufferPool::instance();
  pool.trim();
  const auto before = pool.stats();
  {
    auto a = pool.acquire(1000);
    EXPECT_EQ(a.size(), 1000u);
    EXPECT_EQ(pool.stats().live, before.live + 1);
  }  // released -> parked
  const auto mid = pool.stats();
  EXPECT_EQ(mid.live, before.live);
  EXPECT_GT(mid.free_bytes, 0u);
  {
    auto b = pool.acquire(900);  // same power-of-two class as 1000
    EXPECT_EQ(b.size(), 900u);
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.hits, mid.hits + 1);
  EXPECT_EQ(after.acquires, before.acquires + 2);
  pool.trim();
  EXPECT_EQ(pool.stats().free_bytes, 0u);
}

TEST(BufferPool, PayloadIsMaxAlignedForInPlaceTypedReads) {
  auto& pool = pm::BufferPool::instance();
  for (const std::size_t n : {1u, 17u, 255u, 4096u, 100000u, (5u << 20)}) {
    const auto buf = pool.acquire(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % alignof(std::max_align_t), 0u)
        << "size " << n;
  }
}

TEST(BufferPool, AdoptedByteVectorIsZeroCopyInAndOut) {
  auto& pool = pm::BufferPool::instance();
  std::vector<std::byte> v(4096, std::byte{0x5a});
  const std::byte* heap = v.data();
  auto buf = pool.adopt(std::move(v));
  EXPECT_EQ(buf.data(), heap) << "adopt must not copy";
  EXPECT_EQ(buf.size(), 4096u);
  const auto back = buf.release_bytes();
  EXPECT_EQ(back.data(), heap) << "unique adopted byte vector must be stolen back";
  EXPECT_EQ(buf.size(), 0u);  // handle consumed
}

TEST(BufferPool, SharedBufferIsCopiedOutNotStolen) {
  auto& pool = pm::BufferPool::instance();
  std::vector<std::byte> v(64, std::byte{9});
  auto buf = pool.adopt(std::move(v));
  auto alias = buf.share();
  EXPECT_EQ(alias.data(), buf.data());
  auto out = buf.release_bytes();  // refcount 2: must copy, not steal
  ASSERT_EQ(out.size(), 64u);
  EXPECT_EQ(out[0], std::byte{9});
  ASSERT_EQ(alias.size(), 64u);  // the other reference still sees the bytes
  EXPECT_EQ(alias.data()[63], std::byte{9});
}

TEST(BufferPool, AdoptTypedPreservesBytesWithoutCopy) {
  auto& pool = pm::BufferPool::instance();
  std::vector<double> v{1.5, -2.5, 3.25};
  const auto* heap = reinterpret_cast<const std::byte*>(v.data());
  const auto buf = pool.adopt_typed(std::move(v));
  EXPECT_EQ(buf.data(), heap);
  ASSERT_EQ(buf.size(), 3 * sizeof(double));
  double got[3];
  std::memcpy(got, buf.data(), sizeof(got));
  EXPECT_EQ(got[1], -2.5);
}

// The TSan fixture: producers acquire/adopt, fill, and hand buffers (plus
// shared aliases) to consumers over a queue; consumers verify contents
// and drop the last references concurrently with producer releases, so
// refcount decrements and freelist push/pop race on every size class.
TEST(BufferPoolConcurrency, CrossThreadAcquireShareReleaseIsRaceFree) {
  auto& pool = pm::BufferPool::instance();
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<pm::PayloadBuffer, std::byte>> queue;  // buffer + expected fill
  int producers_left = kProducers;

  std::vector<std::thread> consumers;
  std::atomic<int> verified{0};
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        std::pair<pm::PayloadBuffer, std::byte> item;
        {
          std::unique_lock lk{mu};
          cv.wait(lk, [&] { return !queue.empty() || producers_left == 0; });
          if (queue.empty()) return;
          item = std::move(queue.front());
          queue.pop_front();
        }
        const auto& buf = item.first;
        ASSERT_GT(buf.size(), 0u);
        EXPECT_EQ(buf.data()[0], item.second);
        EXPECT_EQ(buf.data()[buf.size() - 1], item.second);
        verified.fetch_add(1, std::memory_order_relaxed);
      }  // buffer dropped here, racing the producers' own releases
    });
  }

  std::vector<std::thread> producers;
  for (int id = 0; id < kProducers; ++id) {
    producers.emplace_back([&, id] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto fill = static_cast<std::byte>((id * 31 + i) % 251);
        const std::size_t n = 64u << (i % 8);  // spread across size classes
        pm::PayloadBuffer buf;
        if (i % 3 == 0) {
          buf = pm::BufferPool::instance().adopt(std::vector<std::byte>(n, fill));
        } else {
          buf = pool.acquire(n);
          std::memset(buf.mutable_data(), static_cast<int>(fill), n);
        }
        auto alias = buf.share();  // producer keeps a reference...
        {
          std::lock_guard lk{mu};
          queue.emplace_back(std::move(buf), fill);
        }
        cv.notify_one();
        EXPECT_EQ(alias.data()[n / 2], fill);  // ...and reads it concurrently
      }
      {
        std::lock_guard lk{mu};
        if (--producers_left == 0) cv.notify_all();
      }
    });
  }
  for (auto& t : producers) t.join();
  cv.notify_all();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(verified.load(), kProducers * kPerProducer);
}

// ---- recv_into exact-size contract ------------------------------------------------

TEST(TransportRecvInto, LandsInCallerStorageWithStatus) {
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      const std::vector<std::int32_t> payload{10, 20, 30, 40};
      c.send<std::int32_t>(1, 4, payload);
    } else {
      std::vector<std::int32_t> out(4, -1);
      const pm::Status st = c.recv_into<std::int32_t>(std::span<std::int32_t>{out}, 0, 4);
      EXPECT_EQ(out, (std::vector<std::int32_t>{10, 20, 30, 40}));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.bytes, 4 * sizeof(std::int32_t));
    }
  });
}

TEST(TransportRecvInto, OversizedMessageIsANamedTruncationError) {
  EXPECT_TRUE(throws_mentioning(
      [] {
        pm::run(2, [](pm::Comm& c) {
          if (c.rank() == 0) {
            c.send<std::int32_t>(1, 1, std::vector<std::int32_t>{1, 2, 3, 4});
          } else {
            std::int32_t two[2];
            (void)c.recv_into<std::int32_t>(std::span<std::int32_t>{two}, 0, 1);
          }
        });
      },
      "would be truncated into"));
}

TEST(TransportRecvInto, ShortMessageIsANamedError) {
  EXPECT_TRUE(throws_mentioning(
      [] {
        pm::run(2, [](pm::Comm& c) {
          if (c.rank() == 0) {
            c.send<std::int32_t>(1, 1, std::vector<std::int32_t>{1});
          } else {
            std::int32_t four[4];
            (void)c.recv_into<std::int32_t>(std::span<std::int32_t>{four}, 0, 1);
          }
        });
      },
      "is shorter than"));
}

// ---- moved payloads ---------------------------------------------------------------

TEST(TransportMove, MovedByteSendIsZeroCopyEndToEnd) {
  pm::run(1, [](pm::Comm& c) {
    std::vector<std::byte> payload(10000, std::byte{0x2b});
    const std::byte* heap = payload.data();
    c.send_bytes_move(0, 3, std::move(payload));
    const auto got = c.recv_bytes(0, 3);
    ASSERT_EQ(got.size(), 10000u);
    EXPECT_EQ(got.data(), heap) << "receiver must steal the adopted vector, not copy it";
  });
}

TEST(TransportMove, PostMovePayloadsSurviveWildcardMatching) {
  pm::run(4, [](pm::Comm& c) {
    if (c.rank() == 0) {
      std::uint64_t seen_mask = 0;
      for (int i = 0; i < 3; ++i) {
        pm::Status st;
        const auto got = c.recv<std::uint64_t>(pm::kAnySource, pm::kAnyTag, &st);
        ASSERT_EQ(got.size(), 1024u);
        // Every element encodes its sender: integrity across the
        // adopt -> mailbox -> wildcard-match -> steal path.
        for (std::size_t j = 0; j < got.size(); ++j) {
          ASSERT_EQ(got[j], static_cast<std::uint64_t>(st.source) * 1000 + j % 7);
        }
        EXPECT_EQ(st.tag, 40 + st.source);
        seen_mask |= std::uint64_t{1} << st.source;
      }
      EXPECT_EQ(seen_mask, 0b1110u);
    } else {
      std::vector<std::uint64_t> payload(1024);
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::uint64_t>(c.rank()) * 1000 + j % 7;
      }
      c.send_move<std::uint64_t>(0, 40 + c.rank(), std::move(payload));
    }
  });
}

TEST(TransportMove, CopiedAndMovedSendsCountIdentically) {
  // The counters describe messages, not transport mechanics: a moved send
  // must be indistinguishable from a copied one.
  const auto count = [](bool moved) {
    return pm::run(2, [moved](pm::Comm& c) {
      if (c.rank() == 0) {
        std::vector<double> payload(500, 1.0);
        if (moved) {
          c.send_move<double>(1, 2, std::move(payload));
        } else {
          c.send<double>(1, 2, payload);
        }
      } else {
        (void)c.recv<double>(0, 2);
      }
    });
  };
  const auto copied = count(false);
  const auto m = count(true);
  EXPECT_EQ(copied.messages, m.messages);
  EXPECT_EQ(copied.bytes, m.bytes);
  EXPECT_EQ(copied.bytes, 500 * sizeof(double));
}

// ---- checker still sees pooled + moved messages -----------------------------------

TEST(TransportChecker, LeakedMovedMessageIsReportedWithItsSize) {
  const auto res = pm::run_checked(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send_move<std::int32_t>(1, 7, std::vector<std::int32_t>{1, 2, 3});  // never received
    }
  });
  EXPECT_FALSE(res.report.clean());
  EXPECT_EQ(res.report.count(pa::FindingKind::message_leak), 1u);
  EXPECT_TRUE(res.report.mentions("message from rank 0 to rank 1 (tag=7, 12 bytes)"))
      << res.report.to_string();
}

TEST(TransportChecker, DeadlockDetectionUnaffectedByMovedTraffic) {
  // Moved messages flow on tag 1 and sit unmatched in the mailboxes; the
  // deadlock (everyone stuck on tag 9, which nobody sends) must still be
  // detected through them.  (Leaks are only scanned on normal exit, so
  // the unreceived tag-1 messages do not additionally show up here.)
  const auto res = pm::run_checked(2, [](pm::Comm& c) {
    c.send_bytes_move(1 - c.rank(), 1, std::vector<std::byte>(64, std::byte{1}));
    (void)c.recv_bytes(1 - c.rank(), 9);
  });
  EXPECT_EQ(res.report.count(pa::FindingKind::deadlock), 1u);
  EXPECT_TRUE(res.report.mentions("cyclic recv dependency among ranks {0, 1}"))
      << res.report.to_string();
}

// ---- TrafficStats regression: bit-identical to the pre-pool transport -------------

// These exact counts were captured from the experiment workloads *before*
// the pooled transport landed (see DESIGN.md §11); the rewrite contract
// is that message shapes and sizes are unchanged, so any drift here means
// an algorithm changed what it sends, not just how.

TEST(TransportRegression, KmeansMpiTrafficCountsAreUnchanged) {
  // Two allreduces per iteration (sums, then counts with the change count
  // as element k).  This pin was re-taken on purpose when the separate
  // change-count allreduce was folded into the counts one: 2(p-1) fewer
  // messages per iteration, and the same bytes, since the 8-byte count
  // moved from its own message into the counts message.
  peachy::data::BlobsSpec spec;
  spec.classes = 8;
  spec.points_per_class = 2000 / 8;
  spec.dims = 4;
  spec.spread = 2.0;
  spec.seed = 17;
  const auto points = peachy::data::gaussian_blobs(spec).points;

  peachy::kmeans::Options opts;
  opts.k = 8;
  opts.max_iterations = 5;
  opts.min_changes = 0;
  opts.move_tolerance = 0.0;
  opts.seed = 17;

  const struct {
    int ranks;
    std::uint64_t messages, bytes;
  } expected[] = {{2, 27, 43568}, {4, 87, 82704}, {8, 231, 136976}};
  for (const auto& e : expected) {
    const auto stats = pm::run(e.ranks, [&](pm::Comm& comm) {
      (void)peachy::kmeans::cluster_mpi(
          comm, comm.rank() == 0 ? points : peachy::data::PointSet{}, opts, nullptr);
    });
    EXPECT_EQ(stats.messages, e.messages) << "p=" << e.ranks;
    EXPECT_EQ(stats.bytes, e.bytes) << "p=" << e.ranks;
  }
}

TEST(TransportRegression, TrafficSimTrafficCountsAreUnchanged) {
  // One int64 position allgather per step (velocities are derived from the
  // displacement, not exchanged): 20 steps x p(p-1) messages carrying
  // (p-1) x 500 cars x 8 bytes.  This pin was re-taken on purpose when the
  // int32 velocity allgather was dropped; any other drift is a transport
  // change.
  peachy::traffic::Spec spec;
  spec.cars = 500;
  spec.road_length = 4000;
  spec.seed = 31;

  const struct {
    int ranks;
    std::uint64_t messages, bytes;
  } expected[] = {{2, 40, 80000}, {4, 240, 240000}, {8, 1120, 560000}};
  for (const auto& e : expected) {
    const auto stats = pm::run(e.ranks, [&](pm::Comm& comm) {
      (void)peachy::traffic::run_mpi(comm, spec, 20, nullptr);
    });
    EXPECT_EQ(stats.messages, e.messages) << "p=" << e.ranks;
    EXPECT_EQ(stats.bytes, e.bytes) << "p=" << e.ranks;
  }
}

// ---- obs integration --------------------------------------------------------------

TEST(TransportObs, PoolCountersAndByteSplitAreRecorded) {
  peachy::obs::reset();
  peachy::obs::enable();
  pm::run(2, [](pm::Comm& c) {
    if (c.rank() == 0) {
      c.send<double>(1, 1, std::vector<double>(64, 1.0));                  // copied
      c.send_move<double>(1, 2, std::vector<double>(64, 2.0));             // moved
    } else {
      (void)c.recv<double>(0, 1);
      (void)c.recv<double>(0, 2);
    }
  });
  const std::int64_t copied = peachy::obs::counter("mpi.bytes_copied").value();
  const std::int64_t moved = peachy::obs::counter("mpi.bytes_moved").value();
  const std::int64_t acquires = peachy::obs::counter("mpi.pool.hits").value() +
                                peachy::obs::counter("mpi.pool.misses").value();
  peachy::obs::disable();
  peachy::obs::reset();
  EXPECT_GE(copied, static_cast<std::int64_t>(64 * sizeof(double)));
  EXPECT_GE(moved, static_cast<std::int64_t>(64 * sizeof(double)));
  EXPECT_GT(acquires, 0);
}
