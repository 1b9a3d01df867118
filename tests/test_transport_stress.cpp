// Stress coverage for the shm slot ring (DESIGN.md §15/§16) at the
// ring-operation level, below the transport seam: slot-ring wraparound
// FIFO under concurrent posters, spill-arena exhaustion with producers
// blocked on the free list, the give-up path, a world wider than 64
// processes (rank 65 and the launcher's register index), a producer
// SIGKILLed between claiming a slot and publishing it (driven from a
// forked child via test_hooks), whose hole the consumer must prove dead
// and skip, and shm_attach's validation of a truncated or mutated
// segment.  The whole file is part of the asan/tsan matrix in
// scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "mpi/shm_ring.hpp"
#include "mpi/wire.hpp"
#include "support/check.hpp"

namespace pd = peachy::mpi::detail;

namespace {

std::string segment_name() {
  static std::atomic<int> counter{0};
  return "/peachy.test." + std::to_string(getpid()) + "." + std::to_string(counter.fetch_add(1));
}

/// A fresh anonymous-named segment.  The name is unlinked immediately
/// (the mapping stays alive), so a test abort can't leak /dev/shm
/// entries.
pd::ShmView make_segment(int nprocs, std::size_t spill_bytes) {
  const std::string name = segment_name();
  pd::ShmView view = pd::shm_create(name, nprocs, spill_bytes);
  shm_unlink(name.c_str());
  return view;
}

pd::FrameHeader data_header(int source, int tag, std::uint64_t bytes) {
  pd::FrameHeader h;
  h.kind = static_cast<std::uint8_t>(pd::WireKind::kData);
  h.source = source;
  h.tag = tag;
  h.bytes = bytes;
  return h;
}

}  // namespace

// The ring has 64 slots; push an order of magnitude more through it with
// the consumer running concurrently, so head/tail wrap the slot array
// many times and every slot is recycled under load.  Inline payloads
// carry (producer, index) so the consumer can verify exact per-producer
// FIFO and zero loss/duplication.
TEST(ShmRingStress, WraparoundFifoUnderConcurrentPosters) {
  static constexpr int kProducers = 4;
  static constexpr int kPerProducer = 600;  // 2400 frames through 64 slots
  pd::ShmView view = make_segment(kProducers + 1, 64 << 10);

  std::thread consumer{[&view] {
    std::atomic<bool> stop{false};
    std::vector<int> next(kProducers, 0);
    pd::FrameHeader h;
    std::vector<std::byte> payload;
    for (int got = 0; got < kProducers * kPerProducer; ++got) {
      ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
      ASSERT_EQ(payload.size(), 2 * sizeof(std::uint32_t));
      std::uint32_t vals[2];
      std::memcpy(vals, payload.data(), sizeof vals);
      const int src = static_cast<int>(vals[0]);
      ASSERT_GE(src, 1);
      ASSERT_LE(src, kProducers);
      // Per-producer FIFO: producer src's frames arrive in push order.
      EXPECT_EQ(static_cast<int>(vals[1]), next[src - 1]);
      EXPECT_EQ(h.tag, static_cast<int>(vals[1]));
      ++next[src - 1];
    }
  }};

  std::vector<std::thread> producers;
  for (int p = 1; p <= kProducers; ++p) {
    producers.emplace_back([&view, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::uint32_t vals[2] = {static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(i)};
        const pd::FrameHeader h = data_header(p, i, sizeof vals);
        ASSERT_TRUE(pd::ring_push(view, 0, p, h,
                                  reinterpret_cast<const std::byte*>(vals)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  consumer.join();
  pd::shm_detach(view);
}

// Spill payloads (> kShmInlineBytes) against an arena sized for only a
// couple of blocks: producers must block on arena exhaustion and resume
// as the consumer frees, with total traffic ~100x the arena.  Contents
// are verified end to end, so a double-allocated or early-freed spill
// block shows up as corruption, not just a crash.
TEST(ShmRingStress, SpillArenaExhaustionUnderConcurrentPosters) {
  static constexpr int kProducers = 3;
  static constexpr int kPerProducer = 60;
  static constexpr std::size_t kPayload = 12 << 10;  // 12 KiB, always spilled
  // Room for ~5 blocks (+ free-list headers), so exhaustion is constant.
  pd::ShmView view = make_segment(kProducers + 1, 64 << 10);

  std::thread consumer{[&view] {
    std::atomic<bool> stop{false};
    pd::FrameHeader h;
    std::vector<std::byte> payload;
    for (int got = 0; got < kProducers * kPerProducer; ++got) {
      ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
      ASSERT_EQ(payload.size(), kPayload);
      const auto expect = static_cast<std::byte>((h.source * 31 + h.tag) & 0xff);
      EXPECT_EQ(payload.front(), expect);
      EXPECT_EQ(payload.back(), expect);
      EXPECT_EQ(payload[kPayload / 2], expect);
    }
  }};

  std::vector<std::thread> producers;
  for (int p = 1; p <= kProducers; ++p) {
    producers.emplace_back([&view, p] {
      std::vector<std::byte> payload(kPayload);
      for (int i = 0; i < kPerProducer; ++i) {
        std::memset(payload.data(), (p * 31 + i) & 0xff, payload.size());
        const pd::FrameHeader h = data_header(p, i, kPayload);
        ASSERT_TRUE(pd::ring_push(view, 0, p, h, payload.data()));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  consumer.join();
  pd::shm_detach(view);
}

// A sender must bail out of a full ring (and of arena exhaustion) when
// its give_up flag trips — the path that stops survivors from piling
// frames into a dead process's never-drained ring.
TEST(ShmRingStress, GiveUpAbandonsFullRing) {
  pd::ShmView view = make_segment(2, 64 << 10);
  const pd::FrameHeader h = data_header(1, 0, sizeof(int));
  const int v = 7;
  const auto* bytes = reinterpret_cast<const std::byte*>(&v);
  for (std::size_t i = 0; i < pd::kShmRingSlots; ++i) {
    ASSERT_TRUE(pd::ring_push(view, 0, 1, h, bytes));
  }
  std::atomic<bool> give_up{true};
  EXPECT_FALSE(pd::ring_push(view, 0, 1, h, bytes, &give_up));

  // Same bail-out from spill-arena exhaustion: one giant block holds the
  // arena, so the next spill push can only wait — or give up.
  pd::ShmView view2 = make_segment(2, 64 << 10);
  std::vector<std::byte> big(48 << 10);
  ASSERT_TRUE(pd::ring_push(view2, 0, 1, data_header(1, 1, big.size()), big.data()));
  EXPECT_FALSE(pd::ring_push(view2, 0, 1, data_header(1, 2, big.size()), big.data(), &give_up));

  pd::shm_detach(view);
  pd::shm_detach(view2);
}

// Every per-process array is sized from nprocs, so a world wider than
// 64 processes runs the same protocol: its last rank (65) and the
// launcher (register index nprocs = 66) push and pop like any other
// process, and only an index past the launcher's is refused.
TEST(ShmRingWide, RankAndLauncherPastSixtyFourPushAndPop) {
  constexpr int kProcs = 66;
  pd::ShmView view = make_segment(kProcs, 4 << 10);
  ASSERT_EQ(view.nprocs, kProcs);

  const int v = 41;
  const auto* bytes = reinterpret_cast<const std::byte*>(&v);
  ASSERT_TRUE(pd::ring_push(view, 0, kProcs - 1, data_header(kProcs - 1, 7, sizeof v), bytes));
  ASSERT_TRUE(pd::ring_push(view, kProcs - 1, kProcs, data_header(kProcs, 8, sizeof v), bytes));

  std::atomic<bool> stop{false};
  pd::FrameHeader h;
  std::vector<std::byte> payload;
  ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
  EXPECT_EQ(h.tag, 7);
  EXPECT_EQ(h.source, kProcs - 1);
  ASSERT_TRUE(pd::ring_pop(view, kProcs - 1, h, payload, stop));
  EXPECT_EQ(h.tag, 8);
  EXPECT_EQ(h.source, kProcs);

  EXPECT_THROW(pd::ring_push(view, 0, kProcs + 1, data_header(1, 9, sizeof v), bytes),
               peachy::Error);
  EXPECT_THROW(pd::ring_push(view, 0, -1, data_header(1, 9, sizeof v), bytes), peachy::Error);
  pd::shm_detach(view);
}

#if defined(__linux__)
// The crash window: a forked child claims a slot (head CAS done, claim
// register set) and is SIGKILLed before publishing seq.  The consumer
// sees head past an unpublished slot — a hole it may skip only once the
// launcher marks the child dead.  Frames published on either side of
// the hole must still arrive, in order.
namespace {
void expect_dead_producer_hole_skipped(int nprocs, int claimant) {
  pd::ShmView view = make_segment(nprocs, 64 << 10);

  const int a = 1;
  ASSERT_TRUE(pd::ring_push(view, 0, 0, data_header(0, 10, sizeof a),
                            reinterpret_cast<const std::byte*>(&a)));

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: die exactly between claim and publish.
    pd::test_hooks::g_die_between_claim_and_publish.store(true);
    const int c = 99;
    (void)pd::ring_push(view, 0, claimant, data_header(claimant, 11, sizeof c),
                        reinterpret_cast<const std::byte*>(&c));
    _exit(0);  // unreachable — the hook raises SIGKILL
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const int b = 2;
  ASSERT_TRUE(pd::ring_push(view, 0, 0, data_header(0, 12, sizeof b),
                            reinterpret_cast<const std::byte*>(&b)));
  // head moved past the child's claimed slot; the slot is unpublished.
  ASSERT_EQ(view.ring(0)->head.load(), 3u);
  ASSERT_EQ(view.claims(0)[claimant].load(), 1u);

  // What the launcher does on reaping the death — without it the
  // consumer would wait on the hole forever.
  pd::shm_mark_dead(view, claimant);

  std::atomic<bool> stop{false};
  pd::FrameHeader h;
  std::vector<std::byte> payload;
  ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
  EXPECT_EQ(h.tag, 10);
  ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));  // skips the hole
  EXPECT_EQ(h.tag, 12);
  EXPECT_EQ(view.ring(0)->tail.load(), 3u);

  // The recycled slot is reusable: fill a full lap and drain it.
  for (int i = 0; i < static_cast<int>(pd::kShmRingSlots); ++i) {
    ASSERT_TRUE(pd::ring_push(view, 0, 0, data_header(0, 100 + i, sizeof i),
                              reinterpret_cast<const std::byte*>(&i)));
  }
  for (int i = 0; i < static_cast<int>(pd::kShmRingSlots); ++i) {
    ASSERT_TRUE(pd::ring_pop(view, 0, h, payload, stop));
    EXPECT_EQ(h.tag, 100 + i);
  }
  pd::shm_detach(view);
}
}  // namespace

TEST(ShmRingCrash, DeadProducerHoleIsSkipped) { expect_dead_producer_hole_skipped(2, 1); }

// Same crash at claim index 65, past the 64 processes a fixed-width
// dead mask could name.
TEST(ShmRingCrash, DeadProducerHoleIsSkippedAtWideIndex) {
  expect_dead_producer_hole_skipped(66, 65);
}
#endif  // __linux__

// shm_attach derives every ring address from the header's nprocs and
// spill_bytes, so it must refuse a segment whose length does not match
// them — here a 4-process segment cut to 8 KiB, whose ring 3 would lie
// far past the end of the mapping.
TEST(ShmRingAttach, TruncatedSegmentIsANamedError) {
  const std::string name = segment_name();
  pd::ShmView view = pd::shm_create(name, 4, 64 << 10);
  const int fd = shm_open(name.c_str(), O_RDWR, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(ftruncate(fd, 8192), 0);
  close(fd);
  EXPECT_THROW((void)pd::shm_attach(name), peachy::Error);
  pd::shm_detach(view);  // unmaps only; the cut-off pages are never touched
  shm_unlink(name.c_str());
}

// Seeded mutations of the header fields and the file length: every
// attach either yields a view whose rings, claim registers, spill
// arenas and per-process words all lie inside the mapping, or fails
// with a named error.
TEST(ShmRingAttach, MutatedHeaderYieldsInBoundsViewOrNamedError) {
  std::mt19937_64 rng{20231112};
  const auto pick = [&rng](std::initializer_list<std::uint64_t> options) {
    std::uniform_int_distribution<std::size_t> d{0, options.size() - 1};
    return *(options.begin() + d(rng));
  };
  int attached = 0;
  int refused = 0;
  for (int iter = 0; iter < 160; ++iter) {
    const int nprocs = 1 + static_cast<int>(rng() % 3);
    const std::size_t spill = pick({4096, 8192});
    const std::string name = segment_name();
    pd::ShmView view = pd::shm_create(name, nprocs, spill);
    pd::ShmSegHeader* hdr = view.header();
    const std::uint64_t n = static_cast<std::uint64_t>(nprocs);
    std::uint64_t length = view.bytes;
    // One or two of the four fields, each to a boundary or random value
    // (some choices leave the field as it was).
    for (int m = 0, mutations = 1 + static_cast<int>(rng() % 2); m < mutations; ++m) {
      switch (rng() % 4) {
        case 0:
          hdr->magic = static_cast<std::uint32_t>(
              pick({pd::kShmMagic, pd::kShmMagic ^ 1u, 0x50534D33u, rng()}));
          break;
        case 1:
          hdr->nprocs = static_cast<std::uint32_t>(
              pick({0, 1, n - 1, n, n + 1, 2 * n, 66, 0xffffffffu, rng() % 4096}));
          break;
        case 2:
          hdr->spill_bytes = pick({0, 1, spill - 1, spill, spill + 1, spill + 64, 2 * spill,
                                   std::numeric_limits<std::uint64_t>::max(), rng()});
          break;
        default:
          length = pick({0, 1, sizeof(pd::ShmSegHeader) - 1, sizeof(pd::ShmSegHeader), 8192,
                         view.bytes / 2, view.bytes - 1, view.bytes, view.bytes + 1,
                         view.bytes + 4096, rng() % (2 * view.bytes)});
          break;
      }
    }
    if (length != view.bytes) {
      const int fd = shm_open(name.c_str(), O_RDWR, 0);
      ASSERT_GE(fd, 0);
      ASSERT_EQ(ftruncate(fd, static_cast<off_t>(length)), 0);
      close(fd);
    }

    try {
      pd::ShmView got = pd::shm_attach(name);
      ++attached;
      const auto* lo = static_cast<const std::byte*>(got.base);
      const auto* hi = lo + got.bytes;
      const auto inside = [lo, hi](const void* p, std::size_t len) {
        const auto* b = static_cast<const std::byte*>(p);
        return b >= lo && b <= hi && len <= static_cast<std::size_t>(hi - b);
      };
      EXPECT_GT(got.nprocs, 0);
      EXPECT_TRUE(inside(got.proc(0), got.nprocs * sizeof(pd::ShmProc)));
      for (int p = 0; p < got.nprocs; ++p) {
        EXPECT_TRUE(inside(got.ring(p), sizeof(pd::ShmRing))) << "ring " << p;
        EXPECT_TRUE(inside(got.claims(p), (got.nprocs + 1) * sizeof(std::uint64_t)))
            << "claims " << p;
        EXPECT_TRUE(inside(got.spill(p), got.spill_bytes)) << "spill " << p;
      }
      pd::shm_detach(got);
    } catch (const peachy::Error&) {
      ++refused;
    }
    pd::shm_detach(view);
    shm_unlink(name.c_str());
  }
  // The seed must exercise both outcomes, or the loop proves nothing.
  EXPECT_GT(attached, 0);
  EXPECT_GT(refused, 0);
}
