#include "mpi/shm_ring.hpp"

#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <limits>
#include <mutex>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::mpi::detail {

namespace test_hooks {
std::atomic<bool> g_die_between_claim_and_publish{false};
}  // namespace test_hooks

namespace {

constexpr std::size_t kAlign = 64;

/// Spin iterations before a waiter falls back to the futex.  Modest on
/// purpose: the protocol's win is avoiding wake *syscalls* and lock
/// round-trips, not burning a core — on an oversubscribed host the
/// futex path is reached almost immediately and still beats the old
/// broadcast-per-operation regime.
constexpr int kSpinIters = 128;

template <typename T>
[[nodiscard]] constexpr T align_up(T v) noexcept {
  return (v + (kAlign - 1)) / kAlign * kAlign;
}

// Byte offsets of the layout drawn in shm_ring.hpp.  A validated view
// evaluates them in size_t; sizing a segment from untrusted header
// fields evaluates them in 128 bits, where nprocs < 2^32 and
// spill_bytes < 2^64 keep every term exact, so the caller can
// range-check the result instead of trusting a wrapped one.
__extension__ typedef unsigned __int128 Wide;

constexpr std::size_t kProcsOffset = align_up(sizeof(ShmSegHeader));
constexpr std::size_t kClaimsOffset = align_up(sizeof(ShmRing));  ///< within a ring's stride

template <typename T>
[[nodiscard]] constexpr T rings_offset(T nprocs) noexcept {
  return T{kProcsOffset} + align_up(nprocs * T{sizeof(ShmProc)});
}

/// Spill arena offset within a ring's stride: past the ring and its
/// nprocs + 1 claim registers.
template <typename T>
[[nodiscard]] constexpr T spill_offset(T nprocs) noexcept {
  return T{kClaimsOffset} + align_up((nprocs + 1) * T{sizeof(std::atomic<std::uint64_t>)});
}

template <typename T>
[[nodiscard]] constexpr T ring_stride(T nprocs, T spill_bytes) noexcept {
  return spill_offset(nprocs) + align_up(spill_bytes);
}

template <typename T>
[[nodiscard]] constexpr T segment_bytes(T nprocs, T spill_bytes) noexcept {
  return rings_offset(nprocs) + nprocs * ring_stride(nprocs, spill_bytes);
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  asm volatile("" ::: "memory");
#endif
}

// ---- futex parking ----------------------------------------------------------
//
// The futex words are wake *generations*: a waker bumps the word and
// issues FUTEX_WAKE, a waiter re-reads the generation before its final
// condition check so a bump that races the check turns the wait into an
// immediate EAGAIN instead of a lost wakeup.  All waits carry a 100ms
// timeout, so a wakeup lost to a peer death costs one poll interval,
// never a hang.  The ops are deliberately *not* FUTEX_PRIVATE: the words
// live in shared memory.

void count_futex_wait() noexcept {
  if (obs::enabled()) {
    static obs::Counter& c = obs::counter("mpi.transport.shm.futex_wait");
    c.add(1);
  }
}

void count_futex_wake() noexcept {
  if (obs::enabled()) {
    static obs::Counter& c = obs::counter("mpi.transport.shm.futex_wake");
    c.add(1);
  }
}

#if defined(__linux__)
void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected) noexcept {
  timespec ts{};
  ts.tv_nsec = 100'000'000;  // relative, the 100ms safety poll
  count_futex_wait();
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT, expected, &ts, nullptr,
          0);
}

void futex_wake_all(std::atomic<std::uint32_t>* word) noexcept {
  count_futex_wake();
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE, INT_MAX, nullptr,
          nullptr, 0);
}
#else
// No futex off Linux: parking degrades to a 1ms sleep-poll, and the
// generation bumps that would wake a sleeper are simply polled for.
void futex_wait(std::atomic<std::uint32_t>*, std::uint32_t) noexcept {
  timespec ts{0, 1'000'000};
  count_futex_wait();
  nanosleep(&ts, nullptr);
}
void futex_wake_all(std::atomic<std::uint32_t>*) noexcept { count_futex_wake(); }
#endif

/// Wake the ring's consumer after publishing slot `pos`, but only on
/// the transition that needs it: the consumer is parked AND parked on
/// *this* slot (its cursor `tail` equals `pos` — a publication further
/// ahead will be found without sleeping).  The seq_cst fence pairs with
/// the one in park_consumer: either our post-fence loads see the parked
/// flag and cursor (we wake), or the consumer's post-flag recheck sees
/// our publication (it never sleeps) — the store-buffer race loses
/// exactly one of the two ways.  Without the cursor check a burst of
/// publications pays one wake syscall *each* until the slow consumer
/// gets scheduled; with it, one per empty→non-empty transition.
void wake_consumer_if_needed(ShmRing* r, std::uint64_t pos) noexcept {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (r->consumer_parked.load(std::memory_order_relaxed) != 0 &&
      r->tail.load(std::memory_order_relaxed) == pos) {
    r->futex_empty.fetch_add(1, std::memory_order_relaxed);
    futex_wake_all(&r->futex_empty);
  }
}

/// Unconditional producer wake (spill frees, death notification): any
/// parked producer gets a kick.
void wake_producers_if_parked(ShmRing* r) noexcept {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (r->producers_parked.load(std::memory_order_relaxed) != 0) {
    r->futex_full.fetch_add(1, std::memory_order_relaxed);
    futex_wake_all(&r->futex_full);
  }
}

/// Wake parked producers after recycling slot `pos`, but only on the
/// full→non-full transition: the claim cursor sits exactly one ring
/// past the slot we just freed.  Producers parked against a ring that
/// already has space re-check after their pre-sleep fence (or ride the
/// 100ms backstop), so skipping the syscall here is safe — same fence
/// pairing as the consumer side.
void wake_producers_if_was_full(ShmRing* r, std::uint64_t pos) noexcept {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (r->producers_parked.load(std::memory_order_relaxed) != 0 &&
      r->head.load(std::memory_order_relaxed) == pos + kShmRingSlots) {
    r->futex_full.fetch_add(1, std::memory_order_relaxed);
    futex_wake_all(&r->futex_full);
  }
}

/// Park the consumer until `slot` publishes sequence `pos + 1`, the
/// generation moves, or the 100ms backstop fires.
void park_consumer(ShmRing* r, ShmSlot* slot, std::uint64_t pos) noexcept {
  const std::uint32_t gen = r->futex_empty.load(std::memory_order_relaxed);
  r->consumer_parked.store(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (slot->seq.load(std::memory_order_acquire) != pos + 1) {
    futex_wait(&r->futex_empty, gen);
  }
  r->consumer_parked.store(0, std::memory_order_relaxed);
}

// ---- spill free list --------------------------------------------------------

/// Spillover free-list node, stored *in the spill arena itself* at the
/// block's offset.  Read/written via memcpy: blocks are 16-aligned but
/// the aliasing rules are easier to satisfy than to argue about.
struct FreeBlock {
  std::uint64_t size;
  std::uint64_t next;
};
static_assert(sizeof(FreeBlock) == 16);

[[nodiscard]] FreeBlock load_block(const std::byte* spill, std::uint64_t off) noexcept {
  FreeBlock b;
  std::memcpy(&b, spill + off, sizeof b);
  return b;
}

void store_block(std::byte* spill, std::uint64_t off, FreeBlock b) noexcept {
  std::memcpy(spill + off, &b, sizeof b);
}

[[nodiscard]] constexpr std::uint64_t round16(std::uint64_t v) noexcept {
  return (v + 15) / 16 * 16;
}

/// Lock a ring mutex, absorbing the death of a previous owner.  The
/// mutex guards only the spill free list, and every free-list update is
/// complete before the unlock, so a lock recovered via EOWNERDEAD always
/// guards consistent data.
void lock_robust(pthread_mutex_t* mu) {
  int rc = pthread_mutex_lock(mu);
  if (rc == EOWNERDEAD) rc = pthread_mutex_consistent(mu);
  PEACHY_CHECK(rc == 0, "shm ring: mutex lock failed (" + std::string{std::strerror(rc)} + ")");
}

/// First-fit allocation from the offset-sorted free list.  Returns
/// {offset, granted size} or {kShmSpillNull, 0}.  A tail remainder
/// smaller than 32 bytes is granted along with the block rather than
/// left as an unusable sliver.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> alloc_spill(ShmRing* r, std::byte* spill,
                                                                  std::uint64_t need) {
  std::uint64_t prev = kShmSpillNull;
  std::uint64_t cur = r->free_head;
  while (cur != kShmSpillNull) {
    const FreeBlock b = load_block(spill, cur);
    if (b.size >= need) {
      std::uint64_t granted = need;
      std::uint64_t next = b.next;
      if (b.size - need >= 32) {
        store_block(spill, cur + need, FreeBlock{b.size - need, b.next});
        next = cur + need;
      } else {
        granted = b.size;
      }
      if (prev == kShmSpillNull) {
        r->free_head = next;
      } else {
        FreeBlock pb = load_block(spill, prev);
        pb.next = next;
        store_block(spill, prev, pb);
      }
      return {cur, granted};
    }
    prev = cur;
    cur = b.next;
  }
  return {kShmSpillNull, 0};
}

/// Return a block to the free list, keeping it offset-sorted and
/// coalescing with both neighbors.
void free_spill(ShmRing* r, std::byte* spill, std::uint64_t off, std::uint64_t size) {
  std::uint64_t prev = kShmSpillNull;
  std::uint64_t cur = r->free_head;
  while (cur != kShmSpillNull && cur < off) {
    prev = cur;
    cur = load_block(spill, cur).next;
  }
  std::uint64_t next = cur;
  if (cur != kShmSpillNull && off + size == cur) {  // merge with the block after
    const FreeBlock nb = load_block(spill, cur);
    size += nb.size;
    next = nb.next;
  }
  if (prev != kShmSpillNull) {
    FreeBlock pb = load_block(spill, prev);
    if (prev + pb.size == off) {  // merge into the block before
      pb.size += size;
      pb.next = next;
      store_block(spill, prev, pb);
      return;
    }
    pb.next = off;
    store_block(spill, prev, pb);
  } else {
    r->free_head = off;
  }
  store_block(spill, off, FreeBlock{size, next});
}

void count_spill_hit() noexcept {
  if (obs::enabled()) {
    static obs::Counter& c = obs::counter("mpi.transport.shm.spill_hits");
    c.add(1);
  }
}

/// Allocate a spill block as a producer, parking on the producers'
/// futex while the arena is exhausted.  Returns {kShmSpillNull, 0} only
/// on give_up.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> alloc_spill_waiting(
    ShmRing* r, std::byte* spill, std::uint64_t need, const std::atomic<bool>* give_up) {
  for (;;) {
    if (give_up != nullptr && give_up->load(std::memory_order_relaxed)) {
      return {kShmSpillNull, 0};
    }
    lock_robust(&r->mu);
    const auto got = alloc_spill(r, spill, need);
    pthread_mutex_unlock(&r->mu);
    if (got.first != kShmSpillNull) return got;

    // Exhausted: announce the park *before* the confirming re-try so the
    // consumer's free→check-parked sequence can't miss us (it frees and
    // checks in the opposite order — one side always sees the other).
    const std::uint32_t gen = r->futex_full.load(std::memory_order_relaxed);
    r->producers_parked.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    lock_robust(&r->mu);
    const auto retry = alloc_spill(r, spill, need);
    pthread_mutex_unlock(&r->mu);
    if (retry.first != kShmSpillNull) {
      r->producers_parked.fetch_sub(1, std::memory_order_relaxed);
      return retry;
    }
    futex_wait(&r->futex_full, gen);
    r->producers_parked.fetch_sub(1, std::memory_order_relaxed);
  }
}

/// Process-local serialization of pushes *from this process* into one
/// ring: it makes the per-process claim register single-writer
/// (several rank threads of one process share one register) without any
/// cross-process cost.  Hashed so unrelated rings rarely collide.
std::mutex& local_push_mutex(const ShmRing* r) noexcept {
  static std::array<std::mutex, 16> mus;
  return mus[(reinterpret_cast<std::uintptr_t>(r) >> 6) % mus.size()];
}

/// The consumer found `pos` claimed (head moved past it) but
/// unpublished.  Skip it iff the claim provably belongs to a dead
/// process: the winning producer stored its register before the head
/// CAS and clears it only after publication, so while the hole exists
/// exactly the claimant's register names `pos`.  If every register
/// naming `pos` belongs to a process whose `dead` flag is set — and a
/// final seq re-check still shows no publication — the claimant died
/// mid-slot and the slot is recycled (its spill block, if it got that
/// far, leaks: bounded, and the world is about to shrink).  Any *live*
/// register naming `pos` vetoes the skip — it may be the real claimant
/// still copying.
bool try_skip_dead_hole(const ShmView& view, int proc, ShmRing* r, ShmSlot* slot,
                        std::uint64_t pos) {
  const std::atomic<std::uint64_t>* claim = view.claims(proc);
  bool dead_match = false;
  for (int q = 0; q <= view.nprocs; ++q) {  // q == nprocs: the launcher
    if (claim[q].load(std::memory_order_acquire) != pos) continue;
    const bool dead =
        q < view.nprocs && view.proc(q)->dead.load(std::memory_order_acquire) != 0;
    if (!dead) return false;  // a live process names this position
    dead_match = true;
  }
  if (!dead_match) return false;
  // The claimant may have published and died before clearing its
  // register; seeing the cleared/unchanged register above does not
  // order against the seq store, so re-check before declaring a hole.
  if (slot->seq.load(std::memory_order_acquire) != pos) return false;
  slot->seq.store(pos + kShmRingSlots, std::memory_order_release);
  r->tail.store(pos + 1, std::memory_order_relaxed);
  if (obs::enabled()) {
    static obs::Counter& c = obs::counter("mpi.transport.shm.holes_skipped");
    c.add(1);
  }
  return true;
}

// ---- segment lifecycle ------------------------------------------------------

void init_ring(const ShmView& view, int proc) {
  ShmRing* r = view.ring(proc);
  pthread_mutexattr_t ma;
  PEACHY_CHECK(pthread_mutexattr_init(&ma) == 0, "shm ring: mutexattr init failed");
  pthread_mutexattr_setpshared(&ma, PTHREAD_PROCESS_SHARED);
  pthread_mutexattr_setrobust(&ma, PTHREAD_MUTEX_ROBUST);
  PEACHY_CHECK(pthread_mutex_init(&r->mu, &ma) == 0, "shm ring: mutex init failed");
  pthread_mutexattr_destroy(&ma);

  r->head.store(0, std::memory_order_relaxed);
  r->tail.store(0, std::memory_order_relaxed);
  r->free_head = 0;
  std::atomic<std::uint64_t>* claim = view.claims(proc);
  for (int q = 0; q <= view.nprocs; ++q) claim[q].store(kShmClaimNone, std::memory_order_relaxed);
  r->consumer_parked.store(0, std::memory_order_relaxed);
  r->producers_parked.store(0, std::memory_order_relaxed);
  r->futex_empty.store(0, std::memory_order_relaxed);
  r->futex_full.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kShmRingSlots; ++i) {
    r->slots[i].seq.store(i, std::memory_order_relaxed);
  }
  store_block(view.spill(proc), 0, FreeBlock{view.spill_bytes, kShmSpillNull});
}

}  // namespace

ShmProc* ShmView::proc(int p) const noexcept {
  return reinterpret_cast<ShmProc*>(static_cast<std::byte*>(base) + kProcsOffset) + p;
}

ShmRing* ShmView::ring(int proc) const noexcept {
  const std::size_t n = static_cast<std::size_t>(nprocs);
  const std::size_t off =
      rings_offset(n) + static_cast<std::size_t>(proc) * ring_stride(n, spill_bytes);
  return reinterpret_cast<ShmRing*>(static_cast<std::byte*>(base) + off);
}

std::atomic<std::uint64_t>* ShmView::claims(int proc) const noexcept {
  return reinterpret_cast<std::atomic<std::uint64_t>*>(reinterpret_cast<std::byte*>(ring(proc)) +
                                                       kClaimsOffset);
}

std::byte* ShmView::spill(int proc) const noexcept {
  return reinterpret_cast<std::byte*>(ring(proc)) + spill_offset(static_cast<std::size_t>(nprocs));
}

std::size_t shm_segment_bytes(int nprocs, std::size_t spill_bytes) {
  PEACHY_CHECK(nprocs > 0, "shm segment: nprocs must be positive");
  const Wide bytes = segment_bytes(Wide{static_cast<std::uint32_t>(nprocs)}, Wide{spill_bytes});
  PEACHY_CHECK(bytes <= std::numeric_limits<std::size_t>::max(),
               "shm segment: " + std::to_string(nprocs) + " procs with " +
                   std::to_string(spill_bytes) + "-byte spill arenas overflow the address space");
  return static_cast<std::size_t>(bytes);
}

ShmView shm_create(const std::string& name, int nprocs, std::size_t spill_bytes) {
  const std::size_t bytes = shm_segment_bytes(nprocs, spill_bytes);
  int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0 && errno == EEXIST) {
    // Leftover from a crashed earlier run with the same pid-derived
    // name: reclaim it once rather than failing the launch.
    shm_unlink(name.c_str());
    fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  }
  PEACHY_CHECK(fd >= 0, "shm_create: shm_open('" + name + "') failed (" +
                            std::string{std::strerror(errno)} + ")");
  if (ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int err = errno;
    close(fd);
    shm_unlink(name.c_str());
    PEACHY_CHECK(false, "shm_create: ftruncate to " + std::to_string(bytes) + " bytes failed (" +
                            std::string{std::strerror(err)} + ")");
  }
  void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  PEACHY_CHECK(base != MAP_FAILED,
               "shm_create: mmap failed (" + std::string{std::strerror(errno)} + ")");

  ShmView view{base, bytes, nprocs, spill_bytes};
  ShmSegHeader* hdr = view.header();
  hdr->nprocs = static_cast<std::uint32_t>(nprocs);
  hdr->spill_bytes = spill_bytes;
  for (int p = 0; p < nprocs; ++p) init_ring(view, p);
  // Magic is written last: an attacher that sees it sees initialized rings.
  hdr->magic = kShmMagic;
  return view;
}

ShmView shm_attach(const std::string& name) {
  const int fd = shm_open(name.c_str(), O_RDWR, 0);
  PEACHY_CHECK(fd >= 0, "shm_attach: shm_open('" + name + "') failed (" +
                            std::string{std::strerror(errno)} + ")");
  struct stat st{};
  const bool stat_ok = fstat(fd, &st) == 0;
  if (!stat_ok || st.st_size < static_cast<off_t>(sizeof(ShmSegHeader))) {
    close(fd);
    PEACHY_CHECK(stat_ok, "shm_attach: fstat('" + name + "') failed");
    PEACHY_CHECK(false, "shm_attach: '" + name + "' is " + std::to_string(st.st_size) +
                            " bytes, too short for a segment header");
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  PEACHY_CHECK(base != MAP_FAILED,
               "shm_attach: mmap failed (" + std::string{std::strerror(errno)} + ")");

  // Validate the header against the mapping before deriving a single
  // address from it: every ring, claim and spill pointer is a function
  // of (nprocs, spill_bytes), so a segment of the wrong length would
  // hand out pointers past its end.
  const ShmSegHeader hdr = *static_cast<const ShmSegHeader*>(base);
  std::string bad;
  if (hdr.magic != kShmMagic) {
    bad = "is not a peachy shm segment";
  } else if (hdr.nprocs == 0 ||
             hdr.nprocs > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
    bad = "names a world of " + std::to_string(hdr.nprocs) + " processes";
  } else if (const Wide want = segment_bytes(Wide{hdr.nprocs}, Wide{hdr.spill_bytes});
             want != bytes) {
    const bool fits = want <= std::numeric_limits<std::size_t>::max();
    bad = "is " + std::to_string(bytes) + " bytes, not the " +
          (fits ? std::to_string(static_cast<std::size_t>(want)) : std::string{"> 2^64"}) +
          " bytes a world of " + std::to_string(hdr.nprocs) + " processes with " +
          std::to_string(hdr.spill_bytes) + "-byte spill arenas needs";
  }
  if (!bad.empty()) {
    munmap(base, bytes);
    PEACHY_CHECK(false, "shm_attach: '" + name + "' " + bad);
  }
  return ShmView{base, bytes, static_cast<int>(hdr.nprocs),
                 static_cast<std::size_t>(hdr.spill_bytes)};
}

void shm_detach(ShmView& view) noexcept {
  if (view.base != nullptr) munmap(view.base, view.bytes);
  view = ShmView{};
}

void shm_mark_dead(const ShmView& view, int proc) noexcept {
  if (proc < 0 || proc >= view.nprocs) return;
  view.proc(proc)->dead.store(1, std::memory_order_release);
  // Kick every consumer: one stuck on the victim's unpublished slot
  // re-runs its dead-hole scan now instead of on the 100ms backstop.
  for (int p = 0; p < view.nprocs; ++p) {
    ShmRing* r = view.ring(p);
    r->futex_empty.fetch_add(1, std::memory_order_relaxed);
    futex_wake_all(&r->futex_empty);
  }
}

bool ring_push(const ShmView& view, int proc, int me, const FrameHeader& h,
               const std::byte* payload, const std::atomic<bool>* give_up) {
  PEACHY_CHECK(me >= 0 && me <= view.nprocs,
               "ring_push: pusher index " + std::to_string(me) + " is outside 0.." +
                   std::to_string(view.nprocs) + " (ranks, then the launcher)");
  if (h.bytes > kShmInlineBytes) {
    PEACHY_CHECK(round16(h.bytes) <= view.spill_bytes,
                 "shm transport: " + std::to_string(h.bytes) +
                     "-byte message exceeds the spillover arena (" +
                     std::to_string(view.spill_bytes) + " bytes) and can never be delivered");
  }
  ShmRing* r = view.ring(proc);
  std::byte* spill = view.spill(proc);
  std::atomic<std::uint64_t>* claim = view.claims(proc);

  std::uint64_t spill_off = kShmSpillNull;
  std::uint64_t spill_cap = 0;
  if (h.bytes > kShmInlineBytes) {
    const auto got = alloc_spill_waiting(r, spill, round16(h.bytes), give_up);
    if (got.first == kShmSpillNull) return false;
    spill_off = got.first;
    spill_cap = got.second;
    std::memcpy(spill + spill_off, payload, h.bytes);
    count_spill_hit();
  }

  std::mutex& lm = local_push_mutex(r);
  for (;;) {
    if (give_up != nullptr && give_up->load(std::memory_order_relaxed)) {
      if (spill_off != kShmSpillNull) {
        lock_robust(&r->mu);
        free_spill(r, spill, spill_off, spill_cap);
        pthread_mutex_unlock(&r->mu);
      }
      return false;
    }

    bool published = false;
    std::uint64_t published_pos = 0;
    {
      const std::lock_guard<std::mutex> g(lm);
      std::uint64_t pos = r->head.load(std::memory_order_relaxed);
      for (;;) {
        ShmSlot* slot = &r->slots[pos % kShmRingSlots];
        const std::uint64_t seq = slot->seq.load(std::memory_order_acquire);
        if (seq == pos) {
          // Claim register first, CAS second: the release CAS orders the
          // register store before the head bump, so any consumer that
          // observes head > pos can also observe who claimed pos.
          claim[me].store(pos, std::memory_order_relaxed);
          if (r->head.compare_exchange_weak(pos, pos + 1, std::memory_order_release,
                                            std::memory_order_relaxed)) {
            if (test_hooks::g_die_between_claim_and_publish.load(std::memory_order_relaxed)) {
              raise(SIGKILL);  // the crashed-peer-mid-slot scenario
            }
            slot->hdr = h;
            slot->spill_off = spill_off;
            slot->spill_cap = spill_cap;
            if (spill_off == kShmSpillNull && h.bytes != 0) {
              std::memcpy(slot->inline_bytes, payload, h.bytes);
            }
            slot->seq.store(pos + 1, std::memory_order_release);  // the publication
            claim[me].store(kShmClaimNone, std::memory_order_release);
            published = true;
            published_pos = pos;
            break;
          }
          // Lost the race; `pos` now holds the current head.  Clear the
          // register so a parked loser never pins the consumer's
          // dead-hole scan on a stale position.
          claim[me].store(kShmClaimNone, std::memory_order_relaxed);
          continue;
        }
        if (seq > pos) {  // stale head snapshot — someone claimed past us
          pos = r->head.load(std::memory_order_relaxed);
          continue;
        }
        break;  // seq < pos: slot not yet recycled → ring full
      }
    }
    if (published) {
      wake_consumer_if_needed(r, published_pos);
      return true;
    }

    // Ring full: spin briefly for the consumer, then park (outside the
    // local mutex so sibling threads aren't held hostage).
    std::uint64_t pos = r->head.load(std::memory_order_relaxed);
    ShmSlot* slot = &r->slots[pos % kShmRingSlots];
    bool freed = false;
    for (int i = 0; i < kSpinIters; ++i) {
      if (slot->seq.load(std::memory_order_acquire) >= pos) {
        freed = true;
        break;
      }
      cpu_relax();
    }
    if (!freed) {
      const std::uint32_t gen = r->futex_full.load(std::memory_order_relaxed);
      r->producers_parked.fetch_add(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      pos = r->head.load(std::memory_order_relaxed);
      if (r->slots[pos % kShmRingSlots].seq.load(std::memory_order_acquire) < pos) {
        futex_wait(&r->futex_full, gen);
      }
      r->producers_parked.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

bool ring_consume(const ShmView& view, int proc, const std::atomic<bool>& stop,
                  const std::function<void(const FrameHeader&, const std::byte*)>& consume,
                  bool* waited) {
  ShmRing* r = view.ring(proc);
  std::byte* spill = view.spill(proc);
  bool did_wait = false;

  std::uint64_t pos = r->tail.load(std::memory_order_relaxed);
  ShmSlot* slot = &r->slots[pos % kShmRingSlots];
  for (;;) {
    bool ready = slot->seq.load(std::memory_order_acquire) == pos + 1;
    for (int i = 0; !ready && i < kSpinIters; ++i) {
      cpu_relax();
      ready = slot->seq.load(std::memory_order_acquire) == pos + 1;
    }
    if (ready) break;
    did_wait = true;
    if (r->head.load(std::memory_order_acquire) > pos) {
      // Claimed but unpublished: a producer is mid-slot — or died there.
      if (try_skip_dead_hole(view, proc, r, slot, pos)) {
        pos = r->tail.load(std::memory_order_relaxed);
        slot = &r->slots[pos % kShmRingSlots];
        continue;
      }
    } else if (stop.load(std::memory_order_relaxed)) {
      if (waited != nullptr) *waited = did_wait;
      return false;
    }
    park_consumer(r, slot, pos);
  }

  const FrameHeader h = slot->hdr;
  const std::uint64_t spill_off = slot->spill_off;
  const std::uint64_t spill_cap = slot->spill_cap;
  const std::byte* src = spill_off == kShmSpillNull ? slot->inline_bytes : spill + spill_off;
  consume(h, src);  // single copy: straight out of the segment

  if (spill_off != kShmSpillNull) {
    lock_robust(&r->mu);
    free_spill(r, spill, spill_off, spill_cap);
    pthread_mutex_unlock(&r->mu);
    wake_producers_if_parked(r);  // spill waiters park on the same futex
  }
  slot->seq.store(pos + kShmRingSlots, std::memory_order_release);  // recycle
  r->tail.store(pos + 1, std::memory_order_relaxed);
  wake_producers_if_was_full(r, pos);
  if (waited != nullptr) *waited = did_wait;
  return true;
}

bool ring_pop(const ShmView& view, int proc, FrameHeader& h, std::vector<std::byte>& payload,
              const std::atomic<bool>& stop) {
  return ring_consume(
      view, proc, stop,
      [&](const FrameHeader& hh, const std::byte* src) {
        h = hh;
        payload.resize(static_cast<std::size_t>(hh.bytes));
        if (hh.bytes != 0) std::memcpy(payload.data(), src, hh.bytes);
      },
      nullptr);
}

}  // namespace peachy::mpi::detail
