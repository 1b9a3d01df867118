#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/mman.h>
#include <unistd.h>

#include "faults/detect.hpp"
#include "faults/plan.hpp"
#include "mpi/frame_router.hpp"
#include "mpi/launch.hpp"
#include "mpi/shm_ring.hpp"
#include "mpi/transport.hpp"
#include "mpi/wire.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::mpi::detail {

namespace {

/// One process-wide endpoint over the world's shm segment: the launcher
/// created it (launched runs) or we create a private single-process one
/// and unlink it immediately (the mapping survives; nothing leaks into
/// /dev/shm past process exit).  The pump drains this process's inbound
/// ring and routes frames; sends push into the destination process's
/// ring (shm_ring.hpp has the slot/spillover protocol).
///
/// Failure mapping: shared memory has no EOF, so the *launcher* is the
/// failure detector — it reaps a signal death and posts a kFailed frame
/// into every survivor's ring (launch.cpp).  The endpoint additionally
/// remembers dead processes so sends to them are dropped (and a sender
/// already blocked on a dead process's full ring gives up) instead of
/// piling into a ring nobody will ever drain.
class ShmEndpoint : public WireEndpoint {
 public:
  static constexpr TransportKind kKind = TransportKind::kShm;

  void ensure_started() {
    std::lock_guard lock{start_mu_};
    if (started_) return;
    const LaunchInfo& li = launch_info();
    if (li.launched) {
      PEACHY_CHECK(li.kind == TransportKind::kShm && !li.shm_name.empty(),
                   "shm transport: launched without a PEACHY_SHM segment to attach");
      launched_ = true;
      my_proc_ = li.rank;
      nprocs_ = li.nranks;
      view_ = shm_attach(li.shm_name);
      PEACHY_CHECK(view_.nprocs == nprocs_, "shm transport: segment was created for " +
                                                std::to_string(view_.nprocs) +
                                                " processes, not " + std::to_string(nprocs_));
    } else {
      const std::string name = "/peachy." + std::to_string(getpid()) + ".self";
      view_ = shm_create(name, 1, kShmSpillBytes);
      shm_unlink(name.c_str());
    }
    dead_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(nprocs_));
    pump_ = std::thread{[this] { pump_main(); }};
    // Heartbeat: launched multi-process worlds only (from_env gates).
    hb_ = faults::HeartbeatConfig::from_env(launched_, nprocs_);
    if (hb_.enabled()) beat_ = std::thread{[this] { beat_main(); }};
    started_ = true;
  }

  void send_frame(int proc, FrameHeader h, const PayloadBuffer& payload) {
    std::atomic<bool>& dead = dead_[static_cast<std::size_t>(proc)];
    if (dead.load(std::memory_order_relaxed)) return;
    apply_wire_faults(
        my_proc_, proc, h, payload,
        [](PayloadBuffer& copy) {
          // The ring has no short writes, so "truncated" means the tail
          // never made it: zeros where content should be.
          const std::size_t keep = copy.size() / 2;
          std::memset(copy.mutable_data() + keep, 0, copy.size() - keep);
        },
        [&](const FrameHeader& f, const PayloadBuffer& p, int copies) {
          for (int c = 0; c < copies; ++c) {
            (void)ring_push(view_, proc, my_proc_, f, p.data(), &dead);
          }
        });
  }

  ~ShmEndpoint() {
    if (!started_) return;
    stop_.store(true);
    if (beat_.joinable()) {
      {
        const std::lock_guard lock{beat_mu_};  // pairs with the cv wait
      }
      beat_cv_.notify_all();
      beat_.join();
    }
    // A self-addressed goodbye wakes the pump out of its futex park
    // immediately (the 100ms safety poll would get there anyway).
    FrameHeader bye = make_ctrl_header(WireKind::kBye, 0, my_proc_, 0);
    seal_frame(bye, nullptr);
    (void)ring_push(view_, my_proc_, my_proc_, bye, nullptr);
    pump_.join();
    shm_detach(view_);
  }

 private:
  /// Dispatch one frame whose payload still lives in the segment (inline
  /// slot or spill block): kData copies exactly once, segment → pooled
  /// message buffer.  Nothing in here pushes back into our own ring —
  /// the ring_consume contract — because routing only ever touches
  /// mailboxes and router state.  Hello and bye are wakeups (rendezvous
  /// is the launcher's job), and a ping is liveness the shm detector does
  /// not use (it reads alive words); only kFailed is ours to handle.
  void dispatch(const FrameHeader& h, const std::byte* payload) {
    if (router_.dispatch(h, payload) != WireKind::kFailed) return;
    if (h.source >= 0 && h.source < nprocs_) {
      dead_[static_cast<std::size_t>(h.source)].store(true, std::memory_order_relaxed);
    }
    router_.peer_failed(static_cast<std::uint32_t>(h.source),
                        "rank " + std::to_string(h.source) +
                            "'s process died (reported by the launcher)");
  }

  static void note_batch(std::uint64_t batch) {
    if (batch != 0 && obs::enabled()) {
      static obs::Histogram& hist = obs::histogram("mpi.transport.shm.pump_batch");
      hist.note(batch);
    }
  }

  void pump_main() {
    const std::function<void(const FrameHeader&, const std::byte*)> consume =
        [this](const FrameHeader& h, const std::byte* payload) { dispatch(h, payload); };
    // Batch = frames drained between two waits: the histogram that shows
    // whether steady-state traffic amortizes its wakeups.
    std::uint64_t batch = 0;
    bool waited = false;
    while (ring_consume(view_, my_proc_, stop_, consume, &waited)) {
      if (waited) {
        note_batch(batch);
        batch = 0;
      }
      ++batch;
    }
    note_batch(batch);
  }

  /// Heartbeat thread (DESIGN.md §17): every interval, store our
  /// CLOCK_MONOTONIC timestamp into the segment's alive word — shared
  /// memory is the ping; no frames, no ring traffic — and scan the
  /// peers' words.  CLOCK_MONOTONIC is system-wide, so the words of
  /// different processes are directly comparable.  A peer whose `dead`
  /// flag is set is the launcher's kill; we skip it.  A peer whose word
  /// stays stale past the timeout (+ grace) is confirmed dead — SIGKILL
  /// with no launcher alive to notice, or wedged (SIGSTOP, runaway
  /// handler) — and fed to the router exactly like a launcher report.
  void beat_main() {
    faults::HeartbeatMonitor mon{nprocs_, hb_};
    const auto interval = std::chrono::nanoseconds{hb_.interval_ns()};
    for (;;) {
      const std::uint64_t now = monotonic_ns();
      view_.proc(my_proc_)->alive_ns.store(now, std::memory_order_relaxed);
      for (int p = 0; p < nprocs_; ++p) {
        if (p == my_proc_) continue;
        const ShmProc* peer = view_.proc(p);
        if (peer->dead.load(std::memory_order_relaxed) != 0) continue;  // the launcher reported it
        std::atomic<bool>& dead = dead_[static_cast<std::size_t>(p)];
        if (dead.load(std::memory_order_relaxed)) continue;
        const std::uint64_t w = peer->alive_ns.load(std::memory_order_relaxed);
        if (w != 0) mon.alive(p, w);
        if (mon.check(p, now) == faults::HeartbeatMonitor::Verdict::kConfirmed) {
          dead.store(true, std::memory_order_relaxed);
          router_.peer_silent(p, now, w);
        }
      }
      std::unique_lock lock{beat_mu_};
      if (beat_cv_.wait_for(lock, interval,
                            [this] { return stop_.load(std::memory_order_relaxed); })) {
        return;
      }
    }
  }

  ShmView view_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::mutex beat_mu_;
  std::condition_variable beat_cv_;
  std::thread beat_;
};

}  // namespace

std::unique_ptr<Transport> make_shm_transport(const TransportConfig& cfg) {
  return std::make_unique<WireTransport<ShmEndpoint>>(cfg);
}

}  // namespace peachy::mpi::detail
