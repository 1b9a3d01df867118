#pragma once
/// \file frame_router.hpp
/// \brief What the two wire backends share: generation-scoped frame
/// routing, the one frame dispatcher, and the one wire `Transport`.
///
/// A process holds ONE endpoint per wire backend (socket mesh / shm
/// segment) but may create many Machines over its lifetime — fault_demo
/// alone runs four back-to-back worlds.  The router is the piece that
/// reconciles the two lifetimes: each Machine attaches as a sink and is
/// handed a generation number (`seq`), every wire frame carries the
/// sender's generation, and incoming frames are
///
///   * delivered, when they name the currently-attached generation,
///   * buffered, when they are from a peer that has already moved on to
///     a later generation (SPMD processes create machines in the same
///     order, so generation n means "the n-th mpi::run of the program"
///     in every process — the frame's machine just doesn't exist *here*
///     yet), and
///   * dropped, when their generation has been retired — stale traffic
///     must never satisfy a later run's receive.
///
/// Process deaths are generation-independent and sticky: a peer that
/// died stays dead for every future machine, so deaths are replayed to
/// each newly-attached sink before any buffered frames.
///
/// Locking: route/attach/detach serialize on one mutex, and delivery
/// happens under it.  That makes detach a synchronization point — after
/// detach returns, the retired sink will never be called again — which
/// is exactly the `Transport::shutdown` contract ~Machine relies on.
/// Sink calls only ever take mailbox/checker locks, never transport
/// locks, so holding the router mutex across them cannot deadlock.
///
/// `WireTransport<Endpoint>` is the one Transport both wires run behind
/// (DESIGN.md §15); an endpoint supplies only what its medium makes
/// different — how a sealed frame reaches a process, how inbound bytes
/// become frames for `FrameRouter::dispatch`, and how it detects deaths.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "faults/detect.hpp"
#include "mpi/transport.hpp"
#include "mpi/wire.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::mpi::detail {

class FrameRouter {
 public:
  /// Attach `sink` as the next generation; returns its seq.  Replays
  /// known peer deaths, then any frames buffered for this generation,
  /// in arrival order.
  std::uint32_t attach(TransportSink* sink) {
    std::lock_guard lock{mu_};
    const std::uint32_t seq = next_seq_++;
    sink_ = sink;
    active_seq_ = seq;
    for (const auto& [rank, why] : dead_) sink_->on_ctrl(CtrlKind::kFailed, rank, why);
    if (const auto it = pending_.find(seq); it != pending_.end()) {
      for (Pending& p : it->second) dispatch_locked(std::move(p));
      pending_.erase(it);
    }
    // Generations below the new floor can never attach; drop their frames.
    pending_.erase(pending_.begin(), pending_.lower_bound(seq));
    return seq;
  }

  /// Retire `seq`.  Blocks until any in-progress route call finishes;
  /// after return the sink is never called again.
  void detach(std::uint32_t seq) {
    std::lock_guard lock{mu_};
    if (active_seq_ == seq && sink_ != nullptr) sink_ = nullptr;
  }

  /// Pump-side: one inbound frame, its payload still in the wire's
  /// buffer.  Verifies the CRC, routes the machine-level kinds (data,
  /// revoke, abort), and returns the kind so the endpoint handles its
  /// own (hello, bye, failed, ping).  A corrupt data frame is counted
  /// and dropped — to its receiver it is a lost frame, and the
  /// timeout/recovery machinery takes over.  Control frames are *never*
  /// silently dropped: losing a kFailed/kRevoke wedges every survivor,
  /// and the protocol they carry is sticky and idempotent, so delivering
  /// a damaged one is strictly safer.
  WireKind dispatch(const FrameHeader& h, const std::byte* payload) {
    const auto kind = static_cast<WireKind>(h.kind);
    if (!frame_crc_ok(h, payload)) {
      if (obs::enabled()) obs::counter("mpi.transport.crc_fail").add(1);
      if (kind == WireKind::kData) return kind;
    }
    Pending p;
    switch (kind) {
      case WireKind::kData:
        p = Pending{false, h.dest, frame_to_message(h, payload), CtrlKind::kFailed, 0, {}};
        break;
      case WireKind::kRevoke:
        p = Pending{true, 0, Message{}, CtrlKind::kRevoke, h.comm, {}};
        break;
      case WireKind::kAbort:
        p = Pending{true, 0, Message{}, CtrlKind::kAbort, 0,
                    std::string{reinterpret_cast<const char*>(payload),
                                static_cast<std::size_t>(h.bytes)}};
        break;
      default:
        return kind;  // endpoint-level
    }
    std::lock_guard lock{mu_};
    if (sink_ != nullptr && h.seq == active_seq_) {
      dispatch_locked(std::move(p));
    } else if (h.seq >= next_seq_) {  // below: a retired (or detached current) generation
      pending_[h.seq].push_back(std::move(p));
    }
    return kind;
  }

  /// A peer process died (EOF without goodbye, or the launcher reaped a
  /// signal death).  Applies to the attached sink now and is replayed
  /// to every future sink.  Idempotent per rank.
  void peer_failed(std::uint32_t rank, const std::string& why) {
    std::lock_guard lock{mu_};
    for (const auto& [r, w] : dead_) {
      if (r == rank) return;
    }
    dead_.emplace_back(rank, why);
    if (sink_ != nullptr) sink_->on_ctrl(CtrlKind::kFailed, rank, why);
  }

  /// The heartbeat monitor confirmed `rank` dead at `now_ns`; its last
  /// proof of life was at `last_ns` (0: never heard).
  void peer_silent(int rank, std::uint64_t now_ns, std::uint64_t last_ns) {
    const std::uint64_t silent_ms = last_ns != 0 ? (now_ns - last_ns) / 1'000'000 : 0;
    peer_failed(static_cast<std::uint32_t>(rank),
                "rank " + std::to_string(rank) + "'s process went silent: no heartbeat for " +
                    std::to_string(silent_ms) + "ms (peer-to-peer detection)");
  }

 private:
  struct Pending {
    bool is_ctrl = false;
    int dest = 0;
    Message m{};
    CtrlKind k = CtrlKind::kFailed;
    std::uint32_t arg = 0;
    std::string why;
  };

  void dispatch_locked(Pending&& p) {
    if (p.is_ctrl) {
      sink_->on_ctrl(p.k, p.arg, p.why);
    } else {
      sink_->deliver(p.dest, std::move(p.m), 1);
    }
  }

  std::mutex mu_;
  TransportSink* sink_ = nullptr;
  std::uint32_t active_seq_ = 0;
  std::uint32_t next_seq_ = 0;  ///< next generation to hand out; all below are retired
  std::map<std::uint32_t, std::vector<Pending>> pending_;
  std::vector<std::pair<std::uint32_t, std::string>> dead_;
};

/// CLOCK_MONOTONIC in nanoseconds: system-wide, so heartbeat stamps of
/// different processes are directly comparable.
[[nodiscard]] inline std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The state both wire endpoints keep alike: the world's shape, the
/// router, the pump thread, and the heartbeat configuration.  An endpoint
/// is a process-wide singleton that outlives every Machine.
class WireEndpoint {
 public:
  [[nodiscard]] FrameRouter& router() noexcept { return router_; }
  [[nodiscard]] bool launched() const noexcept { return launched_; }
  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }
  [[nodiscard]] int my_proc() const noexcept { return my_proc_; }
  [[nodiscard]] int proc_of(int rank) const noexcept { return launched_ ? rank : 0; }

 protected:
  std::mutex start_mu_;
  bool started_ = false;
  bool launched_ = false;
  int my_proc_ = 0;
  int nprocs_ = 1;
  faults::HeartbeatConfig hb_;
  FrameRouter router_;
  std::atomic<bool> stop_{false};
  /// Started by ensure_started; the endpoint's destructor joins it before
  /// the endpoint's own members, which the pump reads, are destroyed.
  std::thread pump_;
};

/// The one Transport of both wire backends.  `Endpoint` derives from
/// WireEndpoint and provides `kKind`, `ensure_started()`, and
/// `send_frame(proc, header, payload)`, which seals the frame and puts
/// it on the wire (through `apply_wire_faults`).  Every send — a rank
/// to a same-process rank included — goes through the full frame path.
template <typename Endpoint>
class WireTransport final : public Transport {
 public:
  explicit WireTransport(const TransportConfig& cfg) : ep_{endpoint()} {
    ep_.ensure_started();
    if (ep_.launched()) {
      PEACHY_CHECK(cfg.nranks == ep_.nprocs(),
                   std::string{transport_name(Endpoint::kKind)} +
                       " transport: a launched world runs one rank per process, so "
                       "mpi::run(nranks=" +
                       std::to_string(cfg.nranks) + ") must match the " +
                       std::to_string(ep_.nprocs()) + " launched processes");
    }
    seq_ = ep_.router().attach(cfg.sink);
  }

  ~WireTransport() override { shutdown(); }

  [[nodiscard]] TransportKind kind() const noexcept override { return Endpoint::kKind; }
  [[nodiscard]] bool spans_processes() const noexcept override {
    return ep_.launched() && ep_.nprocs() > 1;
  }
  [[nodiscard]] bool is_local(int rank) const noexcept override {
    return !ep_.launched() || rank == ep_.my_proc();
  }

  void send(int dest, Message&& m, int copies) override {
    const FrameHeader h = make_data_header(seq_, m, dest);
    const int proc = ep_.proc_of(dest);
    for (int c = 0; c < copies; ++c) ep_.send_frame(proc, h, m.payload);
  }

  void broadcast_ctrl(CtrlKind k, std::uint32_t arg, const std::string& why) override {
    if (!spans_processes()) return;
    FrameHeader h;
    PayloadBuffer payload;
    switch (k) {
      case CtrlKind::kFailed:
        h = make_ctrl_header(WireKind::kFailed, seq_, static_cast<std::int32_t>(arg), 0);
        break;
      case CtrlKind::kRevoke:
        h = make_ctrl_header(WireKind::kRevoke, seq_, ep_.my_proc(), arg);
        break;
      case CtrlKind::kAbort:
        h = make_ctrl_header(WireKind::kAbort, seq_, ep_.my_proc(), 0, why.size());
        payload = BufferPool::instance().acquire(why.size());
        if (!why.empty()) std::memcpy(payload.mutable_data(), why.data(), why.size());
        break;
    }
    for (int p = 0; p < ep_.nprocs(); ++p) {
      if (p != ep_.my_proc()) ep_.send_frame(p, h, payload);
    }
  }

  void shutdown() override {
    if (attached_) {
      attached_ = false;
      ep_.router().detach(seq_);
    }
  }

 private:
  static Endpoint& endpoint() {
    // Touch the pool first: it must outlive the endpoint, whose pump
    // builds pooled messages until static teardown.
    (void)BufferPool::instance();
    static Endpoint ep;
    return ep;
  }

  Endpoint& ep_;
  std::uint32_t seq_ = 0;
  bool attached_ = true;
};

}  // namespace peachy::mpi::detail
