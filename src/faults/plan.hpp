#pragma once
/// \file plan.hpp
/// \brief FaultPlan + FaultInjector — deterministic, seeded fault injection.
///
/// A `FaultPlan` is a serializable schedule of injectable events, scoped
/// by world rank, tag, and per-rank operation step.  The mini-MPI machine
/// consults it inside `post` and `take` — the single choke points every
/// transport path (copy, move, pooled, collective-internal) funnels
/// through — so an injected fault covers them all.
///
/// **Determinism.**  An event fires as a pure function of
/// (plan seed, event kind, rank, step): deterministic events fire when the
/// rank's operation counter reaches `step`; probabilistic events hash
/// (seed, kind, rank, step) through SplitMix64 and fire when the resulting
/// uniform draw is below `prob`.  A rank's operation counter advances in
/// its own program order, so the same plan + seed replays the identical
/// event sequence bit-for-bit regardless of thread scheduling.  The
/// injector records every fired event; `log_string()` renders the record
/// in canonical (rank, step) order for replay diffing.
///
/// **Spec grammar** (`PEACHY_FAULTS=<spec|file>`; if the value names a
/// readable file, its contents are parsed instead):
///
///   spec    := clause (';' clause)*            (newlines count as ';')
///   clause  := 'seed=' N | event
///   event   := kind '@' field (',' field)*
///   kind    := 'crash' | 'drop' | 'dup' | 'delay' | 'stall'
///            | 'wire_drop' | 'wire_dup' | 'wire_delay'
///            | 'wire_corrupt' | 'wire_truncate'
///   field   := 'rank='N | 'dest='N | 'tag='N | 'step='N
///            | 'prob='F | 'ns='N | 'frame='NAME (omitted field = wildcard;
///                                                frame and tag are wire-/
///                                                machine-level respectively)
///
/// Examples:
///   crash@rank=2,step=40          rank 2 dies at its 40th MPI operation
///   drop@rank=0,tag=7,step=3      rank 0's send at step 3 (tag 7) vanishes
///   drop@prob=0.01                every send is dropped with p=1%
///   delay@rank=1,step=5,ns=2e6    (integers only; 2000000) delivery delay
///   dup@rank=3,step=9             message delivered twice
///   stall@rank=2,step=10,ns=5000000  rank 2 sleeps 5ms before the op
///
/// Semantics per kind:
///   crash — the rank throws RankKilled at the matching operation and is
///           marked failed (requires rank and either step or prob);
///   drop  — the posted message is destroyed instead of enqueued;
///   dup   — the message is enqueued twice (the duplicate shares payload);
///   delay — the poster sleeps `ns` before enqueueing (models a slow link;
///           per-sender ordering is preserved);
///   stall — the rank sleeps `ns` before executing the operation (models a
///           slow rank / OS jitter).
///
/// drop/dup/delay match send operations; stall and crash match both sends
/// and receives (the step counter covers every MPI operation of a rank).
///
/// **Wire events** (`wire_*`) inject *below* the machine, at the transport
/// send boundary of the cross-process backends (shm ring push, socket
/// write) — the paths a production deployment actually loses frames on.
/// They are consulted by `WireInjector` (one per process, armed by
/// `faults::wire::configure`), not by `FaultInjector`, and their step
/// counter is *per (source, frame kind)*: the n-th data frame a rank puts
/// on the wire, in that rank's program order, so replay is deterministic
/// exactly like the machine-level events.  `rank=` scopes the sender,
/// `dest=` the receiving process, `frame=` the frame kind by name
/// (`data|hello|bye|failed|revoke|abort|ping`).  An event with *no*
/// `frame=` field matches **only data frames** — control frames carry the
/// failure/revocation protocol itself and are chaos-tested only on
/// explicit request.  Semantics per kind:
///   wire_drop     — the frame is never written to the wire;
///   wire_dup      — the frame is written twice;
///   wire_delay    — the sender sleeps `ns` before the write;
///   wire_corrupt  — a payload byte (or the CRC, for empty payloads) is
///                   flipped *after* the CRC seal, so the receiver's
///                   integrity check must catch it;
///   wire_truncate — only a prefix reaches the wire (socket: short write
///                   desyncs the stream; shm: the tail is zeroed), or
///                   the CRC is flipped, for empty payloads.
///
/// Note on `frame=ping`: heartbeat frames are emitted by the pump on a
/// timer, so their step counters are timing-dependent — injecting on them
/// works but is not replay-deterministic.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace peachy::faults {

enum class FaultKind : std::uint8_t {
  crash,
  drop,
  duplicate,
  delay,
  stall,
  wire_drop,
  wire_dup,
  wire_delay,
  wire_corrupt,
  wire_truncate,
};

/// True for the transport-level kinds handled by WireInjector (skipped by
/// FaultInjector, and vice versa).
[[nodiscard]] constexpr bool is_wire_kind(FaultKind k) noexcept {
  return k == FaultKind::wire_drop || k == FaultKind::wire_dup || k == FaultKind::wire_delay ||
         k == FaultKind::wire_corrupt || k == FaultKind::wire_truncate;
}

/// Frame-kind scope values for wire events.  These mirror
/// `mpi::detail::WireKind` numerically — the faults layer sits below mpi
/// and cannot include wire.hpp; a static_assert there pins the pairing.
inline constexpr int kWireFrameData = 0;
inline constexpr int kWireFrameHello = 1;
inline constexpr int kWireFrameBye = 2;
inline constexpr int kWireFrameFailed = 3;
inline constexpr int kWireFrameRevoke = 4;
inline constexpr int kWireFrameAbort = 5;
inline constexpr int kWireFramePing = 6;

/// Canonical frame-kind name ("data", "failed", ...); "?" when out of range.
[[nodiscard]] std::string_view wire_frame_name(int frame) noexcept;

[[nodiscard]] std::string_view to_string(FaultKind k) noexcept;

/// Matches any rank / tag / destination.
inline constexpr int kAnyScope = -1;
/// Matches any step (the event must then carry `prob`).
inline constexpr std::uint64_t kAnyStep = ~std::uint64_t{0};

/// One injectable event.  Unset scope fields are wildcards.
struct FaultEvent {
  FaultKind kind = FaultKind::drop;
  int rank = kAnyScope;            ///< acting rank (sender for send faults)
  int dest = kAnyScope;            ///< destination scope (send faults only)
  int tag = kAnyScope;             ///< tag scope (send faults only)
  std::uint64_t step = kAnyStep;   ///< the rank's operation index, 0-based
  double prob = 0.0;               ///< >0: fire probabilistically instead
  std::uint64_t ns = 0;            ///< delay/stall duration
  int frame = kAnyScope;           ///< wire events: frame-kind scope (kWireFrame*);
                                   ///< kAnyScope = data frames only

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A seeded, serializable schedule of fault events.
class FaultPlan {
 public:
  /// Parse a spec string, or the contents of the file it names.  Throws
  /// peachy::Error with the offending clause on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& spec_or_file);

  /// The process-wide plan from `PEACHY_FAULTS`, parsed once; nullptr when
  /// the variable is unset or empty.
  [[nodiscard]] static const FaultPlan* from_env();

  /// Canonical rendering; `parse(to_string())` reproduces the plan.
  [[nodiscard]] std::string to_string() const;

  FaultPlan& set_seed(std::uint64_t seed) noexcept {
    seed_ = seed;
    return *this;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  FaultPlan& add(const FaultEvent& e);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept { return events_; }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::uint64_t seed_ = 0;
  std::vector<FaultEvent> events_;
};

/// What the transport must do to one send (combinable: a message can be
/// both delayed and duplicated by distinct events).
struct SendAction {
  bool crash = false;
  bool drop = false;
  bool duplicate = false;
  std::uint64_t delay_ns = 0;
  std::uint64_t stall_ns = 0;
};

/// What the transport must do at one receive entry.
struct RecvAction {
  bool crash = false;
  std::uint64_t stall_ns = 0;
};

/// Per-machine runtime state of a plan: per-rank operation counters plus
/// the record of fired events.  on_send/on_recv are called by the acting
/// rank's own thread (the mini-MPI calling discipline), so the counters
/// advance in program order; the fired-event log is mutex-protected.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, int nranks);

  /// Consult the plan for rank `source`'s next operation, a send to
  /// `dest` with `tag`.  Advances the rank's step counter.
  [[nodiscard]] SendAction on_send(int source, int dest, int tag);

  /// Consult the plan for rank `rank`'s next operation, a receive.
  /// Advances the rank's step counter.
  [[nodiscard]] RecvAction on_recv(int rank);

  /// One fired event, as recorded.
  struct Record {
    FaultKind kind;
    int rank;
    std::uint64_t step;
    int dest;  ///< kAnyScope for recv-side events
    int tag;   ///< kAnyScope for recv-side events

    friend bool operator==(const Record&, const Record&) = default;
  };

  /// Every fired event so far, in canonical (rank, step, kind) order —
  /// deterministic for a given plan + seed regardless of scheduling.
  [[nodiscard]] std::vector<Record> log() const;

  /// `log()` rendered one event per line (`crash rank=2 step=40`), the
  /// replay-determinism artifact scripts diff.
  [[nodiscard]] std::string log_string() const;

 private:
  void record(FaultKind kind, int rank, std::uint64_t step, int dest, int tag);

  const FaultPlan plan_;  ///< copied: the injector outlives caller-built plans
  std::vector<std::uint64_t> steps_;  ///< per-rank op counters (owner-thread only)
  mutable std::mutex log_mu_;
  std::vector<Record> log_;
};

/// What the wire must do to one outbound frame (combinable, like
/// SendAction: one frame can be delayed *and* duplicated).  corrupt and
/// truncate are mutually destructive; when both fire, truncate wins.
struct WireAction {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  bool truncate = false;
  std::uint64_t delay_ns = 0;

  [[nodiscard]] bool any() const noexcept {
    return drop || duplicate || corrupt || truncate || delay_ns != 0;
  }
};

/// Runtime state of a plan's wire events: per-(source, frame kind) frame
/// counters plus the fired-event record.  Unlike FaultInjector, on_frame
/// may be called from any thread (rank threads and the transport pump), so
/// the counters live under the log mutex — acceptable because transports
/// consult the injector only while a plan with wire events is armed.
class WireInjector {
 public:
  explicit WireInjector(const FaultPlan& plan);

  /// True when the plan contains at least one wire event.
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Consult the plan for the next frame of kind `frame` from process/rank
  /// `src` to process `dst`.  Advances the (src, frame) counter.
  [[nodiscard]] WireAction on_frame(int src, int dst, int frame);

  /// One fired wire event, as recorded.
  struct Record {
    FaultKind kind;
    int src;
    std::uint64_t step;
    int dst;
    int frame;

    friend bool operator==(const Record&, const Record&) = default;
  };

  /// Fired events in canonical (src, frame, step, kind) order —
  /// deterministic for a given plan + seed regardless of scheduling.
  [[nodiscard]] std::vector<Record> log() const;

  /// `log()` rendered one event per line
  /// (`wire_drop rank=0 step=12 dest=1 frame=data`), matching
  /// FaultInjector::log_string for replay diffing.
  [[nodiscard]] std::string log_string() const;

 private:
  const FaultPlan plan_;
  bool armed_ = false;
  mutable std::mutex mu_;
  std::map<std::pair<int, int>, std::uint64_t> steps_;  ///< (src, frame) -> next step
  std::vector<Record> log_;
};

namespace wire {

/// Install the process-wide wire injector from `plan` (nullptr or a plan
/// with no wire events disarms).  Called by mpi::run at run entry — the
/// transports are engine-level singletons that outlive any one run, so the
/// active plan is process state, not machine state.  Replaces any previous
/// injector and resets its log.  Not thread-safe against concurrent sends;
/// run entry is single-threaded by construction.
void configure(const FaultPlan* plan);

/// The armed injector, or nullptr when wire injection is off (the common
/// case — transports check this one atomic load per frame).
[[nodiscard]] WireInjector* injector() noexcept;

}  // namespace wire

}  // namespace peachy::faults
