#include "faults/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "data/csv.hpp"
#include "obs/obs.hpp"
#include "rng/splitmix.hpp"
#include "support/check.hpp"

namespace peachy::faults {

namespace {

constexpr std::string_view kKindNames[] = {"crash",        "drop",       "dup",
                                           "delay",        "stall",      "wire_drop",
                                           "wire_dup",     "wire_delay", "wire_corrupt",
                                           "wire_truncate"};

constexpr std::string_view kFrameNames[] = {"data",   "hello", "bye", "failed",
                                            "revoke", "abort", "ping"};

std::optional<FaultKind> kind_from(std::string_view s) noexcept {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i) {
    if (s == kKindNames[i]) return static_cast<FaultKind>(i);
  }
  return std::nullopt;
}

std::optional<int> frame_from(std::string_view s) noexcept {
  for (std::size_t i = 0; i < std::size(kFrameNames); ++i) {
    if (s == kFrameNames[i]) return static_cast<int>(i);
  }
  return std::nullopt;
}

// Whether `e` fires at `rank`'s `step`-th operation (for a wire event:
// `rank` is the frame's source, `step` its count of frames of that type).  A
// step-scoped event fires exactly at its step; otherwise the draw is a
// pure function of (seed, kind, rank, step), so replay is schedule-
// independent, and a wire event and a machine event at the same
// (rank, step) draw independently because the kind is folded in.
bool fires(std::uint64_t seed, const FaultEvent& e, int rank, std::uint64_t step) {
  if (e.rank != kAnyScope && e.rank != rank) return false;
  if (e.step != kAnyStep) return e.step == step;
  rng::SplitMix64 g{rng::derive_seed(
      seed, (static_cast<std::uint64_t>(e.kind) << 40) ^
                (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 44) ^ step)};
  return g.next_double() < e.prob;
}

// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::uint64_t parse_u64(std::string_view v, std::string_view clause) {
  std::uint64_t out = 0;
  PEACHY_CHECK(!v.empty(), "faults: empty number in clause '" + std::string{clause} + "'");
  for (char c : v) {
    PEACHY_CHECK(c >= '0' && c <= '9',
                 "faults: bad number '" + std::string{v} + "' in clause '" + std::string{clause} +
                     "'");
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return out;
}

double parse_prob(std::string_view v, std::string_view clause) {
  const std::string s{v};
  double p = 0.0;
  PEACHY_CHECK(data::parse_double(s, p) && p > 0.0 && p <= 1.0,
               "faults: prob must be in (0,1], got '" + s + "' in clause '" + std::string{clause} +
                   "'");
  return p;
}

FaultEvent parse_event(std::string_view clause) {
  const auto at = clause.find('@');
  PEACHY_CHECK(at != std::string_view::npos,
               "faults: expected '<kind>@<fields>' in clause '" + std::string{clause} + "'");
  const auto kind = kind_from(trim(clause.substr(0, at)));
  PEACHY_CHECK(kind.has_value(),
               "faults: unknown fault kind in clause '" + std::string{clause} +
                   "' (want crash|drop|dup|delay|stall|wire_drop|wire_dup|wire_delay|"
                   "wire_corrupt|wire_truncate)");

  FaultEvent e;
  e.kind = *kind;
  std::string_view rest = clause.substr(at + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    std::string_view field = trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (field.empty()) continue;
    const auto eq = field.find('=');
    PEACHY_CHECK(eq != std::string_view::npos,
                 "faults: expected 'key=value' in clause '" + std::string{clause} + "'");
    const std::string_view key = trim(field.substr(0, eq));
    const std::string_view val = trim(field.substr(eq + 1));
    if (key == "rank") {
      e.rank = static_cast<int>(parse_u64(val, clause));
    } else if (key == "dest") {
      e.dest = static_cast<int>(parse_u64(val, clause));
    } else if (key == "tag") {
      e.tag = static_cast<int>(parse_u64(val, clause));
    } else if (key == "step") {
      e.step = parse_u64(val, clause);
    } else if (key == "prob") {
      e.prob = parse_prob(val, clause);
    } else if (key == "ns") {
      e.ns = parse_u64(val, clause);
    } else if (key == "frame") {
      const auto f = frame_from(val);
      PEACHY_CHECK(f.has_value(), "faults: unknown frame kind '" + std::string{val} +
                                      "' in clause '" + std::string{clause} +
                                      "' (want data|hello|bye|failed|revoke|abort|ping)");
      e.frame = *f;
    } else {
      PEACHY_CHECK(false, "faults: unknown field '" + std::string{key} + "' in clause '" +
                              std::string{clause} + "'");
    }
  }

  PEACHY_CHECK(e.step != kAnyStep || e.prob > 0.0,
               "faults: clause '" + std::string{clause} + "' needs step=N or prob=P");
  PEACHY_CHECK(e.step == kAnyStep || e.prob == 0.0,
               "faults: clause '" + std::string{clause} + "' cannot have both step and prob");
  if (e.kind == FaultKind::crash) {
    PEACHY_CHECK(e.rank != kAnyScope,
                 "faults: crash needs rank=N in clause '" + std::string{clause} + "'");
  }
  if (e.kind == FaultKind::delay || e.kind == FaultKind::stall ||
      e.kind == FaultKind::wire_delay) {
    PEACHY_CHECK(e.ns > 0, "faults: " + std::string{to_string(e.kind)} +
                               " needs ns=N in clause '" + std::string{clause} + "'");
  }
  PEACHY_CHECK(e.frame == kAnyScope || is_wire_kind(e.kind),
               "faults: frame= only applies to wire_* kinds in clause '" + std::string{clause} +
                   "'");
  PEACHY_CHECK(e.tag == kAnyScope || !is_wire_kind(e.kind),
               "faults: tag= does not apply to wire_* kinds (the wire sees frames, "
               "not tags) in clause '" + std::string{clause} + "'");
  return e;
}

}  // namespace

std::string_view to_string(FaultKind k) noexcept {
  return kKindNames[static_cast<std::size_t>(k)];
}

std::string_view wire_frame_name(int frame) noexcept {
  if (frame < 0 || static_cast<std::size_t>(frame) >= std::size(kFrameNames)) return "?";
  return kFrameNames[static_cast<std::size_t>(frame)];
}

FaultPlan FaultPlan::parse(const std::string& spec_or_file) {
  std::string spec = spec_or_file;
  if (std::ifstream file{spec_or_file}; file.good()) {
    std::ostringstream os;
    os << file.rdbuf();
    spec = os.str();
  }

  FaultPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto sep = rest.find_first_of(";\n");
    std::string_view clause = trim(rest.substr(0, sep));
    rest = sep == std::string_view::npos ? std::string_view{} : rest.substr(sep + 1);
    if (clause.empty() || clause.front() == '#') continue;
    if (clause.substr(0, 5) == "seed=") {
      plan.seed_ = parse_u64(trim(clause.substr(5)), clause);
    } else {
      plan.events_.push_back(parse_event(clause));
    }
  }
  return plan;
}

const FaultPlan* FaultPlan::from_env() {
  static const std::optional<FaultPlan> plan = []() -> std::optional<FaultPlan> {
    const char* env = std::getenv("PEACHY_FAULTS");
    if (env == nullptr || *env == '\0') return std::nullopt;
    return FaultPlan::parse(env);
  }();
  return plan.has_value() ? &*plan : nullptr;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed_;
  for (const FaultEvent& e : events_) {
    os << "; " << faults::to_string(e.kind) << '@';
    bool first = true;
    const auto field = [&](std::string_view key, auto value) {
      if (!first) os << ',';
      first = false;
      os << key << '=' << value;
    };
    if (e.rank != kAnyScope) field("rank", e.rank);
    if (e.dest != kAnyScope) field("dest", e.dest);
    if (e.tag != kAnyScope) field("tag", e.tag);
    if (e.step != kAnyStep) field("step", e.step);
    if (e.prob > 0.0) field("prob", e.prob);
    if (e.ns > 0) field("ns", e.ns);
    if (e.frame != kAnyScope) field("frame", wire_frame_name(e.frame));
  }
  return os.str();
}

FaultPlan& FaultPlan::add(const FaultEvent& e) {
  events_.push_back(e);
  return *this;
}

FaultInjector::FaultInjector(const FaultPlan& plan, int nranks)
    : plan_{plan}, steps_(static_cast<std::size_t>(nranks), 0) {}

void FaultInjector::record(FaultKind kind, int rank, std::uint64_t step, int dest, int tag) {
  if (obs::enabled()) {
    obs::counter("faults.injected." + std::string{to_string(kind)}).add(1);
  }
  const std::scoped_lock lock{log_mu_};
  log_.push_back(Record{kind, rank, step, dest, tag});
}

SendAction FaultInjector::on_send(int source, int dest, int tag) {
  const std::uint64_t step = steps_[static_cast<std::size_t>(source)]++;
  SendAction a;
  for (const FaultEvent& e : plan_.events()) {
    if (is_wire_kind(e.kind)) continue;  // handled by WireInjector, below the machine
    if (e.kind != FaultKind::crash &&
        ((e.dest != kAnyScope && e.dest != dest) || (e.tag != kAnyScope && e.tag != tag))) {
      continue;
    }
    if (!fires(plan_.seed(), e, source, step)) continue;
    switch (e.kind) {
      case FaultKind::crash: a.crash = true; break;
      case FaultKind::drop: a.drop = true; break;
      case FaultKind::duplicate: a.duplicate = true; break;
      case FaultKind::delay: a.delay_ns += e.ns; break;
      case FaultKind::stall: a.stall_ns += e.ns; break;
      default: break;  // wire kinds filtered above
    }
    record(e.kind, source, step, dest, tag);
    if (a.crash) break;  // the rank dies before this send takes effect
  }
  return a;
}

RecvAction FaultInjector::on_recv(int rank) {
  const std::uint64_t step = steps_[static_cast<std::size_t>(rank)]++;
  RecvAction a;
  for (const FaultEvent& e : plan_.events()) {
    // Only rank-scoped kinds apply at a receive.
    if (e.kind != FaultKind::crash && e.kind != FaultKind::stall) continue;
    if (!fires(plan_.seed(), e, rank, step)) continue;
    if (e.kind == FaultKind::crash) {
      a.crash = true;
    } else {
      a.stall_ns += e.ns;
    }
    record(e.kind, rank, step, kAnyScope, kAnyScope);
    if (a.crash) break;
  }
  return a;
}

std::vector<FaultInjector::Record> FaultInjector::log() const {
  std::vector<Record> out;
  {
    const std::scoped_lock lock{log_mu_};
    out = log_;
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.step != b.step) return a.step < b.step;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });
  return out;
}

std::string FaultInjector::log_string() const {
  std::ostringstream os;
  for (const Record& r : log()) {
    os << to_string(r.kind) << " rank=" << r.rank << " step=" << r.step;
    if (r.dest != kAnyScope) os << " dest=" << r.dest;
    if (r.tag != kAnyScope) os << " tag=" << r.tag;
    os << '\n';
  }
  return os.str();
}

WireInjector::WireInjector(const FaultPlan& plan) : plan_{plan} {
  for (const FaultEvent& e : plan_.events()) {
    if (is_wire_kind(e.kind)) armed_ = true;
  }
}

WireAction WireInjector::on_frame(int src, int dst, int frame) {
  if (!armed_) return {};
  WireAction a;
  std::uint64_t step = 0;
  {
    const std::scoped_lock lock{mu_};
    step = steps_[{src, frame}]++;
  }
  for (const FaultEvent& e : plan_.events()) {
    if (!is_wire_kind(e.kind)) continue;
    // Unscoped events touch only data frames; the control protocol
    // (failed/revoke/bye) is chaos-tested on explicit frame= request only.
    if (e.frame == kAnyScope ? frame != kWireFrameData : e.frame != frame) continue;
    if (e.dest != kAnyScope && e.dest != dst) continue;
    if (!fires(plan_.seed(), e, src, step)) continue;
    switch (e.kind) {
      case FaultKind::wire_drop: a.drop = true; break;
      case FaultKind::wire_dup: a.duplicate = true; break;
      case FaultKind::wire_delay: a.delay_ns += e.ns; break;
      case FaultKind::wire_corrupt: a.corrupt = true; break;
      case FaultKind::wire_truncate: a.truncate = true; break;
      default: break;
    }
    if (obs::enabled()) {
      // faults.wire.drop / dup / delay / corrupt / truncate.
      constexpr std::string_view kPrefix = "wire_";
      obs::counter("faults.wire." +
                   std::string{to_string(e.kind).substr(kPrefix.size())})
          .add(1);
    }
    const std::scoped_lock lock{mu_};
    log_.push_back(Record{e.kind, src, step, dst, frame});
  }
  return a;
}

std::vector<WireInjector::Record> WireInjector::log() const {
  std::vector<Record> out;
  {
    const std::scoped_lock lock{mu_};
    out = log_;
  }
  std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.frame != b.frame) return a.frame < b.frame;
    if (a.step != b.step) return a.step < b.step;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });
  return out;
}

std::string WireInjector::log_string() const {
  std::ostringstream os;
  for (const Record& r : log()) {
    os << to_string(r.kind) << " rank=" << r.src << " step=" << r.step;
    if (r.dst != kAnyScope) os << " dest=" << r.dst;
    os << " frame=" << wire_frame_name(r.frame) << '\n';
  }
  return os.str();
}

namespace wire {

namespace {
// Readers (transport send paths) go through the atomic; the owner slots
// keep the current injector alive, plus the previously retired one for a
// one-generation grace period — a send straggling out of an earlier run's
// teardown that loaded the old pointer just before a reconfigure must not
// dereference freed memory.  configure() itself races with nothing by
// contract (run entry is single-threaded).
std::mutex g_wire_mu;
std::shared_ptr<WireInjector> g_wire_owner;    // NOLINT(cert-err58-cpp)
std::shared_ptr<WireInjector> g_wire_retired;  // NOLINT(cert-err58-cpp)
std::atomic<WireInjector*> g_wire_active{nullptr};
}  // namespace

void configure(const FaultPlan* plan) {
  const std::scoped_lock lock{g_wire_mu};
  std::shared_ptr<WireInjector> next;
  if (plan != nullptr) {
    auto candidate = std::make_shared<WireInjector>(*plan);
    if (candidate->armed()) next = std::move(candidate);
  }
  g_wire_active.store(next.get(), std::memory_order_release);
  g_wire_retired = std::move(g_wire_owner);
  g_wire_owner = std::move(next);
}

WireInjector* injector() noexcept {
  return g_wire_active.load(std::memory_order_acquire);
}

}  // namespace wire

}  // namespace peachy::faults
