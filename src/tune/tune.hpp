#pragma once
/// \file tune.hpp
/// \brief peachy::tune — the self-tuning substrate's profile layer.
///
/// The paper's HPO assignment (§7) is a search harness; this module turns
/// it inward.  The collective algorithm per (op, p, bytes) is read from a
/// process-wide `Tunables` snapshot of selection rules.  With no rules
/// every collective takes its compiled-in default path, so a build that
/// never loads a profile behaves (and performs) identically to one that
/// predates this module.  The scalar constants of the other layers (the
/// parallel_for inline grain, the gemm register tile, the BufferPool
/// parking bound) are compiled in at their consumers; no profile moves
/// them.
///
/// Profiles are versioned JSON artifacts (`peachy-tune/2`) produced by
/// `tools/peachy-tune` (a successive-halving search over the algorithm
/// space, reusing peachy::hpo) and loaded at startup from the file named
/// by `PEACHY_TUNE=<file>` — or passed per run via mpi::RunOptions.  A
/// missing, corrupt, or version-mismatched profile falls back to the
/// defaults with a named warning on stderr; it never crashes and never
/// half-applies.
///
/// **Selection must be communication-free.**  Collective algorithm choice
/// happens independently on every rank, so the lookup key must be
/// rank-symmetric.  p always is.  Bytes are part of the key only for
/// operations whose API contract forces equal sizes on every rank
/// (reduce/allreduce contributions, broadcast_into spans); operations
/// where non-roots cannot know the payload size in advance (plain
/// broadcast, variable-size allgather) query with `kBytesUnknown` and
/// match only rules that leave the byte range unconstrained.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace peachy::tune {

/// Collective operations with selectable algorithms.
enum class CollOp : int { kBroadcast = 0, kReduce = 1, kAllreduce = 2, kAllgather = 3 };
inline constexpr int kCollOpCount = 4;

/// Algorithm choices.  kAuto means "the compiled-in default for this op"
/// (binomial tree for broadcast/reduce, reduce+bcast for allreduce, ring
/// for allgather) — the exact pre-tune code paths, byte for byte.
/// kRecDouble requires a power-of-two rank count; selection falls back to
/// the default on other p (never an error — a profile tuned at p=8 must
/// stay loadable at p=6).
enum class CollAlgo : int { kAuto = 0, kLinear = 1, kBinomial = 2, kRing = 3, kRecDouble = 4 };

[[nodiscard]] const char* coll_op_name(CollOp op) noexcept;
[[nodiscard]] const char* coll_algo_name(CollAlgo algo) noexcept;
[[nodiscard]] bool parse_coll_op(std::string_view name, CollOp& out) noexcept;
[[nodiscard]] bool parse_coll_algo(std::string_view name, CollAlgo& out) noexcept;

/// Byte-count placeholder for collectives whose payload size is not known
/// symmetrically on every rank before the operation runs.
inline constexpr std::int64_t kBytesUnknown = -1;
inline constexpr std::int64_t kBytesMax = std::numeric_limits<std::int64_t>::max();

/// One selection rule: `algo` applies to `op` when p ∈ [p_min, p_max] and
/// the (symmetric) payload byte count ∈ [bytes_min, bytes_max], all
/// inclusive.  Rules are consulted in profile order; first match wins.  A
/// query with kBytesUnknown matches only rules whose byte range is the
/// full [0, kBytesMax] — an unconstrained rule can't disagree across
/// ranks, a constrained one could.
struct CollRule {
  CollOp op = CollOp::kBroadcast;
  int p_min = 1;
  int p_max = std::numeric_limits<int>::max();
  std::int64_t bytes_min = 0;
  std::int64_t bytes_max = kBytesMax;
  CollAlgo algo = CollAlgo::kAuto;

  [[nodiscard]] bool byte_range_unconstrained() const noexcept {
    return bytes_min <= 0 && bytes_max == kBytesMax;
  }
};

/// The tunable snapshot: collective selection rules.  An empty rule list
/// (the default) means every collective takes its historical default path.
struct Tunables {
  /// Collective algorithm selection rules, first match wins.
  std::vector<CollRule> coll_rules;

  /// Resolve the algorithm for `op` at rank count `p` with symmetric
  /// payload `bytes` (or kBytesUnknown).  Returns kAuto when no rule
  /// matches.  Also demotes kRecDouble to kAuto when p is not a power of
  /// two — the algorithm is only defined there.
  [[nodiscard]] CollAlgo coll_algo(CollOp op, int p, std::int64_t bytes) const noexcept;
};

/// A loadable/saveable profile: tunables plus provenance metadata.
struct Profile {
  std::string isa;          ///< ISA the profile was tuned on (informational)
  std::string tuned_for;    ///< free-form provenance, e.g. "p=2,4,8 n=1..64Ki"
  Tunables tunables;
};

/// Outcome of parsing/loading a profile.  `ok == false` means the input
/// was unusable (corrupt, wrong schema) and `profile` holds pure
/// defaults; `warnings` carries one named message per problem either way
/// (a partially-specified rule loads ok with its gaps defaulted, but a
/// rule with an invalid field *value* is skipped with a warning).
struct LoadResult {
  bool ok = false;
  Profile profile;
  std::vector<std::string> warnings;
};

/// Serialize to the versioned `peachy-tune/2` JSON document.
[[nodiscard]] std::string to_json(const Profile& profile);

/// Parse a `peachy-tune/2` JSON document (never throws on bad input).
[[nodiscard]] LoadResult parse_profile(std::string_view json_text);

/// Load a profile file; a missing/unreadable file is an `ok == false`
/// result with a named warning, exactly like corrupt content.
[[nodiscard]] LoadResult load_profile_file(const std::string& path);

/// Write `to_json(profile)` to `path`; false (with a stderr warning) on
/// I/O failure.
bool write_profile_file(const Profile& profile, const std::string& path);

/// The process-wide active tunables.  First call resolves `PEACHY_TUNE`:
/// set and loadable → that profile; set but broken → defaults plus one
/// named stderr warning; unset → defaults.  The reference stays valid
/// forever (storage is leaked, like the obs registry, so static-
/// destruction order can't bite).
[[nodiscard]] const Tunables& active() noexcept;

/// Compiled-in defaults (what active() returns with no profile).
[[nodiscard]] const Tunables& defaults() noexcept;

}  // namespace peachy::tune
