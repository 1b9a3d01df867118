#pragma once
/// \file kernels.hpp
/// \brief peachy::kernels — vectorized compute primitives for the
/// assignment hot paths.
///
/// Every assignment in the paper bottoms out in one of four dense
/// kernels: point-to-centroid distances (k-means §3, kNN §2), the
/// explicit heat stencil (§6), and the MLP matrix product (§7).  This
/// module provides those kernels once, in three tiers:
///
///   * `kernels::ref::*` — scalar reference twins.  Element-at-a-time,
///     compiled with auto-vectorization disabled; they define the exact
///     floating-point semantics (operation order, tie-breaking, NaN
///     handling) and are the baseline every speedup is measured against.
///   * the dispatched entry points (`kernels::*`) — at runtime they select
///     the widest available ISA path; today that is AVX2 (compiled behind
///     the PEACHY_NATIVE_ARCH build option, taken only when the CPU
///     reports the feature) with the reference as the portable fallback.
///
/// **Bit-reproducibility contract.**  Every ISA path performs the *same*
/// floating-point operations in the *same* order as its reference twin
/// (the module is built with FP contraction off, and the intrinsic paths
/// mirror the reference summation trees exactly), so results are
/// bit-identical across ISAs and across runs.  The k-means equivalence
/// tests — sequential vs. threaded vs. mini-MPI vs. SIMT — depend on
/// this: all implementations share these kernels, so they agree exactly.
///
/// **Panel layout.**  The argmin kernels read centroids from a
/// SoA-transposed *panel* (see data::TransposedPanel): centroids are
/// grouped in blocks of kPanelLane, each group storing its coordinates
/// dimension-major —
///
///     panel[(g * d + j) * kPanelLane + lane]  =  coordinate j of
///                                                centroid g*kPanelLane+lane
///
/// with the padded tail lanes of the last group holding +infinity so they
/// never win an argmin.  The group is exactly one AVX2 register of
/// doubles, making the inner loop a contiguous aligned stream.
///
/// **Argmin semantics.**  Smallest distance wins; ties break to the lower
/// centroid index; NaN distances compare as +infinity (never selected; an
/// all-NaN row returns index 0).  The second-best distance of
/// argmin2_rows is the smallest distance among every centroid except the
/// winner, under the same NaN rule — so a tie for best makes it equal to
/// the best, and k = 1 (or a row with no finite distance) gives +infinity.
///
/// The module depends only on peachy::support and takes raw pointers, so
/// higher layers (data, kmeans, knn, heat, nn) can layer container types
/// on top without dependency cycles.

#include <cstddef>
#include <cstdint>

namespace peachy::kernels {

/// Centroids per panel group — one AVX2 register of doubles.  The panel
/// layout is ISA-independent: the scalar paths use the same grouping.
inline constexpr std::size_t kPanelLane = 4;

/// Centroid count rounded up to whole panel groups.
[[nodiscard]] constexpr std::size_t padded_count(std::size_t k) noexcept {
  return (k + kPanelLane - 1) / kPanelLane * kPanelLane;
}

/// Instruction-set path a kernel call executes.
enum class Isa { kScalar, kAvx2 };

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Whether this build + CPU can execute the given path.
[[nodiscard]] bool isa_available(Isa isa) noexcept;

/// The path the dispatcher currently selects (widest available, unless
/// overridden by force_isa).
[[nodiscard]] Isa active_isa() noexcept;

/// Pin dispatch to one path (throws peachy::Error if unavailable).  For
/// tests and A/B benchmarking; not thread-safe against concurrent kernel
/// calls that race the switch.
void force_isa(Isa isa);

/// Undo force_isa: return to automatic selection.
void clear_forced_isa() noexcept;

/// RAII force_isa for test scopes.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa) { force_isa(isa); }
  ~ScopedIsa() { clear_forced_isa(); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;
};

// ---- pairwise (row-major) kernels -------------------------------------------------

/// Squared Euclidean distance between two d-vectors.  Fixed 4-lane
/// summation tree: partial sums indexed i mod 4, combined as
/// (s0+s1)+(s2+s3) — identical on every ISA path.
[[nodiscard]] double squared_distance(const double* a, const double* b, std::size_t d);

/// Dot product with the same 4-lane summation tree.
[[nodiscard]] double dot(const double* a, const double* b, std::size_t n);

/// out[i] = squared distance between q and row i of the row-major n×d
/// matrix pts.  Same per-row semantics as squared_distance.
void squared_distances_rows(const double* pts, std::size_t n, std::size_t d, const double* q,
                            double* out);

/// y[i] += a * x[i].
void axpy(double* y, const double* x, double a, std::size_t n);

// ---- panel (SoA-transposed) kernels -----------------------------------------------

/// Index of the nearest panel centroid to q (argmin semantics in the file
/// comment).  If best_d2 is non-null it receives the winning distance.
[[nodiscard]] std::size_t argmin_batch(const double* q, std::size_t d, const double* panel,
                                       std::size_t k, std::size_t kp,
                                       double* best_d2 = nullptr);

/// Fused k-means assignment step over n row-major points: for each point
/// find the nearest panel centroid, write it to assignment[i], accumulate
/// the point into sums[c*d..] and counts[c], and count points whose
/// assignment changed.  sums/counts are accumulated into (callers zero
/// them); the accumulation order is point order then dimension order —
/// the sequential reference order.  Returns the change count.
std::size_t argmin_assign(const double* pts, std::size_t n, std::size_t d,
                          const double* panel, std::size_t k, std::size_t kp,
                          std::int32_t* assignment, double* sums, std::int64_t* counts);

/// Nearest and second-nearest panel centroid for a list of rows of the
/// row-major point matrix pts (Hamerly-bounded k-means scans only the
/// rows its bounds cannot clear).  For each r = rows[i], i < m: sets
/// assignment[r] to the nearest centroid, best_d2[r] to its distance and
/// second_d2[r] to the second-best distance (argmin semantics in the file
/// comment).  Every distance is argmin_batch's ascending-dimension chain,
/// so best index and best distance are argmin_batch's, bit for bit.
/// Rows may repeat or come in any order.  Returns the number of listed
/// rows whose assignment changed.
std::size_t argmin2_rows(const double* pts, const std::int32_t* rows, std::size_t m,
                         std::size_t d, const double* panel, std::size_t k, std::size_t kp,
                         std::int32_t* assignment, double* best_d2, double* second_d2);

// ---- stencil ----------------------------------------------------------------------

/// Explicit heat update over a contiguous row with no per-element bounds
/// checks: dst[i] = src[i] + alpha*((src[i-1] - 2*src[i]) + src[i+1]) for
/// i in [0, n).  src[-1] and src[n] must be valid halo/boundary cells.
void stencil_row(double* dst, const double* src, std::size_t n, double alpha);

// ---- gemm -------------------------------------------------------------------------

/// C += A·B for row-major A (n×k), B (k×m), C (n×m): register-tiled and
/// cache-blocked.  Per output element the k-dimension accumulates in
/// ascending order, matching the reference i-k-j loop exactly.
void gemm_block(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
                std::size_t m);

// ---- scalar reference twins -------------------------------------------------------

/// The semantics oracle and measurement baseline: portable scalar code,
/// built with auto-vectorization off (deliberately element-at-a-time,
/// like the consumer loops the dispatched kernels replaced).
namespace ref {

[[nodiscard]] double squared_distance(const double* a, const double* b, std::size_t d);
[[nodiscard]] double dot(const double* a, const double* b, std::size_t n);
void squared_distances_rows(const double* pts, std::size_t n, std::size_t d, const double* q,
                            double* out);
void axpy(double* y, const double* x, double a, std::size_t n);
[[nodiscard]] std::size_t argmin_batch(const double* q, std::size_t d, const double* panel,
                                       std::size_t k, std::size_t kp,
                                       double* best_d2 = nullptr);
std::size_t argmin_assign(const double* pts, std::size_t n, std::size_t d,
                          const double* panel, std::size_t k, std::size_t kp,
                          std::int32_t* assignment, double* sums, std::int64_t* counts);
std::size_t argmin2_rows(const double* pts, const std::int32_t* rows, std::size_t m,
                         std::size_t d, const double* panel, std::size_t k, std::size_t kp,
                         std::int32_t* assignment, double* best_d2, double* second_d2);
void stencil_row(double* dst, const double* src, std::size_t n, double alpha);
void gemm_block(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
                std::size_t m);

}  // namespace ref

}  // namespace peachy::kernels
