/// \file kernels.cpp
/// \brief Runtime ISA dispatch for the kernel layer.
///
/// Selection happens once (first call) by probing the CPU, and can be
/// pinned with force_isa for tests and A/B benchmarking.  Dispatch is a
/// single relaxed atomic load plus a predictable branch per kernel call
/// — noise next to any kernel body that matters.

#include "kernels/kernels.hpp"

#include <atomic>
#include <string>

#include "kernels/detail.hpp"
#include "obs/obs.hpp"
#include "support/check.hpp"

namespace peachy::kernels {

namespace {

bool cpu_has_avx2() {
#if PEACHY_HAVE_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa detect_isa() { return cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar; }

// kScalar / kAvx2 map to 0 / 1; kAuto below means "not forced".
constexpr int kAuto = -1;

std::atomic<int>& forced_slot() {
  static std::atomic<int> forced{kAuto};
  return forced;
}

Isa current_isa() {
  const int forced = forced_slot().load(std::memory_order_relaxed);
  if (forced != kAuto) return static_cast<Isa>(forced);
  static const Isa detected = detect_isa();
  return detected;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool isa_available(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return cpu_has_avx2();
  }
  return false;
}

Isa active_isa() noexcept { return current_isa(); }

void force_isa(Isa isa) {
  PEACHY_CHECK(isa_available(isa),
               std::string{"ISA path not available in this build/CPU: "} + isa_name(isa));
  forced_slot().store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_forced_isa() noexcept { forced_slot().store(kAuto, std::memory_order_relaxed); }

// Each entry point branches once on the selected path.  With
// PEACHY_HAVE_AVX2 off the branch folds away entirely.

// Per-kernel invocation counter, split by the ISA path actually taken
// ("kern.<fn>[scalar]" / "kern.<fn>[avx2]").  One relaxed load when
// tracing is off; lookups resolve once per call site.
#define PEACHY_KERN_COUNT(fn)                                              \
  do {                                                                     \
    if (obs::enabled()) {                                                  \
      static obs::Counter& scalar_c = obs::counter("kern." fn "[scalar]"); \
      static obs::Counter& avx2_c = obs::counter("kern." fn "[avx2]");     \
      (current_isa() == Isa::kAvx2 ? avx2_c : scalar_c).add(1);            \
    }                                                                      \
  } while (false)

double squared_distance(const double* a, const double* b, std::size_t d) {
  PEACHY_KERN_COUNT("squared_distance");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) return detail::avx2::squared_distance(a, b, d);
#endif
  return ref::squared_distance(a, b, d);
}

double dot(const double* a, const double* b, std::size_t n) {
  PEACHY_KERN_COUNT("dot");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) return detail::avx2::dot(a, b, n);
#endif
  return ref::dot(a, b, n);
}

void squared_distances_rows(const double* pts, std::size_t n, std::size_t d, const double* q,
                            double* out) {
  PEACHY_KERN_COUNT("squared_distances_rows");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) {
    detail::avx2::squared_distances_rows(pts, n, d, q, out);
    return;
  }
#endif
  ref::squared_distances_rows(pts, n, d, q, out);
}

void axpy(double* y, const double* x, double a, std::size_t n) {
  PEACHY_KERN_COUNT("axpy");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) {
    detail::avx2::axpy(y, x, a, n);
    return;
  }
#endif
  ref::axpy(y, x, a, n);
}

std::size_t argmin_batch(const double* q, std::size_t d, const double* panel, std::size_t k,
                         std::size_t kp, double* best_d2) {
  PEACHY_KERN_COUNT("argmin_batch");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) {
    return detail::avx2::argmin_batch(q, d, panel, k, kp, best_d2);
  }
#endif
  return ref::argmin_batch(q, d, panel, k, kp, best_d2);
}

std::size_t argmin_assign(const double* pts, std::size_t n, std::size_t d, const double* panel,
                          std::size_t k, std::size_t kp, std::int32_t* assignment, double* sums,
                          std::int64_t* counts) {
  PEACHY_KERN_COUNT("argmin_assign");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) {
    return detail::avx2::argmin_assign(pts, n, d, panel, k, kp, assignment, sums, counts);
  }
#endif
  return ref::argmin_assign(pts, n, d, panel, k, kp, assignment, sums, counts);
}

std::size_t argmin2_rows(const double* pts, const std::int32_t* rows, std::size_t m,
                         std::size_t d, const double* panel, std::size_t k, std::size_t kp,
                         std::int32_t* assignment, double* best_d2, double* second_d2) {
  PEACHY_KERN_COUNT("argmin2_rows");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) {
    return detail::avx2::argmin2_rows(pts, rows, m, d, panel, k, kp, assignment, best_d2,
                                      second_d2);
  }
#endif
  return ref::argmin2_rows(pts, rows, m, d, panel, k, kp, assignment, best_d2, second_d2);
}

void stencil_row(double* dst, const double* src, std::size_t n, double alpha) {
  PEACHY_KERN_COUNT("stencil_row");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) {
    detail::avx2::stencil_row(dst, src, n, alpha);
    return;
  }
#endif
  ref::stencil_row(dst, src, n, alpha);
}

void gemm_block(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
                std::size_t m) {
  PEACHY_KERN_COUNT("gemm_block");
#if PEACHY_HAVE_AVX2
  if (current_isa() == Isa::kAvx2) {
    detail::avx2::gemm_block(a, b, c, n, k, m);
    return;
  }
#endif
  ref::gemm_block(a, b, c, n, k, m);
}

}  // namespace peachy::kernels
