#pragma once
/// \file detail.hpp
/// \brief Internal ISA-path declarations for the kernel dispatcher.
///
/// Each ISA backend is its own translation unit compiled with that ISA's
/// flags (kernels_avx2.cpp gets -mavx2); this header is the only place
/// the dispatcher and the backends meet.  PEACHY_HAVE_AVX2 is defined by
/// the build system when the AVX2 TU is compiled in (PEACHY_NATIVE_ARCH
/// on an x86-64 toolchain) — on other targets the dispatcher simply
/// never sees the declarations and falls back to the reference path.

#include <cstddef>
#include <cstdint>

namespace peachy::kernels::detail {

#if PEACHY_HAVE_AVX2
namespace avx2 {

double squared_distance(const double* a, const double* b, std::size_t d);
double dot(const double* a, const double* b, std::size_t n);
void squared_distances_rows(const double* pts, std::size_t n, std::size_t d, const double* q,
                            double* out);
void axpy(double* y, const double* x, double a, std::size_t n);
std::size_t argmin_batch(const double* q, std::size_t d, const double* panel, std::size_t k,
                         std::size_t kp, double* best_d2);
std::size_t argmin_assign(const double* pts, std::size_t n, std::size_t d, const double* panel,
                          std::size_t k, std::size_t kp, std::int32_t* assignment, double* sums,
                          std::int64_t* counts);
std::size_t argmin2_rows(const double* pts, const std::int32_t* rows, std::size_t m,
                         std::size_t d, const double* panel, std::size_t k, std::size_t kp,
                         std::int32_t* assignment, double* best_d2, double* second_d2);
void stencil_row(double* dst, const double* src, std::size_t n, double alpha);
void gemm_block(const double* a, const double* b, double* c, std::size_t n, std::size_t k,
                std::size_t m);

}  // namespace avx2
#endif  // PEACHY_HAVE_AVX2

}  // namespace peachy::kernels::detail
