#ifndef INFERTURBO_TENSOR_KERNELS_MATMUL_TILES_H_
#define INFERTURBO_TENSOR_KERNELS_MATMUL_TILES_H_

#include <cstdint>

namespace inferturbo {
namespace kernels {
namespace detail {

/// Register-tiled matmul row kernels. The same source
/// (matmul_tiles.inc) is compiled twice: a portable baseline TU and an
/// AVX2 TU (vector width only — FMA stays off in both so every product
/// and sum rounds exactly like the scalar reference, keeping results
/// bit-identical across ISAs). Callers pick an implementation once via
/// Avx2KernelsAvailable().
///
/// All pointers are dense row-major and must not alias. Each call owns
/// output rows [r0, r1) exclusively, so range-partitioned calls can run
/// concurrently.

/// Rows [r0, r1) of C(m×n) = A(m×k) · B(k×n).
void MatMulRowsPortable(const float* a, const float* b, float* c,
                        std::int64_t r0, std::int64_t r1, std::int64_t k,
                        std::int64_t n);
void MatMulRowsAvx2(const float* a, const float* b, float* c, std::int64_t r0,
                    std::int64_t r1, std::int64_t k, std::int64_t n);

/// Rows [r0, r1) of C(m×n) = A(m×k) · B(n×k)^T.
void MatMulTBRowsPortable(const float* a, const float* b, float* c,
                          std::int64_t r0, std::int64_t r1, std::int64_t k,
                          std::int64_t n);
void MatMulTBRowsAvx2(const float* a, const float* b, float* c,
                      std::int64_t r0, std::int64_t r1, std::int64_t k,
                      std::int64_t n);

/// C(m×n) += A(k×m)^T · B(k×n) for sizes too small to transpose and
/// tile: the scalar reference's k-i-j loop with skip-on-zero over A.
/// Each output element accumulates in ascending k, so vectorizing the
/// j loop keeps it bit-identical to the oracle.
void MatMulTASmallPortable(const float* a, const float* b, float* c,
                           std::int64_t k, std::int64_t m, std::int64_t n);

/// Packed-panel kernels: columns [c0, c0 + pw) of C(m×ldc) from all of
/// A(m×k) and a pre-packed B panel `bp` (k×pw row-major — the pw
/// columns made dense so a parallel task's B working set is contiguous
/// per-thread scratch instead of strided slices of the shared B).
/// Same math and order as the row kernels: each output element is one
/// ascending-k chain with skip-on-zero over A, mul and add separate —
/// bit-identical to the scalar reference. Panel calls own their column
/// range exclusively, so N-partitioned calls run concurrently.
void MatMulPanelPortable(const float* a, const float* bp, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t pw,
                         std::int64_t c0, std::int64_t ldc);
void MatMulPanelAvx2(const float* a, const float* bp, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t pw,
                     std::int64_t c0, std::int64_t ldc);

/// True when the AVX2 TU was built with AVX2 *and* the CPU supports it.
bool Avx2KernelsAvailable();

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_MATMUL_TILES_H_
