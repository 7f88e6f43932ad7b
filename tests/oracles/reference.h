#ifndef INFERTURBO_TESTS_ORACLES_REFERENCE_H_
#define INFERTURBO_TESTS_ORACLES_REFERENCE_H_

#include <cstdint>
#include <span>

#include "src/tensor/tensor.h"

namespace inferturbo {
namespace kernels {
namespace reference {

/// The retained scalar kernels — byte-for-byte the pre-kernel-layer
/// implementations. They are the bit-identity oracle for the fast
/// paths (kernels_test cross-checks every fast kernel against these at
/// 1 and N threads) and the baseline `bench_kernels` measures speedups
/// against. Single-threaded, no tiling, no SIMD; the TU is compiled
/// with autovectorization disabled so the baseline means the same
/// thing at every optimization level. Do not "optimize" them — their
/// value is staying exactly what the fast kernels must reproduce.

/// C = A(m×k) · B(k×n), i-k-j order with skip-on-zero over A entries.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A(m×k) · B(n×k)^T, one sequential dot chain per output element.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);
/// C = A(k×m)^T · B(k×n), k-i-j order with skip-on-zero over A entries.
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// out[s] = Σ_{i: ids[i]==s} values[i], accumulated in input order.
Tensor SegmentSum(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);
/// SegmentSum divided per segment by its row count (empty stay zero).
Tensor SegmentMean(const Tensor& values, std::span<const std::int64_t> ids,
                   std::int64_t num_segments);
/// Per-segment elementwise extremum, `(acc < v) ? v : acc` select in
/// input order (resp. `(v < acc)` for min); empty segments report zero.
Tensor SegmentMax(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);
Tensor SegmentMin(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);

/// out[i] = a[indices[i]].
Tensor GatherRows(const Tensor& a, std::span<const std::int64_t> indices);
/// acc[indices[i]] += rows[i], in input order.
void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows);

}  // namespace reference
}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TESTS_ORACLES_REFERENCE_H_
