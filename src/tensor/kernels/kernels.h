#ifndef INFERTURBO_TENSOR_KERNELS_KERNELS_H_
#define INFERTURBO_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>
#include <span>

#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/tensor.h"

namespace inferturbo {
namespace kernels {

/// The fast compute-kernel layer: register-tiled, ISA-dispatched
/// matmuls and range-partitioned parallel segment/row ops, their chunks
/// scheduled on DefaultThreadPool(). Every kernel is BIT-IDENTICAL to
/// its scalar twin in kernels::reference at any thread count and on
/// every ISA — parallel partitions assign each output element to
/// exactly one task in a fixed order, accumulation order per output
/// element matches the reference (ascending k, skip-on-zero over A),
/// and no FMA contraction is allowed in any instantiation. The crash-sweep and cross-backend
/// equivalence suites rely on this contract; kernels_test enforces it.
///
/// Shape agreement is the caller's contract (src/tensor/ops.h checks
/// it); segment ids must already be validated against num_segments.

Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

Tensor SegmentSum(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);
Tensor SegmentMean(const Tensor& values, std::span<const std::int64_t> ids,
                   std::int64_t num_segments);
/// Per-segment elementwise max/min folded in input order with the
/// scalar `(acc < v) ? v : acc` select (NaN rows never replace the
/// accumulator; +-0.0 keeps the accumulator). Segments that receive no
/// rows report zero, not +-inf — the neutral "no messages" value the
/// gather stage hands isolated nodes.
Tensor SegmentMax(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);
Tensor SegmentMin(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);

/// Bounds-checks indices (aborts like the reference on a bad index).
Tensor GatherRows(const Tensor& a, std::span<const std::int64_t> indices);
void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows);

/// True when the AVX2 instantiation is compiled in and the CPU
/// supports it (informational — results are identical either way).
bool UsingAvx2();

}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_KERNELS_H_
