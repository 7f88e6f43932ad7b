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

/// The elementwise fold of a segment reduction (mean folds as add; its
/// divide is a finalize step of the caller).
enum class FoldOp { kAdd, kMax, kMin };

/// The one segment fold every message aggregation runs through: for
/// each i in input order, folds the `width` floats at rows[i] into
/// out + segs[i]*width (out is num_segments × width, initialized by the
/// caller). Rows are pointers, so callers fold straight out of wherever
/// their messages live — tensor rows, wire payloads with a trailing
/// count column, broadcast tables, shuffle arenas — without first
/// copying them into one matrix. Tasks own destination-segment ranges
/// and each scans the rows in input order, folding only its own, so
/// the fold order per segment is the input order at any thread count.
/// Charges kernel.segment_{sum,max,min}.{calls,flops,bytes}.
void SegmentFold(FoldOp op, std::span<const float* const> rows,
                 std::span<const std::int64_t> segs, std::int64_t width,
                 std::int64_t num_segments, float* out);

/// Tensor forms of SegmentFold over the rows of `values`.
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
/// SegmentFold(kAdd) of `rows` into the rows of `acc`.
void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows);

/// True when the AVX2 instantiation is compiled in and the CPU
/// supports it (informational — results are identical either way).
bool UsingAvx2();

}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_KERNELS_H_
