#ifndef INFERTURBO_TENSOR_KERNELS_ROW_FOLD_H_
#define INFERTURBO_TENSOR_KERNELS_ROW_FOLD_H_

#include <cstdint>

#include "src/tensor/kernels/kernels.h"

namespace inferturbo {
namespace kernels {
namespace detail {

/// The batch kernels behind kernels::SegmentFold, the one fold every
/// message aggregation in the system runs through: the Pregel gather
/// and sender combine, the MapReduce reduce and combiner, the serving
/// and reference gathers, and the SegmentSum/Mean/Max/Min and
/// ScatterAddRows tensor ops. One kernel per FoldOp is compiled twice:
/// a portable TU and an AVX2 TU (vector width only; the scalar
/// semantics below are reproduced lane for lane so results stay
/// bit-identical across ISAs).
///
/// For each row i in [0, n) whose segment s = segs[i] lies in [s0, s1),
/// in index order, fold the `width` floats at rows[i] into
/// out + s*width, per element j:
///   add: acc[j] += row[j]
///   max: acc[j] = (acc[j] < row[j]) ? row[j] : acc[j]
///   min: acc[j] = (row[j] < acc[j]) ? row[j] : acc[j]
/// The max/min selects match std::max/std::min: a NaN row entry never
/// replaces the accumulator, and +-0.0 keeps the accumulator's sign.
/// (A plain vmaxps/vminps would violate both, so the AVX2 TU uses
/// cmp+blend instead.) Rows outside [s0, s1) only cost the segment
/// load: that filtered scan is how parallel tasks keep destination
/// ownership. Source rows must not alias `out`.
using SegFoldFn = void (*)(float* out, std::int64_t width,
                           const std::int64_t* segs, const float* const* rows,
                           std::int64_t n, std::int64_t s0, std::int64_t s1);

/// Dispatched once per process (same availability check as the matmul
/// tiles: compiled in AND supported by the running CPU).
SegFoldFn SegFold(FoldOp op);

void SegFoldAddPortable(float* out, std::int64_t width,
                        const std::int64_t* segs, const float* const* rows,
                        std::int64_t n, std::int64_t s0, std::int64_t s1);
void SegFoldMaxPortable(float* out, std::int64_t width,
                        const std::int64_t* segs, const float* const* rows,
                        std::int64_t n, std::int64_t s0, std::int64_t s1);
void SegFoldMinPortable(float* out, std::int64_t width,
                        const std::int64_t* segs, const float* const* rows,
                        std::int64_t n, std::int64_t s0, std::int64_t s1);
void SegFoldAddAvx2(float* out, std::int64_t width, const std::int64_t* segs,
                    const float* const* rows, std::int64_t n, std::int64_t s0,
                    std::int64_t s1);
void SegFoldMaxAvx2(float* out, std::int64_t width, const std::int64_t* segs,
                    const float* const* rows, std::int64_t n, std::int64_t s0,
                    std::int64_t s1);
void SegFoldMinAvx2(float* out, std::int64_t width, const std::int64_t* segs,
                    const float* const* rows, std::int64_t n, std::int64_t s0,
                    std::int64_t s1);

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_ROW_FOLD_H_
