#include "src/tensor/kernels/row_fold.h"

#include "src/tensor/kernels/matmul_tiles.h"

namespace inferturbo {
namespace kernels {
namespace detail {
namespace {

inline void AddRow(float* __restrict__ acc, const float* __restrict__ row,
                   std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) acc[j] += row[j];
}

inline void MaxRow(float* __restrict__ acc, const float* __restrict__ row,
                   std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    if (acc[j] < row[j]) acc[j] = row[j];
  }
}

inline void MinRow(float* __restrict__ acc, const float* __restrict__ row,
                   std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    if (row[j] < acc[j]) acc[j] = row[j];
  }
}

template <void Fold(float*, const float*, std::int64_t)>
void SegFoldImpl(float* out, std::int64_t width, const std::int64_t* segs,
                 const float* const* rows, std::int64_t n, std::int64_t s0,
                 std::int64_t s1) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t s = segs[i];
    if (s >= s0 && s < s1) Fold(out + s * width, rows[i], width);
  }
}

}  // namespace

void SegFoldAddPortable(float* out, std::int64_t width,
                        const std::int64_t* segs, const float* const* rows,
                        std::int64_t n, std::int64_t s0, std::int64_t s1) {
  SegFoldImpl<AddRow>(out, width, segs, rows, n, s0, s1);
}
void SegFoldMaxPortable(float* out, std::int64_t width,
                        const std::int64_t* segs, const float* const* rows,
                        std::int64_t n, std::int64_t s0, std::int64_t s1) {
  SegFoldImpl<MaxRow>(out, width, segs, rows, n, s0, s1);
}
void SegFoldMinPortable(float* out, std::int64_t width,
                        const std::int64_t* segs, const float* const* rows,
                        std::int64_t n, std::int64_t s0, std::int64_t s1) {
  SegFoldImpl<MinRow>(out, width, segs, rows, n, s0, s1);
}

SegFoldFn SegFold(FoldOp op) {
  const bool avx2 = Avx2KernelsAvailable();
  switch (op) {
    case FoldOp::kAdd:
      return avx2 ? SegFoldAddAvx2 : SegFoldAddPortable;
    case FoldOp::kMax:
      return avx2 ? SegFoldMaxAvx2 : SegFoldMaxPortable;
    case FoldOp::kMin:
      return avx2 ? SegFoldMinAvx2 : SegFoldMinPortable;
  }
  return avx2 ? SegFoldAddAvx2 : SegFoldAddPortable;
}

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo
