// Portable-ISA instantiation of the tiled matmul bodies (baseline
// x86-64 / whatever the toolchain defaults to). See matmul_tiles.inc.
#include <cstdint>

#include "src/tensor/kernels/matmul_tiles.h"

namespace inferturbo {
namespace kernels {
namespace detail {

#define INFERTURBO_TILE_FN(name) name##Portable
#define INFERTURBO_TILE_RESTRICT __restrict__
#include "src/tensor/kernels/matmul_tiles.inc"
#undef INFERTURBO_TILE_FN
#undef INFERTURBO_TILE_RESTRICT

void MatMulTASmallPortable(const float* a, const float* b, float* c,
                           std::int64_t k, std::int64_t m, std::int64_t n) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* ak = a + kk * m;
    const float* bk = b + kk * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float aki = ak[i];
      if (aki == 0.0f) continue;
      float* ci = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aki * bk[j];
    }
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo
