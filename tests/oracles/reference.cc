#include "tests/oracles/reference.h"

#include <cstring>
#include <limits>
#include <vector>

#include "src/common/logging.h"

namespace inferturbo {
namespace kernels {
namespace reference {

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  // i-k-j loop order keeps the inner loop streaming over contiguous rows
  // of B and C.
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c.RowPtr(i);
    const float* ai = a.RowPtr(i);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = ai[kk];
      if (aik == 0.0f) continue;
      const float* bk = b.RowPtr(kk);
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
  return c;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  const std::int64_t m = a.rows(), k = a.cols(), n = b.rows();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a.RowPtr(i);
    float* ci = c.RowPtr(i);
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b.RowPtr(j);
      float acc = 0.0f;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] = acc;
    }
  }
  return c;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  const std::int64_t k = a.rows(), m = a.cols(), n = b.cols();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* ak = a.RowPtr(kk);
    const float* bk = b.RowPtr(kk);
    for (std::int64_t i = 0; i < m; ++i) {
      const float aki = ak[i];
      if (aki == 0.0f) continue;
      float* ci = c.RowPtr(i);
      for (std::int64_t j = 0; j < n; ++j) ci[j] += aki * bk[j];
    }
  }
  return c;
}

Tensor SegmentSum(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  Tensor out(num_segments, values.cols());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    float* po = out.RowPtr(ids[i]);
    const float* pv = values.RowPtr(static_cast<std::int64_t>(i));
    for (std::int64_t j = 0; j < values.cols(); ++j) po[j] += pv[j];
  }
  return out;
}

Tensor SegmentMean(const Tensor& values, std::span<const std::int64_t> ids,
                   std::int64_t num_segments) {
  Tensor out = SegmentSum(values, ids, num_segments);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_segments), 0);
  for (std::int64_t id : ids) ++counts[static_cast<std::size_t>(id)];
  for (std::int64_t s = 0; s < num_segments; ++s) {
    if (counts[static_cast<std::size_t>(s)] == 0) continue;
    const float inv =
        1.0f / static_cast<float>(counts[static_cast<std::size_t>(s)]);
    float* po = out.RowPtr(s);
    for (std::int64_t j = 0; j < out.cols(); ++j) po[j] *= inv;
  }
  return out;
}

namespace {

Tensor SegmentExtremum(const Tensor& values, std::span<const std::int64_t> ids,
                       std::int64_t num_segments, float init, bool is_max) {
  Tensor out = Tensor::Full(num_segments, values.cols(), init);
  std::vector<bool> touched(static_cast<std::size_t>(num_segments), false);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    touched[static_cast<std::size_t>(ids[i])] = true;
    float* po = out.RowPtr(ids[i]);
    const float* pv = values.RowPtr(static_cast<std::int64_t>(i));
    if (is_max) {
      for (std::int64_t j = 0; j < values.cols(); ++j) {
        if (po[j] < pv[j]) po[j] = pv[j];
      }
    } else {
      for (std::int64_t j = 0; j < values.cols(); ++j) {
        if (pv[j] < po[j]) po[j] = pv[j];
      }
    }
  }
  // Empty segments report zero, not +-inf.
  for (std::int64_t s = 0; s < num_segments; ++s) {
    if (touched[static_cast<std::size_t>(s)]) continue;
    float* po = out.RowPtr(s);
    for (std::int64_t j = 0; j < out.cols(); ++j) po[j] = 0.0f;
  }
  return out;
}

}  // namespace

Tensor SegmentMax(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  return SegmentExtremum(values, ids, num_segments,
                         -std::numeric_limits<float>::infinity(),
                         /*is_max=*/true);
}

Tensor SegmentMin(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  return SegmentExtremum(values, ids, num_segments,
                         std::numeric_limits<float>::infinity(),
                         /*is_max=*/false);
}

Tensor GatherRows(const Tensor& a, std::span<const std::int64_t> indices) {
  Tensor c(static_cast<std::int64_t>(indices.size()), a.cols());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::int64_t idx = indices[i];
    INFERTURBO_CHECK(0 <= idx && idx < a.rows())
        << "GatherRows index " << idx << " out of " << a.rows();
    std::memcpy(c.RowPtr(static_cast<std::int64_t>(i)), a.RowPtr(idx),
                static_cast<std::size_t>(a.cols()) * sizeof(float));
  }
  return c;
}

void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows) {
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::int64_t idx = indices[i];
    INFERTURBO_CHECK(0 <= idx && idx < acc->rows())
        << "ScatterAddRows index " << idx << " out of " << acc->rows();
    float* pa = acc->RowPtr(idx);
    const float* pr = rows.RowPtr(static_cast<std::int64_t>(i));
    for (std::int64_t j = 0; j < rows.cols(); ++j) pa[j] += pr[j];
  }
}

}  // namespace reference
}  // namespace kernels
}  // namespace inferturbo
