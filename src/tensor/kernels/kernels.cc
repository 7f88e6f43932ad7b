#include "src/tensor/kernels/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/logging.h"
#include "src/telemetry/metrics.h"
#include "src/tensor/kernels/kernel_stats.h"
#include "src/tensor/kernels/matmul_tiles.h"
#include "src/tensor/kernels/row_fold.h"

namespace inferturbo {
namespace kernels {
namespace {

/// Per-op FLOP/byte/call accounting into the global registry
/// ("kernel.<op>.calls/.flops/.bytes"). Disabled cost is one relaxed
/// load + branch; the map lookup only runs when metrics are on, and
/// kernel calls are coarse (one per layer per superstep) relative to
/// the mutex cost. Composed ops (SegmentMean over SegmentSum) also
/// count their building blocks.
void AccountKernel(const char* op, const KernelWork& work) {
  if (!MetricsEnabled()) return;
  struct OpCounters {
    Counter* calls;
    Counter* flops;
    Counter* bytes;
  };
  static std::mutex* mu = new std::mutex();
  static auto* cache = new std::map<std::string, OpCounters, std::less<>>();
  OpCounters counters;
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = cache->find(std::string_view(op));
    if (it == cache->end()) {
      const std::string base = std::string("kernel.") + op;
      it = cache
               ->emplace(std::string(op),
                         OpCounters{
                             GlobalMetrics().GetCounter(base + ".calls"),
                             GlobalMetrics().GetCounter(base + ".flops"),
                             GlobalMetrics().GetCounter(base + ".bytes"),
                         })
               .first;
    }
    counters = it->second;
  }
  counters.calls->Increment();
  counters.flops->Add(work.flops);
  counters.bytes->Add(work.bytes);
}

using RowKernel = void (*)(const float*, const float*, float*, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t);

RowKernel MatMulRowsKernel() {
  static const RowKernel kernel = detail::Avx2KernelsAvailable()
                                      ? detail::MatMulRowsAvx2
                                      : detail::MatMulRowsPortable;
  return kernel;
}

RowKernel MatMulTBRowsKernel() {
  static const RowKernel kernel = detail::Avx2KernelsAvailable()
                                      ? detail::MatMulTBRowsAvx2
                                      : detail::MatMulTBRowsPortable;
  return kernel;
}

using PanelKernel = void (*)(const float*, const float*, float*, std::int64_t,
                             std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t);

PanelKernel MatMulPanelKernel() {
  static const PanelKernel kernel = detail::Avx2KernelsAvailable()
                                        ? detail::MatMulPanelAvx2
                                        : detail::MatMulPanelPortable;
  return kernel;
}

// Panel partition geometry: column-chunk boundaries snap to the tile
// width so no task ever splits a 16-wide register tile, and each
// packed block is capped so a panel (k × kPanelMaxCols floats) stays
// cache-resident in the owning thread's scratch.
constexpr std::int64_t kPanelQuantum = 16;
constexpr std::int64_t kPanelMaxCols = 128;

// Pack columns [j0, j0 + pw) of B(k×n) into a dense k×pw panel.
void PackPanel(const float* b, std::int64_t k, std::int64_t n, std::int64_t j0,
               std::int64_t pw, float* out) {
  const std::size_t bytes = static_cast<std::size_t>(pw) * sizeof(float);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    std::memcpy(out + kk * pw, b + kk * n + j0, bytes);
  }
}

// Shared C(m×n) = A(m×k)·B(k×n) body behind MatMul and the transposed
// variants. Two dispatch paths:
//  - deterministic rows: each task owns output rows. Serial calls and
//    skinny-N shapes (not enough 16-column panels for the task count).
//  - deterministic panels: tasks own column ranges; each packs its B
//    columns into a persistent thread_local scratch, so the streamed
//    operand stays dense and core-local. Bit-identical to the row path
//    (packing moves bytes, every per-element chain is unchanged).
void MatMulInto(const float* pa, const float* pb, float* pc, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  const std::int64_t groups = (n + kPanelQuantum - 1) / kPanelQuantum;
  const std::int64_t items = std::max(m, groups);
  const std::int64_t work_per_item = m * k * n / std::max<std::int64_t>(1,
                                                                        items);
  const int tasks = PlanParallelTasks(items, work_per_item);

  if (tasks <= 1 || tasks > groups) {
    const RowKernel kernel = MatMulRowsKernel();
    const int row_tasks = static_cast<int>(
        std::min<std::int64_t>(tasks, std::max<std::int64_t>(1, m)));
    ParallelForChunksFixed(m, row_tasks, [&](const RangeChunk& chunk) {
      if (chunk.begin < chunk.end) {
        kernel(pa, pb, pc, chunk.begin, chunk.end, k, n);
      }
    });
    return;
  }

  const int panel_tasks = static_cast<int>(
      std::min<std::int64_t>(tasks, std::max<std::int64_t>(1, groups)));
  constexpr std::int64_t kGroupsPerBlock = kPanelMaxCols / kPanelQuantum;
  ParallelForChunksFixed(groups, panel_tasks, [&](const RangeChunk& chunk) {
    // Pool threads are persistent, so a thread's panel buffer is
    // reused launch after launch instead of reallocated per call.
    static thread_local std::vector<float> scratch;
    for (std::int64_t g0 = chunk.begin; g0 < chunk.end;
         g0 += kGroupsPerBlock) {
      const std::int64_t g1 = std::min(chunk.end, g0 + kGroupsPerBlock);
      const std::int64_t j0 = g0 * kPanelQuantum;
      const std::int64_t j1 = std::min(n, g1 * kPanelQuantum);
      const std::int64_t pw = j1 - j0;
      if (pw <= 0) continue;
      const std::size_t need = static_cast<std::size_t>(k * pw);
      if (scratch.size() < need) scratch.resize(need);
      PackPanel(pb, k, n, j0, pw, scratch.data());
      MatMulPanelKernel()(pa, scratch.data(), pc, m, k, pw, j0, n);
    }
  });
}

// Below this many multiply-adds the transpose-and-tile path for
// MatMulTransposedA costs more in allocation than it saves.
constexpr std::int64_t kTransposeAMinMulAdds = 1 << 15;

// Cache-blocked out-of-place transpose: (rows×cols) -> (cols×rows).
void TransposeInto(const float* __restrict__ src, std::int64_t rows,
                   std::int64_t cols, float* __restrict__ dst) {
  constexpr std::int64_t kBlock = 32;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::int64_t r1 = std::min(rows, r0 + kBlock);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::int64_t c1 = std::min(cols, c0 + kBlock);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

}  // namespace

bool UsingAvx2() { return detail::Avx2KernelsAvailable(); }

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  AccountKernel("matmul", MatMulWork(m, k, n));
  Tensor c(m, n);
  if (c.empty()) return c;
  MatMulInto(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.rows();
  AccountKernel("matmul_tb", MatMulWork(m, k, n));
  Tensor c(m, n);
  if (c.empty()) return c;
  const RowKernel kernel = MatMulTBRowsKernel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  ParallelForRanges(m, k * n, [&](std::int64_t r0, std::int64_t r1) {
    kernel(pa, pb, pc, r0, r1, k, n);
  });
  return c;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  const std::int64_t k = a.rows(), m = a.cols(), n = b.cols();
  AccountKernel("matmul_ta", MatMulWork(m, k, n));
  if (m * k * n < kTransposeAMinMulAdds) {
    Tensor c(m, n);
    detail::MatMulTASmallPortable(a.data(), b.data(), c.data(), k, m, n);
    return c;
  }
  // A^T·B = MatMul over a transposed copy of A. The tiled kernel skips
  // the same zero entries in the same ascending-k order the reference's
  // k-i-j loop does, so results stay bit-identical while the hot loop
  // gets the register-tiled treatment.
  std::vector<float> at(static_cast<std::size_t>(m * k));
  TransposeInto(a.data(), k, m, at.data());
  Tensor c(m, n);
  if (c.empty()) return c;
  MatMulInto(at.data(), b.data(), c.data(), m, k, n);
  return c;
}

namespace {

const char* FoldOpName(FoldOp op) {
  switch (op) {
    case FoldOp::kAdd:
      return "segment_sum";
    case FoldOp::kMax:
      return "segment_max";
    case FoldOp::kMin:
      return "segment_min";
  }
  return "segment_sum";
}

/// Pointers to every row of `values`, the row form SegmentFold takes.
std::vector<const float*> RowPointers(const Tensor& values) {
  std::vector<const float*> rows(static_cast<std::size_t>(values.rows()));
  for (std::int64_t i = 0; i < values.rows(); ++i) {
    rows[static_cast<std::size_t>(i)] = values.RowPtr(i);
  }
  return rows;
}

/// How many of `ids` name each segment.
std::vector<std::int64_t> RowsPerSegment(std::span<const std::int64_t> ids,
                                         std::int64_t num_segments) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_segments), 0);
  for (std::int64_t id : ids) ++counts[static_cast<std::size_t>(id)];
  return counts;
}

/// Max/min share everything but the init value and the fold.
Tensor SegmentExtremum(FoldOp op, const Tensor& values,
                       std::span<const std::int64_t> ids,
                       std::int64_t num_segments, float init) {
  const std::int64_t cols = values.cols();
  Tensor out = Tensor::Full(num_segments, cols, init);
  SegmentFold(op, RowPointers(values), ids, cols, num_segments, out.data());
  // Empty segments report zero rather than +-inf so downstream layers
  // see a neutral "no messages" value.
  const std::vector<std::int64_t> counts = RowsPerSegment(ids, num_segments);
  float* po = out.data();
  ParallelForRanges(num_segments, cols, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t s = s0; s < s1; ++s) {
      if (counts[static_cast<std::size_t>(s)] != 0) continue;
      float* row = po + s * cols;
      std::fill(row, row + cols, 0.0f);
    }
  });
  return out;
}

}  // namespace

void SegmentFold(FoldOp op, std::span<const float* const> rows,
                 std::span<const std::int64_t> segs, std::int64_t width,
                 std::int64_t num_segments, float* out) {
  INFERTURBO_CHECK(rows.size() == segs.size())
      << "segment fold of " << rows.size() << " rows with " << segs.size()
      << " segment ids";
  const auto n = static_cast<std::int64_t>(segs.size());
  AccountKernel(FoldOpName(op), SegmentFoldWork(n, width));
  if (n == 0 || width == 0) return;
  const detail::SegFoldFn fold = detail::SegFold(op);
  const std::int64_t work_per_segment =
      n * width / std::max<std::int64_t>(1, num_segments);
  ParallelForRanges(num_segments, work_per_segment,
                    [&](std::int64_t s0, std::int64_t s1) {
                      fold(out, width, segs.data(), rows.data(), n, s0, s1);
                    });
}

Tensor SegmentSum(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  Tensor out(num_segments, values.cols());
  SegmentFold(FoldOp::kAdd, RowPointers(values), ids, values.cols(),
              num_segments, out.data());
  return out;
}

Tensor SegmentMax(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  return SegmentExtremum(FoldOp::kMax, values, ids, num_segments,
                         -std::numeric_limits<float>::infinity());
}

Tensor SegmentMin(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  return SegmentExtremum(FoldOp::kMin, values, ids, num_segments,
                         std::numeric_limits<float>::infinity());
}

Tensor SegmentMean(const Tensor& values, std::span<const std::int64_t> ids,
                   std::int64_t num_segments) {
  AccountKernel("segment_mean",
                SegmentMeanWork(static_cast<std::int64_t>(ids.size()),
                                values.cols(), num_segments));
  Tensor out = SegmentSum(values, ids, num_segments);
  const std::vector<std::int64_t> counts = RowsPerSegment(ids, num_segments);
  const std::int64_t cols = out.cols();
  float* po = out.data();
  ParallelForRanges(num_segments, cols,
                    [&](std::int64_t s0, std::int64_t s1) {
                      for (std::int64_t s = s0; s < s1; ++s) {
                        const std::int64_t count =
                            counts[static_cast<std::size_t>(s)];
                        if (count == 0) continue;
                        const float inv = 1.0f / static_cast<float>(count);
                        float* row = po + s * cols;
                        for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
                      }
                    });
  return out;
}

Tensor GatherRows(const Tensor& a, std::span<const std::int64_t> indices) {
  const std::int64_t out_rows = static_cast<std::int64_t>(indices.size());
  const std::int64_t cols = a.cols();
  AccountKernel("gather_rows", GatherWork(out_rows, cols));
  for (std::int64_t idx : indices) {
    INFERTURBO_CHECK(0 <= idx && idx < a.rows())
        << "GatherRows index " << idx << " out of " << a.rows();
  }
  Tensor c(out_rows, cols);
  if (c.empty()) return c;
  const float* pa = a.data();
  float* pc = c.data();
  const std::int64_t* pid = indices.data();
  const std::size_t row_bytes = static_cast<std::size_t>(cols) * sizeof(float);
  ParallelForRanges(out_rows, cols, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      std::memcpy(pc + i * cols, pa + pid[i] * cols, row_bytes);
    }
  });
  return c;
}

void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows) {
  for (std::int64_t idx : indices) {
    INFERTURBO_CHECK(0 <= idx && idx < acc->rows())
        << "ScatterAddRows index " << idx << " out of " << acc->rows();
  }
  SegmentFold(FoldOp::kAdd, RowPointers(rows), indices, rows.cols(),
              acc->rows(), acc->data());
}

}  // namespace kernels
}  // namespace inferturbo
