// The retained scalar gather oracle. This is byte-for-byte the per-row
// fold the Pregel driver ran before the kernel-backed data plane: one
// message row at a time, a scalar switch per row, std::max/std::min
// folds, then a serial finalize. The equivalence suite checks the fast
// path against it and bench_superstep reports speedups relative to it,
// so — like reference.cc — this TU is pinned to genuinely scalar code
// via per-file compile options (see tests/oracles/CMakeLists.txt). Do
// not "optimize" it.
#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "tests/oracles/superstep_gather_scalar.h"

namespace inferturbo {

GatherResult GatherSuperstepInboxScalar(
    AggKind kind, std::int64_t msg_dim,
    std::span<const MessageBatch> batches,
    const std::vector<bool>& batch_partial,
    std::span<const std::int64_t> local_index, std::int64_t num_nodes,
    const BroadcastLookupFn& lookup) {
  const auto local_of = [&local_index](NodeId v) {
    return local_index.empty()
               ? std::int64_t{0}
               : local_index[static_cast<std::size_t>(v)];
  };

  if (kind == AggKind::kUnion) {
    // Materialize all rows with local dst indices.
    std::int64_t total = 0;
    for (const MessageBatch& b : batches) total += b.size();
    GatherResult result;
    result.kind = kind;
    result.messages = Tensor(total, msg_dim);
    result.dst_index.reserve(static_cast<std::size_t>(total));
    result.counts.assign(static_cast<std::size_t>(num_nodes), 0);
    std::int64_t row = 0;
    for (const MessageBatch& b : batches) {
      const bool id_only = b.payload.cols() == 0;
      for (std::int64_t i = 0; i < b.size(); ++i) {
        const std::int64_t local =
            local_of(b.dst[static_cast<std::size_t>(i)]);
        if (id_only) {
          const std::vector<float>* value =
              lookup(b.src[static_cast<std::size_t>(i)]);
          INFERTURBO_CHECK(value != nullptr)
              << "missing broadcast value for node "
              << b.src[static_cast<std::size_t>(i)];
          result.messages.SetRow(row, value->data());
        } else {
          result.messages.SetRow(row, b.payload.RowPtr(i));
        }
        result.dst_index.push_back(local);
        ++result.counts[static_cast<std::size_t>(local)];
        ++row;
      }
    }
    return result;
  }

  // Pooled path: fold rows (and pre-pooled partial rows) directly.
  GatherResult result;
  result.kind = kind;
  result.pooled = Tensor(num_nodes, msg_dim);
  result.counts.assign(static_cast<std::size_t>(num_nodes), 0);
  if (kind == AggKind::kMax || kind == AggKind::kMin) {
    result.pooled = Tensor::Full(
        num_nodes, msg_dim,
        kind == AggKind::kMax ? -std::numeric_limits<float>::infinity()
                              : std::numeric_limits<float>::infinity());
  }
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const MessageBatch& b = batches[bi];
    const bool partial = batch_partial[bi];
    const bool id_only = b.payload.cols() == 0;
    for (std::int64_t i = 0; i < b.size(); ++i) {
      const std::int64_t local = local_of(b.dst[static_cast<std::size_t>(i)]);
      const float* row_data;
      std::int64_t count = 1;
      if (id_only) {
        const std::vector<float>* value =
            lookup(b.src[static_cast<std::size_t>(i)]);
        INFERTURBO_CHECK(value != nullptr)
            << "missing broadcast value for node "
            << b.src[static_cast<std::size_t>(i)];
        row_data = value->data();
      } else {
        row_data = b.payload.RowPtr(i);
        if (partial) {
          count = static_cast<std::int64_t>(row_data[msg_dim]);
        }
      }
      float* acc = result.pooled.RowPtr(local);
      switch (kind) {
        case AggKind::kSum:
        case AggKind::kMean:
          for (std::int64_t j = 0; j < msg_dim; ++j) acc[j] += row_data[j];
          break;
        case AggKind::kMax:
          for (std::int64_t j = 0; j < msg_dim; ++j) {
            acc[j] = std::max(acc[j], row_data[j]);
          }
          break;
        case AggKind::kMin:
          for (std::int64_t j = 0; j < msg_dim; ++j) {
            acc[j] = std::min(acc[j], row_data[j]);
          }
          break;
        case AggKind::kUnion:
          INFERTURBO_CHECK(false) << "unreachable";
      }
      result.counts[static_cast<std::size_t>(local)] += count;
    }
  }
  // Finalize: mean division, neutral zero for isolated nodes.
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    float* acc = result.pooled.RowPtr(v);
    const std::int64_t count = result.counts[static_cast<std::size_t>(v)];
    if (count == 0) {
      std::fill(acc, acc + msg_dim, 0.0f);
    } else if (kind == AggKind::kMean) {
      const float inv = 1.0f / static_cast<float>(count);
      for (std::int64_t j = 0; j < msg_dim; ++j) acc[j] *= inv;
    }
  }
  return result;
}

}  // namespace inferturbo
