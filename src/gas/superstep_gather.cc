#include "src/gas/superstep_gather.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernels.h"

namespace inferturbo {

GatherResult FoldMessages(AggKind kind, std::int64_t msg_dim,
                          FoldInput input, std::int64_t num_segments) {
  GatherResult result;
  result.kind = kind;
  result.counts.assign(static_cast<std::size_t>(num_segments), 0);
  const bool counted = !input.counts.empty();
  const std::size_t n = input.segs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t s = input.segs[i];
    INFERTURBO_CHECK(0 <= s && s < num_segments)
        << "fold segment " << s << " out of [0," << num_segments << ")";
    result.counts[static_cast<std::size_t>(s)] += counted ? input.counts[i] : 1;
  }

  if (kind == AggKind::kUnion) {
    INFERTURBO_CHECK(!counted) << "union layer received a partial aggregate";
    result.messages = Tensor(static_cast<std::int64_t>(n), msg_dim);
    if (msg_dim > 0) {
      const std::size_t row_bytes =
          static_cast<std::size_t>(msg_dim) * sizeof(float);
      for (std::size_t i = 0; i < n; ++i) {
        std::memcpy(result.messages.RowPtr(static_cast<std::int64_t>(i)),
                    input.rows[i], row_bytes);
      }
    }
    result.dst_index = std::move(input.segs);
    return result;
  }

  const bool sum_like = kind == AggKind::kSum || kind == AggKind::kMean;
  const kernels::FoldOp op = kind == AggKind::kMax   ? kernels::FoldOp::kMax
                             : kind == AggKind::kMin ? kernels::FoldOp::kMin
                                                     : kernels::FoldOp::kAdd;
  result.pooled =
      sum_like ? Tensor(num_segments, msg_dim)
               : Tensor::Full(num_segments, msg_dim,
                              kind == AggKind::kMax
                                  ? -std::numeric_limits<float>::infinity()
                                  : std::numeric_limits<float>::infinity());
  kernels::SegmentFold(op, input.rows, input.segs, msg_dim, num_segments,
                       result.pooled.data());

  // Finalize: extrema flip an empty segment's +-inf init to the neutral
  // zero (sums start at zero); mean divides by the folded count.
  if (sum_like && kind != AggKind::kMean) return result;
  float* po = result.pooled.data();
  const std::int64_t* counts = result.counts.data();
  kernels::ParallelForRanges(
      num_segments, msg_dim, [&](std::int64_t v0, std::int64_t v1) {
        for (std::int64_t v = v0; v < v1; ++v) {
          float* acc = po + v * msg_dim;
          if (counts[v] == 0) {
            std::fill(acc, acc + msg_dim, 0.0f);
          } else if (kind == AggKind::kMean) {
            const float inv = 1.0f / static_cast<float>(counts[v]);
            for (std::int64_t j = 0; j < msg_dim; ++j) acc[j] *= inv;
          }
        }
      });
  return result;
}

GatherResult GatherSuperstepInbox(AggKind kind, std::int64_t msg_dim,
                                  std::span<const MessageBatch> batches,
                                  const std::vector<bool>& batch_partial,
                                  std::span<const std::int64_t> local_index,
                                  std::int64_t num_nodes,
                                  const BroadcastLookupFn& lookup) {
  std::size_t total = 0;
  bool any_partial = false;
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    total += batches[bi].dst.size();
    any_partial = any_partial || (batch_partial[bi] && !batches[bi].empty());
  }
  FoldInput input;
  input.segs.reserve(total);
  input.rows.reserve(total);
  if (any_partial) input.counts.reserve(total);
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const MessageBatch& b = batches[bi];
    if (b.empty()) continue;
    const std::int64_t n = b.size();
    for (const NodeId d : b.dst) {
      input.segs.push_back(
          local_index.empty() ? 0 : local_index[static_cast<std::size_t>(d)]);
    }
    // Zero-width payloads are id-only broadcast references: the row is
    // the published board value. The lookup is not required to be
    // thread-safe, so every reference resolves here, before the fold.
    const bool id_only = b.payload.cols() == 0;
    const bool partial = batch_partial[bi] && !id_only;
    if (id_only) {
      for (const NodeId key : b.src) {
        const std::vector<float>* value = lookup(key);
        INFERTURBO_CHECK(value != nullptr)
            << "missing broadcast value for node " << key;
        input.rows.push_back(value->data());
      }
    } else {
      const std::int64_t width = partial ? msg_dim + 1 : msg_dim;
      INFERTURBO_CHECK(b.payload.cols() == width)
          << (partial ? "partial" : "dense") << " batch width "
          << b.payload.cols() << " vs message dim " << msg_dim;
      for (std::int64_t i = 0; i < n; ++i) {
        input.rows.push_back(b.payload.RowPtr(i));
      }
    }
    if (!any_partial) continue;
    // A partial row's folded count rides in its trailing column.
    for (std::int64_t i = 0; i < n; ++i) {
      input.counts.push_back(
          partial ? static_cast<std::int64_t>(b.payload.RowPtr(i)[msg_dim])
                  : 1);
    }
  }
  return FoldMessages(kind, msg_dim, std::move(input), num_nodes);
}

MessageBatch CombineMessages(AggKind kind, std::int64_t msg_dim,
                             std::span<const NodeId> dst,
                             std::vector<const float*> rows,
                             std::span<const std::int64_t> local_index,
                             std::int64_t num_local, NodeId from) {
  INFERTURBO_CHECK(kind != AggKind::kUnion)
      << "a union aggregate has no partial form";
  INFERTURBO_CHECK(dst.size() == rows.size())
      << "combine of " << dst.size() << " destinations and " << rows.size()
      << " rows";
  // Slots in first-seen destination order: the partial batch's row
  // order, and so its wire bytes, follow the order messages were sent.
  std::vector<std::int32_t> slot_of(static_cast<std::size_t>(num_local), -1);
  std::vector<NodeId> order;
  FoldInput input;
  input.segs.reserve(dst.size());
  input.rows = std::move(rows);
  for (const NodeId d : dst) {
    const std::int64_t key =
        local_index.empty() ? d : local_index[static_cast<std::size_t>(d)];
    INFERTURBO_CHECK(0 <= key && key < num_local)
        << "combine key " << key << " out of [0," << num_local << ")";
    std::int32_t& slot = slot_of[static_cast<std::size_t>(key)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(order.size());
      order.push_back(d);
    }
    input.segs.push_back(slot);
  }
  const auto slots = static_cast<std::int64_t>(order.size());
  // Mean travels as running sums; the receiver divides by the merged
  // count column.
  const GatherResult folded =
      FoldMessages(kind == AggKind::kMean ? AggKind::kSum : kind, msg_dim,
                   std::move(input), slots);

  MessageBatch partial;
  partial.payload = Tensor(slots, msg_dim + 1);
  for (std::int64_t s = 0; s < slots; ++s) {
    float* row = partial.payload.RowPtr(s);
    std::copy_n(folded.pooled.RowPtr(s), msg_dim, row);
    row[msg_dim] =
        static_cast<float>(folded.counts[static_cast<std::size_t>(s)]);
  }
  partial.src.assign(order.size(), from);
  partial.dst = std::move(order);
  return partial;
}

MessageBatch CombineMessages(AggKind kind, const MessageBatch& batch,
                             NodeId from) {
  std::vector<const float*> rows;
  rows.reserve(batch.dst.size());
  for (std::int64_t i = 0; i < batch.size(); ++i) {
    rows.push_back(batch.payload.RowPtr(i));
  }
  const NodeId max_dst =
      batch.empty() ? -1
                    : *std::max_element(batch.dst.begin(), batch.dst.end());
  return CombineMessages(kind, batch.payload.cols(), batch.dst,
                         std::move(rows), {}, max_dst + 1, from);
}

}  // namespace inferturbo
