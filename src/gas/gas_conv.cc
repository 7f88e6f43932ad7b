#include "src/gas/gas_conv.h"

#include <utility>

#include "src/common/logging.h"
#include "src/gas/superstep_gather.h"

namespace inferturbo {

Tensor GasConv::ApplyEdge(const Tensor& messages,
                          const Tensor* edge_features) const {
  (void)edge_features;
  return messages;
}

GatherResult GatherIntoResult(AggKind kind, const Tensor& messages,
                              std::span<const std::int64_t> dst_index,
                              std::int64_t num_nodes, bool is_partial) {
  INFERTURBO_CHECK(kind != AggKind::kUnion || !is_partial)
      << "union aggregates have no partial form";
  INFERTURBO_CHECK(static_cast<std::int64_t>(dst_index.size()) ==
                   messages.rows())
      << "gather of " << messages.rows() << " rows with " << dst_index.size()
      << " destinations";
  const std::int64_t width =
      is_partial ? messages.cols() - 1 : messages.cols();
  INFERTURBO_CHECK(width >= 0) << "partial batch without a count column";
  FoldInput input;
  input.segs.assign(dst_index.begin(), dst_index.end());
  input.rows.resize(dst_index.size());
  if (is_partial) input.counts.resize(dst_index.size());
  for (std::int64_t i = 0; i < messages.rows(); ++i) {
    const float* row = messages.RowPtr(i);
    input.rows[static_cast<std::size_t>(i)] = row;
    // Partial rows carry running sums (for mean too) plus a count.
    if (is_partial) {
      input.counts[static_cast<std::size_t>(i)] =
          static_cast<std::int64_t>(row[width]);
    }
  }
  return FoldMessages(kind, width, std::move(input), num_nodes);
}

}  // namespace inferturbo
