#include "src/inference/scatter_plan.h"

#include "src/tensor/kernels/kernels.h"

namespace inferturbo {

ScatterPlan::ScatterPlan(const GnnModel& model,
                         const StrategyConfig& strategies,
                         std::int64_t hub_threshold)
    : hub_threshold_(hub_threshold) {
  for (std::int64_t l = 0; l < model.num_layers(); ++l) {
    const LayerSignature& sig = model.layer(l).signature();
    Layer layer;
    layer.edge_features = sig.uses_edge_features;
    layer.partial_gather = strategies.partial_gather && sig.partial_gather &&
                           PartialGatherReduces(sig.agg_kind);
    layer.broadcast = !sig.uses_edge_features && strategies.broadcast &&
                      sig.broadcastable_messages && hub_threshold > 0;
    ships_edge_features_ = ships_edge_features_ || layer.edge_features;
    layers_.push_back(layer);
  }
}

Tensor ExpandEdgeMessages(const GasConv& layer, const Tensor& messages,
                          std::span<const std::int64_t> degrees,
                          const Tensor& edge_features) {
  if (edge_features.rows() == 0) return Tensor();
  std::vector<std::int64_t> source_rows;
  source_rows.reserve(static_cast<std::size_t>(edge_features.rows()));
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    source_rows.insert(source_rows.end(), static_cast<std::size_t>(degrees[i]),
                       static_cast<std::int64_t>(i));
  }
  return layer.ApplyEdge(kernels::GatherRows(messages, source_rows),
                         &edge_features);
}

}  // namespace inferturbo
