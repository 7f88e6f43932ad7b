#ifndef INFERTURBO_INFERENCE_SCATTER_PLAN_H_
#define INFERTURBO_INFERENCE_SCATTER_PLAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/gas/gas_conv.h"
#include "src/inference/strategies.h"
#include "src/nn/model.h"
#include "src/tensor/tensor.h"

namespace inferturbo {

/// How each layer's scatter routes its messages, decided once per job
/// from the layer signatures, the §IV-D strategies and the hub
/// threshold. Both backends consume the same plan; the engines only
/// execute it.
class ScatterPlan {
 public:
  struct Layer {
    /// apply_edge merges edge features: each out-edge carries its own
    /// row, so the layer never broadcasts.
    bool edge_features = false;
    /// Sender-side partial aggregation of a lawful aggregate.
    bool partial_gather = false;
    /// Hubs send one payload plus id-only references along their edges.
    bool broadcast = false;
  };

  ScatterPlan(const GnnModel& model, const StrategyConfig& strategies,
              std::int64_t hub_threshold);

  const Layer& layer(std::int64_t index) const {
    return layers_[static_cast<std::size_t>(index)];
  }
  bool IsHub(std::int64_t index, std::int64_t out_degree) const {
    return layer(index).broadcast && out_degree > hub_threshold_;
  }
  /// Some layer needs edge features, so they travel with the out-edges.
  bool ships_edge_features() const { return ships_edge_features_; }
  /// The out-degree above which broadcast and shadow nodes see a hub.
  std::int64_t hub_threshold() const { return hub_threshold_; }

 private:
  std::vector<Layer> layers_;
  std::int64_t hub_threshold_;
  bool ships_edge_features_ = false;
};

/// The merged messages of an apply_edge layer in one batched ApplyEdge
/// call: node i's row of `messages` repeats along its degrees[i]
/// out-edges, and row k of `edge_features` and of the result belong to
/// the k-th out-edge, node by node.
Tensor ExpandEdgeMessages(const GasConv& layer, const Tensor& messages,
                          std::span<const std::int64_t> degrees,
                          const Tensor& edge_features);

}  // namespace inferturbo

#endif  // INFERTURBO_INFERENCE_SCATTER_PLAN_H_
