#ifndef INFERTURBO_INFERENCE_INFERTURBO_PREGEL_H_
#define INFERTURBO_INFERENCE_INFERTURBO_PREGEL_H_

#include "src/common/result.h"
#include "src/graph/graph.h"
#include "src/inference/options.h"
#include "src/inference/result.h"
#include "src/nn/model.h"

namespace inferturbo {

/// Full-graph layer-wise GNN inference on the Pregel backend (paper
/// §IV-C1): nodes are hash-partitioned with their out-edges and state;
/// superstep 0 initializes states from raw features and scatters layer-0
/// messages; superstep s applies layer s-1 and scatters layer-s
/// messages; the prediction head is fused into the last superstep. A
/// k-layer model finishes in k+1 supersteps with no k-hop redundancy —
/// each node's state is computed exactly once per layer.
Result<InferenceResult> RunInferTurboPregel(const Graph& graph,
                                            const GnnModel& model,
                                            const InferTurboOptions& options);

class GraphView;

/// Pregel over a GraphView. The Pregel backend keeps all state
/// resident by design (that is its side of the paper's trade-off), so
/// an out-of-core view is materialized back into a Graph first —
/// MaterializeGraph reproduces the exact original edge ordering, so
/// logits stay bit-identical to running on the graph that was packed.
/// Views over a resident graph run on it directly. In either case
/// result.metrics.storage carries the view's storage counters.
Result<InferenceResult> RunInferTurboPregel(const GraphView& view,
                                            const GnnModel& model,
                                            const InferTurboOptions& options);

}  // namespace inferturbo

#endif  // INFERTURBO_INFERENCE_INFERTURBO_PREGEL_H_
