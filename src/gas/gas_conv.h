#ifndef INFERTURBO_GAS_GAS_CONV_H_
#define INFERTURBO_GAS_GAS_CONV_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/gas/message.h"
#include "src/gas/signature.h"
#include "src/tensor/autograd.h"
#include "src/tensor/tensor.h"

namespace inferturbo {

/// What the Gather stage hands to apply_node after vectorization.
///
/// For pooled aggregates (sum/mean/max/min) only `pooled`/`counts` are
/// populated: one finalized row per local node (zero / count 0 when a
/// node received no messages). For union aggregates (GAT) the raw
/// per-message rows and their destination segment ids are preserved so
/// apply_node can run attention.
struct GatherResult {
  AggKind kind = AggKind::kSum;
  /// (num_nodes × message_dim) finalized pooled values.
  Tensor pooled;
  /// Messages folded per node (0 = isolated node this round).
  std::vector<std::int64_t> counts;
  /// Union path: raw message rows (E × message_dim)...
  Tensor messages;
  /// ...and each row's local destination index in [0, num_nodes).
  std::vector<std::int64_t> dst_index;
};

/// One GNN layer expressed in the paper's five-stage GAS-like
/// abstraction (§IV-B). The two *data-flow* stages (gather_nbrs,
/// scatter_nbrs) are built into the engines; subclasses override only
/// the three *computation-flow* stages:
///
///   aggregate   — implied by signature().agg_kind, executed by the
///                 engine (receiver-side, or sender-side under
///                 partial-gather when the kind is a lawful monoid);
///   apply_node  — ApplyNode(): new node state from the previous state
///                 and the gathered result;
///   apply_edge  — ComputeMessage() (the per-node part identical across
///                 out-edges) plus ApplyEdge() (the per-edge merge with
///                 edge features, identity by default).
///
/// The same object also exposes the training-side computation flow
/// (ForwardAg) over a local subgraph block, sharing the same parameter
/// tensors — this is the unification that lets a model trained
/// mini-batch run full-graph inference unchanged.
class GasConv {
 public:
  virtual ~GasConv() = default;

  virtual const LayerSignature& signature() const = 0;

  // --- inference computation flow (plain tensors) -------------------
  /// The outgoing message content per node: (n × message_dim) from
  /// (n × input_dim) states. Broadcastable layers compute this once per
  /// node regardless of out-degree.
  virtual Tensor ComputeMessage(const Tensor& node_states) const = 0;

  /// Per-edge adjustment of message rows with edge features; default
  /// passes messages through (none of the bundled layers use edge
  /// features, but the hook completes the paper's apply_edge stage).
  virtual Tensor ApplyEdge(const Tensor& messages,
                           const Tensor* edge_features) const;

  /// New node states (n × output_dim) from previous states
  /// (n × input_dim) and the gathered aggregate.
  virtual Tensor ApplyNode(const Tensor& node_states,
                           const GatherResult& gathered) const = 0;

  // --- training computation flow (autograd) -------------------------
  /// Full message passing over a subgraph block: `h` is (num_nodes ×
  /// input_dim); (src_index, dst_index) are local edge endpoints;
  /// `edge_features` (nullable) has one row per edge when the layer's
  /// signature declares uses_edge_features. Returns (num_nodes ×
  /// output_dim). Gradients flow into the same parameters inference
  /// reads.
  virtual ag::VarPtr ForwardAg(const ag::VarPtr& h,
                               std::span<const std::int64_t> src_index,
                               std::span<const std::int64_t> dst_index,
                               std::int64_t num_nodes,
                               const Tensor* edge_features) const = 0;

  /// The layer's trainable parameters (shared with inference).
  virtual std::vector<ag::VarPtr> Parameters() const = 0;
};

/// The receiver half of Gather over a message matrix, for callers that
/// hold one (serving, incremental inference, the reference run): row i
/// folds into local node dst_index[i] through FoldMessages
/// (superstep_gather.h). Rows whose last column is a partial count
/// (is_partial = true) are merged exactly.
GatherResult GatherIntoResult(AggKind kind, const Tensor& messages,
                              std::span<const std::int64_t> dst_index,
                              std::int64_t num_nodes, bool is_partial);

}  // namespace inferturbo

#endif  // INFERTURBO_GAS_GAS_CONV_H_
