#ifndef INFERTURBO_GAS_SUPERSTEP_GATHER_H_
#define INFERTURBO_GAS_SUPERSTEP_GATHER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/gas/gas_conv.h"
#include "src/gas/message.h"

namespace inferturbo {

/// The message data plane's one fold, shared by both backends. Every
/// aggregation of messages, the paper's `aggregate` stage in all of its
/// roles, is one FoldMessages call: the Pregel receiver's gather
/// (GatherSuperstepInbox), the Pregel sender's partial-gather combine
/// (CombineMessages), the MapReduce reduce and map-side combiner, and
/// the serving and reference gathers (GatherIntoResult). Each caller
/// only lists where its message rows already live. FoldMessages folds
/// them through kernels::SegmentFold in input order per destination,
/// so results are bit-identical to the retained per-row scalar oracle
/// at any thread count.

/// Resolves a broadcast key (id-only message reference) to its
/// published row, or nullptr when the key was never published.
using BroadcastLookupFn =
    std::function<const std::vector<float>*(NodeId)>;

/// One fold's input, in fold order: row i is the `msg_dim` floats at
/// rows[i] (a dense payload row, a partial row without its trailing
/// count column, a broadcast value, a shuffle-arena slice), folded into
/// segment segs[i]. counts[i] is how many original messages row i
/// carries; empty means one each (no partial aggregates present).
struct FoldInput {
  std::vector<std::int64_t> segs;
  std::vector<const float*> rows;
  std::vector<std::int64_t> counts;
};

/// Folds `input` into a GatherResult over `num_segments` segments.
/// sum/mean/max/min fold through kernels::SegmentFold; mean divides by
/// the true folded count, not the row count, so partial rows merge
/// exactly; a segment that received nothing reads zero with count 0.
/// Union copies the rows out in input order, with their segments as
/// dst_index; it aborts on partial input (counts present).
GatherResult FoldMessages(AggKind kind, std::int64_t msg_dim,
                          FoldInput input, std::int64_t num_segments);

/// The Pregel receiver's gather over a worker inbox. `batch_partial[i]`
/// marks batch i as pre-pooled (payload has a trailing count column);
/// zero-width payloads are id-only broadcast references resolved
/// through `lookup` (which must return non-null for every referenced
/// key). `local_index` maps a global dst id to its segment; an empty
/// span sends every row to segment 0. Fold order per destination is
/// batch order, then row order within a batch.
GatherResult GatherSuperstepInbox(AggKind kind, std::int64_t msg_dim,
                                  std::span<const MessageBatch> batches,
                                  const std::vector<bool>& batch_partial,
                                  std::span<const std::int64_t> local_index,
                                  std::int64_t num_nodes,
                                  const BroadcastLookupFn& lookup);

/// The sender-side combine (partial-gather): rows[i] is a message of
/// `msg_dim` floats to dst[i]. Returns one partial row per distinct
/// destination, in first-seen order: the running aggregate (sums for
/// mean, so receivers divide by the merged count) with the folded
/// message count appended as a final column; every src is `from`.
/// Destinations are slotted through a scratch table indexed by
/// local_index[dst] in [0, num_local) (by the dst id itself when
/// local_index is empty), so the fold's accumulators follow the
/// distinct destinations, not the table size.
MessageBatch CombineMessages(AggKind kind, std::int64_t msg_dim,
                             std::span<const NodeId> dst,
                             std::vector<const float*> rows,
                             std::span<const std::int64_t> local_index,
                             std::int64_t num_local, NodeId from);

/// CombineMessages over the rows of a dense batch, slotted by dst id.
MessageBatch CombineMessages(AggKind kind, const MessageBatch& batch,
                             NodeId from);

}  // namespace inferturbo

#endif  // INFERTURBO_GAS_SUPERSTEP_GATHER_H_
