#ifndef INFERTURBO_GAS_MESSAGE_H_
#define INFERTURBO_GAS_MESSAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/byte_size.h"
#include "src/graph/graph.h"
#include "src/graph/partition.h"
#include "src/tensor/tensor.h"

namespace inferturbo {

/// Vectorized messages: the struct-of-arrays form the paper's
/// gather_nbrs produces — destination ids, source ids, and a payload
/// row per message. This is the unit moved between workers by both
/// backends, and the unit combiners operate on.
struct MessageBatch {
  std::vector<NodeId> dst;
  std::vector<NodeId> src;
  /// (dst.size() × payload_dim); when the batch holds partial
  /// aggregates the last column is the folded message count.
  Tensor payload;

  std::int64_t size() const { return static_cast<std::int64_t>(dst.size()); }
  bool empty() const { return dst.empty(); }

  /// Simulated wire bytes of the whole batch (header per message plus
  /// payload rows).
  std::uint64_t WireBytes() const {
    if (empty()) return 0;
    // A zero-width payload is an identifier-only reference (broadcast
    // strategy): the source id in the header is the lookup key.
    const std::size_t per_message =
        payload.cols() == 0
            ? IdOnlyMessageBytes()
            : MessageBytes(static_cast<std::size_t>(payload.cols()));
    return static_cast<std::uint64_t>(dst.size()) * per_message;
  }

  /// Appends all messages of `other` (payload widths must match unless
  /// one side is empty). O(size + other.size); for merging many
  /// batches use Merge, which allocates once.
  void Append(const MessageBatch& other);
  /// Appends a single message row of `width` floats. Amortized O(width)
  /// per call — the payload grows geometrically underneath, so
  /// incremental builders cost the same as sizing up front.
  void Push(NodeId dst_id, NodeId src_id, const float* row,
            std::int64_t width);

  /// Pre-reserves ids and payload storage for `n` messages of `width`.
  void Reserve(std::size_t n, std::int64_t width);

  /// Concatenates `batches` with a single allocation.
  static MessageBatch Merge(std::span<const MessageBatch> batches);
};

/// Buckets `batch`'s rows by the worker owning each `dst` id. Slot w of
/// the result holds all of w's rows in their original relative order
/// (the deterministic-routing contract both engines rely on); workers
/// receiving nothing get an empty batch. Low-copy: owners are computed
/// in one counting pass, each slice's payload is allocated exactly
/// once, contiguous same-owner runs move with one block memcpy, and a
/// batch whose rows all land on one worker is std::moved through
/// untouched.
std::vector<MessageBatch> SplitByWorker(MessageBatch batch,
                                        const HashPartitioner& partitioner,
                                        std::int64_t num_workers);

}  // namespace inferturbo

#endif  // INFERTURBO_GAS_MESSAGE_H_
