#include "src/gas/message.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace inferturbo {

void MessageBatch::Append(const MessageBatch& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  INFERTURBO_CHECK(payload.cols() == other.payload.cols())
      << "MessageBatch width mismatch on Append";
  dst.insert(dst.end(), other.dst.begin(), other.dst.end());
  src.insert(src.end(), other.src.begin(), other.src.end());
  Tensor merged(payload.rows() + other.payload.rows(), payload.cols());
  std::memcpy(merged.data(), payload.data(), payload.ByteSize());
  std::memcpy(merged.RowPtr(payload.rows()), other.payload.data(),
              other.payload.ByteSize());
  payload = std::move(merged);
}

void MessageBatch::Push(NodeId dst_id, NodeId src_id, const float* row,
                        std::int64_t width) {
  if (payload.empty() && dst.empty()) {
    payload = Tensor(0, width);
  }
  INFERTURBO_CHECK(payload.cols() == width || payload.rows() == 0)
      << "MessageBatch width mismatch on Push";
  if (payload.cols() != width) payload = Tensor(0, width);
  payload.AppendRow(row);
  dst.push_back(dst_id);
  src.push_back(src_id);
}

void MessageBatch::Reserve(std::size_t n, std::int64_t width) {
  dst.reserve(n);
  src.reserve(n);
  if (payload.empty()) payload = Tensor(0, width);
  payload.ReserveRows(static_cast<std::int64_t>(n));
}

MessageBatch MessageBatch::Merge(std::span<const MessageBatch> batches) {
  MessageBatch out;
  std::size_t total = 0;
  std::int64_t width = 0;
  for (const MessageBatch& b : batches) {
    total += b.dst.size();
    if (!b.empty()) width = b.payload.cols();
  }
  if (total == 0) return out;
  out.dst.reserve(total);
  out.src.reserve(total);
  out.payload = Tensor(static_cast<std::int64_t>(total), width);
  std::int64_t row = 0;
  for (const MessageBatch& b : batches) {
    if (b.empty()) continue;
    INFERTURBO_CHECK(b.payload.cols() == width)
        << "MessageBatch width mismatch on Merge";
    out.dst.insert(out.dst.end(), b.dst.begin(), b.dst.end());
    out.src.insert(out.src.end(), b.src.begin(), b.src.end());
    std::memcpy(out.payload.RowPtr(row), b.payload.data(),
                b.payload.ByteSize());
    row += b.payload.rows();
  }
  return out;
}

std::vector<MessageBatch> SplitByWorker(MessageBatch batch,
                                        const HashPartitioner& partitioner,
                                        std::int64_t num_workers) {
  std::vector<MessageBatch> slices(static_cast<std::size_t>(num_workers));
  if (batch.empty()) return slices;
  const std::int64_t n = batch.size();
  // One counting pass that also memoizes each row's owner, so the
  // partition hash runs once per row instead of once per pass.
  std::vector<std::int32_t> owner(static_cast<std::size_t>(n));
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_workers), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t w =
        partitioner.PartitionOf(batch.dst[static_cast<std::size_t>(i)]);
    owner[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(w);
    ++counts[static_cast<std::size_t>(w)];
  }
  // Single-owner fast path — the common case when callers already emit
  // per-destination-worker batches: zero copies, the batch moves whole.
  const std::size_t first_owner = static_cast<std::size_t>(owner[0]);
  if (counts[first_owner] == n) {
    slices[first_owner] = std::move(batch);
    return slices;
  }
  const std::int64_t width = batch.payload.cols();
  for (std::int64_t w = 0; w < num_workers; ++w) {
    const std::int64_t count = counts[static_cast<std::size_t>(w)];
    if (count == 0) continue;
    MessageBatch& slice = slices[static_cast<std::size_t>(w)];
    slice.dst.reserve(static_cast<std::size_t>(count));
    slice.src.reserve(static_cast<std::size_t>(count));
    slice.payload = Tensor(count, width);
  }
  std::vector<std::int64_t> cursor(static_cast<std::size_t>(num_workers), 0);
  std::int64_t i = 0;
  while (i < n) {
    // Maximal same-owner run [i, e): ids append as a range and payload
    // rows move with one block memcpy.
    const std::int32_t w = owner[static_cast<std::size_t>(i)];
    std::int64_t e = i + 1;
    while (e < n && owner[static_cast<std::size_t>(e)] == w) ++e;
    MessageBatch& slice = slices[static_cast<std::size_t>(w)];
    slice.dst.insert(slice.dst.end(),
                     batch.dst.begin() + static_cast<std::ptrdiff_t>(i),
                     batch.dst.begin() + static_cast<std::ptrdiff_t>(e));
    slice.src.insert(slice.src.end(),
                     batch.src.begin() + static_cast<std::ptrdiff_t>(i),
                     batch.src.begin() + static_cast<std::ptrdiff_t>(e));
    if (width > 0) {
      std::memcpy(slice.payload.RowPtr(cursor[static_cast<std::size_t>(w)]),
                  batch.payload.RowPtr(i),
                  static_cast<std::size_t>((e - i) * width) * sizeof(float));
    }
    cursor[static_cast<std::size_t>(w)] += e - i;
    i = e;
  }
  return slices;
}

}  // namespace inferturbo
