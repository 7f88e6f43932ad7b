#include "src/gas/message.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/gas/gas_conv.h"

namespace inferturbo {
namespace {

TEST(MessageBatchTest, PushAndAppend) {
  MessageBatch a;
  const float r1[] = {1.0f, 2.0f};
  const float r2[] = {3.0f, 4.0f};
  a.Push(5, 1, r1, 2);
  a.Push(6, 2, r2, 2);
  EXPECT_EQ(a.size(), 2);
  EXPECT_EQ(a.dst[1], 6);
  EXPECT_EQ(a.payload.At(1, 0), 3.0f);

  MessageBatch b;
  b.Push(7, 3, r1, 2);
  a.Append(b);
  EXPECT_EQ(a.size(), 3);
  EXPECT_EQ(a.src[2], 3);
}

TEST(MessageBatchTest, IncrementalPushKeepsContentsThroughGrowth) {
  // Push grows the payload geometrically; many single-row pushes must
  // land every row intact and in order (the vertex-API build path).
  Rng rng(3);
  const std::int64_t n = 1000, width = 5;
  const Tensor rows = Tensor::RandomNormal(n, width, 1.0f, &rng);
  MessageBatch a;
  for (std::int64_t i = 0; i < n; ++i) {
    a.Push(static_cast<NodeId>(i % 17), static_cast<NodeId>(i),
           rows.RowPtr(i), width);
  }
  ASSERT_EQ(a.size(), n);
  EXPECT_TRUE(a.payload.ApproxEquals(rows, 0.0f));
  EXPECT_EQ(a.dst[999], 999 % 17);
  EXPECT_EQ(a.src[999], 999);
}

TEST(MessageBatchTest, PushAfterMismatchedReserveAdoptsRowWidth) {
  // A reservation at one width must not poison a first push at another
  // width while the batch is still empty.
  MessageBatch a;
  a.Reserve(4, 2);
  const float r[] = {1.0f, 2.0f, 3.0f};
  a.Push(0, 0, r, 3);
  ASSERT_EQ(a.payload.cols(), 3);
  EXPECT_EQ(a.payload.At(0, 2), 3.0f);
}

TEST(MessageBatchTest, MergeConcatenatesInOrder) {
  const float r[] = {1.0f};
  MessageBatch a, b, empty;
  a.Push(0, 0, r, 1);
  b.Push(1, 1, r, 1);
  std::vector<MessageBatch> batches = {a, empty, b};
  MessageBatch m = MessageBatch::Merge(batches);
  EXPECT_EQ(m.size(), 2);
  EXPECT_EQ(m.dst[0], 0);
  EXPECT_EQ(m.dst[1], 1);
}

TEST(MessageBatchTest, WireBytesChargePayloadAndHeader) {
  const float r[] = {1.0f, 2.0f};
  MessageBatch a;
  a.Push(0, 0, r, 2);
  EXPECT_EQ(a.WireBytes(), MessageBytes(2));
}

TEST(MessageBatchTest, IdOnlyBatchChargesReferenceBytes) {
  MessageBatch refs;
  refs.payload = Tensor(0, 0);
  refs.dst.push_back(3);
  refs.src.push_back(9);
  EXPECT_EQ(refs.WireBytes(), IdOnlyMessageBytes());
}

TEST(SplitByWorkerTest, PreservesPerWorkerOrderAndContent) {
  const std::int64_t num_workers = 4;
  const HashPartitioner partitioner(num_workers);
  Rng rng(47);
  MessageBatch batch;
  const std::int64_t n = 123, width = 3;
  batch.Reserve(static_cast<std::size_t>(n), width);
  batch.payload = Tensor::RandomNormal(n, width, 1.0f, &rng);
  for (std::int64_t i = 0; i < n; ++i) {
    batch.dst.push_back(static_cast<NodeId>(rng.NextBounded(500)));
    batch.src.push_back(static_cast<NodeId>(i));
  }
  const MessageBatch original = batch;

  std::vector<MessageBatch> slices =
      SplitByWorker(std::move(batch), partitioner, num_workers);
  ASSERT_EQ(slices.size(), static_cast<std::size_t>(num_workers));

  // Every row lands on its owner, and each slice preserves the
  // original relative order — verified by replaying the input and
  // consuming each owner's slice front-to-back.
  std::vector<std::int64_t> cursor(static_cast<std::size_t>(num_workers), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto w =
        static_cast<std::size_t>(partitioner.PartitionOf(original.dst[i]));
    const MessageBatch& slice = slices[w];
    const std::int64_t at = cursor[w]++;
    ASSERT_LT(at, slice.size());
    EXPECT_EQ(slice.dst[static_cast<std::size_t>(at)], original.dst[i]);
    EXPECT_EQ(slice.src[static_cast<std::size_t>(at)], original.src[i]);
    for (std::int64_t j = 0; j < width; ++j) {
      EXPECT_EQ(slice.payload.At(at, j), original.payload.At(i, j));
    }
  }
  // No extra rows anywhere: cursors consumed every slice exactly.
  for (std::size_t w = 0; w < static_cast<std::size_t>(num_workers); ++w) {
    EXPECT_EQ(cursor[w], slices[w].size());
  }
}

TEST(SplitByWorkerTest, SingleOwnerBatchMovesWithoutCopy) {
  const std::int64_t num_workers = 3;
  const HashPartitioner partitioner(num_workers);
  MessageBatch batch;
  // Find two ids on the same worker so the batch is single-owner.
  const NodeId id = 5;
  const std::int64_t w = partitioner.PartitionOf(id);
  const float r[] = {1.0f, 2.0f};
  batch.Push(id, 1, r, 2);
  batch.Push(id, 2, r, 2);
  const float* payload_before = batch.payload.data();

  std::vector<MessageBatch> slices =
      SplitByWorker(std::move(batch), partitioner, num_workers);
  ASSERT_EQ(slices[static_cast<std::size_t>(w)].size(), 2);
  // The fast path must move the payload, not reallocate it.
  EXPECT_EQ(slices[static_cast<std::size_t>(w)].payload.data(),
            payload_before);
  for (std::int64_t other = 0; other < num_workers; ++other) {
    if (other != w) {
      EXPECT_TRUE(slices[static_cast<std::size_t>(other)].empty());
    }
  }
}

TEST(SplitByWorkerTest, EmptyBatchYieldsAllEmptySlices) {
  const HashPartitioner partitioner(2);
  std::vector<MessageBatch> slices =
      SplitByWorker(MessageBatch{}, partitioner, 2);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_TRUE(slices[0].empty());
  EXPECT_TRUE(slices[1].empty());
}

TEST(SplitByWorkerTest, ZeroWidthPayloadSplitsIds) {
  // Identifier-only batches (broadcast references) have a 0-column
  // payload; the splitter must route ids without touching row memory.
  const std::int64_t num_workers = 2;
  const HashPartitioner partitioner(num_workers);
  MessageBatch batch;
  batch.payload = Tensor(0, 0);
  NodeId a = 0, b = 0;
  // Pick one id per worker so the multi-owner path runs.
  for (NodeId id = 0; id < 100; ++id) {
    if (partitioner.PartitionOf(id) == 0) a = id;
    if (partitioner.PartitionOf(id) == 1) b = id;
  }
  batch.dst = {a, b, a};
  batch.src = {10, 11, 12};

  std::vector<MessageBatch> slices =
      SplitByWorker(std::move(batch), partitioner, num_workers);
  EXPECT_EQ(slices[0].dst, (std::vector<NodeId>{a, a}));
  EXPECT_EQ(slices[0].src, (std::vector<NodeId>{10, 12}));
  EXPECT_EQ(slices[1].dst, (std::vector<NodeId>{b}));
  EXPECT_EQ(slices[1].src, (std::vector<NodeId>{11}));
}

TEST(GatherIntoResultTest, UnionKeepsRawRows) {
  Tensor rows = Tensor::FromRows({{1, 2}, {3, 4}});
  const std::vector<std::int64_t> dst = {1, 0};
  const GatherResult r = GatherIntoResult(AggKind::kUnion, rows, dst, 2,
                                          false);
  EXPECT_TRUE(r.messages.ApproxEquals(rows));
  EXPECT_EQ(r.dst_index, dst);
  EXPECT_EQ(r.counts, (std::vector<std::int64_t>{1, 1}));
}

TEST(GatherIntoResultTest, IsolatedNodesReadNeutralZero) {
  Tensor rows = Tensor::FromRows({{5, 5}});
  const std::vector<std::int64_t> dst = {0};
  for (const AggKind kind :
       {AggKind::kSum, AggKind::kMean, AggKind::kMax, AggKind::kMin}) {
    const GatherResult r = GatherIntoResult(kind, rows, dst, 3, false);
    EXPECT_EQ(r.counts[1], 0);
    EXPECT_EQ(r.pooled.At(1, 0), 0.0f);
    EXPECT_EQ(r.pooled.At(2, 1), 0.0f);
  }
}

}  // namespace
}  // namespace inferturbo
