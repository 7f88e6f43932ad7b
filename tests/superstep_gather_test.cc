// Randomized equivalence suite for the one message fold: the Pregel
// gather (GatherSuperstepInbox) must be BIT-identical to the retained
// scalar oracle for every aggregate kind, inbox shape (dense / partial /
// id-only broadcast refs / empty / one segment) and thread count; the
// sender combine (CombineMessages) must reproduce the scalar combine's
// partial batch byte for byte, including first-seen order, the count
// column and the wire size; and SegmentMax/SegmentMin must match their
// pinned scalar references exactly.
#include "src/gas/superstep_gather.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/gas/message.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernels.h"
#include "tests/oracles/reference.h"
#include "tests/oracles/superstep_gather_scalar.h"

namespace inferturbo {
namespace {

// Forces the kernel layer to `threads` workers with no serial
// fallback, restoring the previous config on scope exit.
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) : saved_(kernels::GetKernelConfig()) {
    kernels::KernelConfig config = saved_;
    config.max_threads = threads;
    config.min_parallel_work = threads > 1 ? 1 : (std::int64_t{1} << 62);
    kernels::SetKernelConfig(config);
  }
  ~ThreadGuard() { kernels::SetKernelConfig(saved_); }

 private:
  kernels::KernelConfig saved_;
};

// Skewed destination draw: min of two uniforms concentrates mass on
// low ids, so some segments are hubs and some are empty.
std::int64_t SkewedDst(Rng* rng, std::int64_t num_nodes) {
  const auto bound = static_cast<std::uint64_t>(num_nodes);
  const std::uint64_t a = rng->NextBounded(bound);
  const std::uint64_t b = rng->NextBounded(bound);
  return static_cast<std::int64_t>(a < b ? a : b);
}

MessageBatch DenseBatch(Rng* rng, std::int64_t n, std::int64_t msg_dim,
                        std::int64_t num_nodes) {
  MessageBatch b;
  b.payload = Tensor::RandomNormal(n, msg_dim, 2.0f, rng);
  for (std::int64_t i = 0; i < n; ++i) {
    b.dst.push_back(SkewedDst(rng, num_nodes));
    b.src.push_back(static_cast<NodeId>(rng->NextBounded(1000)));
  }
  return b;
}

struct RandomInbox {
  std::vector<MessageBatch> batches;
  std::vector<bool> partial;
  std::unordered_map<NodeId, std::vector<float>> board;
  std::vector<std::int64_t> local_index;  // identity, or empty
  std::int64_t num_nodes = 0;

  void Add(MessageBatch batch, bool is_partial) {
    batches.push_back(std::move(batch));
    partial.push_back(is_partial);
  }
  BroadcastLookupFn Lookup() const {
    return [this](NodeId key) -> const std::vector<float>* {
      const auto it = board.find(key);
      return it == board.end() ? nullptr : &it->second;
    };
  }
};

// The inbox shapes a gather meets. kPartial carries sender-combined
// batches (built through CombineMessages, so their count columns are
// the real wire form); kBroadcast carries id-only references;
// kSingleSegment is the MapReduce key group: no local index, every row
// to segment 0.
enum class Shape {
  kDense,
  kPartial,
  kBroadcast,
  kPartialAndBroadcast,
  kEmpty,
  kSingleSegment
};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kDense:
      return "dense";
    case Shape::kPartial:
      return "partial";
    case Shape::kBroadcast:
      return "broadcast";
    case Shape::kPartialAndBroadcast:
      return "partial+broadcast";
    case Shape::kEmpty:
      return "empty";
    case Shape::kSingleSegment:
      return "single_segment";
  }
  return "?";
}

RandomInbox MakeInbox(Rng* rng, AggKind kind, std::int64_t msg_dim,
                      Shape shape) {
  RandomInbox inbox;
  if (shape == Shape::kSingleSegment) {
    inbox.num_nodes = 1;
    inbox.Add(DenseBatch(rng, 37, msg_dim, 1000), false);
    return inbox;
  }
  inbox.num_nodes = 40;
  inbox.local_index.resize(static_cast<std::size_t>(inbox.num_nodes));
  for (std::int64_t i = 0; i < inbox.num_nodes; ++i) {
    inbox.local_index[static_cast<std::size_t>(i)] = i;
  }
  inbox.Add(MessageBatch(), false);  // an empty batch must be a no-op
  if (shape == Shape::kEmpty) return inbox;

  for (int bi = 0; bi < 3; ++bi) {
    const auto n = static_cast<std::int64_t>(rng->NextBounded(120)) + 1;
    inbox.Add(DenseBatch(rng, n, msg_dim, inbox.num_nodes), false);
  }
  if (shape == Shape::kPartial || shape == Shape::kPartialAndBroadcast) {
    for (int sender = 0; sender < 2; ++sender) {
      const auto n = static_cast<std::int64_t>(rng->NextBounded(200)) + 1;
      inbox.Add(CombineMessages(kind,
                                DenseBatch(rng, n, msg_dim, inbox.num_nodes),
                                /*from=*/sender),
                true);
    }
  }
  if (shape == Shape::kBroadcast || shape == Shape::kPartialAndBroadcast) {
    for (NodeId key = 900; key < 904; ++key) {
      std::vector<float> value(static_cast<std::size_t>(msg_dim));
      for (float& v : value) v = rng->NextFloat(-3.0f, 3.0f);
      inbox.board[key] = std::move(value);
    }
    MessageBatch refs;
    refs.payload = Tensor(0, 0);
    const auto n = static_cast<std::int64_t>(rng->NextBounded(60)) + 1;
    for (std::int64_t i = 0; i < n; ++i) {
      refs.dst.push_back(SkewedDst(rng, inbox.num_nodes));
      refs.src.push_back(900 + static_cast<NodeId>(rng->NextBounded(4)));
    }
    inbox.Add(std::move(refs), false);
  }
  return inbox;
}

void ExpectBitIdentical(const GatherResult& fast, const GatherResult& oracle) {
  EXPECT_EQ(fast.kind, oracle.kind);
  EXPECT_EQ(fast.counts, oracle.counts);
  // Tolerance 0: bit-identity is the contract, not approximation.
  EXPECT_TRUE(fast.pooled.ApproxEquals(oracle.pooled, 0.0f));
  EXPECT_TRUE(fast.messages.ApproxEquals(oracle.messages, 0.0f));
  EXPECT_EQ(fast.dst_index, oracle.dst_index);
}

TEST(SuperstepGatherTest, EveryKindAndInboxShapeMatchesScalarOracle) {
  Rng rng(2024);
  for (const AggKind kind : {AggKind::kSum, AggKind::kMean, AggKind::kMax,
                             AggKind::kMin, AggKind::kUnion}) {
    for (const Shape shape :
         {Shape::kDense, Shape::kPartial, Shape::kBroadcast,
          Shape::kPartialAndBroadcast, Shape::kEmpty, Shape::kSingleSegment}) {
      // Union has no partial form: a partial batch never reaches it.
      if (kind == AggKind::kUnion &&
          (shape == Shape::kPartial || shape == Shape::kPartialAndBroadcast)) {
        continue;
      }
      SCOPED_TRACE(std::string("kind=") +
                   std::to_string(static_cast<int>(kind)) +
                   " shape=" + ShapeName(shape));
      const std::int64_t msg_dim =
          1 + static_cast<std::int64_t>(rng.NextBounded(19));
      const RandomInbox inbox = MakeInbox(&rng, kind, msg_dim, shape);
      const GatherResult oracle = GatherSuperstepInboxScalar(
          kind, msg_dim, inbox.batches, inbox.partial, inbox.local_index,
          inbox.num_nodes, inbox.Lookup());
      for (const int threads : {1, 4}) {
        ThreadGuard guard(threads);
        const GatherResult fast = GatherSuperstepInbox(
            kind, msg_dim, inbox.batches, inbox.partial, inbox.local_index,
            inbox.num_nodes, inbox.Lookup());
        ExpectBitIdentical(fast, oracle);
        if (shape == Shape::kEmpty) {
          EXPECT_EQ(fast.counts, std::vector<std::int64_t>(
                                     static_cast<std::size_t>(inbox.num_nodes),
                                     0));
          if (kind != AggKind::kUnion) {
            EXPECT_TRUE(fast.pooled.ApproxEquals(
                Tensor(inbox.num_nodes, msg_dim), 0.0f));
          }
        }
        if (shape == Shape::kSingleSegment) {
          EXPECT_EQ(fast.counts, (std::vector<std::int64_t>{37}));
        }
      }
    }
  }
}

// The partial wire batch, hashed: destination order, sources, and
// every payload byte (count column included).
std::uint32_t PartialBatchCrc(const MessageBatch& batch) {
  std::uint32_t crc =
      Crc32(batch.dst.data(), batch.dst.size() * sizeof(NodeId));
  crc = Crc32(batch.src.data(), batch.src.size() * sizeof(NodeId), crc);
  return Crc32(batch.payload.data(), batch.payload.ByteSize(), crc);
}

// 300 messages of width 7 (an AVX2 lane tail) to 25 skewed
// destinations, with exact +0.0/-0.0 entries so signed-zero folds run.
MessageBatch CombineInput(std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t n = 300, width = 7;
  MessageBatch batch;
  batch.payload = Tensor::RandomNormal(n, width, 2.0f, &rng);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < width; ++j) {
      const std::uint64_t roll = rng.NextBounded(8);
      if (roll == 0) batch.payload.At(i, j) = 0.0f;
      if (roll == 1) batch.payload.At(i, j) = -0.0f;
    }
    batch.dst.push_back(SkewedDst(&rng, 25));
    batch.src.push_back(static_cast<NodeId>(i));
  }
  return batch;
}

TEST(SuperstepGatherTest, SenderCombineReproducesThePartialWireBatch) {
  // CRCs of the partial batch the retired per-row accumulator emitted
  // for CombineInput(kind + 1) from worker 3: the wire bytes partial
  // gather ships may not move.
  const std::pair<AggKind, std::uint32_t> kPinned[] = {
      {AggKind::kSum, 0x2f725187u},
      {AggKind::kMean, 0x4af40b0eu},
      {AggKind::kMax, 0xc906c636u},
      {AggKind::kMin, 0x465782c7u},
  };
  for (const auto& [kind, pinned_crc] : kPinned) {
    SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)));
    const MessageBatch input =
        CombineInput(static_cast<std::uint64_t>(kind) + 1);
    const MessageBatch oracle = CombineMessagesScalar(kind, input, 3);
    // The driver's form: row pointers, slotted by a permuted local index.
    std::vector<const float*> rows;
    for (std::int64_t i = 0; i < input.size(); ++i) {
      rows.push_back(input.payload.RowPtr(i));
    }
    std::vector<std::int64_t> local_index(25);
    for (std::int64_t d = 0; d < 25; ++d) {
      local_index[static_cast<std::size_t>(d)] = (d * 7) % 25;
    }
    for (const int threads : {1, 4}) {
      ThreadGuard guard(threads);
      for (const MessageBatch& fast :
           {CombineMessages(kind, input, 3),
            CombineMessages(kind, input.payload.cols(), input.dst, rows,
                            local_index, 25, 3)}) {
        EXPECT_EQ(fast.dst, oracle.dst);  // first-seen order
        EXPECT_EQ(fast.src, oracle.src);
        ASSERT_EQ(fast.payload.cols(), input.payload.cols() + 1);
        ASSERT_EQ(fast.payload.ByteSize(), oracle.payload.ByteSize());
        EXPECT_EQ(std::memcmp(fast.payload.data(), oracle.payload.data(),
                              oracle.payload.ByteSize()),
                  0);
        EXPECT_EQ(fast.WireBytes(), oracle.WireBytes());
        EXPECT_EQ(PartialBatchCrc(fast), pinned_crc);
      }
    }

    // Exactness of partial-gather: three senders each combine a third,
    // and the receiver's merge equals folding everything at once.
    std::vector<MessageBatch> thirds(3);
    for (std::int64_t i = 0; i < input.size(); ++i) {
      thirds[static_cast<std::size_t>(i % 3)].Push(
          input.dst[static_cast<std::size_t>(i)], i, input.payload.RowPtr(i),
          input.payload.cols());
    }
    std::vector<MessageBatch> partials;
    for (int part = 0; part < 3; ++part) {
      partials.push_back(CombineMessages(kind, thirds[part], part));
    }
    std::vector<std::int64_t> identity(25);
    for (std::int64_t d = 0; d < 25; ++d) {
      identity[static_cast<std::size_t>(d)] = d;
    }
    const GatherResult direct = GatherSuperstepInbox(
        kind, input.payload.cols(), std::span<const MessageBatch>(&input, 1),
        {false}, identity, 25, BroadcastLookupFn{});
    const GatherResult merged = GatherSuperstepInbox(
        kind, input.payload.cols(), partials, {true, true, true}, identity, 25,
        BroadcastLookupFn{});
    EXPECT_EQ(merged.counts, direct.counts);
    EXPECT_TRUE(merged.pooled.ApproxEquals(direct.pooled, 1e-4f));
  }
}

TEST(SuperstepGatherTest, SegmentExtremaMatchPinnedReference) {
  Rng rng(42);
  const std::int64_t rows = 700, cols = 13, segments = 50;
  // Shift everything negative so a buggy zero-init would surface in max.
  Tensor values = Tensor::RandomNormal(rows, cols, 1.0f, &rng);
  for (std::int64_t i = 0; i < values.size(); ++i) {
    values.data()[i] -= 5.0f;
  }
  std::vector<std::int64_t> ids(static_cast<std::size_t>(rows));
  // Leave segments [40, 50) empty: they must read neutral zero.
  for (auto& id : ids) {
    id = static_cast<std::int64_t>(rng.NextBounded(40));
  }
  const Tensor ref_max = kernels::reference::SegmentMax(values, ids, segments);
  const Tensor ref_min = kernels::reference::SegmentMin(values, ids, segments);
  for (const int threads : {1, 4}) {
    ThreadGuard guard(threads);
    EXPECT_TRUE(
        kernels::SegmentMax(values, ids, segments).ApproxEquals(ref_max, 0.0f));
    EXPECT_TRUE(
        kernels::SegmentMin(values, ids, segments).ApproxEquals(ref_min, 0.0f));
  }
  for (std::int64_t s = 40; s < segments; ++s) {
    for (std::int64_t j = 0; j < cols; ++j) {
      EXPECT_EQ(ref_max.At(s, j), 0.0f);
      EXPECT_EQ(ref_min.At(s, j), 0.0f);
    }
  }
}

}  // namespace
}  // namespace inferturbo
