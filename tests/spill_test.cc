// External-storage shuffle: with a spill directory configured, every
// shuffle block round-trips through disk between the producer and
// reducer halves of a round, and results stay bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/binary_io.h"
#include "src/common/crc32.h"
#include "src/common/io_fault.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/mapreduce/mapreduce_engine.h"
#include "src/nn/model.h"

namespace inferturbo {
namespace {

TEST(SpillTest, EngineRoundTripsBlocksThroughDisk) {
  const std::string dir = testing::TempDir() + "/spill_engine";
  std::filesystem::create_directories(dir);

  const auto run = [&](bool spill) {
    MapReduceJob::Options options;
    options.num_instances = 3;
    if (spill) options.spill_directory = dir;
    MapReduceJob job(options);
    job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
      for (int i = 0; i < 20; ++i) {
        const float floats[] = {static_cast<float>(i),
                                static_cast<float>(instance)};
        const std::int64_t ids[] = {instance * 100 + i};
        emitter->Emit(i % 7, 0, instance, floats, ids);
      }
    });
    // Reducers run in parallel: each sums its own groups, then folds in
    // under the lock (keys are disjoint across reducers, and addition
    // order between reducers does not matter for these small integers).
    std::mutex mu;
    float checksum = 0.0f;
    job.RunReduce(
        [&](const MrKeyGroups& input, MrEmitter* emitter) {
          const MrBlock& in = input.records;
          for (std::size_t g = 0; g < input.num_groups(); ++g) {
            float sum = 0.0f;
            for (std::size_t i = input.group_offsets[g];
                 i < input.group_offsets[g + 1]; ++i) {
              sum += in.Floats(i)[0] + in.Floats(i)[1] +
                     static_cast<float>(in.Ids(i)[0] % 97);
            }
            {
              std::lock_guard<std::mutex> lock(mu);
              checksum += sum;
            }
            emitter->Emit(input.key(g), 0, -1, std::span<const float>(&sum, 1));
          }
        },
        nullptr);
    EXPECT_EQ(spill, job.spill_bytes_written() > 0);
    return checksum;
  };
  EXPECT_EQ(run(false), run(true));
  // Spill files are cleaned up after being consumed.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(SpillTest, InferenceWithSpillMatchesInMemory) {
  const std::string dir = testing::TempDir() + "/spill_inference";
  std::filesystem::create_directories(dir);

  PowerLawConfig config;
  config.num_nodes = 300;
  config.avg_degree = 6.0;
  config.seed = 7;
  const Dataset d = MakePowerLawDataset(config, /*feature_dim=*/10);
  ModelConfig mc;
  mc.input_dim = 10;
  mc.hidden_dim = 8;
  mc.num_classes = 2;
  mc.num_layers = 2;
  const std::unique_ptr<GnnModel> model = MakeSageModel(mc);

  InferTurboOptions in_memory;
  in_memory.num_workers = 4;
  in_memory.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, in_memory);
  ASSERT_TRUE(reference.ok());

  InferTurboOptions spilled = in_memory;
  spilled.mr_spill_directory = dir;
  const Result<InferenceResult> via_disk =
      RunInferTurboMapReduce(d.graph, *model, spilled);
  ASSERT_TRUE(via_disk.ok()) << via_disk.status().ToString();
  EXPECT_TRUE(via_disk->logits.ApproxEquals(reference->logits, 0.0f));
}

// Shared fixture-style setup for the fault-injection tests below.
struct SpillFaultRig {
  Dataset d;
  std::unique_ptr<GnnModel> model;
  Result<InferenceResult> reference = Status::Internal("not run");
  InferTurboOptions spilled;

  explicit SpillFaultRig(const std::string& dir_name) {
    const std::string dir = testing::TempDir() + "/" + dir_name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    PowerLawConfig config;
    config.num_nodes = 300;
    config.avg_degree = 6.0;
    config.seed = 7;
    d = MakePowerLawDataset(config, /*feature_dim=*/10);
    ModelConfig mc;
    mc.input_dim = 10;
    mc.hidden_dim = 8;
    mc.num_classes = 2;
    mc.num_layers = 2;
    model = MakeSageModel(mc);
    InferTurboOptions in_memory;
    in_memory.num_workers = 4;
    in_memory.strategies.partial_gather = true;
    reference = RunInferTurboMapReduce(d.graph, *model, in_memory);
    spilled = in_memory;
    spilled.mr_spill_directory = dir;
  }
};

TEST(SpillTest, TransientReadFaultIsRetriedAndCounted) {
  SpillFaultRig rig("spill_read_fault");
  ASSERT_TRUE(rig.reference.ok());
  // One spill block comes back bit-flipped; the block checksum catches
  // it and the retry re-reads healthy bytes from disk.
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, ".blk", IoFaultKind::kBitFlip, /*times=*/1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_GT(result->metrics.spill_read_retries, 0);
  EXPECT_TRUE(result->logits.ApproxEquals(rig.reference->logits, 0.0f));
}

TEST(SpillTest, TransientShortReadIsRetriedAndCounted) {
  SpillFaultRig rig("spill_short_read");
  ASSERT_TRUE(rig.reference.ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, ".blk", IoFaultKind::kShortRead, /*times=*/1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->metrics.spill_read_retries, 0);
  EXPECT_TRUE(result->logits.ApproxEquals(rig.reference->logits, 0.0f));
}

TEST(SpillTest, TransientWriteFaultIsRetriedAndCounted) {
  SpillFaultRig rig("spill_write_fault");
  ASSERT_TRUE(rig.reference.ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kWrite, ".blk", IoFaultKind::kWriteFail, /*times=*/1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_GT(result->metrics.spill_write_retries, 0);
  EXPECT_TRUE(result->logits.ApproxEquals(rig.reference->logits, 0.0f));
}

TEST(SpillTest, PersistentReadCorruptionSurfacesAsIoError) {
  SpillFaultRig rig("spill_persistent_fault");
  ASSERT_TRUE(rig.reference.ok());
  // Every read of one block stays corrupt: retries exhaust and the job
  // fails with a descriptive IoError instead of producing wrong logits.
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, ".blk", IoFaultKind::kBitFlip, /*times=*/-1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("checksum mismatch"),
            std::string::npos)
      << result.status().ToString();
}

TEST(SpillTest, PersistentWriteFaultSurfacesAsIoError) {
  SpillFaultRig rig("spill_enospc");
  ASSERT_TRUE(rig.reference.ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kWrite, ".blk", IoFaultKind::kNoSpace, /*times=*/-1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("no space"), std::string::npos)
      << result.status().ToString();
}

/// A small block with every column populated, including empty payloads.
MrBlock SampleBlock() {
  MrBlock block;
  for (int i = 0; i < 12; ++i) {
    std::vector<float> floats(static_cast<std::size_t>(i % 4),
                              0.5f * static_cast<float>(i));
    std::vector<std::int64_t> ids(static_cast<std::size_t>(i % 3), i * 7);
    block.Append(i * 3 % 5, i % 4, i - 1, floats, ids);
  }
  return block;
}

bool SameBlock(const MrBlock& a, const MrBlock& b) {
  return a.keys == b.keys && a.tags == b.tags && a.src == b.src &&
         a.float_offsets == b.float_offsets && a.floats == b.floats &&
         a.id_offsets == b.id_offsets && a.ids == b.ids;
}

TEST(SpillTest, SpillBlockRoundTripsBitExact) {
  const MrBlock block = SampleBlock();
  MrBlock decoded;
  ASSERT_TRUE(DecodeSpillBlock(EncodeSpillBlock(block), "sample", &decoded)
                  .ok());
  EXPECT_TRUE(SameBlock(block, decoded));
}

TEST(SpillTest, SpillBlockRejectsEveryTruncationAndFlippedByte) {
  const std::string encoded = EncodeSpillBlock(SampleBlock());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    MrBlock decoded;
    const Status status =
        DecodeSpillBlock(std::string_view(encoded).substr(0, len), "cut",
                         &decoded);
    ASSERT_EQ(status.code(), StatusCode::kIoError) << "length " << len;
  }
  const std::size_t offsets = std::min<std::size_t>(encoded.size(), 400);
  for (std::size_t at = 0; at < offsets; ++at) {
    std::string flipped = encoded;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x5a);
    MrBlock decoded;
    const Status status = DecodeSpillBlock(flipped, "flip", &decoded);
    ASSERT_EQ(status.code(), StatusCode::kIoError) << "offset " << at;
  }
}

TEST(SpillTest, RetiredRecordFormatIsRejected) {
  // The record-at-a-time spill layout: "ITS1", a record count, then per
  // record key, tag, src and two length-prefixed payloads, CRC-framed.
  // Its checksum is valid, so the format tag alone must reject it.
  BinaryWriter old_block;
  old_block.PutU32(0x49545331);
  old_block.PutU64(1);
  old_block.PutI64(4);
  old_block.PutI32(1);
  old_block.PutI64(-1);
  old_block.PutFloats({1.0f, 2.0f});
  old_block.PutI64s({});
  const std::uint32_t crc = Crc32(old_block.buffer());
  old_block.PutU32(crc);
  MrBlock decoded;
  const Status spill =
      DecodeSpillBlock(old_block.buffer(), "old block", &decoded);
  EXPECT_EQ(spill.code(), StatusCode::kIoError);
  EXPECT_NE(spill.message().find("magic"), std::string::npos) << spill.ToString();

  // The old checkpoint began with the bare instance count.
  BinaryWriter old_checkpoint;
  old_checkpoint.PutI64(2);
  for (int i = 0; i < 2; ++i) old_checkpoint.PutU64(0);
  MapReduceJob::Options options;
  options.num_instances = 2;
  MapReduceJob job(options);
  const Status restore = job.RestoreDataflow(old_checkpoint.buffer());
  EXPECT_EQ(restore.code(), StatusCode::kIoError);
  EXPECT_NE(restore.message().find("format"), std::string::npos)
      << restore.ToString();
}

TEST(SpillTest, DataflowCheckpointRejectsTruncationAndSurvivesFlips) {
  MapReduceJob::Options options;
  options.num_instances = 2;
  MapReduceJob job(options);
  ASSERT_TRUE(job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
                   const MrBlock sample = SampleBlock();
                   for (std::size_t i = 0; i < sample.size(); ++i) {
                     if (static_cast<std::int64_t>(i % 2) == instance) {
                       emitter->block().AppendRecord(sample, i);
                     }
                   }
                 }).ok());
  const std::string bytes = job.SerializeDataflow();
  {
    MapReduceJob restored(options);
    ASSERT_TRUE(restored.RestoreDataflow(bytes).ok());
    EXPECT_EQ(restored.SerializeDataflow(), bytes);
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    MapReduceJob restored(options);
    ASSERT_EQ(restored.RestoreDataflow(std::string_view(bytes).substr(0, len))
                  .code(),
              StatusCode::kIoError)
        << "length " << len;
  }
  // The checkpoint store CRC-frames these bytes; on its own the dataflow
  // decoder must still turn any flipped byte into a clean Status or a
  // consistent block — never an out-of-bounds read (ASan checks this).
  for (std::size_t at = 0; at < std::min<std::size_t>(bytes.size(), 400);
       ++at) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x5a);
    MapReduceJob restored(options);
    const Status status = restored.RestoreDataflow(flipped);
    if (status.ok()) {
      const MrBlock out = restored.TakeOutputs();
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_LE(out.Floats(i).size(), out.floats.size());
        EXPECT_LE(out.Ids(i).size(), out.ids.size());
      }
    } else {
      EXPECT_EQ(status.code(), StatusCode::kIoError) << "offset " << at;
    }
  }
}

}  // namespace
}  // namespace inferturbo
