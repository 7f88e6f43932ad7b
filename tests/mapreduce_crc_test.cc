// Byte-identity guard for the MapReduce backend: the CRC32 of the
// logits (and exported embeddings) bytes is pinned per configuration,
// so any change to the shuffle, combine or reduce data plane that moves
// a single bit of output — a different fold order, a re-associated sum,
// a reordered key group — fails here, not just past a float tolerance.
// Every case runs at 1, 3 and 4 instances; a supervised, spilled run
// with injected faults and a packed, budget-bound shard view must
// reproduce the unsupervised in-memory bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>

#include "src/common/crc32.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/nn/model.h"
#include "src/runtime/fault_plan.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_format.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"

namespace inferturbo {
namespace {

/// Planted classes with Zipf in-degrees (so hubs exist for the
/// broadcast case) and per-edge features (for the edge-featured layer).
const Dataset& CrcDataset() {
  static const Dataset* dataset = [] {
    PlantedGraphConfig config;
    config.num_nodes = 500;
    config.avg_degree = 7.0;
    config.num_classes = 4;
    config.feature_dim = 12;
    config.edge_feature_dim = 3;
    config.in_skew_alpha = 1.2;
    config.seed = 41;
    return new Dataset(MakePlantedDataset("crc", config));
  }();
  return *dataset;
}

std::unique_ptr<GnnModel> CrcModel(const std::string& kind) {
  const Graph& graph = CrcDataset().graph;
  ModelConfig config;
  config.input_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.num_classes = graph.num_classes();
  config.num_layers = 2;
  config.heads = 4;
  config.edge_feature_dim = graph.edge_features().cols();
  config.seed = 9;
  Result<std::unique_ptr<GnnModel>> model = MakeModel(kind, config);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).ValueOrDie();
}

std::uint32_t TensorCrc(const Tensor& t) {
  return Crc32(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float));
}

struct CrcCase {
  const char* name;
  const char* model_kind;
  bool partial_gather;
  bool broadcast;
  bool shadow_nodes;
  std::int64_t workers;
  std::uint32_t logits_crc;
  std::uint32_t embeddings_crc;
};

InferTurboOptions OptionsFor(const CrcCase& c) {
  InferTurboOptions options;
  options.num_workers = c.workers;
  options.strategies.partial_gather = c.partial_gather;
  options.strategies.broadcast = c.broadcast;
  options.strategies.shadow_nodes = c.shadow_nodes;
  options.strategies.threshold_override =
      (c.broadcast || c.shadow_nodes) ? 8 : -1;
  options.export_embeddings = true;
  return options;
}

// Recorded while the reducer still ran the layer once per key; every
// later change to the MapReduce data plane must reproduce them.
constexpr CrcCase kCases[] = {
    {"sage_mean_partial", "sage", true, false, false, 1,
     0x165f9b1bu, 0xd5a33c16u},
    {"sage_mean_partial", "sage", true, false, false, 3,
     0x9f07e345u, 0x247b64ffu},
    {"sage_mean_partial", "sage", true, false, false, 4,
     0xda745c90u, 0x07cf8771u},
    {"pool_sage_max_partial", "pool_sage", true, false, false, 1,
     0x177eff5cu, 0x6568e32eu},
    {"pool_sage_max_partial", "pool_sage", true, false, false, 3,
     0x177eff5cu, 0x6568e32eu},
    {"pool_sage_max_partial", "pool_sage", true, false, false, 4,
     0x177eff5cu, 0x6568e32eu},
    {"gat_union", "gat", false, false, false, 1, 0x36bbf95du, 0x5a51042eu},
    {"gat_union", "gat", false, false, false, 3, 0xaf0ee42du, 0x0fcdeb0eu},
    {"gat_union", "gat", false, false, false, 4, 0xa94d85b7u, 0xa8c7d7ecu},
    {"edge_sage_partial", "edge_sage", true, false, false, 1,
     0x360d2fcbu, 0x3ced4631u},
    {"edge_sage_partial", "edge_sage", true, false, false, 3,
     0xf3c61805u, 0x5c46c023u},
    {"edge_sage_partial", "edge_sage", true, false, false, 4,
     0xeb7929a7u, 0x4092bf8au},
    {"sage_broadcast_hubs", "sage", false, true, false, 1,
     0x165f9b1bu, 0xd5a33c16u},
    {"sage_broadcast_hubs", "sage", false, true, false, 3,
     0xd01b7d14u, 0xd27fa9aeu},
    {"sage_broadcast_hubs", "sage", false, true, false, 4,
     0xd1e1cf4eu, 0x9a8e5121u},
    // Shadow nodes rewrite the graph before the job and trim the mirror
    // rows after it. Recorded before the job frame was shared with the
    // Pregel driver; equal to the Pregel bytes (pregel_crc_test).
    {"sage_shadow", "sage", false, false, true, 1,
     0xf8497d35u, 0xfc053c7eu},
    {"sage_shadow", "sage", false, false, true, 3,
     0x6dffd53eu, 0x47bdde96u},
    {"sage_shadow", "sage", false, false, true, 4,
     0x51ac582fu, 0x8009e887u},
    {"sage_all_strategies", "sage", true, true, true, 1,
     0x428f0b5bu, 0x06f5b81eu},
    {"sage_all_strategies", "sage", true, true, true, 3,
     0x43034d7eu, 0x2efc9d53u},
    {"sage_all_strategies", "sage", true, true, true, 4,
     0xae5076f5u, 0x7a246620u},
};

std::string Hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08xu", v);
  return buf;
}

// Keeps gtest from dumping the raw struct bytes in failure messages.
void PrintTo(const CrcCase& c, std::ostream* os) {
  *os << c.name << "/w" << c.workers;
}

class MapReduceCrcTest : public testing::TestWithParam<CrcCase> {};

TEST_P(MapReduceCrcTest, OutputBytesMatchPinnedCrc) {
  const CrcCase& c = GetParam();
  const std::unique_ptr<GnnModel> model = CrcModel(c.model_kind);
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(CrcDataset().graph, *model, OptionsFor(c));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Hex(TensorCrc(result->logits)), Hex(c.logits_crc))
      << c.name << " at " << c.workers << " workers: logits bytes moved";
  EXPECT_EQ(Hex(TensorCrc(result->embeddings)), Hex(c.embeddings_crc))
      << c.name << " at " << c.workers << " workers: embedding bytes moved";
}

INSTANTIATE_TEST_SUITE_P(
    PinnedConfigs, MapReduceCrcTest, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<CrcCase>& info) {
      return std::string(info.param.name) + "_w" +
             std::to_string(info.param.workers);
    });

/// Packs the dataset into `partitions` shards under TempDir and opens
/// it with a budget below the pack size (the pack minus its smallest
/// shard).
Result<ShardStore> PackAndOpen(const std::string& name,
                               std::int64_t partitions) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  ShardWriterOptions writer;
  writer.num_partitions = partitions;
  const Result<ShardMeta> meta =
      WriteGraphShards(CrcDataset().graph, dir, writer);
  if (!meta.ok()) return meta.status();
  std::uint64_t total = 0;
  std::uint64_t smallest = UINT64_MAX;
  for (std::int64_t p = 0; p < partitions; ++p) {
    const std::uint64_t size =
        std::filesystem::file_size(dir + "/" + ShardFileName(p));
    total += size;
    smallest = std::min(smallest, size);
  }
  ShardStoreOptions options;
  options.directory = dir;
  options.memory_budget_bytes = total - smallest;
  return ShardStore::Open(std::move(options));
}

class MapReduceViewCrcTest : public testing::TestWithParam<CrcCase> {};

TEST_P(MapReduceViewCrcTest, PackedViewReproducesInMemoryBytes) {
  // Without shadow nodes the map stage streams the shards; with them
  // the view is materialized and rewritten first. Both must land on the
  // in-memory bytes.
  const CrcCase& c = GetParam();
  const std::unique_ptr<GnnModel> model = CrcModel(c.model_kind);
  Result<ShardStore> store = PackAndOpen("mr_crc_view", c.workers);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const ShardGraphView view(std::move(*store));
  const InferTurboOptions options = OptionsFor(c);
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(view, *model, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Hex(TensorCrc(result->logits)), Hex(c.logits_crc));
  EXPECT_EQ(Hex(TensorCrc(result->embeddings)), Hex(c.embeddings_crc));
  EXPECT_GT(result->metrics.storage.peak_bytes_mapped, 0u);
}

// sage_mean_partial and sage_all_strategies at 4 workers.
INSTANTIATE_TEST_SUITE_P(PackedView, MapReduceViewCrcTest,
                         testing::Values(kCases[2], kCases[20]),
                         [](const testing::TestParamInfo<CrcCase>& info) {
                           return std::string(info.param.name) + "_w" +
                                  std::to_string(info.param.workers);
                         });

TEST(MapReduceCrcTest, SupervisedSpilledRunMatchesUnsupervisedCrc) {
  // Supervised attempts read the resident dataflow without draining it
  // and write attempt-scoped spill blocks; crashes, transients and a
  // straggler rescued by a speculative duplicate must leave the output
  // bytes exactly where the plain in-memory run put them.
  const CrcCase& c = kCases[2];  // sage_mean_partial at 4 workers
  const std::unique_ptr<GnnModel> model = CrcModel(c.model_kind);
  const std::string dir = testing::TempDir() + "/mr_crc_spill";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kMrReduce, 1, /*executor=*/2, /*times=*/1);
  plan.ArmTransient(TaskStageKind::kMrShuffle, 2, /*executor=*/0,
                    /*times=*/1);
  plan.ArmDelay(TaskStageKind::kMrReduce, 2, /*executor=*/1,
                /*delay_seconds=*/0.3, /*times=*/1);
  InferTurboOptions options = OptionsFor(c);
  options.fault_plan = &plan;
  options.supervision.speculative_execution = true;
  options.supervision.speculation_delay_seconds = 0.02;
  options.mr_spill_directory = dir;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(CrcDataset().graph, *model, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(plan.faults_fired(), 2);
  EXPECT_EQ(Hex(TensorCrc(result->logits)), Hex(c.logits_crc));
  EXPECT_EQ(Hex(TensorCrc(result->embeddings)), Hex(c.embeddings_crc));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace inferturbo
