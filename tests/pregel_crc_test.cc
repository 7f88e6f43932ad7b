// Byte-identity guard for the Pregel backend: the CRC32 of the logits
// (and exported embeddings) bytes is pinned per configuration, so any
// change to the scatter routing, the shadow-node rewrite or the job
// around the engine that moves a single bit of output fails here. Every
// case runs at 1, 3 and 4 workers on the dataset mapreduce_crc_test
// uses; where the two backends fold in the same order, the MapReduce
// run must produce the very same bytes. A packed, budget-bound shard
// view must reproduce the in-memory bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_format.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"

namespace inferturbo {
namespace {

/// The planted dataset of mapreduce_crc_test: Zipf in-degrees so hubs
/// exist for broadcast and shadow nodes, per-edge features for the
/// edge-featured layer.
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
  /// Whether the MapReduce backend folds every destination's messages
  /// in the same order, and so must produce the same bytes.
  bool matches_mapreduce;
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

constexpr CrcCase kCases[] = {
    {"sage_partial", "sage", true, false, false, 1,
     0x165f9b1bu, 0xd5a33c16u, true},
    {"sage_partial", "sage", true, false, false, 3,
     0x9f07e345u, 0x247b64ffu, true},
    {"sage_partial", "sage", true, false, false, 4,
     0xda745c90u, 0x07cf8771u, true},
    {"sage_partial_broadcast", "sage", true, true, false, 1,
     0xfb736d24u, 0x393efc05u, true},
    {"sage_partial_broadcast", "sage", true, true, false, 3,
     0x634fdc2du, 0xa0d6b034u, true},
    {"sage_partial_broadcast", "sage", true, true, false, 4,
     0xd09300acu, 0x5418466bu, true},
    {"sage_dense", "sage", false, false, false, 1,
     0x165f9b1bu, 0xd5a33c16u, true},
    {"sage_dense", "sage", false, false, false, 3,
     0xd01b7d14u, 0xd27fa9aeu, true},
    {"sage_dense", "sage", false, false, false, 4,
     0xd1e1cf4eu, 0x9a8e5121u, true},
    {"sage_broadcast", "sage", false, true, false, 1,
     0x165f9b1bu, 0xd5a33c16u, true},
    {"sage_broadcast", "sage", false, true, false, 3,
     0xd01b7d14u, 0xd27fa9aeu, true},
    {"sage_broadcast", "sage", false, true, false, 4,
     0xd1e1cf4eu, 0x9a8e5121u, true},
    {"pool_sage_partial", "pool_sage", true, false, false, 1,
     0x177eff5cu, 0x6568e32eu, true},
    {"pool_sage_partial", "pool_sage", true, false, false, 3,
     0x177eff5cu, 0x6568e32eu, true},
    {"pool_sage_partial", "pool_sage", true, false, false, 4,
     0x177eff5cu, 0x6568e32eu, true},
    {"gat", "gat", false, false, false, 1, 0x36bbf95du, 0x5a51042eu, true},
    {"gat", "gat", false, false, false, 3, 0xaf0ee42du, 0x0fcdeb0eu, true},
    {"gat", "gat", false, false, false, 4, 0xa94d85b7u, 0xa8c7d7ecu, true},
    {"gat_broadcast", "gat", false, true, false, 1,
     0x36bbf95du, 0x5a51042eu, true},
    {"gat_broadcast", "gat", false, true, false, 3,
     0xaf0ee42du, 0x0fcdeb0eu, true},
    {"gat_broadcast", "gat", false, true, false, 4,
     0xa94d85b7u, 0xa8c7d7ecu, true},
    {"edge_sage_partial", "edge_sage", true, false, false, 1,
     0x360d2fcbu, 0x3ced4631u, true},
    {"edge_sage_partial", "edge_sage", true, false, false, 3,
     0xf3c61805u, 0x5c46c023u, true},
    {"edge_sage_partial", "edge_sage", true, false, false, 4,
     0xeb7929a7u, 0x4092bf8au, true},
    {"edge_sage_dense", "edge_sage", false, false, false, 1,
     0x360d2fcbu, 0x3ced4631u, true},
    {"edge_sage_dense", "edge_sage", false, false, false, 3,
     0xf8b3a09du, 0x5ab3f480u, true},
    {"edge_sage_dense", "edge_sage", false, false, false, 4,
     0x1f674462u, 0xcbac1175u, true},
    {"sage_all", "sage", true, true, true, 1, 0x428f0b5bu, 0x06f5b81eu, true},
    {"sage_all", "sage", true, true, true, 3, 0x43034d7eu, 0x2efc9d53u, true},
    {"sage_all", "sage", true, true, true, 4, 0xae5076f5u, 0x7a246620u, true},
    {"sage_shadow", "sage", false, false, true, 1,
     0xf8497d35u, 0xfc053c7eu, true},
    {"sage_shadow", "sage", false, false, true, 3,
     0x6dffd53eu, 0x47bdde96u, true},
    {"sage_shadow", "sage", false, false, true, 4,
     0x51ac582fu, 0x8009e887u, true},
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

std::string CaseName(const testing::TestParamInfo<CrcCase>& info) {
  return std::string(info.param.name) + "_w" +
         std::to_string(info.param.workers);
}

class PregelCrcTest : public testing::TestWithParam<CrcCase> {};

TEST_P(PregelCrcTest, OutputBytesMatchPinnedCrc) {
  const CrcCase& c = GetParam();
  const std::unique_ptr<GnnModel> model = CrcModel(c.model_kind);
  const Result<InferenceResult> result =
      RunInferTurboPregel(CrcDataset().graph, *model, OptionsFor(c));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Hex(TensorCrc(result->logits)), Hex(c.logits_crc))
      << c.name << " at " << c.workers << " workers: logits bytes moved";
  EXPECT_EQ(Hex(TensorCrc(result->embeddings)), Hex(c.embeddings_crc))
      << c.name << " at " << c.workers << " workers: embedding bytes moved";
}

INSTANTIATE_TEST_SUITE_P(PinnedConfigs, PregelCrcTest,
                         testing::ValuesIn(kCases), CaseName);

std::vector<CrcCase> CasesMatchingMapReduce() {
  std::vector<CrcCase> cases;
  for (const CrcCase& c : kCases) {
    if (c.matches_mapreduce) cases.push_back(c);
  }
  return cases;
}

class PregelEqualsMapReduceTest : public testing::TestWithParam<CrcCase> {};

TEST_P(PregelEqualsMapReduceTest, BothBackendsWriteTheSameBytes) {
  const CrcCase& c = GetParam();
  const std::unique_ptr<GnnModel> model = CrcModel(c.model_kind);
  const InferTurboOptions options = OptionsFor(c);
  const Result<InferenceResult> pregel =
      RunInferTurboPregel(CrcDataset().graph, *model, options);
  const Result<InferenceResult> mapreduce =
      RunInferTurboMapReduce(CrcDataset().graph, *model, options);
  ASSERT_TRUE(pregel.ok()) << pregel.status().ToString();
  ASSERT_TRUE(mapreduce.ok()) << mapreduce.status().ToString();
  EXPECT_EQ(Hex(TensorCrc(mapreduce->logits)), Hex(TensorCrc(pregel->logits)));
  EXPECT_EQ(Hex(TensorCrc(mapreduce->embeddings)),
            Hex(TensorCrc(pregel->embeddings)));
}

INSTANTIATE_TEST_SUITE_P(FoldOrderAgrees, PregelEqualsMapReduceTest,
                         testing::ValuesIn(CasesMatchingMapReduce()),
                         CaseName);

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

class PregelViewCrcTest : public testing::TestWithParam<CrcCase> {};

TEST_P(PregelViewCrcTest, PackedViewReproducesInMemoryBytes) {
  const CrcCase& c = GetParam();
  const std::unique_ptr<GnnModel> model = CrcModel(c.model_kind);
  Result<ShardStore> store = PackAndOpen("pregel_crc_view", c.workers);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const ShardGraphView view(std::move(*store));
  const InferTurboOptions options = OptionsFor(c);
  const Result<InferenceResult> result =
      RunInferTurboPregel(view, *model, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Hex(TensorCrc(result->logits)), Hex(c.logits_crc));
  EXPECT_EQ(Hex(TensorCrc(result->embeddings)), Hex(c.embeddings_crc));
  EXPECT_GT(result->metrics.storage.peak_bytes_mapped, 0u);
}

// sage_partial and sage_all at 4 workers: without and with shadow nodes.
INSTANTIATE_TEST_SUITE_P(PackedView, PregelViewCrcTest,
                         testing::Values(kCases[2], kCases[29]), CaseName);

}  // namespace
}  // namespace inferturbo
