#include "src/mapreduce/mapreduce_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/nn/model.h"

namespace inferturbo {
namespace {

std::span<const float> One(const float& value) { return {&value, 1}; }

/// Sum of every record's first float, per key group.
void SumPerKey(const MrKeyGroups& input, MrEmitter* emitter) {
  for (std::size_t g = 0; g < input.num_groups(); ++g) {
    float sum = 0.0f;
    for (std::size_t i = input.group_offsets[g];
         i < input.group_offsets[g + 1]; ++i) {
      sum += input.records.Floats(i)[0];
    }
    emitter->Emit(input.key(g), 0, -1, One(sum));
  }
}

std::map<std::int64_t, float> FirstFloatByKey(const MrBlock& block) {
  std::map<std::int64_t, float> result;
  for (std::size_t i = 0; i < block.size(); ++i) {
    result[block.keys[i]] = block.Floats(i)[0];
  }
  return result;
}

void NoReduce(const MrKeyGroups&, MrEmitter*) {}

TEST(MapReduceEngineTest, WordCountStyleAggregation) {
  // Map emits (key % 5, 1); reduce sums. 100 records -> 5 keys of 20.
  MapReduceJob::Options options;
  options.num_instances = 4;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    for (std::int64_t i = 0; i < 25; ++i) {
      emitter->Emit((instance * 25 + i) % 5, 0, -1, One(1.0f));
    }
  });
  job.RunReduce(SumPerKey, nullptr);
  const std::map<std::int64_t, float> result =
      FirstFloatByKey(job.TakeOutputs());
  ASSERT_EQ(result.size(), 5u);
  for (const auto& [key, sum] : result) EXPECT_EQ(sum, 20.0f);
}

TEST(MapReduceEngineTest, ValuesArriveInProducerOrder) {
  MapReduceJob::Options options;
  options.num_instances = 3;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    for (int i = 0; i < 2; ++i) emitter->Emit(0, 0, instance * 10 + i);
  });
  std::vector<NodeId> order;
  job.RunReduce(
      [&order](const MrKeyGroups& input, MrEmitter*) {
        for (const NodeId src : input.records.src) order.push_back(src);
      },
      nullptr);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 10, 11, 20, 21}));
}

TEST(MapReduceEngineTest, ReduceRunsOncePerReducerOverAscendingKeyGroups) {
  // The batched reduce contract: one call per reducer, carrying every
  // key the reducer owns as one contiguous group, keys ascending.
  MapReduceJob::Options options;
  options.num_instances = 3;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    for (std::int64_t key = 9; key >= 0; --key) {
      emitter->Emit(key, 0, instance, One(static_cast<float>(key)));
    }
  });
  std::mutex mu;
  int calls = 0;
  std::map<std::int64_t, int> group_sizes;
  job.RunReduce(
      [&](const MrKeyGroups& input, MrEmitter*) {
        std::lock_guard<std::mutex> lock(mu);
        ++calls;
        for (std::size_t g = 0; g < input.num_groups(); ++g) {
          if (g > 0) {
            EXPECT_LT(input.key(g - 1), input.key(g));
          }
          EXPECT_EQ(group_sizes.count(input.key(g)), 0u) << "key split";
          group_sizes[input.key(g)] =
              static_cast<int>(input.group_offsets[g + 1] -
                               input.group_offsets[g]);
          for (std::size_t i = input.group_offsets[g];
               i < input.group_offsets[g + 1]; ++i) {
            EXPECT_EQ(input.records.keys[i], input.key(g));
          }
        }
      },
      nullptr);
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(group_sizes.size(), 10u);
  for (const auto& [key, size] : group_sizes) EXPECT_EQ(size, 3) << key;
}

TEST(MapReduceEngineTest, CombinerShrinksShuffleBytes) {
  const auto run = [](bool with_combiner) {
    MapReduceJob::Options options;
    options.num_instances = 2;
    MapReduceJob job(options);
    job.RunMap([](std::int64_t, MrEmitter* emitter) {
      for (int i = 0; i < 50; ++i) emitter->Emit(7, 0, -1, One(1.0f));
    });
    MapReduceJob::CombineFn combiner =
        [](const MrBlock& block, std::span<const std::uint32_t> records,
           std::span<const std::size_t> runs, MrEmitter* out) {
          for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
            float folded = 0.0f;
            for (std::size_t k = runs[r]; k < runs[r + 1]; ++k) {
              folded += block.Floats(records[k])[0];
            }
            out->Emit(block.keys[records[runs[r]]], 0, -1, One(folded));
          }
        };
    float total = 0.0f;
    job.RunReduce(
        [&total](const MrKeyGroups& input, MrEmitter*) {
          for (const float v : input.records.floats) total += v;
        },
        with_combiner ? &combiner : nullptr);
    std::uint64_t shuffle_bytes = 0;
    for (const auto& w : job.metrics().workers) {
      shuffle_bytes += w.Total().bytes_out;
    }
    EXPECT_EQ(total, 100.0f);  // combining never changes the answer
    return shuffle_bytes;
  };
  EXPECT_LT(run(true), run(false) / 10);
}

TEST(MapReduceEngineTest, AllShuffleTrafficIsCharged) {
  // Unlike Pregel, local delivery also pays (external-storage model).
  MapReduceJob::Options options;
  options.num_instances = 2;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    if (instance != 0) return;
    const float payload[] = {1.0f, 2.0f};
    emitter->Emit(0, 0, -1, payload);  // lands wherever key 0 hashes
  });
  job.RunReduce(NoReduce, nullptr);
  std::uint64_t out = 0, in = 0;
  for (const auto& w : job.metrics().workers) {
    out += w.Total().bytes_out;
    in += w.Total().bytes_in;
  }
  EXPECT_GT(out, 0u);
  EXPECT_EQ(out, in);
}

TEST(MapReduceEngineTest, MultiRoundChainingPreservesData) {
  MapReduceJob::Options options;
  options.num_instances = 3;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    emitter->Emit(instance, 0, -1, One(static_cast<float>(instance)));
  });
  // Each round forwards key -> key+1 with value+10.
  for (int round = 0; round < 3; ++round) {
    job.RunReduce(
        [](const MrKeyGroups& input, MrEmitter* emitter) {
          for (std::size_t i = 0; i < input.records.size(); ++i) {
            emitter->Emit(input.records.keys[i] + 1, 0, -1,
                          One(input.records.Floats(i)[0] + 10.0f));
          }
        },
        nullptr);
  }
  std::map<std::int64_t, float> result = FirstFloatByKey(job.TakeOutputs());
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[3], 30.0f);
  EXPECT_EQ(result[4], 31.0f);
  EXPECT_EQ(result[5], 32.0f);
}

TEST(MapReduceEngineTest, MetricsTrackOneStepPerStage) {
  MapReduceJob::Options options;
  options.num_instances = 2;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t, MrEmitter*) {});
  job.RunReduce(NoReduce, nullptr);
  job.RunReduce(NoReduce, nullptr);
  EXPECT_EQ(job.metrics().num_steps(), 3);
}

TEST(MapReduceEngineTest, CombinerSeesOnlySameKeyRuns) {
  // The combiner contract: invoked per (producer, reducer, key) with
  // exactly that key's values; emissions for other keys must never be
  // folded together.
  MapReduceJob::Options options;
  options.num_instances = 2;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    if (instance != 0) return;
    for (int i = 0; i < 6; ++i) {
      emitter->Emit(i % 2 == 0 ? 10 : 11, 0, -1,
                    One(static_cast<float>(1 << i)));
    }
  });
  std::map<std::int64_t, std::vector<float>> combined_per_key;
  MapReduceJob::CombineFn combiner =
      [&combined_per_key](const MrBlock& block,
                          std::span<const std::uint32_t> records,
                          std::span<const std::size_t> runs, MrEmitter* out) {
        for (std::size_t r = 0; r + 1 < runs.size(); ++r) {
          const std::int64_t key = block.keys[records[runs[r]]];
          float folded = 0.0f;
          for (std::size_t k = runs[r]; k < runs[r + 1]; ++k) {
            EXPECT_EQ(block.keys[records[k]], key);
            folded += block.Floats(records[k])[0];
          }
          combined_per_key[key].push_back(folded);
          out->Emit(key, 0, -1, One(folded));
        }
      };
  std::mutex mu;  // keys 10 and 11 may reduce on different threads
  std::map<std::int64_t, float> reduced;
  job.RunReduce(
      [&](const MrKeyGroups& input, MrEmitter*) {
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 0; i < input.records.size(); ++i) {
          reduced[input.records.keys[i]] += input.records.Floats(i)[0];
        }
      },
      &combiner);
  // Key 10 got 1+4+16 = 21; key 11 got 2+8+32 = 42; no cross-talk.
  EXPECT_EQ(reduced[10], 21.0f);
  EXPECT_EQ(reduced[11], 42.0f);
  ASSERT_EQ(combined_per_key[10].size(), 1u);
  ASSERT_EQ(combined_per_key[11].size(), 1u);
  EXPECT_EQ(combined_per_key[10][0], 21.0f);
  EXPECT_EQ(combined_per_key[11][0], 42.0f);
}

TEST(MapReduceEngineTest, ModelKeyGroupBytesTracksLargestKeyGroup) {
  MapReduceJob::Options options;
  options.num_instances = 1;
  MapReduceJob job(options);
  const float payload[] = {1.0f, 2.0f};
  job.RunMap([&payload](std::int64_t, MrEmitter* emitter) {
    // Key 0: one record; key 1: ten records.
    for (int i = 0; i < 11; ++i) emitter->Emit(i == 0 ? 0 : 1, 0, -1, payload);
  });
  job.RunReduce(NoReduce, nullptr);
  MrBlock sample;
  sample.Append(0, 0, -1, payload, {});
  // The paper's model: one key group resident at a time.
  EXPECT_EQ(job.metrics().ModelKeyGroupBytes(), 10 * sample.WireBytes(0));
  // The measurement: the reducer held all eleven records at once.
  EXPECT_GT(job.metrics().PeakResidentBytes(),
            job.metrics().ModelKeyGroupBytes());
}

TEST(MapReduceEngineTest, MeasuredResidencyCoversModelledKeyGroup) {
  // On a real inference job the measured reducer input must be at least
  // the modelled one-key-group footprint — a reducer that holds every
  // key group holds the largest one.
  PlantedGraphConfig config;
  config.num_nodes = 400;
  config.avg_degree = 6.0;
  config.num_classes = 3;
  config.feature_dim = 8;
  config.in_skew_alpha = 1.2;
  config.seed = 3;
  const Dataset d = MakePlantedDataset("residency", config);
  ModelConfig mc;
  mc.input_dim = 8;
  mc.hidden_dim = 8;
  mc.num_classes = 3;
  const std::unique_ptr<GnnModel> model = MakeSageModel(mc);
  InferTurboOptions options;
  options.num_workers = 3;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(d.graph, *model, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JobMetrics& m = result->metrics;
  EXPECT_GT(m.ModelKeyGroupBytes(), 0u);
  EXPECT_GE(m.PeakResidentBytes(), m.ModelKeyGroupBytes());
  // Per worker and per stage too, not just at the job maximum.
  for (const WorkerMetrics& w : m.workers) {
    for (const WorkerStepMetrics& s : w.steps) {
      EXPECT_GE(s.peak_resident_bytes, s.model_key_group_bytes);
    }
  }
}

TEST(MrBlockTest, WireBytesCountAllFields) {
  MrBlock block;
  const float floats[] = {1.0f, 2.0f};
  const std::int64_t ids[] = {1, 2, 3};
  block.Append(5, 1, 9, floats, ids);
  block.Append(6, 2, 9, {}, {});
  EXPECT_EQ(block.WireBytes(0),
            kMessageHeaderBytes + sizeof(std::int32_t) + sizeof(NodeId) +
                2 * sizeof(float) + 3 * sizeof(std::int64_t));
  EXPECT_EQ(block.WireBytes(1),
            kMessageHeaderBytes + sizeof(std::int32_t) + sizeof(NodeId));
  EXPECT_EQ(block.TotalWireBytes(), block.WireBytes(0) + block.WireBytes(1));
}

TEST(MrBlockTest, ColumnsStayAlignedAcrossAppends) {
  MrBlock block;
  const float a[] = {1.0f, 2.0f, 3.0f};
  const std::int64_t ids[] = {7};
  block.Append(1, 3, 4, a, {});
  block.Append(2, 4, 5, {}, ids);
  MrBlock copy;
  copy.AppendRecord(block, 1);
  copy.AppendRecord(block, 0);
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.keys, (std::vector<std::int64_t>{2, 1}));
  EXPECT_EQ(copy.tags, (std::vector<std::int32_t>{4, 3}));
  EXPECT_EQ(copy.src, (std::vector<NodeId>{5, 4}));
  EXPECT_TRUE(copy.Floats(0).empty());
  ASSERT_EQ(copy.Ids(0).size(), 1u);
  EXPECT_EQ(copy.Ids(0)[0], 7);
  ASSERT_EQ(copy.Floats(1).size(), 3u);
  EXPECT_EQ(copy.Floats(1)[2], 3.0f);
  EXPECT_TRUE(copy.Ids(1).empty());
  copy.Release();
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.float_offsets, (std::vector<std::int64_t>{0}));
}

}  // namespace
}  // namespace inferturbo
