// Fault tolerance — the system property the paper inherits from its
// substrates (§I: "it gains good system properties (e.g., scalability,
// fault tolerance) of those mature infrastructures"). These tests
// inject worker/task failures mid-job and require the recovered run to
// produce *bit-identical* results to an undisturbed one.
#include <gtest/gtest.h>

#include <mutex>
#include <set>

#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"

namespace inferturbo {
namespace {

Dataset SmallGraph() {
  PowerLawConfig config;
  config.num_nodes = 500;
  config.avg_degree = 6.0;
  config.seed = 3;
  return MakePowerLawDataset(config, /*feature_dim=*/12);
}

std::unique_ptr<GnnModel> SmallModel(const Graph& g) {
  ModelConfig config;
  config.input_dim = g.feature_dim();
  config.hidden_dim = 8;
  config.num_classes = g.num_classes();
  config.num_layers = 3;  // enough supersteps to fail in the middle
  return MakeSageModel(config);
}

TEST(PregelFaultToleranceTest, RecoversFromSingleWorkerCrash) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  InferTurboOptions faulty = clean;
  faulty.checkpoint_interval = 1;
  // Worker 2 crashes once, in superstep 2.
  auto fired = std::make_shared<bool>(false);
  faulty.failure_injector = [fired](std::int64_t step, std::int64_t worker) {
    if (step == 2 && worker == 2 && !*fired) {
      *fired = true;
      return true;
    }
    return false;
  };
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(faulty.failures_recovered, 1);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f))
      << "recovered run must be bit-identical";
  // The replayed superstep shows up as extra accounted work.
  EXPECT_EQ(recovered->metrics.num_steps(),
            reference->metrics.num_steps() + 1);
}

TEST(PregelFaultToleranceTest, RecoversFromRepeatedCrashes) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  InferTurboOptions faulty = clean;
  faulty.checkpoint_interval = 2;
  // Three distinct crashes across different steps/workers.
  auto remaining = std::make_shared<std::set<std::pair<std::int64_t,
                                                       std::int64_t>>>();
  remaining->insert({1, 0});
  remaining->insert({2, 3});
  remaining->insert({3, 1});
  faulty.failure_injector = [remaining](std::int64_t step,
                                        std::int64_t worker) {
    return remaining->erase({step, worker}) > 0;
  };
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(faulty.failures_recovered, 3);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
}

TEST(PregelFaultToleranceTest, CheckpointIntervalControlsReplayDepth) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  // Interval 4 on a 4-superstep job -> only step 0 is checkpointed, so
  // a crash at step 3 replays steps 0..3 (4 extra metric steps... the
  // aborted attempt plus three replayed ones = job steps + 4 - 1 + 1).
  InferTurboOptions clean;
  clean.num_workers = 3;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  InferTurboOptions faulty = clean;
  faulty.checkpoint_interval = 4;
  auto fired = std::make_shared<bool>(false);
  faulty.failure_injector = [fired](std::int64_t step, std::int64_t) {
    if (step == 3 && !*fired) {
      *fired = true;
      return true;
    }
    return false;
  };
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
  // Replay from step 0: aborted attempt at step 3 + steps 0,1,2 redone.
  EXPECT_EQ(recovered->metrics.num_steps(),
            reference->metrics.num_steps() + 4);
}

TEST(MapReduceFaultToleranceTest, ReExecutesFailedReduceTask) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  InferTurboOptions faulty = clean;
  auto fired = std::make_shared<bool>(false);
  faulty.failure_injector = [fired](std::int64_t stage,
                                    std::int64_t instance) {
    if (stage == 2 && instance == 1 && !*fired) {
      *fired = true;
      return true;
    }
    return false;
  };
  const Result<InferenceResult> recovered =
      RunInferTurboMapReduce(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(faulty.failures_recovered, 1);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
  // Unlike Pregel's rollback, only the failed task re-runs: stage
  // count is unchanged; the retried instance just worked longer.
  EXPECT_EQ(recovered->metrics.num_steps(),
            reference->metrics.num_steps());
}

TEST(MapReduceFaultToleranceTest, SurvivesManyFailures) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  InferTurboOptions faulty = clean;
  // Every instance fails once in every reduce stage. Reduce tasks call
  // the injector concurrently from pool threads, so the tally is locked.
  auto mu = std::make_shared<std::mutex>();
  auto counts = std::make_shared<std::map<std::pair<std::int64_t,
                                                    std::int64_t>,
                                          int>>();
  faulty.failure_injector = [mu, counts](std::int64_t stage,
                                         std::int64_t instance) {
    std::lock_guard<std::mutex> lock(*mu);
    return (*counts)[{stage, instance}]++ == 0;
  };
  const Result<InferenceResult> recovered =
      RunInferTurboMapReduce(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok());
  EXPECT_GT(faulty.failures_recovered, 4);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
}

TEST(PregelFaultToleranceTest, RecoveryReplaysBroadcastBoard) {
  // With the broadcast strategy on, hub payloads live on the engine's
  // board between supersteps; the checkpoint must capture it or the
  // replayed superstep would resolve stale (or missing) references.
  PowerLawConfig config;
  config.num_nodes = 400;
  config.avg_degree = 8.0;
  config.alpha = 1.5;
  config.skew = PowerLawSkew::kOut;  // guarantees hubs -> board traffic
  config.seed = 23;
  const Dataset d = MakePowerLawDataset(config, /*feature_dim=*/10);
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  clean.strategies.broadcast = true;
  clean.strategies.threshold_override = 10;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  InferTurboOptions faulty = clean;
  faulty.checkpoint_interval = 1;
  auto fired = std::make_shared<bool>(false);
  faulty.failure_injector = [fired](std::int64_t step, std::int64_t worker) {
    // Crash in a middle superstep, after broadcast payloads were
    // published and references are in flight.
    if (step == 2 && worker == 1 && !*fired) {
      *fired = true;
      return true;
    }
    return false;
  };
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(faulty.failures_recovered, 1);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
}

TEST(PregelFaultToleranceTest, FailureWithoutCheckpointingIsCleanError) {
  // A worker failure with checkpointing disabled is unrecoverable, but
  // it must surface as a Status the caller can handle — not a process
  // abort.
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions faulty;
  faulty.num_workers = 4;
  faulty.checkpoint_interval = 0;  // explicitly off
  auto fired = std::make_shared<bool>(false);
  faulty.failure_injector = [fired](std::int64_t step, std::int64_t worker) {
    if (step == 1 && worker == 0 && !*fired) {
      *fired = true;
      return true;
    }
    return false;
  };
  const Result<InferenceResult> result =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(result.status().message().find("checkpointing is disabled"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(faulty.failures_recovered, 0);
}

}  // namespace
}  // namespace inferturbo
