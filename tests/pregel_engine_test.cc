// The Pregel engine is model-agnostic; these tests drive it with
// classic graph-processing programs (PageRank) and probe the
// mechanisms InferTurbo builds on: combiners, the broadcast board,
// halting, and byte accounting.
#include "src/pregel/pregel_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>

#include "src/gas/superstep_gather.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_builder.h"

namespace inferturbo {
namespace {

Graph MakeChain(std::int64_t n) {
  GraphBuilder builder(n);
  for (std::int64_t i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  builder.SetNodeFeatures(Tensor(n, 1));
  return std::move(builder).Finish().ValueOrDie();
}

TEST(PregelEngineTest, MessagesFlowAlongChain) {
  // Forward a token along 0 -> 1 -> 2 -> 3; after 4 supersteps node 3
  // holds the value.
  const Graph g = MakeChain(4);
  HashPartitioner partitioner(3);
  const PartitionAssignment assignment = AssignPartitions(4, partitioner);
  PregelEngine::Options options;
  options.num_workers = 3;
  options.max_supersteps = 4;
  PregelEngine engine(options, partitioner);

  std::vector<float> value(4, 0.0f);
  value[0] = 42.0f;
  std::mutex mu;

  engine.Run([&](PregelContext* ctx) {
    const auto& mine =
        assignment.members[static_cast<std::size_t>(ctx->worker_id())];
    // Deliver incoming tokens.
    for (const MessageBatch& b : ctx->inbox()) {
      for (std::int64_t i = 0; i < b.size(); ++i) {
        std::lock_guard<std::mutex> lock(mu);
        value[static_cast<std::size_t>(b.dst[static_cast<std::size_t>(i)])] =
            b.payload.At(i, 0);
      }
    }
    // Pass tokens on.
    MessageBatch out;
    for (NodeId v : mine) {
      float current;
      {
        std::lock_guard<std::mutex> lock(mu);
        current = value[static_cast<std::size_t>(v)];
      }
      if (current == 0.0f) continue;
      for (EdgeId e : g.OutEdges(v)) {
        out.Push(g.EdgeDst(e), v, &current, 1);
      }
    }
    ctx->SendBatch(std::move(out));
  });
  EXPECT_EQ(value[3], 42.0f);
}

TEST(PregelEngineTest, PageRankConverges) {
  const Dataset d = MakeProductsLike(0.02, /*seed=*/3);
  const Graph& g = d.graph;
  const std::int64_t n = g.num_nodes();
  const std::int64_t workers = 4;
  HashPartitioner partitioner(workers);
  const PartitionAssignment assignment = AssignPartitions(n, partitioner);

  std::vector<double> rank(static_cast<std::size_t>(n), 1.0 /
                                                            static_cast<double>(n));
  std::vector<double> incoming(static_cast<std::size_t>(n), 0.0);
  std::mutex mu;

  PregelEngine::Options options;
  options.num_workers = workers;
  options.max_supersteps = 25;
  PregelEngine engine(options, partitioner);

  const double damping = 0.85;
  engine.Run([&](PregelContext* ctx) {
    const auto& mine =
        assignment.members[static_cast<std::size_t>(ctx->worker_id())];
    // Fold incoming contributions, update ranks.
    if (ctx->superstep() > 0) {
      std::lock_guard<std::mutex> lock(mu);
      for (const MessageBatch& b : ctx->inbox()) {
        for (std::int64_t i = 0; i < b.size(); ++i) {
          incoming[static_cast<std::size_t>(
              b.dst[static_cast<std::size_t>(i)])] += b.payload.At(i, 0);
        }
      }
      for (NodeId v : mine) {
        rank[static_cast<std::size_t>(v)] =
            (1.0 - damping) / static_cast<double>(n) +
            damping * incoming[static_cast<std::size_t>(v)];
        incoming[static_cast<std::size_t>(v)] = 0.0;
      }
    }
    MessageBatch out;
    for (NodeId v : mine) {
      const std::int64_t degree = g.OutDegree(v);
      if (degree == 0) continue;
      const float share = static_cast<float>(
          rank[static_cast<std::size_t>(v)] / static_cast<double>(degree));
      for (EdgeId e : g.OutEdges(v)) out.Push(g.EdgeDst(e), v, &share, 1);
    }
    ctx->SendBatch(std::move(out));
  });

  // Ranks form (roughly) a probability distribution and correlate with
  // in-degree.
  double total = 0.0;
  for (double r : rank) total += r;
  EXPECT_NEAR(total, 1.0, 0.1);
  NodeId max_in = 0, max_rank = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (g.InDegree(v) > g.InDegree(max_in)) max_in = v;
    if (rank[static_cast<std::size_t>(v)] >
        rank[static_cast<std::size_t>(max_rank)]) {
      max_rank = v;
    }
  }
  EXPECT_GT(g.InDegree(max_rank), g.InDegree(max_in) / 4);
}

TEST(PregelEngineTest, MessagesReactivateHaltedWorkers) {
  // Classic Pregel semantics: a vote to halt does not end the job while
  // messages are in flight; the job ends once no messages were sent.
  HashPartitioner partitioner(2);
  PregelEngine::Options options;
  options.num_workers = 2;
  options.max_supersteps = 100;
  PregelEngine engine(options, partitioner);
  std::atomic<int> steps{0};
  const JobMetrics metrics = engine.Run([&](PregelContext* ctx) {
    if (ctx->worker_id() == 0) steps.fetch_add(1);
    // Everyone votes every step, but messages keep flowing until
    // superstep 2 — the job must run through superstep 3 (which
    // receives the last batch and sends nothing).
    ctx->VoteToHalt();
    if (ctx->superstep() <= 2 && ctx->worker_id() == 0) {
      const float zero = 0.0f;
      MessageBatch b;
      b.Push(0, 0, &zero, 1);
      ctx->SendBatch(std::move(b));
    }
  }).ValueOrDie();
  EXPECT_EQ(steps.load(), 4);  // supersteps 0, 1, 2, 3
  EXPECT_EQ(metrics.num_steps(), 4);
}

TEST(PregelEngineTest, StopsWhenNoMessages) {
  HashPartitioner partitioner(2);
  PregelEngine::Options options;
  options.num_workers = 2;
  options.max_supersteps = 100;
  PregelEngine engine(options, partitioner);
  const JobMetrics metrics =
      engine.Run([](PregelContext*) {}).ValueOrDie();
  EXPECT_EQ(metrics.num_steps(), 1);
}

TEST(PregelEngineTest, CrossWorkerBytesAreCharged) {
  // Two workers; node ids chosen so worker 0 sends to worker 1.
  HashPartitioner partitioner(2);
  NodeId on_zero = -1, on_one = -1;
  for (NodeId v = 0; v < 100 && (on_zero < 0 || on_one < 0); ++v) {
    (partitioner.PartitionOf(v) == 0 ? on_zero : on_one) = v;
  }
  PregelEngine::Options options;
  options.num_workers = 2;
  options.max_supersteps = 1;
  PregelEngine engine(options, partitioner);
  const float payload[4] = {1, 2, 3, 4};
  const JobMetrics metrics = engine.Run([&](PregelContext* ctx) {
    if (ctx->worker_id() == 0) {
      MessageBatch remote;
      remote.Push(on_one, on_zero, payload, 4);  // cross-worker
      ctx->SendBatch(std::move(remote));
      MessageBatch local;
      local.Push(on_zero, on_zero, payload, 4);  // local: free
      ctx->SendBatch(std::move(local));
    }
  }).ValueOrDie();
  const WorkerStepMetrics w0 = metrics.workers[0].Total();
  const WorkerStepMetrics w1 = metrics.workers[1].Total();
  EXPECT_EQ(w0.bytes_out, MessageBytes(4));
  EXPECT_EQ(w1.bytes_in, MessageBytes(4));
  EXPECT_EQ(w0.records_out, 2);  // both messages count as records
}

TEST(PregelEngineTest, BroadcastBoardIsReadableNextStep) {
  HashPartitioner partitioner(3);
  PregelEngine::Options options;
  options.num_workers = 3;
  options.max_supersteps = 2;
  PregelEngine engine(options, partitioner);
  std::atomic<int> found{0};
  const JobMetrics metrics = engine.Run([&](PregelContext* ctx) {
    if (ctx->superstep() == 0) {
      if (ctx->worker_id() == 0) {
        const float row[2] = {3.5f, 4.5f};
        ctx->PublishBroadcast(123, row, 2);
      }
      return;
    }
    const std::vector<float>* row = ctx->LookupBroadcast(123);
    if (row != nullptr && (*row)[1] == 4.5f) found.fetch_add(1);
    ctx->VoteToHalt();
  }).ValueOrDie();
  EXPECT_EQ(found.load(), 3);  // visible on every worker
  // Publisher paid num_workers-1 copies.
  EXPECT_EQ(metrics.workers[0].Total().bytes_out, 2 * MessageBytes(2));
}

TEST(PregelEngineTest, CombinerShrinksTrafficWithoutChangingDelivery) {
  HashPartitioner partitioner(2);
  PregelEngine::Options options;
  options.num_workers = 2;
  options.max_supersteps = 2;
  // Sum-combine everything addressed to the same destination node.
  options.combiner = [](std::int64_t, MessageBatch batch) {
    return std::make_pair(CombineMessages(AggKind::kSum, batch, -1), true);
  };
  PregelEngine engine(options, partitioner);

  NodeId on_one = -1;
  for (NodeId v = 0; v < 100 && on_one < 0; ++v) {
    if (partitioner.PartitionOf(v) == 1) on_one = v;
  }
  std::atomic<float> delivered{0.0f};
  std::atomic<std::int64_t> delivered_count{0};
  const JobMetrics metrics = engine.Run([&](PregelContext* ctx) {
    if (ctx->superstep() == 0 && ctx->worker_id() == 0) {
      MessageBatch out;
      for (int i = 0; i < 10; ++i) {
        const float one = 1.0f;
        out.Push(on_one, 0, &one, 1);
      }
      ctx->SendBatch(std::move(out));
      return;
    }
    for (std::size_t bi = 0; bi < ctx->inbox().size(); ++bi) {
      const MessageBatch& b = ctx->inbox()[bi];
      EXPECT_TRUE(ctx->IsPartialBatch(bi));
      for (std::int64_t i = 0; i < b.size(); ++i) {
        delivered = delivered + b.payload.At(i, 0);
        delivered_count += static_cast<std::int64_t>(
            b.payload.At(i, b.payload.cols() - 1));
      }
    }
    ctx->VoteToHalt();
  }).ValueOrDie();
  EXPECT_EQ(delivered.load(), 10.0f);       // sum preserved
  EXPECT_EQ(delivered_count.load(), 10);    // count column preserved
  // One combined record crossed instead of ten.
  EXPECT_EQ(metrics.workers[0].Total().records_out, 1);
}

TEST(PregelEngineTest, DeterministicAcrossRuns) {
  const Dataset d = MakeProductsLike(0.02, /*seed=*/5);
  const Graph& g = d.graph;
  HashPartitioner partitioner(4);
  const PartitionAssignment assignment =
      AssignPartitions(g.num_nodes(), partitioner);
  const auto run_once = [&] {
    PregelEngine::Options options;
    options.num_workers = 4;
    options.max_supersteps = 3;
    PregelEngine engine(options, partitioner);
    std::vector<float> sums(static_cast<std::size_t>(g.num_nodes()), 0.0f);
    std::mutex mu;
    engine.Run([&](PregelContext* ctx) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const MessageBatch& b : ctx->inbox()) {
          for (std::int64_t i = 0; i < b.size(); ++i) {
            sums[static_cast<std::size_t>(
                b.dst[static_cast<std::size_t>(i)])] += b.payload.At(i, 0);
          }
        }
      }
      MessageBatch out;
      for (NodeId v :
           assignment.members[static_cast<std::size_t>(ctx->worker_id())]) {
        const float x = g.node_features().At(v, 0);
        for (EdgeId e : g.OutEdges(v)) out.Push(g.EdgeDst(e), v, &x, 1);
      }
      ctx->SendBatch(std::move(out));
    });
    return sums;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace inferturbo
