#include "src/pregel/algorithms.h"

#include <limits>
#include <mutex>
#include <utility>

#include "src/common/logging.h"
#include "src/gas/superstep_gather.h"
#include "src/pregel/pregel_engine.h"

namespace inferturbo {
namespace {

/// Shared boilerplate: partition assignment + engine construction.
struct AlgorithmRun {
  AlgorithmRun(const Graph& graph, const PregelAlgorithmOptions& options)
      : partitioner(options.num_workers),
        assignment(AssignPartitions(graph.num_nodes(), partitioner)) {
    engine_options.num_workers = options.num_workers;
    engine_options.max_supersteps = options.max_iterations;
    engine_options.cost_model = options.cost_model;
  }

  HashPartitioner partitioner;
  PartitionAssignment assignment;
  PregelEngine::Options engine_options;
};

}  // namespace

std::vector<double> PageRank(const Graph& graph,
                             const PregelAlgorithmOptions& options,
                             double damping, JobMetrics* metrics) {
  AlgorithmRun run(graph, options);
  const std::int64_t n = graph.num_nodes();
  std::vector<double> rank(static_cast<std::size_t>(n),
                           n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  std::vector<double> incoming(static_cast<std::size_t>(n), 0.0);
  std::mutex mu;

  // Sum-combine contributions headed to the same destination.
  run.engine_options.combiner = [](std::int64_t, MessageBatch batch) {
    return std::make_pair(CombineMessages(AggKind::kSum, batch, -1), true);
  };
  PregelEngine engine(run.engine_options, run.partitioner);

  // No failure injection on the algorithm paths, so Run cannot fail.
  const JobMetrics job = std::move(engine.Run([&](PregelContext* ctx) {
    const auto& mine =
        run.assignment.members[static_cast<std::size_t>(ctx->worker_id())];
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
    std::int64_t rows = 0;
    for (NodeId v : mine) rows += graph.OutDegree(v) > 0 ? graph.OutDegree(v)
                                                         : 0;
    out.Reserve(static_cast<std::size_t>(rows), 1);
    out.payload = Tensor(rows, 1);
    std::int64_t cursor = 0;
    for (NodeId v : mine) {
      const std::int64_t degree = graph.OutDegree(v);
      if (degree == 0) continue;
      const float share = static_cast<float>(
          rank[static_cast<std::size_t>(v)] / static_cast<double>(degree));
      for (EdgeId e : graph.OutEdges(v)) {
        out.dst.push_back(graph.EdgeDst(e));
        out.src.push_back(v);
        out.payload.At(cursor++, 0) = share;
      }
    }
    ctx->SendBatch(std::move(out));
  })).ValueOrDie();
  if (metrics != nullptr) *metrics = job;
  return rank;
}

std::vector<std::int64_t> ShortestPaths(const Graph& graph, NodeId source,
                                        const PregelAlgorithmOptions& options,
                                        JobMetrics* metrics) {
  INFERTURBO_CHECK(0 <= source && source < graph.num_nodes())
      << "SSSP source out of range";
  AlgorithmRun run(graph, options);
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> distance(
      static_cast<std::size_t>(graph.num_nodes()), kInf);
  std::mutex mu;

  PregelEngine engine(run.engine_options, run.partitioner);
  // No failure injection on the algorithm paths, so Run cannot fail.
  const JobMetrics job = std::move(engine.Run([&](PregelContext* ctx) {
    const auto& mine =
        run.assignment.members[static_cast<std::size_t>(ctx->worker_id())];
    // Nodes whose distance improved this superstep re-scatter.
    std::vector<NodeId> improved;
    if (ctx->superstep() == 0) {
      if (run.partitioner.PartitionOf(source) == ctx->worker_id()) {
        std::lock_guard<std::mutex> lock(mu);
        distance[static_cast<std::size_t>(source)] = 0;
        improved.push_back(source);
      }
    } else {
      std::lock_guard<std::mutex> lock(mu);
      for (const MessageBatch& b : ctx->inbox()) {
        for (std::int64_t i = 0; i < b.size(); ++i) {
          const NodeId v = b.dst[static_cast<std::size_t>(i)];
          const auto candidate =
              static_cast<std::int64_t>(b.payload.At(i, 0));
          if (candidate < distance[static_cast<std::size_t>(v)]) {
            distance[static_cast<std::size_t>(v)] = candidate;
            improved.push_back(v);
          }
        }
      }
    }
    (void)mine;
    MessageBatch out;
    for (NodeId v : improved) {
      const float next = static_cast<float>(
          distance[static_cast<std::size_t>(v)] + 1);
      for (EdgeId e : graph.OutEdges(v)) {
        out.Push(graph.EdgeDst(e), v, &next, 1);
      }
    }
    ctx->SendBatch(std::move(out));
    ctx->VoteToHalt();  // reactivated by messages: classic SSSP halting
  })).ValueOrDie();
  if (metrics != nullptr) *metrics = job;
  std::vector<std::int64_t> result(distance.size());
  for (std::size_t i = 0; i < distance.size(); ++i) {
    result[i] = distance[i] == kInf ? -1 : distance[i];
  }
  return result;
}

std::vector<NodeId> ConnectedComponents(
    const Graph& graph, const PregelAlgorithmOptions& options,
    JobMetrics* metrics) {
  AlgorithmRun run(graph, options);
  std::vector<NodeId> label(static_cast<std::size_t>(graph.num_nodes()));
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    label[static_cast<std::size_t>(v)] = v;
  }
  std::mutex mu;

  PregelEngine engine(run.engine_options, run.partitioner);
  // No failure injection on the algorithm paths, so Run cannot fail.
  const JobMetrics job = std::move(engine.Run([&](PregelContext* ctx) {
    const auto& mine =
        run.assignment.members[static_cast<std::size_t>(ctx->worker_id())];
    std::vector<NodeId> improved;
    if (ctx->superstep() == 0) {
      improved.assign(mine.begin(), mine.end());
    } else {
      std::lock_guard<std::mutex> lock(mu);
      for (const MessageBatch& b : ctx->inbox()) {
        for (std::int64_t i = 0; i < b.size(); ++i) {
          const NodeId v = b.dst[static_cast<std::size_t>(i)];
          const auto candidate = static_cast<NodeId>(b.payload.At(i, 0));
          if (candidate < label[static_cast<std::size_t>(v)]) {
            label[static_cast<std::size_t>(v)] = candidate;
            improved.push_back(v);
          }
        }
      }
    }
    MessageBatch out;
    for (NodeId v : improved) {
      const float value = static_cast<float>(
          label[static_cast<std::size_t>(v)]);
      // Weak connectivity: propagate along both directions.
      for (EdgeId e : graph.OutEdges(v)) {
        out.Push(graph.EdgeDst(e), v, &value, 1);
      }
      for (EdgeId e : graph.InEdges(v)) {
        out.Push(graph.EdgeSrc(e), v, &value, 1);
      }
    }
    ctx->SendBatch(std::move(out));
    ctx->VoteToHalt();
  })).ValueOrDie();
  if (metrics != nullptr) *metrics = job;
  return label;
}

}  // namespace inferturbo
