#include "src/inference/job_frame.h"

#include <cstring>
#include <string>
#include <utility>

#include "src/inference/strategies.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

/// Validates the job and plans its scatter. The hub threshold comes from
/// the original graph's edge count, before any shadow rewrite.
Result<ScatterPlan> PlanJob(std::int64_t feature_dim, std::int64_t num_edges,
                            const GnnModel& model,
                            const InferTurboOptions& options) {
  if (feature_dim != model.input_dim()) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  return ScatterPlan(model, options.strategies,
                     options.strategies.HubThreshold(num_edges,
                                                     options.num_workers));
}

/// Rows [0, rows) of `t`; an empty tensor stays empty.
Tensor LeadingRows(const Tensor& t, std::int64_t rows) {
  if (t.empty()) return Tensor();
  Tensor out(rows, t.cols());
  std::memcpy(out.data(), t.data(),
              static_cast<std::size_t>(out.size()) * sizeof(float));
  return out;
}

Result<InferenceResult> RunOnGraph(const Graph& graph, const GnnModel& model,
                                   const InferTurboOptions& options,
                                   const ScatterPlan& plan,
                                   GraphBackend backend) {
  InferenceResult result;
  if (options.strategies.shadow_nodes) {
    // Mirrors are appended past the original id range and duplicate
    // their original's answer, so trimming them off is exact.
    INFERTURBO_ASSIGN_OR_RETURN(
        ShadowGraph shadow, ApplyShadowNodes(graph, plan.hub_threshold()));
    INFERTURBO_ASSIGN_OR_RETURN(result,
                                backend(shadow.graph, model, options, plan));
    result.logits = LeadingRows(result.logits, graph.num_nodes());
    result.embeddings = LeadingRows(result.embeddings, graph.num_nodes());
  } else {
    INFERTURBO_ASSIGN_OR_RETURN(result, backend(graph, model, options, plan));
  }
  result.predictions = ArgmaxRows(result.logits);
  return result;
}

}  // namespace

Result<InferenceResult> RunInferenceJob(const Graph& graph,
                                        const GnnModel& model,
                                        const InferTurboOptions& options,
                                        GraphBackend backend) {
  INFERTURBO_ASSIGN_OR_RETURN(
      const ScatterPlan plan,
      PlanJob(graph.feature_dim(), graph.num_edges(), model, options));
  return RunOnGraph(graph, model, options, plan, backend);
}

Result<InferenceResult> RunInferenceJob(const GraphView& view,
                                        const GnnModel& model,
                                        const InferTurboOptions& options,
                                        GraphBackend backend,
                                        ViewBackend stream) {
  if (const Graph* resident = view.resident_graph()) {
    return RunInferenceJob(*resident, model, options, backend);
  }
  INFERTURBO_ASSIGN_OR_RETURN(
      const ScatterPlan plan,
      PlanJob(view.feature_dim(), view.num_edges(), model, options));
  if (stream != nullptr && options.num_workers != view.num_partitions()) {
    return Status::InvalidArgument(
        "num_workers (" + std::to_string(options.num_workers) +
        ") must equal the view's partition count (" +
        std::to_string(view.num_partitions()) +
        "): the shard partitioning is the worker assignment");
  }
  PipelineStats stats;
  InferenceResult result;
  if (stream != nullptr && !options.strategies.shadow_nodes) {
    INFERTURBO_ASSIGN_OR_RETURN(result,
                                stream(view, model, options, plan, &stats));
    result.predictions = ArgmaxRows(result.logits);
  } else {
    // Rebuild the graph through the shard pipeline (I/O for partition
    // p+1 overlaps the rebuild of p) and run the resident path on it.
    INFERTURBO_ASSIGN_OR_RETURN(Graph graph, MaterializeGraph(view, &stats));
    INFERTURBO_ASSIGN_OR_RETURN(
        result, RunOnGraph(graph, model, options, plan, backend));
  }
  result.metrics.storage = view.storage_metrics();
  stats.FoldInto(&result.metrics.storage);
  return result;
}

Status OpenCheckpointStore(const InferTurboOptions& options,
                           std::optional<CheckpointStore>* store) {
  if (options.checkpoint_directory.empty()) return Status::OK();
  CheckpointStoreOptions store_options;
  store_options.directory = options.checkpoint_directory;
  store_options.keep_last = options.checkpoint_keep_last;
  store_options.fault_injector = options.io_fault_injector;
  store_options.retry = options.io_retry;
  INFERTURBO_ASSIGN_OR_RETURN(CheckpointStore opened,
                              CheckpointStore::Open(std::move(store_options)));
  store->emplace(std::move(opened));
  return Status::OK();
}

std::unique_ptr<TaskSupervisor> MakeTaskSupervisor(
    const InferTurboOptions& options) {
  if (!options.supervise_tasks && options.fault_plan == nullptr) {
    return nullptr;
  }
  TaskSupervisionOptions supervision = options.supervision;
  supervision.pool = options.pool;
  supervision.fault_plan = options.fault_plan;
  return std::make_unique<TaskSupervisor>(supervision);
}

}  // namespace inferturbo
