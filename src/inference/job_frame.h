#ifndef INFERTURBO_INFERENCE_JOB_FRAME_H_
#define INFERTURBO_INFERENCE_JOB_FRAME_H_

#include <memory>
#include <optional>

#include "src/checkpoint/checkpoint_store.h"
#include "src/common/result.h"
#include "src/graph/graph.h"
#include "src/inference/options.h"
#include "src/inference/result.h"
#include "src/inference/scatter_plan.h"
#include "src/nn/model.h"
#include "src/runtime/task_supervisor.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_pipeline.h"

namespace inferturbo {

// The job frame both inference drivers share: a driver supplies only
// its engine run, handed the job's one ScatterPlan.

/// An engine run over a resident (possibly shadow-rewritten) graph,
/// returning logits, embeddings and metrics.
using GraphBackend = Result<InferenceResult> (*)(
    const Graph&, const GnnModel&, const InferTurboOptions&,
    const ScatterPlan&);
/// An engine run that streams an out-of-core view itself, merging its
/// shard pipeline accounting into the PipelineStats.
using ViewBackend = Result<InferenceResult> (*)(
    const GraphView&, const GnnModel&, const InferTurboOptions&,
    const ScatterPlan&, PipelineStats*);

/// Validates the job, builds its ScatterPlan, applies the shadow-node
/// rewrite when on (trimming the mirror rows off the outputs), runs
/// `backend` and fills the predictions.
Result<InferenceResult> RunInferenceJob(const Graph& graph,
                                        const GnnModel& model,
                                        const InferTurboOptions& options,
                                        GraphBackend backend);

/// A view over a resident graph runs the graph entry. Otherwise
/// `stream` runs over the view — unless it is null or the shadow
/// rewrite needs the whole graph, in which case the view is
/// materialized (MaterializeGraph keeps the original edge order, so
/// the bytes match) and `backend` runs on it.
/// A streaming backend takes the view's partitioning as its worker
/// assignment, so num_workers must equal the partition count.
/// result.metrics.storage carries the view's storage counters.
Result<InferenceResult> RunInferenceJob(const GraphView& view,
                                        const GnnModel& model,
                                        const InferTurboOptions& options,
                                        GraphBackend backend,
                                        ViewBackend stream = nullptr);

/// Opens the durable checkpoint store when checkpoint_directory is set;
/// leaves `store` empty otherwise.
Status OpenCheckpointStore(const InferTurboOptions& options,
                           std::optional<CheckpointStore>* store);

/// The job's one task supervisor (deadlines, retry, speculation,
/// quarantine), or null when supervision is off.
std::unique_ptr<TaskSupervisor> MakeTaskSupervisor(
    const InferTurboOptions& options);

}  // namespace inferturbo

#endif  // INFERTURBO_INFERENCE_JOB_FRAME_H_
