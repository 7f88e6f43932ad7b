#include "src/inference/inferturbo_pregel.h"

#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "src/common/binary_io.h"
#include "src/common/logging.h"
#include "src/gas/gas_conv.h"
#include "src/gas/superstep_gather.h"
#include "src/inference/job_frame.h"
#include "src/pregel/pregel_engine.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/trace.h"
#include "src/tensor/kernels/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor_io.h"

namespace inferturbo {
namespace {

/// Per-worker resident state: the partition's node ids, their current
/// embeddings, and scratch for the gather stage.
struct WorkerState {
  std::vector<NodeId> nodes;  // global ids owned, ascending
  Tensor states;              // (nodes.size() × current_dim)
};

/// The vertex program closure. One instance shared by all workers; all
/// mutable state lives in per-worker slots.
class PregelInferenceDriver {
 public:
  PregelInferenceDriver(const Graph& graph, const GnnModel& model,
                        const InferTurboOptions& options,
                        const PartitionAssignment& assignment,
                        const ScatterPlan& plan)
      : graph_(graph),
        model_(model),
        assignment_(assignment),
        plan_(plan),
        logits_(graph.num_nodes(), model.num_classes()) {
    if (options.export_embeddings) {
      embeddings_ = Tensor(graph.num_nodes(), model.embedding_dim());
    }
    workers_.resize(static_cast<std::size_t>(options.num_workers));
    for (std::int64_t w = 0; w < options.num_workers; ++w) {
      workers_[static_cast<std::size_t>(w)].nodes =
          assignment.members[static_cast<std::size_t>(w)];
    }
  }

  void Compute(PregelContext* ctx) {
    WorkerState& worker = workers_[static_cast<std::size_t>(
        ctx->worker_id())];
    const std::int64_t step = ctx->superstep();
    const std::int64_t num_layers = model_.num_layers();

    // Deferred-commit contract: the compute below reads the superstep's
    // immutable inputs (inbox, board, worker.states as left by the
    // previous superstep) and computes into attempt-local tensors; the
    // writes into shared driver state (worker.states, logits_,
    // embeddings_) happen inside DeferToCommit callbacks, which the
    // engine runs only once the whole superstep's stage has committed.
    // That makes duplicate (speculative) attempts and superstep
    // re-execution safe: no attempt ever mutates what another reads.
    if (step == 0) {
      // Initialization superstep: raw features become layer-0 input
      // states, then scatter layer 0's messages.
      TraceSpan span("pregel/scatter", ctx->worker_id());
      auto states = std::make_shared<Tensor>(
          GatherRows(graph_.node_features(), worker.nodes));
      ctx->ChargeResidentBytes(states->ByteSize());
      ScatterLayer(ctx, worker.nodes, *states, 0);
      ctx->DeferToCommit(
          [&worker, states] { worker.states = std::move(*states); });
      return;
    }

    const std::int64_t layer_index = step - 1;
    const GasConv& layer = model_.layer(layer_index);
    GatherResult gathered;
    {
      TraceSpan span("pregel/gather", ctx->worker_id());
      gathered = GatherInbox(ctx, worker, layer);
    }
    const std::uint64_t gathered_bytes =
        gathered.pooled.ByteSize() + gathered.messages.ByteSize();
    const std::uint64_t old_state_bytes = worker.states.ByteSize();
    auto new_states = std::make_shared<Tensor>();
    {
      TraceSpan span("pregel/apply", ctx->worker_id());
      *new_states = layer.ApplyNode(worker.states, gathered);
    }
    // Old state, vectorized gather result, and new state coexist at
    // the apply_node boundary — the Pregel backend's resident cost.
    ctx->ChargeResidentBytes(old_state_bytes + gathered_bytes +
                             new_states->ByteSize());

    if (layer_index + 1 < num_layers) {
      TraceSpan span("pregel/scatter", ctx->worker_id());
      ScatterLayer(ctx, worker.nodes, *new_states, layer_index + 1);
      ctx->DeferToCommit(
          [&worker, new_states] { worker.states = std::move(*new_states); });
    } else {
      // Last superstep: fuse the prediction slice and emit results.
      TraceSpan span("pregel/scatter", ctx->worker_id());
      auto logits = std::make_shared<Tensor>(
          model_.PredictLogits(*new_states));
      ctx->DeferToCommit([this, &worker, new_states, logits] {
        for (std::size_t i = 0; i < worker.nodes.size(); ++i) {
          logits_.SetRow(worker.nodes[i],
                         logits->RowPtr(static_cast<std::int64_t>(i)));
          if (!embeddings_.empty()) {
            embeddings_.SetRow(
                worker.nodes[i],
                new_states->RowPtr(static_cast<std::int64_t>(i)));
          }
        }
        worker.states = std::move(*new_states);
      });
      ctx->VoteToHalt();
    }
  }

  Tensor TakeLogits() { return std::move(logits_); }
  Tensor TakeEmbeddings() { return std::move(embeddings_); }

  /// Checkpoint hooks: the driver's entire mutable state — per-worker
  /// embeddings plus the result buffer — serialized bit-exactly. The
  /// in-memory snapshots and the durable checkpoint store share it.
  std::string SerializeState() const {
    BinaryWriter out;
    out.PutI64(static_cast<std::int64_t>(workers_.size()));
    for (const WorkerState& w : workers_) {
      out.PutI64s(w.nodes);
      PutTensor(&out, w.states);
    }
    PutTensor(&out, logits_);
    PutTensor(&out, embeddings_);
    return out.Take();
  }
  Status DeserializeState(const std::string& bytes) {
    BinaryReader in(bytes);
    std::int64_t num_workers = 0;
    INFERTURBO_RETURN_NOT_OK(in.GetI64(&num_workers));
    if (num_workers != static_cast<std::int64_t>(workers_.size())) {
      return Status::IoError(
          "checkpointed driver state has " + std::to_string(num_workers) +
          " workers, job has " + std::to_string(workers_.size()));
    }
    for (WorkerState& w : workers_) {
      INFERTURBO_RETURN_NOT_OK(in.GetI64s(&w.nodes));
      INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &w.states));
    }
    INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &logits_));
    INFERTURBO_RETURN_NOT_OK(GetTensor(&in, &embeddings_));
    if (!in.AtEnd()) {
      return Status::IoError("trailing bytes after driver checkpoint state");
    }
    return Status::OK();
  }

 private:
  /// gather_nbrs + aggregate: fold the inbox into a GatherResult in
  /// this worker's local index space through the one message fold
  /// (dense rows, partial rows with their count column, and id-only
  /// broadcast references through their board rows). Bit-identical to
  /// the retained scalar oracle (tests/oracles) at any thread count.
  GatherResult GatherInbox(PregelContext* ctx, const WorkerState& worker,
                           const GasConv& layer) const {
    const std::int64_t local_n =
        static_cast<std::int64_t>(worker.nodes.size());
    std::vector<bool> partial(ctx->inbox().size());
    for (std::size_t bi = 0; bi < partial.size(); ++bi) {
      partial[bi] = ctx->IsPartialBatch(bi);
    }
    return GatherSuperstepInbox(
        layer.signature().agg_kind, layer.signature().message_dim,
        ctx->inbox(), partial, assignment_.local_index, local_n,
        [ctx](NodeId key) { return ctx->LookupBroadcast(key); });
  }

  /// apply_edge + scatter_nbrs for `layer_index`, from the worker's
  /// freshly-computed states (passed explicitly — under the
  /// deferred-commit contract they are attempt-local, not yet published
  /// to WorkerState). Routes per the job's scatter plan:
  ///   - hubs: one payload on the board + id-only rows per edge;
  ///   - partial-gather layers: fold into per-worker accumulators, send
  ///     one partial row per (worker, destination);
  ///   - otherwise: one dense row per out-edge.
  /// An edge-featured layer's out-edges each carry their own merged row
  /// (ExpandEdgeMessages); every other layer's carry the node's row.
  void ScatterLayer(PregelContext* ctx, const std::vector<NodeId>& nodes,
                    const Tensor& states, std::int64_t layer_index) const {
    const GasConv& layer = model_.layer(layer_index);
    const LayerSignature& sig = layer.signature();
    const ScatterPlan::Layer& route = plan_.layer(layer_index);
    const Tensor messages = layer.ComputeMessage(states);
    const std::int64_t num_workers = ctx->num_workers();

    Tensor edge_rows;
    if (route.edge_features) {
      INFERTURBO_CHECK(graph_.has_edge_features())
          << "layer " << sig.layer_type
          << " needs edge features the graph does not have";
      std::vector<std::int64_t> degrees;
      std::vector<std::int64_t> edge_ids;
      for (NodeId v : nodes) {
        const std::span<const EdgeId> out = graph_.OutEdges(v);
        degrees.push_back(static_cast<std::int64_t>(out.size()));
        edge_ids.insert(edge_ids.end(), out.begin(), out.end());
      }
      edge_rows = ExpandEdgeMessages(
          layer, messages, degrees,
          kernels::GatherRows(graph_.edge_features(), edge_ids));
    }
    // The rows out-edges carry, and how far an edge's row index moves
    // past its predecessor's: 0 for a node's row, 1 for per-edge rows.
    const Tensor& rows = route.edge_features ? edge_rows : messages;
    const std::int64_t row_step = route.edge_features ? 1 : 0;
    const std::int64_t msg_dim = sig.message_dim;

    // Partial path: per destination worker, the edges' destination ids
    // and the row each edge carries, collected in (node, edge) order;
    // combined below.
    std::vector<std::vector<NodeId>> part_dst;
    std::vector<std::vector<const float*>> part_rows;
    if (route.partial_gather) {
      part_dst.resize(static_cast<std::size_t>(num_workers));
      part_rows.resize(static_cast<std::size_t>(num_workers));
    }
    // Hub out-edges become id-only reference rows. A partial-gather
    // layer sends all of them before its partial batches. Any other
    // layer sends dense rows and references in node order, one batch per
    // maximal run of each, so a destination folds every worker's
    // messages in node order, as MapReduce does.
    const bool node_order = !route.partial_gather;
    MessageBatch dense;
    MessageBatch refs;
    refs.payload = Tensor(0, 0);
    const auto send_dense = [&] {
      if (dense.empty()) return;
      ctx->SendBatch(std::move(dense));
      dense = MessageBatch();
    };
    const auto send_refs = [&] {
      if (refs.empty()) return;
      ctx->SendBatch(std::move(refs));
      refs = MessageBatch();
      refs.payload = Tensor(0, 0);
    };

    // Out-edges per maximal run of dense nodes (node-order layers), so
    // each run's batch is sized once.
    std::vector<std::int64_t> run_rows;
    std::vector<bool> is_hub(nodes.size(), false);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::int64_t out_degree = graph_.OutDegree(nodes[i]);
      if (plan_.IsHub(layer_index, out_degree)) {
        is_hub[i] = true;
      } else if (node_order) {
        if (i == 0 || is_hub[i - 1]) run_rows.push_back(0);
        run_rows.back() += out_degree;
      }
    }

    std::size_t next_run = 0;
    std::int64_t dense_cursor = 0;
    std::int64_t edge_cursor = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      const std::span<const EdgeId> out = graph_.OutEdges(v);
      std::int64_t r = route.edge_features ? edge_cursor
                                           : static_cast<std::int64_t>(i);
      edge_cursor += static_cast<std::int64_t>(out.size());
      if (is_hub[i]) {
        if (node_order) send_dense();
        ctx->PublishBroadcast(v, rows.RowPtr(r), msg_dim);
        for (EdgeId e : out) {
          refs.dst.push_back(graph_.EdgeDst(e));
          refs.src.push_back(v);
        }
        continue;
      }
      if (route.partial_gather) {
        for (EdgeId e : out) {
          const NodeId d = graph_.EdgeDst(e);
          const auto pw = static_cast<std::size_t>(
              engine_partitioner_->PartitionOf(d));
          part_dst[pw].push_back(d);
          part_rows[pw].push_back(rows.RowPtr(r));
          r += row_step;
        }
        continue;
      }
      if (i == 0 || is_hub[i - 1]) {  // a run of dense nodes starts
        send_refs();
        const std::int64_t run = run_rows[next_run++];
        if (run > 0) {
          dense.Reserve(static_cast<std::size_t>(run), msg_dim);
          dense.payload = Tensor(run, msg_dim);
        }
        dense_cursor = 0;
      }
      for (EdgeId e : out) {
        dense.dst.push_back(graph_.EdgeDst(e));
        dense.src.push_back(v);
        dense.payload.SetRow(dense_cursor++, rows.RowPtr(r));
        r += row_step;
      }
    }
    send_dense();
    send_refs();
    if (route.partial_gather) {
      // Sender-side combine, one partial batch per destination worker,
      // folded straight out of the message rows in (node, edge) order
      // and emitted in first-seen destination order.
      for (std::int64_t w = 0; w < num_workers; ++w) {
        const auto pw = static_cast<std::size_t>(w);
        if (part_dst[pw].empty()) continue;
        ctx->SendPartialBatch(CombineMessages(
            sig.agg_kind, msg_dim, part_dst[pw], std::move(part_rows[pw]),
            assignment_.local_index,
            static_cast<std::int64_t>(assignment_.members[pw].size()),
            ctx->worker_id()));
      }
    }
  }

 public:
  /// Set by RunInferTurboPregel before the job starts (the partitioner
  /// lives in the engine).
  const HashPartitioner* engine_partitioner_ = nullptr;

 private:
  const Graph& graph_;
  const GnnModel& model_;
  const PartitionAssignment& assignment_;
  const ScatterPlan& plan_;
  Tensor logits_;
  Tensor embeddings_;
  std::vector<WorkerState> workers_;
};

/// The Pregel engine run inside the job frame: partition, drive the
/// supersteps, return the raw logits, embeddings and metrics.
Result<InferenceResult> RunPregelEngine(
    const Graph& graph, const GnnModel& model,
    const InferTurboOptions& options, const ScatterPlan& plan) {
  HashPartitioner partitioner(options.num_workers);
  const PartitionAssignment assignment =
      AssignPartitions(graph.num_nodes(), partitioner);

  PregelInferenceDriver driver(graph, model, options, assignment, plan);

  PregelEngine::Options engine_options;
  engine_options.num_workers = options.num_workers;
  engine_options.max_supersteps = model.num_layers() + 1;
  engine_options.cost_model = options.cost_model;
  engine_options.pool = options.pool;
  engine_options.checkpoint_interval = options.checkpoint_interval;
  engine_options.failure_injector = options.failure_injector;

  // Checkpoints carry the driver's state as bytes, both for the
  // in-memory rollback and for the durable store.
  engine_options.serialize_driver = [&driver] {
    return driver.SerializeState();
  };
  engine_options.deserialize_driver = [&driver](const std::string& bytes) {
    return driver.DeserializeState(bytes);
  };
  // Durable store: opened when a checkpoint directory is configured.
  // Durable mode implies checkpointing, so an unset interval means
  // "every superstep".
  std::optional<CheckpointStore> store;
  INFERTURBO_RETURN_NOT_OK(OpenCheckpointStore(options, &store));
  if (store) {
    if (engine_options.checkpoint_interval <= 0) {
      engine_options.checkpoint_interval = 1;
    }
    engine_options.checkpoint_store = &*store;
    engine_options.resume = options.resume_from;
    engine_options.kill_switch = options.kill_switch;
  }
  // Task supervision around every superstep compute task. The driver's
  // deferred-commit Compute makes duplicate attempts and superstep
  // re-execution safe.
  const std::unique_ptr<TaskSupervisor> supervisor =
      MakeTaskSupervisor(options);
  engine_options.supervisor = supervisor.get();

  PregelEngine engine(engine_options, partitioner);
  driver.engine_partitioner_ = &engine.partitioner();

  Result<JobMetrics> run =
      engine.Run([&driver](PregelContext* ctx) { driver.Compute(ctx); });
  if (!run.ok()) {
    // Unrecoverable engine failure: freeze the flight ring now, while
    // the retry/reexec/restore events leading here are still in it.
    DumpFlightRecordOnError("pregel: " + run.status().ToString());
    return run.status();
  }
  options.failures_recovered = engine.failures_recovered();

  InferenceResult result;
  result.logits = driver.TakeLogits();
  result.embeddings = driver.TakeEmbeddings();
  result.metrics = std::move(*run);
  return result;
}

}  // namespace

Result<InferenceResult> RunInferTurboPregel(const Graph& graph,
                                            const GnnModel& model,
                                            const InferTurboOptions& options) {
  return RunInferenceJob(graph, model, options, &RunPregelEngine);
}

// Pregel holds all node state resident anyway, so an out-of-core view
// is materialized and run on the exact original structure.
Result<InferenceResult> RunInferTurboPregel(const GraphView& view,
                                            const GnnModel& model,
                                            const InferTurboOptions& options) {
  return RunInferenceJob(view, model, options, &RunPregelEngine);
}

}  // namespace inferturbo
