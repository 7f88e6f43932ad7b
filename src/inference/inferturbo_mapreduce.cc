#include "src/inference/inferturbo_mapreduce.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/common/binary_io.h"
#include "src/common/logging.h"
#include "src/gas/gas_conv.h"
#include "src/gas/superstep_gather.h"
#include "src/inference/job_frame.h"
#include "src/mapreduce/mapreduce_engine.h"
#include "src/telemetry/flight_recorder.h"
#include "src/tensor/kernels/row_fold.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

/// The MR driver's only cross-round mutable state outside the dataflow
/// is the broadcast table. Keys are written sorted so the bytes are
/// deterministic (bit-identical resume contract).
std::string EncodeBroadcastTable(
    const std::unordered_map<NodeId, std::vector<float>>& table) {
  std::vector<NodeId> keys;
  keys.reserve(table.size());
  for (const auto& [key, row] : table) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  BinaryWriter out;
  out.PutU64(keys.size());
  for (const NodeId key : keys) {
    out.PutI64(key);
    out.PutFloats(table.at(key));
  }
  return out.Take();
}

Status DecodeBroadcastTable(
    std::string_view bytes,
    std::unordered_map<NodeId, std::vector<float>>* table) {
  BinaryReader in(bytes);
  std::uint64_t count = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetU64(&count));
  constexpr std::uint64_t kMinEntryBytes =
      sizeof(NodeId) + sizeof(std::uint64_t);
  if (count > bytes.size() / kMinEntryBytes + 1) {
    return Status::IoError("corrupt broadcast table count " +
                           std::to_string(count));
  }
  table->clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    NodeId key = 0;
    std::vector<float> row;
    INFERTURBO_RETURN_NOT_OK(in.GetI64(&key));
    INFERTURBO_RETURN_NOT_OK(in.GetFloats(&row));
    (*table)[key] = std::move(row);
  }
  if (!in.AtEnd()) {
    return Status::IoError("trailing bytes after broadcast table");
  }
  return Status::OK();
}

/// Record tags on the MapReduce dataflow.
enum RecordTag : std::int32_t {
  kSelfState = 1,   ///< floats = node's current embedding
  kOutEdges = 2,    ///< ids = out-neighbor node ids
  kInMessage = 3,   ///< floats = one in-edge message row, src = sender
  kPartialAgg = 4,  ///< floats = pooled sums, ids = {count}
  kRef = 5,         ///< broadcast reference, src = hub id
  kPrediction = 6,  ///< floats = logits row (final round output)
  kEmbedding = 7,   ///< floats = final-layer state (optional output)
};

/// Orchestrates the Map + k-Reduce pipeline. Reads the graph solely
/// through a GraphView, one partition per map instance — the driver
/// never needs the whole graph resident, which is what lets the same
/// code run in-memory and out-of-core with bit-identical output.
class MrInferenceDriver {
 public:
  MrInferenceDriver(const GraphView& view, const GnnModel& model,
                    const InferTurboOptions& options, const ScatterPlan& plan)
      : view_(view), model_(model), options_(options), plan_(plan) {
    INFERTURBO_CHECK(!plan.ships_edge_features() || view.edge_feature_dim() > 0)
        << "model needs edge features the graph does not have";
  }

  /// Runs the job; the map stage's shard pipeline accounting is merged
  /// into `pipeline_stats` when given.
  Result<InferenceResult> Run(PipelineStats* pipeline_stats) {
    MapReduceJob::Options job_options;
    job_options.num_instances = options_.num_workers;
    job_options.cost_model = options_.cost_model;
    job_options.pool = options_.pool;
    job_options.failure_injector = options_.failure_injector;
    job_options.spill_directory = options_.mr_spill_directory;
    job_options.fault_injector = options_.io_fault_injector;
    job_options.retry = options_.io_retry;
    // One supervisor for the whole job: quarantine decisions and
    // supervision counters span the map stage and every reduce round.
    const std::unique_ptr<TaskSupervisor> supervisor =
        MakeTaskSupervisor(options_);
    job_options.supervisor = supervisor.get();
    MapReduceJob job(job_options);

    // Durable round checkpoints: stage 0 is the map, stage l+1 is
    // reduce round l; a checkpoint at stage s means stages <= s are
    // durable and a resumed process re-enters at stage s+1.
    std::optional<CheckpointStore> store;
    INFERTURBO_RETURN_NOT_OK(OpenCheckpointStore(options_, &store));
    std::int64_t completed_stage = -1;  // nothing durable yet
    if (store && options_.resume_from) {
      Result<CheckpointData> latest = store->LoadLatest();
      if (latest.ok()) {
        RecordFlightEvent(FlightEventKind::kCheckpointRestore,
                          "mapreduce/resume", latest->step);
        INFERTURBO_RETURN_NOT_OK(job.RestoreDataflow(latest->engine_state));
        // The table is restored directly — not via FlushBroadcastStaging,
        // which would charge the side channel a second time (and touch
        // metrics steps a resumed job does not have yet).
        INFERTURBO_RETURN_NOT_OK(
            DecodeBroadcastTable(latest->driver_state, &broadcast_table_));
        completed_stage = latest->step;
      } else if (!latest.status().IsNotFound()) {
        return latest.status();
      }
      // NotFound: the job died before its first checkpoint — fresh run.
    }
    const auto save_checkpoint = [&](std::int64_t stage) {
      if (!store) return Status::OK();
      RecordFlightEvent(FlightEventKind::kCheckpointSave,
                        "mapreduce/checkpoint", stage);
      CheckpointData data;
      data.step = stage;
      data.engine_state = job.SerializeDataflow();
      data.driver_state = EncodeBroadcastTable(broadcast_table_);
      return store->Save(data);
    };
    const auto killed = [this](std::int64_t stage) {
      return options_.kill_switch && options_.kill_switch(stage)
                 ? Status::Aborted("job killed before stage " +
                                   std::to_string(stage) +
                                   " (simulated process death)")
                 : Status::OK();
    };

    if (completed_stage < 0) {
      INFERTURBO_RETURN_NOT_OK(killed(0));
      {
        // Double-buffered streaming for the map stage: the dedicated
        // loader thread fills partition p+1 while instance p computes,
        // handing off through an explicit ready-future (passthrough —
        // no thread — for in-memory views).
        ShardPipeline pipeline(view_);
        const Status map_status = job.RunMap(
            [this, &pipeline](std::int64_t instance, MrEmitter* emitter) {
              MapStage(&pipeline, instance, emitter);
            });
        if (pipeline_stats != nullptr) pipeline_stats->Merge(pipeline.stats());
        INFERTURBO_RETURN_NOT_OK(map_status);
      }
      // MapFn cannot return a Status; partition-acquire failures (e.g.
      // a corrupt shard) land here instead of crashing the pool.
      {
        std::lock_guard<std::mutex> lock(map_error_mutex_);
        INFERTURBO_RETURN_NOT_OK(map_error_);
      }
      FlushBroadcastStaging(&job);
      INFERTURBO_RETURN_NOT_OK(save_checkpoint(0));
    }

    const std::int64_t num_layers = model_.num_layers();
    for (std::int64_t l = 0; l < num_layers; ++l) {
      const std::int64_t stage = l + 1;
      if (stage <= completed_stage) continue;  // already durable
      INFERTURBO_RETURN_NOT_OK(killed(stage));
      MapReduceJob::CombineFn combiner;
      if (plan_.layer(l).partial_gather) {
        const LayerSignature& sig = model_.layer(l).signature();
        const AggKind kind = sig.agg_kind;
        const std::int64_t msg_dim = sig.message_dim;
        combiner = [kind, msg_dim](const MrBlock& block,
                                   std::span<const std::uint32_t> run,
                                   MrEmitter* out) {
          CombineInMessages(kind, msg_dim, block, run, out);
        };
      }
      INFERTURBO_RETURN_NOT_OK(job.RunReduce(
          [this, l](const MrKeyGroups& input, MrEmitter* emitter) {
            ReduceLayer(l, input, emitter);
          },
          combiner ? &combiner : nullptr));
      FlushBroadcastStaging(&job);
      INFERTURBO_RETURN_NOT_OK(save_checkpoint(stage));
    }

    // Collect kPrediction (and optional kEmbedding) rows.
    const std::int64_t num_nodes = view_.num_nodes();
    InferenceResult result;
    result.logits = Tensor(num_nodes, model_.num_classes());
    if (options_.export_embeddings) {
      result.embeddings = Tensor(num_nodes, model_.embedding_dim());
    }
    std::vector<bool> seen(static_cast<std::size_t>(num_nodes), false);
    const MrBlock outputs = job.TakeOutputs();
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const NodeId v = outputs.keys[i];
      if (outputs.tags[i] == kEmbedding) {
        result.embeddings.SetRow(v, outputs.Floats(i).data());
        continue;
      }
      if (outputs.tags[i] != kPrediction) continue;
      result.logits.SetRow(v, outputs.Floats(i).data());
      seen[static_cast<std::size_t>(v)] = true;
    }
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (!seen[static_cast<std::size_t>(v)]) {
        return Status::Internal("node " + std::to_string(v) +
                                " produced no prediction");
      }
    }
    result.metrics = job.metrics();
    if (supervisor) result.metrics.supervision = supervisor->metrics();
    options_.failures_recovered = job.failures_recovered();
    return result;
  }

 private:
  /// Out-adjacency of one node as shipped on the dataflow: its
  /// out-neighbours, and their edge-feature rows when a layer needs them.
  struct OutEdges {
    std::span<const std::int64_t> dst;
    std::span<const float> feats;
  };

  /// Map-side combine of one key's run: this producer's foldable rows
  /// (kInMessage of message width, kPartialAgg) fold into one
  /// kPartialAgg record, written in place at the end of the output; the
  /// other records pass through first, in run order.
  static void CombineInMessages(AggKind kind, std::int64_t msg_dim,
                                const MrBlock& block,
                                std::span<const std::uint32_t> run,
                                MrEmitter* out) {
    INFERTURBO_CHECK(kind != AggKind::kUnion) << "union is not combinable";
    // Dispatched SIMD row fold: the max/min selects match
    // std::max/std::min exactly (see row_fold.h).
    const kernels::detail::RowFoldFn fold =
        kind == AggKind::kMax   ? kernels::detail::RowMax()
        : kind == AggKind::kMin ? kernels::detail::RowMin()
                                : kernels::detail::RowAdd();
    const auto foldable = [&](std::uint32_t i) {
      return (block.tags[i] == kInMessage &&
              static_cast<std::int64_t>(block.Floats(i).size()) == msg_dim) ||
             block.tags[i] == kPartialAgg;
    };
    for (const std::uint32_t i : run) {
      if (!foldable(i)) out->block().AppendRecord(block, i);
    }
    // The first foldable row is emitted as the partial; later rows fold
    // into its floats and count (nothing else is appended meanwhile).
    MrBlock& partial = out->block();
    float* acc = nullptr;
    std::int64_t width = 0;
    for (const std::uint32_t i : run) {
      if (!foldable(i)) continue;
      const std::int64_t count =
          block.tags[i] == kPartialAgg ? block.Ids(i)[0] : 1;
      if (acc == nullptr) {
        out->Emit(block.keys[i], kPartialAgg, /*src=*/-1, block.Floats(i),
                  std::span<const std::int64_t>(&count, 1));
        width = static_cast<std::int64_t>(block.Floats(i).size());
        acc = partial.floats.data() + partial.floats.size() - width;
        continue;
      }
      fold(acc, block.Floats(i).data(), width);
      partial.ids.back() += count;
    }
  }

  /// The initialization stage: map instance p streams partition p of
  /// the view through the shard pipeline, whose loader thread is
  /// already filling p+1 while this instance computes. Raw features
  /// become layer-0 states, which enter the dataflow with the out-edges
  /// and layer-0 messages.
  void MapStage(ShardPipeline* pipeline, std::int64_t instance,
                MrEmitter* emitter) {
    Result<PartitionSlice> acquired = pipeline->Acquire(instance);
    if (!acquired.ok()) {
      RecordMapError(acquired.status());
      return;
    }
    const PartitionSlice& slice = *acquired;
    const std::size_t n = slice.nodes.size();
    if (n == 0) return;
    const std::size_t fd = static_cast<std::size_t>(view_.feature_dim());
    const std::size_t efd =
        plan_.ships_edge_features()
            ? static_cast<std::size_t>(view_.edge_feature_dim())
            : 0;
    Tensor states(static_cast<std::int64_t>(n), static_cast<std::int64_t>(fd));
    std::memcpy(states.data(), slice.node_features, n * fd * sizeof(float));
    std::vector<OutEdges> adjacency(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto begin = static_cast<std::size_t>(slice.out_offsets[i]);
      const auto degree =
          static_cast<std::size_t>(slice.out_offsets[i + 1]) - begin;
      adjacency[i].dst = slice.out_dst.subspan(begin, degree);
      if (efd > 0) {
        adjacency[i].feats = {slice.edge_features + begin * efd,
                              degree * efd};
      }
    }
    EmitLayerInputs(0, slice.nodes, states, adjacency, emitter);
  }

  void RecordMapError(const Status& status) {
    std::lock_guard<std::mutex> lock(map_error_mutex_);
    if (map_error_.ok()) map_error_ = status;
  }

  static std::span<const float> RowSpan(const Tensor& t, std::int64_t row) {
    return {t.RowPtr(row), static_cast<std::size_t>(t.cols())};
  }

  /// One GNN layer over every key group of one reducer, as a batch:
  /// group g's messages fold into segment g of one BucketedInbox, then
  /// one ApplyNode and one ComputeMessage (or PredictLogits) call run
  /// over all groups, and EmitLayerInputs re-emits the batch.
  void ReduceLayer(std::int64_t layer_index, const MrKeyGroups& input,
                   MrEmitter* emitter) {
    const std::size_t groups = input.num_groups();
    if (groups == 0) return;
    const GasConv& layer = model_.layer(layer_index);
    const LayerSignature& sig = layer.signature();
    const AggKind kind = sig.agg_kind;
    const std::int64_t msg_dim = sig.message_dim;
    const MrBlock& records = input.records;
    const auto is_message = [](std::int32_t tag) {
      return tag == kInMessage || tag == kRef || tag == kPartialAgg;
    };

    // First pass: locate each group's state and out-edges, count rows.
    std::vector<std::int64_t> state_record(groups, -1);
    std::vector<std::int64_t> edges_record(groups, -1);
    std::int64_t msg_rows = 0;
    bool any_partial = false;
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t i = input.group_offsets[g];
           i < input.group_offsets[g + 1]; ++i) {
        const std::int32_t tag = records.tags[i];
        INFERTURBO_CHECK(tag != kPrediction && tag != kEmbedding)
            << "output record in a reduce round";
        if (tag == kSelfState) state_record[g] = static_cast<std::int64_t>(i);
        if (tag == kOutEdges) edges_record[g] = static_cast<std::int64_t>(i);
        if (is_message(tag)) ++msg_rows;
        any_partial = any_partial || tag == kPartialAgg;
      }
      INFERTURBO_CHECK(state_record[g] >= 0)
          << "node " << input.key(g) << " lost its self-state record";
    }
    INFERTURBO_CHECK(kind != AggKind::kUnion || !any_partial)
        << "union layer received a partial aggregate";

    const std::size_t state_dim =
        records.Floats(static_cast<std::size_t>(state_record[0])).size();
    Tensor states(static_cast<std::int64_t>(groups),
                  static_cast<std::int64_t>(state_dim));
    // Group g's message rows go to segment g in ARRIVAL order — the fold
    // order both backends' bit-identity contract pins.
    BucketedInbox inbox;
    inbox.rows = Tensor(msg_rows, msg_dim);
    inbox.dst.resize(static_cast<std::size_t>(msg_rows));
    if (any_partial) inbox.counts.assign(static_cast<std::size_t>(msg_rows), 1);
    const std::size_t row_bytes =
        static_cast<std::size_t>(msg_dim) * sizeof(float);
    std::int64_t row = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::span<const float> state =
          records.Floats(static_cast<std::size_t>(state_record[g]));
      INFERTURBO_CHECK(state.size() == state_dim) << "ragged self states";
      std::memcpy(states.RowPtr(static_cast<std::int64_t>(g)), state.data(),
                  state_dim * sizeof(float));
      for (std::size_t i = input.group_offsets[g];
           i < input.group_offsets[g + 1]; ++i) {
        const std::int32_t tag = records.tags[i];
        if (!is_message(tag)) continue;
        const float* payload = nullptr;
        if (tag == kRef) {
          const std::vector<float>* value = LookupBroadcast(records.src[i]);
          INFERTURBO_CHECK(value != nullptr)
              << "missing broadcast value for hub " << records.src[i];
          payload = value->data();
        } else {
          INFERTURBO_CHECK(
              static_cast<std::int64_t>(records.Floats(i).size()) == msg_dim)
              << "message width " << records.Floats(i).size() << " vs "
              << msg_dim;
          payload = records.Floats(i).data();
          if (tag == kPartialAgg) {
            inbox.counts[static_cast<std::size_t>(row)] = records.Ids(i)[0];
          }
        }
        std::memcpy(inbox.rows.RowPtr(row), payload, row_bytes);
        inbox.dst[static_cast<std::size_t>(row)] =
            static_cast<std::int64_t>(g);
        ++row;
      }
    }

    const GatherResult gathered = ReduceBucketedInbox(
        kind, std::move(inbox), static_cast<std::int64_t>(groups));
    const Tensor new_state = layer.ApplyNode(states, gathered);

    if (layer_index + 1 == model_.num_layers()) {
      const Tensor logits = model_.PredictLogits(new_state);
      const bool embed = options_.export_embeddings;
      emitter->block().Reserve(
          groups * (embed ? 2 : 1),
          groups * static_cast<std::size_t>(
                       logits.cols() + (embed ? new_state.cols() : 0)),
          0);
      for (std::size_t g = 0; g < groups; ++g) {
        const auto r = static_cast<std::int64_t>(g);
        emitter->Emit(input.key(g), kPrediction, /*src=*/-1,
                      RowSpan(logits, r));
        if (embed) {
          emitter->Emit(input.key(g), kEmbedding, /*src=*/-1,
                        RowSpan(new_state, r));
        }
      }
      return;
    }

    // Re-emit persistent records and the next layer's messages.
    std::vector<NodeId> keys(groups);
    std::vector<OutEdges> adjacency(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      keys[g] = input.key(g);
      if (edges_record[g] < 0) continue;
      const auto e = static_cast<std::size_t>(edges_record[g]);
      adjacency[g] = {records.Ids(e), records.Floats(e)};
    }
    EmitLayerInputs(layer_index + 1, keys, new_state, adjacency, emitter);
  }

  /// Emits what reduce round `layer_index` needs from these nodes: every
  /// node's state and out-edges, then each node's messages along its
  /// out-edges — the merged per-edge rows for edge-featured layers,
  /// broadcast refs for hubs, dense rows otherwise (map-side partial
  /// aggregation is the engine combiner's job). Messages go out node by
  /// node, so a destination's arrival order — and with it every fold
  /// order — does not depend on how many nodes share a batch; the state
  /// records come first so the shuffle reads their payloads in runs.
  void EmitLayerInputs(std::int64_t layer_index, std::span<const NodeId> keys,
                       const Tensor& states,
                       std::span<const OutEdges> adjacency,
                       MrEmitter* emitter) {
    const GasConv& layer = model_.layer(layer_index);
    const Tensor messages = layer.ComputeMessage(states);
    std::vector<std::int64_t> degrees;
    std::size_t edges = 0, edge_floats = 0;
    for (const OutEdges& out : adjacency) {
      degrees.push_back(static_cast<std::int64_t>(out.dst.size()));
      edges += out.dst.size();
      edge_floats += out.feats.size();
    }
    Tensor edge_rows;  // edge-featured layers: one row per out-edge
    if (plan_.layer(layer_index).edge_features) {
      Tensor feats(static_cast<std::int64_t>(edges), view_.edge_feature_dim());
      float* cursor = feats.data();
      for (const OutEdges& out : adjacency) {
        cursor = std::copy(out.feats.begin(), out.feats.end(), cursor);
      }
      edge_rows = ExpandEdgeMessages(layer, messages, degrees, feats);
    }
    emitter->block().Reserve(
        2 * keys.size() + edges,
        static_cast<std::size_t>(states.size()) + edge_floats +
            edges * static_cast<std::size_t>(
                        std::max(messages.cols(), edge_rows.cols())),
        2 * edges);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      emitter->Emit(keys[i], kSelfState, /*src=*/-1,
                    RowSpan(states, static_cast<std::int64_t>(i)));
      emitter->Emit(keys[i], kOutEdges, /*src=*/-1, adjacency[i].feats,
                    adjacency[i].dst);
    }
    std::int64_t edge_row = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const NodeId v = keys[i];
      const auto r = static_cast<std::int64_t>(i);
      const OutEdges& out = adjacency[i];
      if (plan_.layer(layer_index).edge_features) {
        for (const NodeId d : out.dst) {
          emitter->Emit(d, kInMessage, v, RowSpan(edge_rows, edge_row++));
        }
      } else if (plan_.IsHub(layer_index,
                             static_cast<std::int64_t>(out.dst.size()))) {
        {
          // Idempotent under supervised duplicate attempts: both write
          // the same deterministic bytes for v, so last-write-wins is
          // byte-identical to exactly-once.
          std::lock_guard<std::mutex> lock(broadcast_mutex_);
          broadcast_staging_[v].assign(messages.RowPtr(r),
                                       messages.RowPtr(r) + messages.cols());
        }
        for (const NodeId d : out.dst) emitter->Emit(d, kRef, v);
      } else {
        for (const NodeId d : out.dst) {
          emitter->Emit(d, kInMessage, v, RowSpan(messages, r));
        }
      }
    }
  }

  const std::vector<float>* LookupBroadcast(NodeId key) const {
    const auto it = broadcast_table_.find(key);
    return it == broadcast_table_.end() ? nullptr : &it->second;
  }

  /// Promotes this round's staged hub payloads to the readable table
  /// and charges the side channel: one copy to every other instance
  /// (the Spark-broadcast cost model).
  void FlushBroadcastStaging(MapReduceJob* job) {
    broadcast_table_ = std::move(broadcast_staging_);
    broadcast_staging_.clear();
    if (broadcast_table_.empty()) return;
    JobMetrics* metrics = job->mutable_metrics();
    const std::int64_t instances = job->num_instances();
    for (const auto& [key, row] : broadcast_table_) {
      const std::uint64_t wire = MessageBytes(row.size());
      const std::int64_t owner =
          MapReduceJob::InstanceForKey(key, instances);
      WorkerMetrics& w = metrics->workers[static_cast<std::size_t>(owner)];
      w.steps.back().bytes_out +=
          wire * static_cast<std::uint64_t>(instances - 1);
      w.steps.back().records_out += instances - 1;
      for (std::int64_t d = 0; d < instances; ++d) {
        if (d == owner) continue;
        WorkerMetrics& r = metrics->workers[static_cast<std::size_t>(d)];
        r.steps.back().bytes_in += wire;
        ++r.steps.back().records_in;
      }
    }
  }

  const GraphView& view_;
  const GnnModel& model_;
  const InferTurboOptions& options_;
  const ScatterPlan& plan_;
  std::mutex map_error_mutex_;
  /// First failure from a map instance (MapFn cannot return Status).
  Status map_error_ = Status::OK();

  std::mutex broadcast_mutex_;
  std::unordered_map<NodeId, std::vector<float>> broadcast_staging_;
  std::unordered_map<NodeId, std::vector<float>> broadcast_table_;
};

/// The MapReduce engine run inside the job frame: map instance p
/// streams partition p of `view`; returns the raw logits, embeddings and
/// metrics.
Result<InferenceResult> RunMapReduceEngine(
    const GraphView& view, const GnnModel& model,
    const InferTurboOptions& options, const ScatterPlan& plan,
    PipelineStats* pipeline_stats) {
  MrInferenceDriver driver(view, model, options, plan);
  Result<InferenceResult> result = driver.Run(pipeline_stats);
  if (!result.ok()) {
    // Unrecoverable dataflow failure: freeze the flight ring now, while
    // the retry/restore events leading here are still in it.
    DumpFlightRecordOnError("mapreduce: " + result.status().ToString());
  }
  return result;
}

Result<InferenceResult> RunMapReduceOnGraph(
    const Graph& graph, const GnnModel& model,
    const InferTurboOptions& options, const ScatterPlan& plan) {
  const InMemoryGraphView view(graph, options.num_workers);
  return RunMapReduceEngine(view, model, options, plan, nullptr);
}

}  // namespace

Result<InferenceResult> RunInferTurboMapReduce(
    const Graph& graph, const GnnModel& model,
    const InferTurboOptions& options) {
  return RunInferenceJob(graph, model, options, &RunMapReduceOnGraph);
}

Result<InferenceResult> RunInferTurboMapReduce(
    const GraphView& view, const GnnModel& model,
    const InferTurboOptions& options) {
  return RunInferenceJob(view, model, options, &RunMapReduceOnGraph,
                         &RunMapReduceEngine);
}

}  // namespace inferturbo
