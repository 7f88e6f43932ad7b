#include "src/inference/inferturbo_mapreduce.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/checkpoint/checkpoint_store.h"
#include "src/common/binary_io.h"
#include "src/common/logging.h"
#include "src/gas/gas_conv.h"
#include "src/gas/superstep_gather.h"
#include "src/mapreduce/mapreduce_engine.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_pipeline.h"
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
                    const InferTurboOptions& options,
                    std::int64_t hub_threshold)
      : view_(view),
        model_(model),
        options_(options),
        hub_threshold_(hub_threshold) {
    for (std::int64_t l = 0; l < model.num_layers(); ++l) {
      ships_edge_features_ =
          ships_edge_features_ || model.layer(l).signature().uses_edge_features;
    }
    INFERTURBO_CHECK(!ships_edge_features_ || view.edge_feature_dim() > 0)
        << "model needs edge features the graph does not have";
    INFERTURBO_CHECK(view.num_partitions() == options.num_workers)
        << "view partitioning must match the worker count";
  }

  Result<Tensor> Run() {
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
    std::optional<TaskSupervisor> supervisor;
    if (options_.supervise_tasks || options_.fault_plan != nullptr) {
      TaskSupervisionOptions supervision = options_.supervision;
      supervision.pool = options_.pool;
      supervision.fault_plan = options_.fault_plan;
      supervisor.emplace(supervision);
      job_options.supervisor = &*supervisor;
    }
    MapReduceJob job(job_options);

    // Durable round checkpoints: stage 0 is the map, stage l+1 is
    // reduce round l; a checkpoint at stage s means stages <= s are
    // durable and a resumed process re-enters at stage s+1.
    std::optional<CheckpointStore> store;
    if (!options_.checkpoint_directory.empty()) {
      CheckpointStoreOptions store_options;
      store_options.directory = options_.checkpoint_directory;
      store_options.keep_last = options_.checkpoint_keep_last;
      store_options.fault_injector = options_.io_fault_injector;
      store_options.retry = options_.io_retry;
      Result<CheckpointStore> opened =
          CheckpointStore::Open(std::move(store_options));
      if (!opened.ok()) return opened.status();
      store.emplace(std::move(opened).ValueOrDie());
    }
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
        ShardPipeline pipeline(
            view_, ShardPipelineOptions{options_.storage_pipeline_slots});
        pipeline_ = &pipeline;
        const Status map_status =
            job.RunMap([this](std::int64_t instance, MrEmitter* emitter) {
              MapStage(instance, emitter);
            });
        pipeline_ = nullptr;
        pipeline_stats_.Merge(pipeline.stats());
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
      const LayerSignature& sig = model_.layer(l).signature();
      const bool use_partial = options_.strategies.partial_gather &&
                               sig.partial_gather &&
                               PartialGatherReduces(sig.agg_kind);
      if (use_partial) {
        const AggKind kind = sig.agg_kind;
        const std::int64_t msg_dim = sig.message_dim;
        combiner = [kind, msg_dim](std::int64_t key,
                                   std::vector<MrValue>* values) {
          CombineInMessages(kind, msg_dim, key, values);
        };
      }
      INFERTURBO_RETURN_NOT_OK(job.RunReduce(
          [this, l](std::int64_t key, std::span<MrValue> values,
                    MrEmitter* emitter) { ReduceStage(l, key, values,
                                                      emitter); },
          combiner ? &combiner : nullptr));
      FlushBroadcastStaging(&job);
      INFERTURBO_RETURN_NOT_OK(save_checkpoint(stage));
    }

    // Collect kPrediction (and optional kEmbedding) rows.
    const std::int64_t num_nodes = view_.num_nodes();
    Tensor logits(num_nodes, model_.num_classes());
    if (options_.export_embeddings) {
      embeddings_ = Tensor(num_nodes, model_.embedding_dim());
    }
    std::vector<bool> seen(static_cast<std::size_t>(num_nodes), false);
    for (MrKeyValue& kv : job.TakeOutputs()) {
      if (kv.second.tag == kEmbedding) {
        embeddings_.SetRow(kv.first, kv.second.floats.data());
        continue;
      }
      if (kv.second.tag != kPrediction) continue;
      const NodeId v = kv.first;
      logits.SetRow(v, kv.second.floats.data());
      seen[static_cast<std::size_t>(v)] = true;
    }
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (!seen[static_cast<std::size_t>(v)]) {
        return Status::Internal("node " + std::to_string(v) +
                                " produced no prediction");
      }
    }
    metrics_ = job.metrics();
    if (supervisor) metrics_.supervision = supervisor->metrics();
    failures_recovered_ = job.failures_recovered();
    return logits;
  }

  std::int64_t failures_recovered() const { return failures_recovered_; }
  Tensor TakeEmbeddings() { return std::move(embeddings_); }

  JobMetrics TakeMetrics() { return std::move(metrics_); }
  const PipelineStats& pipeline_stats() const { return pipeline_stats_; }

 private:
  /// Map-side combine: fold this producer's kInMessage rows for `key`
  /// into a single kPartialAgg record; other tags pass through.
  static void CombineInMessages(AggKind kind, std::int64_t msg_dim,
                                std::int64_t key,
                                std::vector<MrValue>* values) {
    (void)key;
    INFERTURBO_CHECK(kind != AggKind::kUnion) << "union is not combinable";
    // Dispatched SIMD row fold instead of a scalar loop per value: the
    // max/min selects match std::max/std::min exactly (see row_fold.h),
    // so the combine stays bit-identical to the old scalar switch.
    const kernels::detail::RowFoldFn fold =
        kind == AggKind::kMax   ? kernels::detail::RowMax()
        : kind == AggKind::kMin ? kernels::detail::RowMin()
                                : kernels::detail::RowAdd();
    std::vector<MrValue> kept;
    std::vector<float> acc;
    std::int64_t count = 0;
    for (MrValue& v : *values) {
      const bool foldable =
          (v.tag == kInMessage &&
           static_cast<std::int64_t>(v.floats.size()) == msg_dim) ||
          v.tag == kPartialAgg;
      if (!foldable) {
        kept.push_back(std::move(v));
        continue;
      }
      const std::int64_t v_count = v.tag == kPartialAgg ? v.ids[0] : 1;
      if (acc.empty()) {
        acc = std::move(v.floats);
        count = v_count;
        continue;
      }
      fold(acc.data(), v.floats.data(),
           static_cast<std::int64_t>(acc.size()));
      count += v_count;
    }
    if (!acc.empty()) {
      MrValue partial;
      partial.tag = kPartialAgg;
      partial.floats = std::move(acc);
      partial.ids = {count};
      kept.push_back(std::move(partial));
    }
    *values = std::move(kept);
  }

  /// The initialization stage: map instance p streams partition p of
  /// the view through the shard pipeline, whose loader thread is
  /// already filling p+1 while this instance computes. Raw features
  /// become layer-0 states; self-state, out-edge info, and layer-0
  /// messages enter the dataflow.
  void MapStage(std::int64_t instance, MrEmitter* emitter) {
    Result<PartitionSlice> acquired =
        pipeline_ != nullptr ? pipeline_->Acquire(instance)
                             : view_.AcquirePartition(instance);
    if (!acquired.ok()) {
      RecordMapError(acquired.status());
      return;
    }
    const PartitionSlice& slice = *acquired;
    const std::size_t n = slice.nodes.size();
    if (n == 0) return;
    const std::size_t fd =
        static_cast<std::size_t>(view_.feature_dim());
    const std::size_t efd =
        static_cast<std::size_t>(view_.edge_feature_dim());
    Tensor states(static_cast<std::int64_t>(n),
                  static_cast<std::int64_t>(fd));
    for (std::size_t i = 0; i < n; ++i) {
      states.SetRow(static_cast<std::int64_t>(i),
                    slice.node_features + i * fd);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId v = slice.nodes[i];
      MrValue self;
      self.tag = kSelfState;
      self.floats = states.RowVector(static_cast<std::int64_t>(i));
      emitter->Emit(v, std::move(self));

      MrValue out_edges;
      out_edges.tag = kOutEdges;
      for (std::int64_t k = slice.out_offsets[i];
           k < slice.out_offsets[i + 1]; ++k) {
        out_edges.ids.push_back(slice.out_dst[static_cast<std::size_t>(k)]);
        if (ships_edge_features_) {
          const float* feat =
              slice.edge_features + static_cast<std::size_t>(k) * efd;
          out_edges.floats.insert(out_edges.floats.end(), feat, feat + efd);
        }
      }
      emitter->Emit(v, std::move(out_edges));
    }
    ScatterMessages(/*layer_index=*/0, slice, states, emitter);
  }

  void RecordMapError(const Status& status) {
    std::lock_guard<std::mutex> lock(map_error_mutex_);
    if (map_error_.ok()) map_error_ = status;
  }

  /// One GNN layer for one key. `values` hold the node's previous
  /// state, its out-edges, and its gathered in-messages.
  void ReduceStage(std::int64_t layer_index, std::int64_t key,
                   std::span<MrValue> values, MrEmitter* emitter) {
    const GasConv& layer = model_.layer(layer_index);
    const LayerSignature& sig = layer.signature();
    const AggKind kind = sig.agg_kind;
    const std::int64_t msg_dim = sig.message_dim;

    Tensor state;
    std::vector<std::int64_t> out_neighbors;
    std::vector<float> out_edge_feats;

    // First pass: locate state/out-edges, count message rows.
    std::int64_t msg_rows = 0;
    bool any_partial = false;
    for (const MrValue& v : values) {
      if (v.tag == kInMessage || v.tag == kRef || v.tag == kPartialAgg) {
        ++msg_rows;
        any_partial = any_partial || v.tag == kPartialAgg;
      }
    }
    INFERTURBO_CHECK(kind != AggKind::kUnion || !any_partial)
        << "union layer received a partial aggregate";

    // Flatten this key group into the shared bucketed form (all rows in
    // segment 0) in MrValue ARRIVAL order — the fold order both
    // backends' bit-identity contract pins — then reduce through the
    // same kernel path the Pregel gather uses.
    BucketedInbox inbox;
    inbox.rows = Tensor(msg_rows, msg_dim);
    inbox.dst.assign(static_cast<std::size_t>(msg_rows), 0);
    if (any_partial) {
      inbox.counts.assign(static_cast<std::size_t>(msg_rows), 1);
    }
    std::int64_t row_cursor = 0;
    for (MrValue& v : values) {
      switch (v.tag) {
        case kSelfState: {
          state = Tensor(1, static_cast<std::int64_t>(v.floats.size()));
          state.SetRow(0, v.floats.data());
          break;
        }
        case kOutEdges:
          out_neighbors = std::move(v.ids);
          out_edge_feats = std::move(v.floats);
          break;
        case kInMessage:
        case kRef:
        case kPartialAgg: {
          const float* row = nullptr;
          if (v.tag == kRef) {
            const std::vector<float>* value = LookupBroadcast(v.src);
            INFERTURBO_CHECK(value != nullptr)
                << "missing broadcast value for hub " << v.src;
            row = value->data();
          } else {
            row = v.floats.data();
            if (v.tag == kPartialAgg) {
              inbox.counts[static_cast<std::size_t>(row_cursor)] = v.ids[0];
            }
          }
          inbox.rows.SetRow(row_cursor, row);
          ++row_cursor;
          break;
        }
        case kPrediction:
          INFERTURBO_CHECK(false) << "prediction record in a reduce round";
      }
    }
    INFERTURBO_CHECK(!state.empty())
        << "node " << key << " lost its self-state record";

    const GatherResult gathered =
        ReduceBucketedInbox(kind, std::move(inbox), /*num_nodes=*/1);

    const Tensor new_state = layer.ApplyNode(state, gathered);

    if (layer_index + 1 == model_.num_layers()) {
      const Tensor logits = model_.PredictLogits(new_state);
      MrValue prediction;
      prediction.tag = kPrediction;
      prediction.floats = logits.RowVector(0);
      emitter->Emit(key, std::move(prediction));
      if (options_.export_embeddings) {
        MrValue embedding;
        embedding.tag = kEmbedding;
        embedding.floats = new_state.RowVector(0);
        emitter->Emit(key, std::move(embedding));
      }
      return;
    }

    // Re-emit persistent records and the next layer's messages.
    MrValue self;
    self.tag = kSelfState;
    self.floats = new_state.RowVector(0);
    emitter->Emit(key, std::move(self));
    MrValue out_edges;
    out_edges.tag = kOutEdges;
    out_edges.ids = out_neighbors;
    out_edges.floats = out_edge_feats;
    emitter->Emit(key, std::move(out_edges));

    ScatterSingle(layer_index + 1, key, new_state, out_neighbors,
                  out_edge_feats, emitter);
  }

  /// Scatter for a batch of nodes (Map stage): dense rows, or broadcast
  /// refs for hubs. Map-side partial aggregation is the engine
  /// combiner's job, so dense rows are emitted as-is here.
  void ScatterMessages(std::int64_t layer_index, const PartitionSlice& slice,
                       const Tensor& states, MrEmitter* emitter) {
    const GasConv& layer = model_.layer(layer_index);
    const Tensor messages = layer.ComputeMessage(states);
    const std::size_t efd =
        static_cast<std::size_t>(view_.edge_feature_dim());
    for (std::size_t i = 0; i < slice.nodes.size(); ++i) {
      std::vector<NodeId> out_neighbors;
      std::vector<float> out_edge_feats;
      for (std::int64_t k = slice.out_offsets[i];
           k < slice.out_offsets[i + 1]; ++k) {
        out_neighbors.push_back(slice.out_dst[static_cast<std::size_t>(k)]);
        if (ships_edge_features_) {
          const float* feat =
              slice.edge_features + static_cast<std::size_t>(k) * efd;
          out_edge_feats.insert(out_edge_feats.end(), feat, feat + efd);
        }
      }
      EmitNodeMessages(layer_index, slice.nodes[i],
                       messages.RowVector(static_cast<std::int64_t>(i)),
                       out_neighbors, out_edge_feats, emitter);
    }
  }

  /// Scatter for one node (Reduce rounds).
  void ScatterSingle(std::int64_t layer_index, NodeId v,
                     const Tensor& new_state,
                     const std::vector<std::int64_t>& out_neighbors,
                     const std::vector<float>& out_edge_feats,
                     MrEmitter* emitter) {
    const GasConv& layer = model_.layer(layer_index);
    const Tensor message = layer.ComputeMessage(new_state);
    EmitNodeMessages(layer_index, v, message.RowVector(0), out_neighbors,
                     out_edge_feats, emitter);
  }

  void EmitNodeMessages(std::int64_t layer_index, NodeId v,
                        std::vector<float> row,
                        const std::vector<std::int64_t>& out_neighbors,
                        const std::vector<float>& out_edge_feats,
                        MrEmitter* emitter) {
    const GasConv& layer = model_.layer(layer_index);
    const LayerSignature& sig = layer.signature();
    if (sig.uses_edge_features) {
      // apply_edge varies per out-edge: materialize the merged rows in
      // one batched call, then emit each.
      const std::int64_t degree =
          static_cast<std::int64_t>(out_neighbors.size());
      if (degree == 0) return;
      const std::int64_t edge_dim =
          static_cast<std::int64_t>(out_edge_feats.size()) / degree;
      Tensor base(degree, static_cast<std::int64_t>(row.size()));
      Tensor feats(degree, edge_dim);
      for (std::int64_t i = 0; i < degree; ++i) {
        base.SetRow(i, row.data());
        feats.SetRow(i, out_edge_feats.data() + i * edge_dim);
      }
      const Tensor merged = layer.ApplyEdge(base, &feats);
      for (std::int64_t i = 0; i < degree; ++i) {
        MrValue msg;
        msg.tag = kInMessage;
        msg.src = v;
        msg.floats = merged.RowVector(i);
        emitter->Emit(out_neighbors[static_cast<std::size_t>(i)],
                      std::move(msg));
      }
      return;
    }
    const bool hub = options_.strategies.broadcast &&
                     sig.broadcastable_messages && hub_threshold_ > 0 &&
                     static_cast<std::int64_t>(out_neighbors.size()) >
                         hub_threshold_;
    if (hub) {
      {
        // Idempotent under supervised duplicate attempts: both write
        // the same deterministic bytes for v, so last-write-wins is
        // byte-identical to exactly-once.
        std::lock_guard<std::mutex> lock(broadcast_mutex_);
        broadcast_staging_[v] = row;
      }
      for (NodeId d : out_neighbors) {
        MrValue ref;
        ref.tag = kRef;
        ref.src = v;
        emitter->Emit(d, std::move(ref));
      }
      return;
    }
    for (NodeId d : out_neighbors) {
      MrValue msg;
      msg.tag = kInMessage;
      msg.src = v;
      msg.floats = row;
      emitter->Emit(d, std::move(msg));
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
  std::int64_t hub_threshold_;
  /// True when some layer's apply_edge consumes edge features, so the
  /// out-edge records must ship them between rounds.
  bool ships_edge_features_ = false;
  std::mutex map_error_mutex_;
  /// First failure from a map instance (MapFn cannot return Status).
  Status map_error_ = Status::OK();
  /// Live only while RunMap executes; MapStage acquires through it.
  ShardPipeline* pipeline_ = nullptr;
  PipelineStats pipeline_stats_;
  JobMetrics metrics_;
  Tensor embeddings_;
  std::int64_t failures_recovered_ = 0;

  std::mutex broadcast_mutex_;
  std::unordered_map<NodeId, std::vector<float>> broadcast_staging_;
  std::unordered_map<NodeId, std::vector<float>> broadcast_table_;
};

/// Runs the driver over `view` and packages the raw outputs (no
/// shadow-node remapping — callers that rewrote the graph trim after).
Result<InferenceResult> DriveView(const GraphView& view,
                                  const GnnModel& model,
                                  const InferTurboOptions& options,
                                  std::int64_t hub_threshold,
                                  PipelineStats* pipeline_stats = nullptr) {
  MrInferenceDriver driver(view, model, options, hub_threshold);
  Result<Tensor> logits = driver.Run();
  if (!logits.ok()) {
    // Unrecoverable dataflow failure: freeze the flight ring now, while
    // the retry/restore events leading here are still in it.
    DumpFlightRecordOnError("mapreduce: " + logits.status().ToString());
    return logits.status();
  }
  Tensor all_logits = std::move(*logits);
  options.failures_recovered = driver.failures_recovered();
  InferenceResult result;
  result.logits = std::move(all_logits);
  result.embeddings = driver.TakeEmbeddings();
  result.predictions = ArgmaxRows(result.logits);
  result.metrics = driver.TakeMetrics();
  if (pipeline_stats != nullptr) {
    pipeline_stats->Merge(driver.pipeline_stats());
  }
  return result;
}

}  // namespace

Result<InferenceResult> RunInferTurboMapReduce(
    const Graph& graph, const GnnModel& model,
    const InferTurboOptions& options) {
  if (graph.feature_dim() != model.input_dim()) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }

  const Graph* active = &graph;
  ShadowGraph shadow;
  const std::int64_t threshold = options.strategies.HubThreshold(
      graph.num_edges(), options.num_workers);
  if (options.strategies.shadow_nodes) {
    INFERTURBO_ASSIGN_OR_RETURN(shadow, ApplyShadowNodes(graph, threshold));
    active = &shadow.graph;
  }

  InMemoryGraphView view(*active, options.num_workers);
  INFERTURBO_ASSIGN_OR_RETURN(InferenceResult result,
                              DriveView(view, model, options, threshold));

  if (options.strategies.shadow_nodes) {
    // Shadow nodes are appended past the original id range: trim their
    // rows off the outputs.
    Tensor trimmed(graph.num_nodes(), result.logits.cols());
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      trimmed.SetRow(v, result.logits.RowPtr(v));
    }
    result.logits = std::move(trimmed);
    if (!result.embeddings.empty()) {
      Tensor emb(graph.num_nodes(), result.embeddings.cols());
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        emb.SetRow(v, result.embeddings.RowPtr(v));
      }
      result.embeddings = std::move(emb);
    }
    result.predictions = ArgmaxRows(result.logits);
  }
  return result;
}

Result<InferenceResult> RunInferTurboMapReduce(
    const GraphView& view, const GnnModel& model,
    const InferTurboOptions& options) {
  // A view that is just a window onto a resident graph gains nothing
  // from the streaming path; reuse the Graph entry (which also keeps
  // shadow_nodes free of a materialize round trip).
  if (const Graph* resident = view.resident_graph()) {
    return RunInferTurboMapReduce(*resident, model, options);
  }
  if (view.feature_dim() != model.input_dim()) {
    return Status::InvalidArgument("graph feature dim does not match model");
  }
  if (options.num_workers <= 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }
  if (options.num_workers != view.num_partitions()) {
    return Status::InvalidArgument(
        "num_workers (" + std::to_string(options.num_workers) +
        ") must equal the view's partition count (" +
        std::to_string(view.num_partitions()) +
        "): the shard partitioning is the worker assignment");
  }
  const std::int64_t threshold = options.strategies.HubThreshold(
      view.num_edges(), options.num_workers);
  if (options.pin_hub_shards) {
    // Pin the hub-heavy hot-set before any streaming so it survives
    // every LRU cycle of the sweep (no-op without a pinned budget).
    INFERTURBO_RETURN_NOT_OK(view.PinHotSet(threshold).status());
  }
  if (options.strategies.shadow_nodes) {
    // The shadow rewrite restructures topology globally; rebuild the
    // graph (bounded mapped bytes while building, pipelined so shard
    // I/O overlaps the rebuild), run the resident path, and still
    // report the storage work done.
    PipelineStats stats;
    INFERTURBO_ASSIGN_OR_RETURN(
        Graph graph,
        MaterializeGraph(view, {options.storage_pipeline_slots, &stats}));
    INFERTURBO_ASSIGN_OR_RETURN(
        InferenceResult result,
        RunInferTurboMapReduce(graph, model, options));
    result.metrics.storage = view.storage_metrics();
    stats.FoldInto(&result.metrics.storage);
    return result;
  }
  PipelineStats stats;
  INFERTURBO_ASSIGN_OR_RETURN(
      InferenceResult result,
      DriveView(view, model, options, threshold, &stats));
  result.metrics.storage = view.storage_metrics();
  stats.FoldInto(&result.metrics.storage);
  return result;
}

}  // namespace inferturbo
