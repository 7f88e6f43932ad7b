#ifndef INFERTURBO_MAPREDUCE_MAPREDUCE_ENGINE_H_
#define INFERTURBO_MAPREDUCE_MAPREDUCE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/byte_size.h"
#include "src/common/io_fault.h"
#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/graph/graph.h"
#include "src/pregel/worker_metrics.h"
#include "src/runtime/task_supervisor.h"

namespace inferturbo {

/// One instance's share of the simulated MapReduce dataflow, stored
/// column by column. Record i is (keys[i], tags[i], src[i], its float
/// run, its id run) — a tagged record wide enough for everything the
/// InferTurbo-on-MR pipeline ships between rounds: self state, in-edge
/// messages, out-edge adjacency, partial aggregates (paper §IV-C2).
/// Payloads live in two arenas addressed by offset arrays, so appending
/// a record allocates nothing of its own once the block is reserved.
/// The engine treats tags and payloads as opaque.
struct MrBlock {
  std::vector<std::int64_t> keys;
  /// Driver-defined discriminator (e.g. kSelfState / kInMessage /
  /// kOutEdges).
  std::vector<std::int32_t> tags;
  /// Auxiliary id (message source, mirror origin, ...).
  std::vector<NodeId> src;
  /// Record i's floats are floats[float_offsets[i], float_offsets[i+1]).
  std::vector<std::int64_t> float_offsets{0};
  std::vector<float> floats;
  /// Record i's ids are ids[id_offsets[i], id_offsets[i+1]).
  std::vector<std::int64_t> id_offsets{0};
  std::vector<std::int64_t> ids;

  std::size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  std::span<const float> Floats(std::size_t i) const {
    return {floats.data() + float_offsets[i],
            static_cast<std::size_t>(float_offsets[i + 1] - float_offsets[i])};
  }
  std::span<const std::int64_t> Ids(std::size_t i) const {
    return {ids.data() + id_offsets[i],
            static_cast<std::size_t>(id_offsets[i + 1] - id_offsets[i])};
  }

  void Append(std::int64_t key, std::int32_t tag, NodeId source,
              std::span<const float> payload,
              std::span<const std::int64_t> id_payload) {
    keys.push_back(key);
    tags.push_back(tag);
    src.push_back(source);
    floats.insert(floats.end(), payload.begin(), payload.end());
    float_offsets.push_back(static_cast<std::int64_t>(floats.size()));
    ids.insert(ids.end(), id_payload.begin(), id_payload.end());
    id_offsets.push_back(static_cast<std::int64_t>(ids.size()));
  }
  /// Copies record i of `other` onto the end of this block.
  void AppendRecord(const MrBlock& other, std::size_t i) {
    Append(other.keys[i], other.tags[i], other.src[i], other.Floats(i),
           other.Ids(i));
  }
  void Reserve(std::size_t records, std::size_t num_floats,
               std::size_t num_ids);
  /// Empties the block and returns its memory.
  void Release();

  /// Serialized size of record i on the simulated shuffle path. Unlike
  /// the Pregel backend, *all* shuffle traffic is charged (MapReduce
  /// spills through external storage even for local destinations).
  std::uint64_t WireBytes(std::size_t i) const {
    return kRecordOverheadBytes + Floats(i).size() * sizeof(float) +
           Ids(i).size() * sizeof(std::int64_t);
  }
  /// Sum of WireBytes over every record, from the array sizes alone.
  std::uint64_t TotalWireBytes() const {
    return size() * kRecordOverheadBytes + floats.size() * sizeof(float) +
           ids.size() * sizeof(std::int64_t);
  }
  /// Bytes the block's arrays hold in memory — a measurement of this
  /// process, unlike the modelled wire bytes.
  std::uint64_t ResidentBytes() const;

  /// Fixed wire cost of a record: message header + tag + src.
  static constexpr std::uint64_t kRecordOverheadBytes =
      kMessageHeaderBytes + sizeof(std::int32_t) + sizeof(NodeId);
};

/// Collects emissions from map/reduce/combine functions into one block.
class MrEmitter {
 public:
  void Emit(std::int64_t key, std::int32_t tag, NodeId src,
            std::span<const float> floats = {},
            std::span<const std::int64_t> ids = {}) {
    block_.Append(key, tag, src, floats, ids);
  }
  MrBlock& block() { return block_; }

 private:
  MrBlock block_;
};

/// A reducer's whole input for one round: its records sorted by key,
/// the values of one key in arrival order (producing instance, then
/// emission order) — the determinism contract. Group g is records
/// [group_offsets[g], group_offsets[g+1]); keys ascend across groups.
struct MrKeyGroups {
  MrBlock records;
  std::vector<std::size_t> group_offsets{0};

  std::size_t num_groups() const { return group_offsets.size() - 1; }
  std::int64_t key(std::size_t g) const {
    return records.keys[group_offsets[g]];
  }
};

/// Spill-block codec, exposed for the corruption tests: magic, the
/// block's arrays in bulk, trailing CRC32 over everything before it.
/// Decode rejects a wrong magic (including the retired record-at-a-time
/// format), any short or corrupt byte and any inconsistent offset array
/// as IoError — never UB. `what` names the bytes in error messages.
std::string EncodeSpillBlock(const MrBlock& block);
Status DecodeSpillBlock(std::string_view bytes, const std::string& what,
                        MrBlock* block);

/// A simulated elastic MapReduce job: I logical instances each act as
/// mapper and reducer; rounds alternate shuffle (sort by key, values
/// ordered by producing instance) and reduce. Combiners run on the
/// producing side per destination instance — the hook partial-gather
/// plugs into (paper §IV-D).
class MapReduceJob {
 public:
  struct Options {
    std::int64_t num_instances = 8;
    ClusterCostModel cost_model;
    ThreadPool* pool = nullptr;
    /// Simulated task failure: returns true when `instance`'s reduce
    /// task fails in stage `stage` (0 = the map stage, then one per
    /// reduce round). Shuffle inputs are durable, so the engine
    /// re-executes just that task — MapReduce's native fault-tolerance
    /// model — charging the wasted attempt. Fires once per attempt; a
    /// persistent true would retry forever (capped, then fatal).
    std::function<bool(std::int64_t stage, std::int64_t instance)>
        failure_injector;
    /// When non-empty, shuffle blocks are actually serialized to files
    /// under this directory between the producer and reducer halves of
    /// each round — the external-storage dataflow the paper's MR
    /// backend relies on for its low resident memory. Must exist and be
    /// writable. Results are bit-identical to the in-memory path.
    std::string spill_directory;
    /// Optional fault injection on the spill path (and checkpoint
    /// serialization); consulted once per physical attempt.
    IoFaultInjector* fault_injector = nullptr;
    /// Bounded retry + backoff for transient spill I/O faults. Retried
    /// reads/writes are counted in JobMetrics::spill_read_retries /
    /// spill_write_retries; a persistent fault surfaces as an IoError
    /// Status from RunReduce, never a crash or silent corruption.
    IoRetryPolicy retry;
    /// When set, every map/shuffle/reduce task runs under supervision:
    /// per-attempt deadlines, bounded retry with backoff, speculative
    /// backups, and executor quarantine. Tasks then compute into
    /// attempt-local buffers (the resident dataflow stays immutable
    /// until commit) and spill blocks are written under attempt-scoped
    /// names, promoted to their canonical path only for the winning
    /// attempt — any in-budget fault schedule yields bit-identical
    /// results. Not owned; one supervisor may span the whole job so
    /// quarantine decisions persist across rounds.
    TaskSupervisor* supervisor = nullptr;
  };

  /// Called once per instance; the driver reads its own input split.
  using MapFn = std::function<void(std::int64_t instance, MrEmitter*)>;
  /// Called once per reducer per round with all of its key groups.
  using ReduceFn = std::function<void(const MrKeyGroups& input, MrEmitter*)>;
  /// Producer-side combine of one key's run: `run` indexes that key's
  /// records in `block`, in emission order; the replacement records are
  /// emitted (under the same key) into `out`.
  using CombineFn =
      std::function<void(const MrBlock& block,
                         std::span<const std::uint32_t> run, MrEmitter* out)>;

  explicit MapReduceJob(Options options);

  /// Stage 1: populate the dataflow from input splits. Always OK
  /// without supervision; under a supervisor it surfaces a retry-
  /// exhausted map task's error instead of crashing.
  Status RunMap(const MapFn& map_fn);

  /// One shuffle+reduce round over the current dataflow; emitted
  /// records become the next round's dataflow. `combiner` may be null. Returns
  /// non-OK — never crashes — when a spill block cannot be written or
  /// read back intact after bounded retries (IoError), or when the
  /// failure injector never stops firing (Aborted). On error the
  /// dataflow is left unspecified; the job must be abandoned or resumed
  /// from a durable checkpoint.
  Status RunReduce(const ReduceFn& reduce_fn, const CombineFn* combiner);

  /// Drains the final dataflow (concatenated in instance order).
  MrBlock TakeOutputs();

  /// Reduce-task re-executions triggered by the failure injector.
  std::int64_t failures_recovered() const { return failures_recovered_; }

  /// Bytes written to spill files so far (0 when spilling is off).
  std::uint64_t spill_bytes_written() const { return spill_bytes_written_; }

  const JobMetrics& metrics() const { return metrics_; }
  /// Drivers that move data outside the shuffle (e.g. the broadcast
  /// side channel, which models a Spark broadcast variable) account for
  /// it by adjusting the current stage's counters here.
  JobMetrics* mutable_metrics() { return &metrics_; }
  std::int64_t num_instances() const { return options_.num_instances; }

  /// The instance owning a key (stable across stages).
  static std::int64_t InstanceForKey(std::int64_t key,
                                     std::int64_t num_instances);

  /// Bit-exact serialization of the resident dataflow (the records
  /// between rounds) for durable round checkpoints: a format tag, the
  /// instance count, then each instance's block arrays in bulk.
  std::string SerializeDataflow() const;
  /// Inverse of SerializeDataflow; every length is bounds-checked so
  /// truncated or corrupted bytes — and bytes of an older format —
  /// surface as IoError, never UB.
  Status RestoreDataflow(std::string_view bytes);

 private:
  /// Canonical spill block path for attempt < 0; attempt-scoped
  /// ("..._aN.blk") otherwise. Supervised producers write under their
  /// attempt's name and the winner's blocks are renamed to the
  /// canonical path at commit, so readers never observe a loser's (or
  /// a half-abandoned attempt's) output.
  std::string SpillPath(std::int64_t stage, std::int64_t producer,
                        std::int64_t reducer, int attempt = -1) const;
  /// Commit protocol for supervised spilling: promote the winning
  /// attempt's blocks to canonical names, delete every other attempt's.
  Status PromoteSpillBlocks(std::int64_t stage,
                            const std::vector<int>& winning_attempt);

  Options options_;
  /// dataflow_[i] = the records resident on instance i.
  std::vector<MrBlock> dataflow_;
  JobMetrics metrics_;
  std::int64_t failures_recovered_ = 0;
  std::uint64_t spill_bytes_written_ = 0;
};

}  // namespace inferturbo

#endif  // INFERTURBO_MAPREDUCE_MAPREDUCE_ENGINE_H_
