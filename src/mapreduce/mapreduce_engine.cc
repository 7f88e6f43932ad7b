#include "src/mapreduce/mapreduce_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>

#include "src/common/atomic_file.h"
#include "src/common/binary_io.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace inferturbo {
namespace {

std::int64_t InstanceOfKey(std::int64_t key, std::int64_t num_instances) {
  const std::uint64_t h =
      static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::int64_t>(h %
                                   static_cast<std::uint64_t>(num_instances));
}

// Format tags of the columnar encodings. The record-at-a-time format
// these replace began spill blocks with "ITS1" and checkpoints with the
// bare instance count; both now fail the tag check as IoError.
constexpr std::uint32_t kSpillMagic = 0x49545332;      // "ITS2"
constexpr std::uint32_t kDataflowFormat = 0x49544432;  // "ITD2"

template <typename T>
std::uint64_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// A block's arrays, each one length-prefixed bulk copy.
void EncodeColumns(const MrBlock& block, BinaryWriter* out) {
  out->PutArray(block.keys);
  out->PutArray(block.tags);
  out->PutArray(block.src);
  out->PutArray(block.float_offsets);
  out->PutArray(block.floats);
  out->PutArray(block.id_offsets);
  out->PutArray(block.ids);
}

/// An offset array must start at 0, never decrease, and end exactly at
/// the arena size; anything else would index out of bounds later.
Status CheckOffsets(const std::vector<std::int64_t>& offsets,
                    std::size_t records, std::size_t arena,
                    const char* what) {
  if (offsets.size() != records + 1 || offsets.front() != 0 ||
      offsets.back() != static_cast<std::int64_t>(arena)) {
    return Status::IoError(std::string("corrupt ") + what + " offsets");
  }
  for (std::size_t i = 0; i < records; ++i) {
    if (offsets[i + 1] < offsets[i]) {
      return Status::IoError(std::string("decreasing ") + what + " offsets");
    }
  }
  return Status::OK();
}

/// Inverse of EncodeColumns. Every length prefix is bounds-checked and
/// the columns are cross-checked, so a truncated or bit-flipped buffer
/// becomes an IoError, never UB.
Status DecodeColumns(BinaryReader* in, MrBlock* block) {
  INFERTURBO_RETURN_NOT_OK(in->GetArray(&block->keys));
  INFERTURBO_RETURN_NOT_OK(in->GetArray(&block->tags));
  INFERTURBO_RETURN_NOT_OK(in->GetArray(&block->src));
  INFERTURBO_RETURN_NOT_OK(in->GetArray(&block->float_offsets));
  INFERTURBO_RETURN_NOT_OK(in->GetArray(&block->floats));
  INFERTURBO_RETURN_NOT_OK(in->GetArray(&block->id_offsets));
  INFERTURBO_RETURN_NOT_OK(in->GetArray(&block->ids));
  const std::size_t records = block->keys.size();
  if (block->tags.size() != records || block->src.size() != records) {
    return Status::IoError("record columns disagree on the record count");
  }
  INFERTURBO_RETURN_NOT_OK(CheckOffsets(block->float_offsets, records,
                                        block->floats.size(), "float"));
  return CheckOffsets(block->id_offsets, records, block->ids.size(), "id");
}

/// (key, arrival index) — what key grouping sorts instead of records.
struct KeyIndex {
  std::int64_t key;
  std::uint64_t index;
};

/// Stable sort by key of pairs given in ascending index order, so each
/// key's indices stay ascending — the (key, arrival) order. LSD radix
/// over only the bits in which the keys differ: node-id keys span a few
/// radix digits, so this is a handful of linear passes.
void SortByKey(std::vector<KeyIndex>* pairs) {
  if (pairs->size() < 2) return;
  const auto [lo, hi] = std::minmax_element(
      pairs->begin(), pairs->end(),
      [](const KeyIndex& a, const KeyIndex& b) { return a.key < b.key; });
  const std::int64_t min_key = lo->key;
  const std::uint64_t range = static_cast<std::uint64_t>(hi->key) -
                              static_cast<std::uint64_t>(min_key);
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  std::vector<KeyIndex> scratch(pairs->size());
  std::vector<std::size_t> starts(kBuckets);
  for (int shift = 0; shift < 64 && (range >> shift) != 0;
       shift += kDigitBits) {
    const auto digit = [&](const KeyIndex& e) {
      return static_cast<std::size_t>(
          ((static_cast<std::uint64_t>(e.key) -
            static_cast<std::uint64_t>(min_key)) >> shift) & (kBuckets - 1));
    };
    std::fill(starts.begin(), starts.end(), 0);
    for (const KeyIndex& e : *pairs) ++starts[digit(e)];
    std::size_t sum = 0;
    for (std::size_t& start : starts) sum += std::exchange(start, sum);
    for (const KeyIndex& e : *pairs) scratch[starts[digit(e)]++] = e;
    pairs->swap(scratch);
  }
}

/// Map-side combine of one destination's records (indices into `in`, in
/// emission order) straight into `out`: the records, sorted by key with
/// each key's run in emission order, go to the combiner in one call, and
/// what it emits is the block — the only copy of the payload bytes.
void CombineInto(const MapReduceJob::CombineFn& combiner, const MrBlock& in,
                 std::span<const std::uint32_t> records, std::size_t num_floats,
                 std::size_t num_ids, MrBlock* out) {
  std::vector<KeyIndex> order(records.size());
  for (std::size_t k = 0; k < records.size(); ++k) {
    order[k] = {in.keys[records[k]], records[k]};
  }
  SortByKey(&order);
  std::vector<std::uint32_t> sorted(order.size());
  std::vector<std::size_t> runs{0};
  for (std::size_t k = 0; k < order.size(); ++k) {
    sorted[k] = static_cast<std::uint32_t>(order[k].index);
    if (k + 1 == order.size() || order[k + 1].key != order[k].key) {
      runs.push_back(k + 1);
    }
  }
  MrEmitter combined;
  combined.block().Reserve(records.size(), num_floats, num_ids);
  combiner(in, sorted, runs, &combined);
  *out = std::move(combined.block());
}

/// Builds a reducer's input from its producers' blocks (in producer id
/// order): one sort of (key, arrival index) pairs, then every payload
/// byte is copied once, in key order, into exact-size arrays. Values of
/// one key keep their (producer, emission) order — the determinism
/// contract. Charges the received wire bytes, the measured bytes of the
/// resident input, and the modelled one-key-group footprint to `m`.
void GroupByKey(std::span<const MrBlock* const> parts, MrKeyGroups* input,
                WorkerStepMetrics* m) {
  std::size_t records = 0, num_floats = 0, num_ids = 0;
  for (const MrBlock* part : parts) {
    INFERTURBO_CHECK(part->size() <= 0xffffffffu)
        << "shuffle block exceeds 2^32 records";
    records += part->size();
    num_floats += part->floats.size();
    num_ids += part->ids.size();
    m->bytes_in += part->TotalWireBytes();
    m->records_in += static_cast<std::int64_t>(part->size());
  }
  std::vector<KeyIndex> order;
  order.reserve(records);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::vector<std::int64_t>& keys = parts[p]->keys;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      order.push_back({keys[i], (std::uint64_t{p} << 32) | i});
    }
  }
  SortByKey(&order);

  MrBlock& out = input->records;
  out.Reserve(records, num_floats, num_ids);
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && order[k].key != order[k - 1].key) {
      input->group_offsets.push_back(k);
    }
    out.AppendRecord(*parts[order[k].index >> 32],
                     order[k].index & 0xffffffffu);
  }
  if (!order.empty()) input->group_offsets.push_back(order.size());
  for (std::size_t g = 0; g < input->num_groups(); ++g) {
    std::uint64_t group_bytes = 0;
    for (std::size_t i = input->group_offsets[g];
         i < input->group_offsets[g + 1]; ++i) {
      group_bytes += out.WireBytes(i);
    }
    m->model_key_group_bytes = std::max(m->model_key_group_bytes, group_bytes);
  }
  m->peak_resident_bytes =
      std::max(m->peak_resident_bytes,
               out.ResidentBytes() + CapacityBytes(input->group_offsets));
}

}  // namespace

void MrBlock::Reserve(std::size_t records, std::size_t num_floats,
                      std::size_t num_ids) {
  keys.reserve(records);
  tags.reserve(records);
  src.reserve(records);
  float_offsets.reserve(records + 1);
  floats.reserve(num_floats);
  id_offsets.reserve(records + 1);
  ids.reserve(num_ids);
}

void MrBlock::Release() { *this = MrBlock(); }

std::uint64_t MrBlock::ResidentBytes() const {
  return CapacityBytes(keys) + CapacityBytes(tags) + CapacityBytes(src) +
         CapacityBytes(float_offsets) + CapacityBytes(floats) +
         CapacityBytes(id_offsets) + CapacityBytes(ids);
}

std::string EncodeSpillBlock(const MrBlock& block) {
  BinaryWriter out;
  out.PutU32(kSpillMagic);
  EncodeColumns(block, &out);
  const std::uint32_t crc = Crc32(out.buffer());
  out.PutU32(crc);
  return out.Take();
}

Status DecodeSpillBlock(std::string_view bytes, const std::string& what,
                        MrBlock* block) {
  if (bytes.size() < sizeof(std::uint32_t) * 2) {
    return Status::IoError("spill block too short (" +
                           std::to_string(bytes.size()) + " bytes): " + what);
  }
  // The trailing CRC covers everything before it: torn writes, short
  // reads and bit flips are caught here, before any length is trusted.
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body.size(), sizeof(stored));
  const std::uint32_t actual = Crc32(body);
  if (stored != actual) {
    return Status::IoError("spill block checksum mismatch for " + what +
                           " (stored " + std::to_string(stored) +
                           ", computed " + std::to_string(actual) + ")");
  }
  BinaryReader in(body);
  std::uint32_t magic = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetU32(&magic));
  if (magic != kSpillMagic) {
    return Status::IoError("bad spill block magic in " + what);
  }
  INFERTURBO_RETURN_NOT_OK(DecodeColumns(&in, block));
  if (!in.AtEnd()) {
    return Status::IoError("trailing bytes after spill records in " + what);
  }
  return Status::OK();
}

std::int64_t MapReduceJob::InstanceForKey(std::int64_t key,
                                          std::int64_t num_instances) {
  return InstanceOfKey(key, num_instances);
}

std::string MapReduceJob::SpillPath(std::int64_t stage,
                                    std::int64_t producer,
                                    std::int64_t reducer,
                                    int attempt) const {
  std::string path = options_.spill_directory + "/stage" +
                     std::to_string(stage) + "_p" + std::to_string(producer) +
                     "_r" + std::to_string(reducer);
  if (attempt >= 0) path += "_a" + std::to_string(attempt);
  return path + ".blk";
}

Status MapReduceJob::PromoteSpillBlocks(
    std::int64_t stage, const std::vector<int>& winning_attempt) {
  // An attempt id is bounded by 1 original + max_task_retries retries +
  // 1 speculative backup.
  const int attempt_cap = options_.supervisor->options().max_task_retries + 2;
  const std::int64_t n = options_.num_instances;
  for (std::int64_t p = 0; p < n; ++p) {
    const int winner = winning_attempt[static_cast<std::size_t>(p)];
    for (std::int64_t r = 0; r < n; ++r) {
      for (int a = 0; a < attempt_cap; ++a) {
        if (a == winner) continue;
        std::remove(SpillPath(stage, p, r, a).c_str());  // loser cleanup
      }
      const std::string src = SpillPath(stage, p, r, winner);
      if (!std::ifstream(src).good()) continue;  // empty block: no file
      const std::string dst = SpillPath(stage, p, r);
      if (std::rename(src.c_str(), dst.c_str()) != 0) {
        return Status::IoError("cannot promote committed spill block " + src +
                               " to " + dst);
      }
    }
  }
  return Status::OK();
}

MapReduceJob::MapReduceJob(Options options) : options_(options) {
  INFERTURBO_CHECK(options_.num_instances > 0)
      << "MapReduceJob needs instances";
  dataflow_.resize(static_cast<std::size_t>(options_.num_instances));
  metrics_.cost_model = options_.cost_model;
  metrics_.workers.resize(static_cast<std::size_t>(options_.num_instances));
}

Status MapReduceJob::RunMap(const MapFn& map_fn) {
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : DefaultThreadPool();
  const std::int64_t n = options_.num_instances;
  std::vector<WorkerStepMetrics> step(static_cast<std::size_t>(n));
  TraceSpan stage_span("mr/map_stage");
  // Attempt-local map task: everything lands in *m / *out; publication
  // to dataflow_ happens at the caller (unsupervised: immediately;
  // supervised: only for the winning attempt).
  const auto run_map_task = [&](std::size_t i, WorkerStepMetrics* m,
                                MrBlock* out) {
    TraceSpan span("mr/map", static_cast<std::int64_t>(i));
    MrEmitter emitter;
    WallTimer timer;
    map_fn(static_cast<std::int64_t>(i), &emitter);
    m->busy_seconds = timer.ElapsedSeconds();
    m->records_out = static_cast<std::int64_t>(emitter.block().size());
    *out = std::move(emitter.block());
    if (MetricsEnabled()) {
      static Histogram* hist =
          GlobalMetrics().GetHistogram("mr.map_seconds");
      hist->Observe(m->busy_seconds);
    }
  };
  if (options_.supervisor != nullptr) {
    const TaskStage map_stage{TaskStageKind::kMrMap, metrics_.num_steps()};
    INFERTURBO_ASSIGN_OR_RETURN(
        const StageResult stage_result,
        options_.supervisor->RunStage(
            map_stage, static_cast<std::size_t>(n),
            [&](TaskAttempt* attempt) {
              WorkerStepMetrics local_metrics;
              MrBlock local_out;
              run_map_task(attempt->task(), &local_metrics, &local_out);
              if (attempt->TryCommit()) {
                dataflow_[attempt->task()] = std::move(local_out);
                step[attempt->task()] = local_metrics;
              }
              return Status::OK();
            }));
    (void)stage_result;
  } else {
    pool.ParallelFor(static_cast<std::size_t>(n), [&](std::size_t i) {
      run_map_task(i, &step[i], &dataflow_[i]);
    });
  }
  for (std::int64_t i = 0; i < n; ++i) {
    metrics_.workers[static_cast<std::size_t>(i)].steps.push_back(
        step[static_cast<std::size_t>(i)]);
  }
  return Status::OK();
}

Status MapReduceJob::RunReduce(const ReduceFn& reduce_fn,
                               const CombineFn* combiner) {
  TaskSupervisor* const supervisor = options_.supervisor;
  const bool supervised = supervisor != nullptr;
  // First error wins; the other tasks finish their current work and
  // the round is abandoned (ParallelFor has no cancellation). Only the
  // unsupervised paths use it — the supervisor returns errors itself.
  std::mutex error_mu;
  Status first_error = Status::OK();
  const auto record_error = [&error_mu, &first_error](const Status& s) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = s;
  };
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : DefaultThreadPool();
  const std::int64_t n = options_.num_instances;
  std::vector<WorkerStepMetrics> step(static_cast<std::size_t>(n));

  // --- producer side: partition by destination, combine, account,
  // and (when spilling) write this attempt's blocks out --------------
  // outgoing[p][r] = p's records for reducer r.
  std::vector<std::vector<MrBlock>> outgoing(static_cast<std::size_t>(n));
  TraceSpan stage_span("mr/reduce_stage");
  const std::int64_t spill_stage = metrics_.num_steps();
  const bool spill = !options_.spill_directory.empty();
  std::atomic<std::uint64_t> written{0};
  std::atomic<std::int64_t> write_retries{0};
  // Producer task body. Attempt-local under supervision: the resident
  // dataflow is only read, never drained, so a retried or duplicate
  // attempt sees the same immutable inputs; spill blocks go to
  // attempt-scoped paths and only the winner's are promoted.
  const auto produce = [&](std::size_t p, int attempt,
                           std::vector<MrBlock>* out, WorkerStepMetrics* m,
                           std::uint64_t* bytes_spilled,
                           std::int64_t* spill_retries) -> Status {
    TraceSpan span("mr/shuffle_partition", static_cast<std::int64_t>(p));
    WallTimer timer;
    const MrBlock& in = dataflow_[p];
    INFERTURBO_CHECK(in.size() <= 0xffffffffu)
        << "dataflow block exceeds 2^32 records";
    // One counting pass sizes every destination exactly, then a stable
    // bucketing of record indices by destination; payload bytes are
    // copied once, straight from the dataflow into each destination's
    // block (through the combiner when there is one).
    const auto num_dest = static_cast<std::size_t>(n);
    std::vector<std::uint32_t> dest(in.size());
    std::vector<std::size_t> starts(num_dest + 1, 0);
    std::vector<std::size_t> num_floats(num_dest, 0);
    std::vector<std::size_t> num_ids(num_dest, 0);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const auto d = static_cast<std::size_t>(InstanceOfKey(in.keys[i], n));
      dest[i] = static_cast<std::uint32_t>(d);
      ++starts[d + 1];
      num_floats[d] += in.Floats(i).size();
      num_ids[d] += in.Ids(i).size();
    }
    for (std::size_t d = 0; d < num_dest; ++d) starts[d + 1] += starts[d];
    std::vector<std::uint32_t> bucketed(in.size());
    {
      std::vector<std::size_t> cursor(starts.begin(), starts.end() - 1);
      for (std::size_t i = 0; i < in.size(); ++i) {
        bucketed[cursor[dest[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
    out->assign(num_dest, MrBlock());
    for (std::size_t d = 0; d < num_dest; ++d) {
      const std::span<const std::uint32_t> records(
          bucketed.data() + starts[d], starts[d + 1] - starts[d]);
      MrBlock& block = (*out)[d];
      if (combiner != nullptr) {
        CombineInto(*combiner, in, records, num_floats[d], num_ids[d], &block);
        continue;
      }
      block.Reserve(records.size(), num_floats[d], num_ids[d]);
      for (const std::uint32_t i : records) block.AppendRecord(in, i);
    }
    if (!supervised) dataflow_[p].Release();
    // Shuffle-write accounting: every record leaves through external
    // storage, local or not.
    for (const MrBlock& block : *out) {
      m->bytes_out += block.TotalWireBytes();
      m->records_out += static_cast<std::int64_t>(block.size());
    }
    m->busy_seconds += timer.ElapsedSeconds();
    if (spill) {
      // Producers write their blocks out and release the memory; the
      // reducer half reads them back — the dataflow never lives fully
      // in RAM, which is the MR backend's §IV-C2 selling point. Each
      // block is CRC-framed and lands atomically (temp + rename);
      // transient injected faults are retried with backoff and counted.
      TraceSpan write_span("mr/spill_write", static_cast<std::int64_t>(p));
      for (std::int64_t r = 0; r < n; ++r) {
        MrBlock& block = (*out)[static_cast<std::size_t>(r)];
        if (block.empty()) continue;
        const std::string encoded = EncodeSpillBlock(block);
        std::int64_t retries = 0;
        const Status status = WriteFileAtomic(
            SpillPath(spill_stage, static_cast<std::int64_t>(p), r, attempt),
            encoded, options_.fault_injector, options_.retry, &retries);
        *spill_retries += retries;
        if (!status.ok()) return status;
        *bytes_spilled += encoded.size();
        block.Release();
      }
    }
    return Status::OK();
  };

  if (supervised) {
    const TaskStage shuffle_stage{TaskStageKind::kMrShuffle, spill_stage};
    INFERTURBO_ASSIGN_OR_RETURN(
        const StageResult shuffle_result,
        supervisor->RunStage(
            shuffle_stage, static_cast<std::size_t>(n),
            [&](TaskAttempt* attempt) -> Status {
              std::vector<MrBlock> local_out;
              WorkerStepMetrics local_metrics;
              std::uint64_t local_bytes = 0;
              std::int64_t local_retries = 0;
              INFERTURBO_RETURN_NOT_OK(
                  produce(attempt->task(), attempt->attempt(), &local_out,
                          &local_metrics, &local_bytes, &local_retries));
              if (attempt->TryCommit()) {
                // Only the winner's work enters the books, so counters
                // stay deterministic; loser attempts' blocks are
                // deleted by PromoteSpillBlocks below.
                outgoing[attempt->task()] = std::move(local_out);
                step[attempt->task()] = local_metrics;
                written.fetch_add(local_bytes);
                write_retries.fetch_add(local_retries);
              }
              return Status::OK();
            }));
    // The stage committed everywhere; the resident inputs can go now.
    for (MrBlock& flow : dataflow_) flow.Release();
    if (spill) {
      INFERTURBO_RETURN_NOT_OK(
          PromoteSpillBlocks(spill_stage, shuffle_result.committed_attempt));
    }
  } else {
    pool.ParallelFor(static_cast<std::size_t>(n), [&](std::size_t p) {
      std::uint64_t local_bytes = 0;
      std::int64_t local_retries = 0;
      const Status status = produce(p, /*attempt=*/-1, &outgoing[p], &step[p],
                                    &local_bytes, &local_retries);
      written.fetch_add(local_bytes);
      write_retries.fetch_add(local_retries);
      if (!status.ok()) record_error(status);
    });
  }
  if (spill) {
    spill_bytes_written_ += written.load();
    metrics_.spill_write_retries += write_retries.load();
    if (MetricsEnabled()) {
      GlobalMetrics().GetCounter("mr.spill_bytes_written")
          ->Add(static_cast<std::int64_t>(written.load()));
    }
  }
  if (!first_error.ok()) return first_error;

  // --- reducer side: read, group by key, reduce ----------------------
  const std::int64_t stage = metrics_.num_steps();
  std::atomic<std::int64_t> failures{0};
  std::atomic<std::int64_t> read_retries{0};
  std::vector<MrBlock> next_dataflow(static_cast<std::size_t>(n));
  const auto run_reduce_task =
      [&](std::size_t r, MrBlock* out, WorkerStepMetrics* m,
          std::int64_t* injected_failures,
          std::int64_t* local_read_retries) -> Status {
    WallTimer timer;
    // The reducer holds its whole input while the reduce runs: one
    // batch over every key group, not one key group at a time.
    MrKeyGroups input;
    {
      TraceSpan shuffle_span("mr/shuffle_read", static_cast<std::int64_t>(r));
      std::vector<MrBlock> from_disk(spill ? static_cast<std::size_t>(n) : 0);
      std::vector<const MrBlock*> parts(static_cast<std::size_t>(n));
      for (std::int64_t p = 0; p < n; ++p) {
        const auto pi = static_cast<std::size_t>(p);
        // A supervised attempt may share `outgoing` with a concurrent
        // duplicate of itself; the blocks are only ever read.
        parts[pi] = &outgoing[pi][r];
        if (!spill) continue;
        const std::string path =
            SpillPath(spill_stage, p, static_cast<std::int64_t>(r));
        if (!std::ifstream(path).good()) continue;  // empty block: no file
        // Read + length/checksum verify + decode as one retried unit: a
        // transient short read or bit flip fails validation and the
        // retry re-reads healthy bytes; a persistent fault surfaces as a
        // descriptive Status, never a crash or silent corruption.
        std::int64_t retries = 0;
        const Status status = RetryWithBackoff(
            options_.retry,
            [&] {
              INFERTURBO_ASSIGN_OR_RETURN(
                  const std::string file,
                  ReadFileToString(path, options_.fault_injector));
              return DecodeSpillBlock(file, path, &from_disk[pi]);
            },
            &retries);
        *local_read_retries += retries;
        if (!status.ok()) return status;
        // Supervised attempts must leave the durable shuffle input in
        // place — a retried or duplicate attempt re-reads it; the files
        // are retired once every reduce task has committed.
        if (!supervised) std::remove(path.c_str());
        parts[pi] = &from_disk[pi];
      }
      GroupByKey(parts, &input, m);
      if (!supervised) {
        // This reducer was the blocks' only reader.
        for (std::int64_t p = 0; p < n; ++p) {
          outgoing[static_cast<std::size_t>(p)][r].Release();
        }
      }
    }
    // Shuffle inputs are durable: a failed task (injected) is simply
    // re-executed over the same inputs; the wasted attempt's time is
    // charged. Reduce functions only read their input, so re-execution
    // is exact — MapReduce's fault-tolerance model.
    std::int64_t attempts_left = 1;
    while (options_.failure_injector &&
           options_.failure_injector(stage, static_cast<std::int64_t>(r))) {
      ++attempts_left;
      ++*injected_failures;
      if (attempts_left > 10) {
        return Status::Aborted(
            "failure injector never stopped firing for reduce task " +
            std::to_string(r) + " in stage " + std::to_string(stage) +
            " (gave up after 10 attempts)");
      }
    }
    MrEmitter emitter;
    TraceSpan reduce_span("mr/reduce", static_cast<std::int64_t>(r));
    for (std::int64_t attempt = 0; attempt < attempts_left; ++attempt) {
      emitter.block().Release();
      reduce_fn(input, &emitter);
    }
    *out = std::move(emitter.block());
    m->busy_seconds += timer.ElapsedSeconds();
    if (MetricsEnabled()) {
      static Histogram* hist =
          GlobalMetrics().GetHistogram("mr.reduce_seconds");
      hist->Observe(m->busy_seconds);
    }
    return Status::OK();
  };

  if (supervised) {
    const TaskStage reduce_stage{TaskStageKind::kMrReduce, stage};
    INFERTURBO_ASSIGN_OR_RETURN(
        const StageResult reduce_result,
        supervisor->RunStage(
            reduce_stage, static_cast<std::size_t>(n),
            [&](TaskAttempt* attempt) -> Status {
              MrBlock local_out;
              WorkerStepMetrics local_metrics;
              std::int64_t local_failures = 0;
              std::int64_t local_retries = 0;
              INFERTURBO_RETURN_NOT_OK(
                  run_reduce_task(attempt->task(), &local_out, &local_metrics,
                                  &local_failures, &local_retries));
              if (attempt->TryCommit()) {
                next_dataflow[attempt->task()] = std::move(local_out);
                WorkerStepMetrics& s = step[attempt->task()];
                s.bytes_in += local_metrics.bytes_in;
                s.records_in += local_metrics.records_in;
                s.busy_seconds += local_metrics.busy_seconds;
                s.peak_resident_bytes = std::max(
                    s.peak_resident_bytes, local_metrics.peak_resident_bytes);
                s.model_key_group_bytes =
                    std::max(s.model_key_group_bytes,
                             local_metrics.model_key_group_bytes);
                failures.fetch_add(local_failures);
                read_retries.fetch_add(local_retries);
              }
              return Status::OK();
            }));
    (void)reduce_result;
    if (spill) {
      // Every reduce task committed; retire the round's durable inputs.
      for (std::int64_t p = 0; p < n; ++p) {
        for (std::int64_t r = 0; r < n; ++r) {
          std::remove(SpillPath(spill_stage, p, r).c_str());
        }
      }
    }
  } else {
    pool.ParallelFor(static_cast<std::size_t>(n), [&](std::size_t r) {
      std::int64_t local_failures = 0;
      std::int64_t local_retries = 0;
      const Status status = run_reduce_task(r, &next_dataflow[r], &step[r],
                                            &local_failures, &local_retries);
      failures.fetch_add(local_failures);
      read_retries.fetch_add(local_retries);
      if (!status.ok()) record_error(status);
    });
  }
  failures_recovered_ += failures.load();
  metrics_.spill_read_retries += read_retries.load();
  if (!first_error.ok()) return first_error;

  dataflow_ = std::move(next_dataflow);
  for (std::int64_t i = 0; i < n; ++i) {
    metrics_.workers[static_cast<std::size_t>(i)].steps.push_back(
        step[static_cast<std::size_t>(i)]);
  }
  return Status::OK();
}

std::string MapReduceJob::SerializeDataflow() const {
  BinaryWriter out;
  out.PutU32(kDataflowFormat);
  out.PutI64(options_.num_instances);
  for (const MrBlock& flow : dataflow_) EncodeColumns(flow, &out);
  return out.Take();
}

Status MapReduceJob::RestoreDataflow(std::string_view bytes) {
  BinaryReader in(bytes);
  std::uint32_t format = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetU32(&format));
  if (format != kDataflowFormat) {
    return Status::IoError("unsupported dataflow checkpoint format tag " +
                           std::to_string(format));
  }
  std::int64_t instances = 0;
  INFERTURBO_RETURN_NOT_OK(in.GetI64(&instances));
  if (instances != options_.num_instances) {
    return Status::IoError(
        "checkpointed dataflow has " + std::to_string(instances) +
        " instances, job has " + std::to_string(options_.num_instances));
  }
  std::vector<MrBlock> restored(static_cast<std::size_t>(instances));
  for (MrBlock& flow : restored) {
    INFERTURBO_RETURN_NOT_OK(DecodeColumns(&in, &flow));
  }
  if (!in.AtEnd()) {
    return Status::IoError("trailing bytes after checkpointed dataflow");
  }
  dataflow_ = std::move(restored);
  return Status::OK();
}

MrBlock MapReduceJob::TakeOutputs() {
  std::size_t records = 0, num_floats = 0, num_ids = 0;
  for (const MrBlock& flow : dataflow_) {
    records += flow.size();
    num_floats += flow.floats.size();
    num_ids += flow.ids.size();
  }
  MrBlock out;
  out.Reserve(records, num_floats, num_ids);
  for (MrBlock& flow : dataflow_) {
    for (std::size_t i = 0; i < flow.size(); ++i) out.AppendRecord(flow, i);
    flow.Release();
  }
  return out;
}

}  // namespace inferturbo
