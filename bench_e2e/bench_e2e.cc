// End-to-end benchmark harness: one binary, three modes.
//
//   bench_e2e --mode=gen --workload=W --seed=S --dir=D
//       Makes the workload's inputs under D from the seed: graph tables
//       or a shard pack, model parameters, and (batch workloads) the
//       single-machine reference logits. Nothing here is timed.
//   bench_e2e --mode=run --workload=W --dir=D --seconds=T --trace=0|1
//             --spawn_time=<CLOCK_MONOTONIC seconds> --out=F
//       One timed process: set up, run one discarded warm-up job, time
//       jobs (or an open-loop query stream) for T seconds, sample the
//       peak RSS, then check every output. --trace=1 adds traced jobs
//       afterwards and folds their spans into per-layer numbers.
//   bench_e2e --mode=selftest --dir=D
//       Proves the output check can fail: a corrupted logits row,
//       permuted rows and a skipped layer must all be rejected.
//
// bench_e2e/run.py drives these; see bench_e2e/README.md.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_e2e/span_fold.h"
#include "src/common/crc32.h"
#include "src/common/flags.h"
#include "src/common/thread_pool.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_io.h"
#include "src/inference/incremental.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/inference/output_writer.h"
#include "src/inference/reference_inference.h"
#include "src/nn/model.h"
#include "src/serving/serving_engine.h"
#include "src/serving/workload.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/tensor/kernels/kernels.h"

namespace bench_e2e {
namespace {

using namespace inferturbo;  // NOLINT
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workload shapes. Sizes follow the paper's synthetic Power-Law graph
// and the CLI's planted graph at the 200k-node / 2M-edge scale.

constexpr char kPregel[] = "pregel_powerlaw_sage";
constexpr char kMapReduce[] = "mapreduce_packed_sage";
constexpr char kServe[] = "serve_zipf_delta";

constexpr std::int64_t kNodes = 200'000;
constexpr double kAvgDegree = 10.0;
constexpr std::int64_t kPowerLawFeatures = 64;
constexpr std::int64_t kPlantedFeatures = 16;
constexpr std::int64_t kPlantedClasses = 6;
constexpr std::int64_t kHidden = 32;
constexpr std::int64_t kLayers = 2;
constexpr std::int64_t kOutputShards = 4;

// Correctness tolerance on max |logit - reference|. The seed's
// partition-dependent float reassociation puts Pregel at 4 workers
// 1e-3..1.4e-2 off the single-machine reference on the power-law graph
// (seeds 1-10; about 1e-5 at 1 worker). The bound leaves 7x headroom
// for other worker counts and stays 60x below the error of a permuted
// row or a skipped layer, about 6 (the self-test checks both).
constexpr double kLogitTolerance = 1e-1;

// serve_zipf_delta: open-loop schedule.
// About half the rate this code sustains on a 4-core host (README.md).
constexpr double kQueryRate = 1000.0;  // queries per second
constexpr std::int64_t kIdsPerQuery = 4;
constexpr double kQueryZipfAlpha = 1.1;
constexpr double kDeltaPeriodS = 0.5;       // one mutation per period
constexpr std::int64_t kDeltaFeatureRows = 4;
constexpr std::int64_t kDeltaNewEdges = 2;
constexpr int kWarmupQueries = 200;
constexpr double kTracedWindowS = 2.0;

std::int64_t NumCpus() {
  return std::max<std::int64_t>(1, std::thread::hardware_concurrency());
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// steady_clock is CLOCK_MONOTONIC on Linux, the clock Python's
// time.monotonic() reads, so this compares with run.py's --spawn_time.
double MonotonicSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// Peak RSS of a window: ResetPeakRss() lowers the kernel's
// high-water mark (VmHWM, what ru_maxrss reports) to the current RSS, and
// PeakRssMb() reads it back. Where the kernel refuses the reset, the
// reading stays the lifetime peak.
void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

ModelConfig SageConfig(std::int64_t input_dim, std::int64_t classes,
                       std::uint64_t seed) {
  ModelConfig config;
  config.input_dim = input_dim;
  config.hidden_dim = kHidden;
  config.num_classes = classes;
  config.num_layers = kLayers;
  config.seed = seed;
  return config;
}

std::unique_ptr<GnnModel> LoadModel(const std::string& dir,
                                    std::int64_t input_dim,
                                    std::int64_t classes) {
  std::unique_ptr<GnnModel> model =
      MakeSageModel(SageConfig(input_dim, classes, 1));
  Check(model->LoadParameters(dir + "/model.bin"), "load model");
  return model;
}

// ---------------------------------------------------------------------
// Logits files and the output check.

void WriteLogits(const Tensor& t, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  const std::int64_t shape[2] = {t.rows(), t.cols()};
  out.write(reinterpret_cast<const char*>(shape), sizeof(shape));
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.ByteSize()));
  if (!out) Die("cannot write " + path);
}

Tensor ReadLogits(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::int64_t shape[2] = {0, 0};
  in.read(reinterpret_cast<char*>(shape), sizeof(shape));
  if (!in || shape[0] <= 0 || shape[1] <= 0) Die("bad logits file " + path);
  Tensor t(shape[0], shape[1]);
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.ByteSize()));
  if (!in) Die("truncated logits file " + path);
  return t;
}

std::uint32_t LogitsCrc(const Tensor& t) {
  return Crc32(t.data(), t.ByteSize());
}

std::uint32_t PredictionsCrc(const std::vector<std::int64_t>& p) {
  return Crc32(p.data(), p.size() * sizeof(std::int64_t));
}

/// max |a - b| over all entries; +inf on a shape mismatch or NaN.
double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a.data()[i]) -
                               static_cast<double>(b.data()[i]));
    if (!(d <= worst)) worst = std::isnan(d) ? INFINITY : d;
  }
  return worst;
}

bool WithinTolerance(double err) { return err <= kLogitTolerance; }

// ---------------------------------------------------------------------
// gen

Graph PlantedGraph(std::int64_t nodes, std::uint64_t seed) {
  PlantedGraphConfig config;
  config.num_nodes = nodes;
  config.avg_degree = kAvgDegree;
  config.num_classes = kPlantedClasses;
  config.feature_dim = kPlantedFeatures;
  config.homophily = 0.75;
  config.seed = seed;
  return MakePlantedDataset("planted", config).graph;
}

Graph PowerLawGraph(std::int64_t nodes, std::uint64_t seed) {
  PowerLawConfig config;
  config.num_nodes = nodes;
  config.avg_degree = kAvgDegree;
  config.skew = PowerLawSkew::kBoth;
  config.alpha = 2.0;
  config.seed = seed;
  return MakePowerLawDataset(config, kPowerLawFeatures).graph;
}

int Gen(const FlagParser& flags) {
  const std::string workload = flags.GetString("workload", "");
  const std::string dir = flags.GetString("dir", "");
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  if (dir.empty()) Die("--dir is required");
  fs::create_directories(dir);

  const bool pregel = workload == kPregel;
  if (!pregel && workload != kMapReduce && workload != kServe) {
    Die("unknown workload '" + workload + "'");
  }
  const Graph graph = pregel ? PowerLawGraph(kNodes, seed)
                             : PlantedGraph(kNodes, seed);
  const std::unique_ptr<GnnModel> model = MakeSageModel(
      SageConfig(graph.feature_dim(), graph.num_classes(), seed * 7919 + 11));
  Check(model->SaveParameters(dir + "/model.bin"), "save model");
  if (pregel) {
    Check(WriteNodeTable(graph, dir + "/nodes.tsv"), "node table");
    Check(WriteEdgeTable(graph, dir + "/edges.tsv"), "edge table");
  } else {
    ShardWriterOptions options;
    options.num_partitions = 4 * NumCpus();
    Unwrap(WriteGraphShards(graph, dir + "/shards", options), "pack");
  }
  if (workload != kServe) {
    WriteLogits(FullGraphReferenceLogits(*model, graph), dir + "/ref.bin");
  }
  std::printf("generated %s seed %llu: %lld nodes / %lld edges\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<long long>(graph.num_nodes()),
              static_cast<long long>(graph.num_edges()));
  return 0;
}

// ---------------------------------------------------------------------
// Batch jobs

struct JobOutcome {
  Status status = Status::OK();
  double wall_s = 0.0;
  double run_s = 0.0;
  double write_s = 0.0;
  std::uint32_t logits_crc = 0;
  std::uint32_t predictions_crc = 0;
  std::string output_dir;
  std::int64_t engine_begin_ns = 0;
  std::int64_t engine_end_ns = 0;
  InferenceResult result;  // kept only when the caller asks
};

struct BatchContext {
  std::string workload;
  std::string dir;
  std::uint64_t budget_bytes = 0;     // MapReduce store budget
  std::uint64_t pack_bytes = 0;
  std::uint64_t table_bytes = 0;      // Pregel TSV tables
  std::int64_t read_path = -1;  // none until a shard store is opened
  std::int64_t workers = 0;
  int jobs_run = 0;
};

InferTurboOptions EngineOptions(std::int64_t workers, bool broadcast) {
  InferTurboOptions options;
  options.num_workers = workers;
  options.strategies.partial_gather = true;
  options.strategies.broadcast = broadcast;
  return options;
}

JobOutcome RunBatchJob(BatchContext* ctx, bool keep_result) {
  JobOutcome job;
  job.output_dir = ctx->dir + "/out/job_" + std::to_string(ctx->jobs_run++);
  const Clock::time_point t0 = Clock::now();
  Result<InferenceResult> result = Status::Internal("not run");
  Clock::time_point t_loaded, t_ran;
  if (ctx->workload == kPregel) {
    Result<Graph> graph = Status::Internal("not loaded");
    {
      TraceSpan span("bench/load");
      graph = LoadGraphFromTables(ctx->dir + "/nodes.tsv",
                                  ctx->dir + "/edges.tsv");
    }
    if (!graph.ok()) {
      job.status = graph.status();
      return job;
    }
    const std::unique_ptr<GnnModel> model =
        LoadModel(ctx->dir, graph->feature_dim(), graph->num_classes());
    t_loaded = Clock::now();
    ctx->workers = NumCpus();
    job.engine_begin_ns = TraceNowNs();
    {
      TraceSpan span("bench/run");
      result = RunInferTurboPregel(*graph, *model,
                                   EngineOptions(ctx->workers, true));
    }
    job.engine_end_ns = TraceNowNs();
    t_ran = Clock::now();
  } else {
    Result<ShardStore> store = Status::Internal("not opened");
    {
      TraceSpan span("bench/open");
      ShardStoreOptions options;
      options.directory = ctx->dir + "/shards";
      options.memory_budget_bytes = ctx->budget_bytes;
      store = ShardStore::Open(std::move(options));
    }
    if (!store.ok()) {
      job.status = store.status();
      return job;
    }
    ctx->read_path = static_cast<std::int64_t>(store->read_path());
    ShardGraphView view(std::move(*store));
    const std::unique_ptr<GnnModel> model =
        LoadModel(ctx->dir, view.feature_dim(), view.num_classes());
    t_loaded = Clock::now();
    ctx->workers = view.num_partitions();
    job.engine_begin_ns = TraceNowNs();
    {
      TraceSpan span("bench/run");
      result = RunInferTurboMapReduce(view, *model,
                                      EngineOptions(ctx->workers, false));
    }
    job.engine_end_ns = TraceNowNs();
    t_ran = Clock::now();
  }
  if (!result.ok()) {
    job.status = result.status();
    return job;
  }
  {
    TraceSpan span("bench/write");
    std::error_code ec;
    fs::create_directories(job.output_dir, ec);
    OutputWriterOptions writer;
    writer.num_shards = kOutputShards;
    job.status = ec ? Status::IoError("mkdir " + job.output_dir)
                    : WriteInferenceOutput(*result, job.output_dir, writer);
  }
  const Clock::time_point t_written = Clock::now();
  job.run_s = Seconds(t_loaded, t_ran);
  job.write_s = Seconds(t_ran, t_written);
  job.wall_s = Seconds(t0, t_written);
  job.logits_crc = LogitsCrc(result->logits);
  job.predictions_crc = PredictionsCrc(result->predictions);
  if (keep_result) job.result = std::move(*result);
  return job;
}

/// Ratio of the per-round slowest worker to the per-round mean worker,
/// summed over rounds in [first_step, num_steps): 1.0 = balanced.
double BusySkew(const JobMetrics& m, std::int64_t first_step) {
  double max_sum = 0.0, mean_sum = 0.0;
  for (std::int64_t s = first_step; s < m.num_steps(); ++s) {
    double mx = 0.0, total = 0.0;
    for (const WorkerMetrics& w : m.workers) {
      const double b = w.steps[static_cast<std::size_t>(s)].busy_seconds;
      mx = std::max(mx, b);
      total += b;
    }
    max_sum += mx;
    mean_sum += total / static_cast<double>(m.workers.size());
  }
  return mean_sum > 0.0 ? max_sum / mean_sum : 0.0;
}

std::int64_t RecordsOut(const JobMetrics& m) {
  std::int64_t total = 0;
  for (const WorkerStepMetrics& w : m.PerWorkerTotals()) {
    total += w.records_out;
  }
  return total;
}

// Per-layer metrics of one traced job; run.py reports those a workload
// does not exercise as 0.
using Layer = std::map<std::string, double>;

// The kernel ops full-graph inference, incremental deltas and serving
// batches call.
const char* const kKernelOps[] = {"matmul", "segment_sum", "gather_rows"};

/// Kernel counters from the registry (values since the last reset).
void AddKernelCounters(Layer* l) {
  const MetricRegistry::Sample sample = GlobalMetrics().TakeSample();
  double flops = 0.0, bytes = 0.0;
  for (const char* op : kKernelOps) {
    for (const char* field : {"calls", "flops", "bytes"}) {
      const std::string key = std::string("kernel.") + op + "." + field;
      auto it = sample.counters.find(key);
      const double v = it == sample.counters.end()
                           ? 0.0
                           : static_cast<double>(it->second);
      (*l)[key] = v;
      if (std::strcmp(field, "flops") == 0) flops += v;
      if (std::strcmp(field, "bytes") == 0) bytes += v;
    }
  }
  (*l)["kernel.bytes_per_flop"] = flops > 0.0 ? bytes / flops : 0.0;
}

void StartTracing() {
  SetTracingEnabled(true);
  SetMetricsEnabled(true);
  ClearTrace();
  GlobalMetrics().ResetValues();
}

/// One traced batch job folded into the per-layer table.
Layer TracedBatchJob(BatchContext* ctx, JobOutcome* job_out) {
  StartTracing();
  JobOutcome job = RunBatchJob(ctx, /*keep_result=*/true);
  Layer l;
  AddKernelCounters(&l);
  SetTracingEnabled(false);
  SetMetricsEnabled(false);
  const std::vector<TraceEvent> events = DrainTrace();
  if (!job.status.ok()) {
    *job_out = std::move(job);
    return l;
  }
  const FoldedTrace folded = FoldTrace(events);
  auto self = [&](const char* name) {
    auto it = folded.by_name.find(name);
    return it == folded.by_name.end() ? 0.0 : it->second.self_s;
  };
  auto crit = [&](const char* name) {
    auto it = folded.by_name.find(name);
    return it == folded.by_name.end() ? 0.0 : it->second.critical_s;
  };
  const JobMetrics& m = job.result.metrics;
  l["engine.run_s"] = job.run_s;
  const double covered = CoveredSeconds(
      events, {"pregel/", "mr/", "storage/", "pipeline/"},
      job.engine_begin_ns, job.engine_end_ns);
  l["engine.unattributed_frac"] =
      job.run_s > 0.0 ? 1.0 - covered / job.run_s : 0.0;
  l["output.write_s"] = job.write_s;
  l["output.bytes"] = static_cast<double>(DirectoryBytes(job.output_dir));
  if (ctx->workload == kPregel) {
    l["graph.load_s"] = self("bench/load");
    l["graph.load_mb"] = static_cast<double>(ctx->table_bytes) / 1e6;
    for (const char* stage :
         {"gather", "apply", "scatter", "combine", "route"}) {
      const std::string span = std::string("pregel/") + stage;
      l[std::string("pregel.") + stage + "_s"] = self(span.c_str());
      l[std::string("pregel.") + stage + "_crit_s"] = crit(span.c_str());
    }
    l["pregel.barrier_s"] = self("pregel/barrier");
    l["pregel.bytes_out"] = static_cast<double>(m.TotalBytesOut());
    l["pregel.records_out"] = static_cast<double>(RecordsOut(m));
    l["pregel.busy_skew"] = BusySkew(m, 0);
  } else {
    for (const char* stage :
         {"map", "shuffle_partition", "shuffle_read", "reduce"}) {
      const std::string span = std::string("mr/") + stage;
      l[std::string("mr.") + stage + "_s"] = self(span.c_str());
      l[std::string("mr.") + stage + "_crit_s"] = crit(span.c_str());
    }
    l["mr.shuffle_bytes"] = static_cast<double>(m.TotalBytesOut());
    l["mr.shuffle_records"] = static_cast<double>(RecordsOut(m));
    l["mr.reduce_skew"] = BusySkew(m, 1);
    const StorageMetrics& s = m.storage;
    l["storage.open_s"] = self("bench/open");
    l["storage.pipeline_wait_s"] = s.pipeline_wait_seconds;
    l["storage.overlap_s"] = s.overlap_seconds;
    // Bytes read: the file of every partition a storage/load span
    // loaded (a storage span's track is its partition).
    double read_bytes = 0.0;
    for (std::int64_t p : folded.loaded_partitions) {
      read_bytes += static_cast<double>(
          fs::file_size(ctx->dir + "/shards/" + ShardFileName(p)));
    }
    l["storage.read_mb"] = read_bytes / 1e6;
    l["storage.map_calls"] = static_cast<double>(s.map_calls);
    l["storage.evictions"] = static_cast<double>(s.evictions);
    l["storage.peak_mapped_mb"] =
        static_cast<double>(s.peak_bytes_mapped) / 1e6;
    l["storage.budget_mb"] = static_cast<double>(ctx->budget_bytes) / 1e6;
  }
  job.result = InferenceResult();
  *job_out = std::move(job);
  return l;
}

JsonValue LayerJson(const Layer& l) {
  JsonValue::Object o;
  for (const auto& [k, v] : l) o[k] = JsonValue(v);
  return JsonValue(std::move(o));
}

JsonValue Doubles(const std::vector<double>& v) {
  JsonValue::Array a;
  for (double x : v) a.emplace_back(x);
  return JsonValue(std::move(a));
}

JsonValue Provenance(const std::string& workload, std::int64_t workers,
                     std::int64_t read_path) {
  JsonValue::Object o;
  o["workload"] = JsonValue(workload);
  o["nproc"] = JsonValue(NumCpus());
  o["workers"] = JsonValue(workers);
  o["build_type"] = JsonValue(BENCH_E2E_BUILD_TYPE);
  o["avx2"] = JsonValue(kernels::UsingAvx2());
  o["read_path"] = JsonValue(
      read_path < 0 ? std::string("none")
                    : std::string(ShardReadPathName(
                          static_cast<ShardReadPath>(read_path))));
  o["logit_tolerance"] = JsonValue(kLogitTolerance);
  return JsonValue(std::move(o));
}

// Moves each worker of `pool` onto a CPU of its own, then hands it back
// the process's full CPU mask, so the kernel schedules it freely from
// there. On the 4-vCPU KVM guest this was tuned on, the four Pregel
// workers of a fresh process often stayed on one vCPU for 10-70 s (a
// likely cause: the guest reads idle vCPUs as preempted, so it wakes
// threads where they last ran), which tripled the engine time (0.25 ->
// 0.75 s) in some processes and not others. One spread at start-up,
// outside every timed window, stops that without pinning.
void SpreadPoolThreads(ThreadPool& pool) {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  // Every task waits until all have started, so each runs on its own
  // pool thread.
  const std::size_t n = pool.num_threads();
  std::atomic<std::size_t> started{0}, moved{0};
  for (std::size_t i = 0; i < n; ++i) {
    pool.Submit([&, i] {
      started.fetch_add(1);
      while (started.load() < n) std::this_thread::yield();
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      moved.fetch_add(1);
      while (moved.load() < n) std::this_thread::yield();
      pthread_setaffinity_np(pthread_self(), sizeof(all), &all);
    });
  }
  pool.Wait();
}

int RunBatch(const FlagParser& flags, double spawn_time) {
  BatchContext ctx;
  ctx.workload = flags.GetString("workload", "");
  ctx.dir = flags.GetString("dir", "");
  const double seconds = flags.GetDouble("seconds", 5.0);
  const bool trace = flags.GetBool("trace", false);
  if (ctx.workload == kPregel) {
    ctx.table_bytes = fs::file_size(ctx.dir + "/nodes.tsv") +
                      fs::file_size(ctx.dir + "/edges.tsv");
  } else {
    const std::string shards = ctx.dir + "/shards";
    std::uint64_t largest = 0;
    for (const auto& entry : fs::directory_iterator(shards)) {
      if (!entry.is_regular_file()) continue;
      ctx.pack_bytes += entry.file_size();
      largest = std::max<std::uint64_t>(largest, entry.file_size());
    }
    ctx.budget_bytes = std::max(ctx.pack_bytes / 8, largest);
  }
  fs::remove_all(ctx.dir + "/out");
  SpreadPoolThreads(DefaultThreadPool());

  // Warm-up job: discarded, counted in set-up. Its logits stay as the
  // copy the reference check reads after timing. The process's peak RSS
  // so far is that of one job in a fresh process, which is how the CLI
  // runs a job; later jobs add whatever the allocator kept from earlier
  // ones, so their peaks grow with the number of jobs run.
  JobOutcome warm = RunBatchJob(&ctx, /*keep_result=*/true);
  if (!warm.status.ok()) Die("warm-up job: " + warm.status.ToString());
  const double peak_rss_mb = PeakRssMb();
  const Clock::time_point timed_start = Clock::now();
  const double setup_s = MonotonicSeconds() - spawn_time;

  std::vector<JobOutcome> jobs;
  std::vector<double> job_s;
  while (jobs.empty() || Seconds(timed_start, Clock::now()) < seconds) {
    JobOutcome job = RunBatchJob(&ctx, /*keep_result=*/false);
    if (job.status.ok()) job_s.push_back(job.wall_s);
    jobs.push_back(std::move(job));
  }

  std::vector<Layer> layers;
  if (trace) {
    JobOutcome traced;
    Layer l = TracedBatchJob(&ctx, &traced);
    const double untraced = Median(job_s);
    l["trace.overhead_frac"] =
        untraced > 0.0 ? traced.wall_s / untraced - 1.0 : 0.0;
    layers.push_back(std::move(l));
    jobs.push_back(std::move(traced));
  }

  // Output checks, after timing and after the RSS sample.
  const Tensor reference = ReadLogits(ctx.dir + "/ref.bin");
  const double logits_err = MaxAbsDiff(warm.result.logits, reference);
  std::int64_t failed = 0;
  std::int64_t crc_mismatches = 0, readback_failures = 0;
  for (const JobOutcome& job : jobs) {
    bool ok = job.status.ok();
    if (!ok) {
      std::fprintf(stderr, "job failed: %s\n", job.status.ToString().c_str());
    }
    if (ok && (job.logits_crc != warm.logits_crc ||
               job.predictions_crc != warm.predictions_crc)) {
      ++crc_mismatches;
      ok = false;
    }
    if (ok) {
      const Result<std::vector<std::int64_t>> back =
          ReadPredictions(job.output_dir);
      if (!back.ok() || PredictionsCrc(*back) != job.predictions_crc) {
        ++readback_failures;
        ok = false;
      }
    }
    if (ok && !WithinTolerance(logits_err)) ok = false;
    if (!ok) ++failed;
  }
  fs::remove_all(ctx.dir + "/out");

  JsonValue::Object out;
  out["provenance"] = Provenance(ctx.workload, ctx.workers, ctx.read_path);
  out["setup_s"] = JsonValue(setup_s);
  out["attempted"] = JsonValue(static_cast<std::int64_t>(jobs.size()));
  out["failed"] = JsonValue(failed);
  out["logits_err"] = JsonValue(logits_err);
  out["crc_mismatches"] = JsonValue(crc_mismatches);
  out["readback_failures"] = JsonValue(readback_failures);
  JsonValue::Object samples;
  samples["job_s"] = Doubles(job_s);
  samples["peak_rss_mb"] = Doubles({peak_rss_mb});
  out["samples"] = JsonValue(std::move(samples));
  JsonValue::Array layer_rows;
  for (const Layer& l : layers) layer_rows.push_back(LayerJson(l));
  out["per_layer"] = JsonValue(std::move(layer_rows));
  JsonValue::Object storage;
  storage["budget_mb"] = JsonValue(static_cast<double>(ctx.budget_bytes) / 1e6);
  storage["pack_mb"] = JsonValue(static_cast<double>(ctx.pack_bytes) / 1e6);
  storage["peak_mapped_mb"] = JsonValue(
      static_cast<double>(warm.result.metrics.storage.peak_bytes_mapped) /
      1e6);
  out["storage"] = JsonValue(std::move(storage));
  const std::string path = flags.GetString("out", "");
  std::ofstream f(path);
  f << JsonValue(std::move(out)).Dump(1) << "\n";
  if (!f) Die("cannot write " + path);
  return 0;
}


// ---------------------------------------------------------------------
// serve_zipf_delta: open-loop queries beside a periodic writer.

struct OpenLoopResult {
  std::vector<double> latency_ms;  // from when each query was due
  std::vector<double> late_ms;     // how late the generator issued it
  std::vector<double> delta_ms;    // ApplyMutation wall
  std::vector<DeltaApplied> applied;
  std::int64_t queries = 0;
  std::int64_t failed_queries = 0;
  std::int64_t epoch_violations = 0;
  std::int64_t deltas = 0;
  std::int64_t failed_deltas = 0;
  ServingStats before, after;
};

std::vector<std::vector<NodeId>> NextQueries(ZipfQueryStream* stream,
                                             std::int64_t n) {
  std::vector<std::vector<NodeId>> q(static_cast<std::size_t>(n));
  for (auto& ids : q) ids = stream->Next(kIdsPerQuery);
  return q;
}

/// Queries arrive at kQueryRate on one fixed schedule whatever the
/// engine does; NumCpus()-1 threads issue them and the calling thread
/// applies one mutation per kDeltaPeriodS. A query that fails counts as
/// a miss of every latency limit (+inf).
OpenLoopResult RunOpenLoop(ServingEngine* engine, ZipfQueryStream* stream,
                           DeltaStream* deltas, double seconds) {
  OpenLoopResult r;
  const std::int64_t n =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(seconds * kQueryRate));
  const std::vector<std::vector<NodeId>> queries = NextQueries(stream, n);
  r.latency_ms.assign(static_cast<std::size_t>(n), 0.0);
  r.late_ms.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<char> ok(static_cast<std::size_t>(n), 0);
  std::vector<char> epoch_ok(static_cast<std::size_t>(n), 1);
  r.before = engine->stats();

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [t0](double offset_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
  };
  std::atomic<std::int64_t> next{0};
  std::vector<std::thread> threads;
  for (std::int64_t t = 0; t < std::max<std::int64_t>(1, NumCpus() - 1); ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        const Clock::time_point when =
            due(static_cast<double>(i) / kQueryRate);
        std::this_thread::sleep_until(when);
        const Clock::time_point issued = Clock::now();
        const std::int64_t e0 = engine->epoch();
        const Result<QueryResponse> resp =
            engine->Query(queries[static_cast<std::size_t>(i)]);
        const Clock::time_point done = Clock::now();
        const std::int64_t e1 = engine->epoch();
        const std::size_t k = static_cast<std::size_t>(i);
        r.late_ms[k] = Seconds(when, issued) * 1e3;
        ok[k] = resp.ok() && resp->logits.rows() == kIdsPerQuery;
        if (resp.ok() && (resp->epoch < e0 || resp->epoch > e1)) {
          epoch_ok[k] = 0;
        }
        r.latency_ms[k] = ok[k] ? Seconds(when, done) * 1e3
                                : std::numeric_limits<double>::infinity();
      }
    });
  }
  for (std::int64_t k = 0;; ++k) {
    const double offset = static_cast<double>(k) * kDeltaPeriodS;
    if (offset >= seconds) break;
    const GraphMutation mutation = deltas->Next();
    std::this_thread::sleep_until(due(offset));
    const Clock::time_point start = Clock::now();
    const Result<DeltaApplied> applied = engine->ApplyMutation(mutation);
    const double ms = Seconds(start, Clock::now()) * 1e3;
    ++r.deltas;
    if (!applied.ok()) {
      std::fprintf(stderr, "delta failed: %s\n",
                   applied.status().ToString().c_str());
      ++r.failed_deltas;
      continue;
    }
    r.delta_ms.push_back(ms);
    r.applied.push_back(*applied);
  }
  for (std::thread& t : threads) t.join();
  r.after = engine->stats();
  r.queries = n;
  for (std::size_t k = 0; k < ok.size(); ++k) {
    if (!ok[k]) ++r.failed_queries;
    if (!epoch_ok[k]) ++r.epoch_violations;
  }
  return r;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Layer ServingLayer(const OpenLoopResult& r) {
  Layer l;
  std::vector<double> rebuild, incremental, cone, invalidated;
  for (std::size_t i = 0; i < r.applied.size(); ++i) {
    const DeltaApplied& a = r.applied[i];
    rebuild.push_back(r.delta_ms[i] / 1e3 - a.seconds);
    incremental.push_back(a.seconds);
    cone.push_back(static_cast<double>(a.recomputed_nodes));
    invalidated.push_back(static_cast<double>(a.invalidated_cache_rows));
  }
  l["serving.rebuild_s"] = Median(rebuild);
  l["serving.incremental_s"] = Median(incremental);
  l["serving.cone_nodes"] = Median(cone);
  l["serving.invalidated_rows"] = Median(invalidated);
  const double hits =
      static_cast<double>(r.after.cache_hits - r.before.cache_hits);
  const double lookups =
      hits + static_cast<double>(r.after.cache_misses - r.before.cache_misses);
  l["serving.cache_hits"] = hits;
  l["serving.cache_lookups"] = lookups;
  l["serving.cache_hit_rate"] = lookups > 0.0 ? hits / lookups : 0.0;
  const double batches =
      static_cast<double>(r.after.batches - r.before.batches);
  l["serving.batch_occupancy"] =
      batches > 0.0
          ? static_cast<double>(r.after.queries - r.before.queries) / batches
          : 0.0;
  l["loadgen.late_ms"] = Percentile(r.late_ms, 0.99);
  return l;
}

int RunServe(const FlagParser& flags, double spawn_time) {
  const std::string dir = flags.GetString("dir", "");
  const double seconds = flags.GetDouble("seconds", 5.0);
  const bool trace = flags.GetBool("trace", false);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  ShardStoreOptions store_options;
  store_options.directory = dir + "/shards";
  ShardGraphView view(
      Unwrap(ShardStore::Open(std::move(store_options)), "open pack"));
  const std::int64_t read_path =
      static_cast<std::int64_t>(view.store().read_path());
  Graph graph = Unwrap(MaterializeGraph(view), "materialize");
  const std::unique_ptr<GnnModel> model =
      LoadModel(dir, graph.feature_dim(), graph.num_classes());
  const std::int64_t query_domain = graph.num_nodes();
  ServingOptions options;
  options.cache_logits = true;
  ServingEngine engine(model.get(), std::move(graph), options);

  ZipfQueryStream stream(query_domain, kQueryZipfAlpha, seed);
  DeltaStream::Options delta_options;
  delta_options.feature_updates = kDeltaFeatureRows;
  delta_options.new_edges = kDeltaNewEdges;
  delta_options.new_node_every = 0;
  delta_options.zipf_alpha = kQueryZipfAlpha;
  delta_options.seed = seed + 7777;
  DeltaStream deltas(*engine.graph_snapshot(), delta_options);

  // Warm-up (discarded, counted in set-up): closed-loop queries and one
  // mutation.
  for (const std::vector<NodeId>& q : NextQueries(&stream, kWarmupQueries)) {
    Unwrap(engine.Query(q), "warm-up query");
  }
  Unwrap(engine.ApplyMutation(deltas.Next()), "warm-up mutation");
  const double setup_s = MonotonicSeconds() - spawn_time;

  ResetPeakRss();
  const OpenLoopResult timed = RunOpenLoop(&engine, &stream, &deltas, seconds);
  const double peak_rss_mb = PeakRssMb();

  std::vector<Layer> layers;
  std::int64_t attempted = timed.queries + timed.deltas;
  std::int64_t failed = timed.failed_queries + timed.failed_deltas +
                        timed.epoch_violations;
  if (trace) {
    Layer l = ServingLayer(timed);
    StartTracing();
    const OpenLoopResult traced =
        RunOpenLoop(&engine, &stream, &deltas, kTracedWindowS);
    AddKernelCounters(&l);
    SetTracingEnabled(false);
    SetMetricsEnabled(false);
    DrainTrace();
    const double untraced = Median(timed.latency_ms);
    l["trace.overhead_frac"] =
        untraced > 0.0 ? Median(traced.latency_ms) / untraced - 1.0 : 0.0;
    layers.push_back(std::move(l));
    attempted += traced.queries + traced.deltas;
    failed += traced.failed_queries + traced.failed_deltas +
              traced.epoch_violations;
  }

  // Final epoch: every served row bit-identical to a from-scratch run
  // on the final graph.
  const std::shared_ptr<const Graph> final_graph = engine.graph_snapshot();
  std::vector<NodeId> all(static_cast<std::size_t>(final_graph->num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  const Result<QueryResponse> served = engine.Query(all);
  const Tensor reference = FullGraphReferenceLogits(*model, *final_graph);
  const bool identical =
      served.ok() && served->logits.rows() == reference.rows() &&
      served->logits.cols() == reference.cols() &&
      std::memcmp(served->logits.data(), reference.data(),
                  reference.ByteSize()) == 0;
  const double logits_err = served.ok()
                                ? MaxAbsDiff(served->logits, reference)
                                : std::numeric_limits<double>::infinity();
  ++attempted;
  if (!identical) ++failed;

  JsonValue::Object out;
  out["provenance"] = Provenance(kServe, 0, read_path);
  out["setup_s"] = JsonValue(setup_s);
  out["attempted"] = JsonValue(attempted);
  out["failed"] = JsonValue(failed);
  out["logits_err"] = JsonValue(logits_err);
  out["final_epoch_bit_identical"] = JsonValue(identical);
  out["final_epoch"] = JsonValue(served.ok() ? served->epoch : -1);
  out["epoch_violations"] = JsonValue(timed.epoch_violations);
  JsonValue::Object samples;
  samples["query_ms"] = Doubles(timed.latency_ms);
  samples["late_ms"] = Doubles(timed.late_ms);
  samples["delta_ms"] = Doubles(timed.delta_ms);
  samples["peak_rss_mb"] = Doubles({peak_rss_mb});
  out["samples"] = JsonValue(std::move(samples));
  JsonValue::Array layer_rows;
  for (const Layer& l : layers) layer_rows.push_back(LayerJson(l));
  out["per_layer"] = JsonValue(std::move(layer_rows));
  const std::string path = flags.GetString("out", "");
  std::ofstream f(path);
  f << JsonValue(std::move(out)).Dump(1) << "\n";
  if (!f) Die("cannot write " + path);
  return 0;
}

// ---------------------------------------------------------------------
// selftest: the checks must reject broken outputs.

int SelfTest(const FlagParser& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) Die("--dir is required");
  fs::create_directories(dir);
  const Graph graph = PowerLawGraph(3000, 5);
  const std::unique_ptr<GnnModel> model = MakeSageModel(
      SageConfig(graph.feature_dim(), graph.num_classes(), 17));
  const Tensor reference = FullGraphReferenceLogits(*model, graph);
  InferenceResult result = Unwrap(
      RunInferTurboPregel(graph, *model, EngineOptions(NumCpus(), true)),
      "pregel");

  int failures = 0;
  auto expect = [&](const char* what, double err, bool should_pass) {
    const bool passed = WithinTolerance(err);
    std::printf("selftest %-22s max|d|=%-12.6g %s (expected %s)\n", what, err,
                passed ? "pass" : "FAIL", should_pass ? "pass" : "FAIL");
    if (passed != should_pass) ++failures;
  };
  expect("engine_output", MaxAbsDiff(result.logits, reference), true);

  Tensor corrupted = result.logits;
  const std::int64_t row = corrupted.rows() / 2;
  for (std::int64_t c = 0; c < corrupted.cols(); ++c) {
    corrupted.At(row, c) += static_cast<float>(2 * kLogitTolerance);
  }
  expect("corrupted_row", MaxAbsDiff(corrupted, reference), false);
  if (LogitsCrc(corrupted) == LogitsCrc(result.logits)) {
    std::printf("selftest corrupted_row CRC unchanged\n");
    ++failures;
  }

  Tensor permuted = result.logits;
  for (std::int64_t r = 0; r < permuted.rows(); ++r) {
    permuted.SetRow(r, result.logits.RowPtr((r + 1) % permuted.rows()));
  }
  expect("permuted_rows", MaxAbsDiff(permuted, reference), false);

  const LayerStates states = ComputeLayerStates(*model, graph);
  const Tensor skipped = model->PredictLogits(
      states.states[static_cast<std::size_t>(states.num_layers() - 1)]);
  expect("skipped_layer", MaxAbsDiff(skipped, reference), false);

  // Read-back: a flipped byte in a written shard must fail the
  // manifest CRC.
  const std::string out_dir = dir + "/selftest_out";
  fs::remove_all(out_dir);
  fs::create_directories(out_dir);
  OutputWriterOptions writer;
  writer.num_shards = kOutputShards;
  Check(WriteInferenceOutput(result, out_dir, writer), "write");
  const bool clean_ok = ReadPredictions(out_dir).ok();
  {
    const std::string shard = out_dir + "/scores_00000.tsv";
    std::fstream f(shard, std::ios::in | std::ios::out | std::ios::binary);
    if (!f) Die("cannot open " + shard);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(0);
    f.write(&byte, 1);
  }
  const bool corrupt_rejected = !ReadPredictions(out_dir).ok();
  std::printf("selftest readback clean=%s flipped_byte_rejected=%s\n",
              clean_ok ? "yes" : "no", corrupt_rejected ? "yes" : "no");
  if (!clean_ok || !corrupt_rejected) ++failures;
  fs::remove_all(out_dir);
  std::printf("selftest %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, const char* const argv[]) {
  const double start = MonotonicSeconds();
  const FlagParser flags = Unwrap(FlagParser::Parse(argc, argv), "flags");
  const std::string mode = flags.GetString("mode", "");
  if (mode == "gen") return Gen(flags);
  if (mode == "selftest") return SelfTest(flags);
  if (mode == "run") {
    const double spawn_time = flags.GetDouble("spawn_time", start);
    const std::string workload = flags.GetString("workload", "");
    if (workload == kServe) return RunServe(flags, spawn_time);
    if (workload == kPregel || workload == kMapReduce) {
      return RunBatch(flags, spawn_time);
    }
    Die("unknown workload '" + workload + "'");
  }
  Die("--mode must be gen, run or selftest");
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) { return bench_e2e::Main(argc, argv); }
