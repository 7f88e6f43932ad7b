// Observability-plane acceptance: the analytic kernel work estimates,
// the lock-free flight recorder under multi-threaded hammering and
// ring wrap, incomplete-span drains, the serve-mode timeline sampler's
// JSONL output, report_diff gating semantics, and the plane-wide
// zero-perturbation contract: every switch on at once must not move a
// single logit bit on either backend.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/json.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/report_diff.h"
#include "src/telemetry/timeline.h"
#include "src/telemetry/trace.h"
#include "src/tensor/kernels/kernel_stats.h"

namespace inferturbo {
namespace {

/// Every test restores all three switches to their defaults (off) and
/// clears the ring/trace/registry so cases cannot observe each other.
class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAll(); }
  void TearDown() override { ResetAll(); }

  static void ResetAll() {
    SetMetricsEnabled(false);
    SetTracingEnabled(false);
    SetFlightRecorderEnabled(false);
    SetFlightRecordPath("");
    GlobalMetrics().ResetValues();
    ClearTrace();
    ResetFlightRecorder();
  }
};

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- analytic kernel work (roofline inputs) --------------------------

TEST_F(ObservabilityTest, KernelWorkEstimates) {
  const kernels::KernelWork mm = kernels::MatMulWork(8, 16, 4);
  EXPECT_EQ(mm.flops, 2 * 8 * 16 * 4);
  EXPECT_EQ(mm.bytes, 4 * (8 * 16 + 16 * 4 + 8 * 4));
  EXPECT_GT(mm.BytesPerFlop(), 0.0);

  // Pure-movement kernels have zero FLOPs; the intensity helper must
  // not divide by that zero.
  const kernels::KernelWork gather = kernels::GatherWork(32, 8);
  EXPECT_EQ(gather.flops, 0);
  EXPECT_GT(gather.bytes, 0);
  EXPECT_DOUBLE_EQ(gather.BytesPerFlop(), 0.0);

  const kernels::KernelWork fold = kernels::SegmentFoldWork(100, 8);
  EXPECT_EQ(fold.flops, 100 * 8);
  const kernels::KernelWork mean = kernels::SegmentMeanWork(100, 8, 10);
  EXPECT_GT(mean.flops, fold.flops);  // fold plus the per-segment divide
  EXPECT_GT(kernels::ScatterAddWork(64, 8).bytes, 0);
}

// --- flight recorder -------------------------------------------------

TEST_F(ObservabilityTest, FlightRecorderDisabledIsNoOp) {
  RecordFlightEvent(FlightEventKind::kMark, "obs/ignored", 1, 2);
  EXPECT_EQ(FlightRecordTotalEvents(), 0u);
  EXPECT_TRUE(FlightRecordSnapshot().empty());
}

TEST_F(ObservabilityTest, FlightRecorderRecordsInOrder) {
  SetFlightRecorderEnabled(true);
  RecordFlightEvent(FlightEventKind::kMark, "obs/first", 1, 10);
  RecordFlightEvent(FlightEventKind::kRetry, "obs/second", 2, 20);
  RecordFlightEvent(FlightEventKind::kQuarantine, "obs/third", 3, 30);

  const std::vector<FlightEvent> events = FlightRecordSnapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(std::string_view(events[0].name), "obs/first");
  EXPECT_EQ(events[0].kind, FlightEventKind::kMark);
  EXPECT_EQ(events[0].a, 1);
  EXPECT_EQ(events[0].b, 10);
  EXPECT_EQ(std::string_view(events[2].name), "obs/third");
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(FlightRecordTotalEvents(), 3u);
}

TEST_F(ObservabilityTest, FlightRecorderRingWrapKeepsNewest) {
  SetFlightRecorderEnabled(true);
  constexpr std::int64_t kEvents = 10000;  // > ring capacity (4096)
  for (std::int64_t i = 0; i < kEvents; ++i) {
    RecordFlightEvent(FlightEventKind::kMark, "obs/wrap", i);
  }
  EXPECT_EQ(FlightRecordTotalEvents(), static_cast<std::uint64_t>(kEvents));

  const std::vector<FlightEvent> events = FlightRecordSnapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), 4096u);
  // Oldest-first, and the newest event survived the wrap.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(events.back().a, kEvents - 1);

  const JsonValue record = BuildFlightRecord("wrap test");
  EXPECT_EQ(record.Find("events_recorded")->as_int(), kEvents);
  EXPECT_GT(record.Find("events_dropped")->as_int(), 0);
}

TEST_F(ObservabilityTest, FlightRecorderMultiThreadedHammer) {
  // The writer path is wait-free and the TSan preset runs this test:
  // 8 threads race 10k appends each while a reader keeps snapshotting.
  SetFlightRecorderEnabled(true);
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 10000;
  std::atomic<bool> stop{false};

  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<FlightEvent> events = FlightRecordSnapshot();
      for (const FlightEvent& e : events) {
        // Torn slots must be skipped, never surfaced half-written.
        ASSERT_NE(e.name, nullptr);
        ASSERT_EQ(std::string_view(e.name), "obs/hammer");
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        RecordFlightEvent(FlightEventKind::kMark, "obs/hammer", t, i);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(FlightRecordTotalEvents(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<FlightEvent> events = FlightRecordSnapshot();
  EXPECT_LE(events.size(), 4096u);
  std::set<std::uint64_t> seqs;
  for (const FlightEvent& e : events) {
    EXPECT_TRUE(seqs.insert(e.seq).second) << "duplicate seq " << e.seq;
  }
}

TEST_F(ObservabilityTest, FlightRecordJsonRoundTrip) {
  SetFlightRecorderEnabled(true);
  RecordFlightEvent(FlightEventKind::kGenerationSwap, "obs/swap", 5);
  RecordFlightEvent(FlightEventKind::kEviction, "obs/evict", 2, 4096);

  const Result<JsonValue> parsed =
      ParseJson(BuildFlightRecord("unit \"test\" reason").Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = *parsed;
  EXPECT_EQ(doc.Find("schema")->as_string(), "inferturbo.flight_record.v1");
  EXPECT_EQ(doc.Find("reason")->as_string(), "unit \"test\" reason");
  EXPECT_EQ(doc.Find("events_recorded")->as_int(), 2);
  EXPECT_EQ(doc.Find("events_dropped")->as_int(), 0);
  const JsonValue::Array& events = doc.Find("events")->as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Find("kind")->as_string(), "generation_swap");
  EXPECT_EQ(events[0].Find("name")->as_string(), "obs/swap");
  EXPECT_EQ(events[0].Find("a")->as_int(), 5);
  EXPECT_EQ(events[1].Find("b")->as_int(), 4096);
  EXPECT_GE(events[1].Find("time_ns")->as_int(),
            events[0].Find("time_ns")->as_int());
}

TEST_F(ObservabilityTest, FlightEventKindNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int k = 0; k <= static_cast<int>(FlightEventKind::kEngineError); ++k) {
    const std::string_view name =
        FlightEventKindName(static_cast<FlightEventKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate kind name " << name;
  }
}

TEST_F(ObservabilityTest, DumpOnErrorWithoutPathIsNoOp) {
  SetFlightRecorderEnabled(true);
  RecordFlightEvent(FlightEventKind::kMark, "obs/pre");
  EXPECT_FALSE(DumpFlightRecordOnError("no sink configured"));
}

TEST_F(ObservabilityTest, DumpOnErrorWritesParseableRecord) {
  const std::string path = TempPath("obs_flight_dump.json");
  std::remove(path.c_str());
  // Setting the path arms recording too — the CLI relies on this.
  SetFlightRecordPath(path);
  EXPECT_TRUE(FlightRecorderEnabled());
  EXPECT_EQ(FlightRecordPath(), path);
  RecordFlightEvent(FlightEventKind::kCheckpointSave, "obs/ckpt", 3);

  ASSERT_TRUE(DumpFlightRecordOnError("synthetic engine failure"));
  const Result<JsonValue> parsed = ParseJson(Slurp(path));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema")->as_string(),
            "inferturbo.flight_record.v1");
  EXPECT_EQ(parsed->Find("reason")->as_string(), "synthetic engine failure");
  bool saw_ckpt = false;
  bool saw_error = false;
  for (const JsonValue& e : parsed->Find("events")->as_array()) {
    if (e.Find("name")->as_string() == "obs/ckpt") saw_ckpt = true;
    if (e.Find("kind")->as_string() == "engine_error") saw_error = true;
  }
  EXPECT_TRUE(saw_ckpt);
  EXPECT_TRUE(saw_error);  // the dump itself records the error event
  std::remove(path.c_str());
}

TEST_F(ObservabilityTest, ResetClearsRingAndCounters) {
  SetFlightRecorderEnabled(true);
  RecordFlightEvent(FlightEventKind::kMark, "obs/gone");
  ASSERT_EQ(FlightRecordTotalEvents(), 1u);
  ResetFlightRecorder();
  EXPECT_EQ(FlightRecordTotalEvents(), 0u);
  EXPECT_TRUE(FlightRecordSnapshot().empty());
}

// --- incomplete-span drain (flight recorder firing mid-superstep) ----

TEST_F(ObservabilityTest, DrainReportsOpenSpansAsIncomplete) {
  SetTracingEnabled(true);
  {
    TraceSpan closed("obs/closed");
  }
  auto open = std::make_unique<TraceSpan>("obs/open");

  std::vector<TraceEvent> events = DrainTrace();
  bool saw_closed = false;
  bool saw_open = false;
  for (const TraceEvent& e : events) {
    if (std::string_view(e.name) == "obs/closed") {
      saw_closed = true;
      EXPECT_TRUE(e.complete);
    }
    if (std::string_view(e.name) == "obs/open") {
      saw_open = true;
      EXPECT_FALSE(e.complete);
      EXPECT_GE(e.dur_ns, 0);  // start-to-drain time, not final duration
    }
  }
  EXPECT_TRUE(saw_closed);
  EXPECT_TRUE(saw_open);

  // The incomplete report did not consume the span: once it closes
  // normally, a later drain sees the completed event.
  open.reset();
  bool saw_completed = false;
  for (const TraceEvent& e : DrainTrace()) {
    if (std::string_view(e.name) == "obs/open" && e.complete) {
      saw_completed = true;
    }
  }
  EXPECT_TRUE(saw_completed);
}

// --- histogram interval deltas (the timeline's percentile source) ----

TEST_F(ObservabilityTest, HistogramSnapshotDeltaSince) {
  SetMetricsEnabled(true);
  Histogram* h = GlobalMetrics().GetHistogram("obs.delta.seconds");
  h->Observe(1e-3);
  h->Observe(1e-3);
  const HistogramSnapshot before = h->Snapshot();
  h->Observe(1.0);
  h->Observe(1.0);
  h->Observe(1.0);
  const HistogramSnapshot after = h->Snapshot();

  const HistogramSnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.count, 3);
  EXPECT_NEAR(delta.sum, 3.0, 1e-9);
  // All interval observations were ~1s, so the interval p50 must sit in
  // that bucket's range — far above the earlier 1ms observations.
  EXPECT_GT(delta.Percentile(0.5), 0.5);
  EXPECT_LT(before.Percentile(0.5), 0.01);
}

// --- timeline sampler ------------------------------------------------

TEST_F(ObservabilityTest, TimelineSamplerEmitsParseableJsonl) {
  SetMetricsEnabled(true);
  Counter* queries = GlobalMetrics().GetCounter("obs.timeline.queries");
  queries->Add(5);

  const std::string path = TempPath("obs_timeline.jsonl");
  std::remove(path.c_str());
  TimelineOptions options;
  options.path = path;
  options.interval_seconds = 0.05;
  options.extra = [] {
    return JsonValue(JsonValue::Object{
        {"serving", JsonValue(JsonValue::Object{{"epoch", JsonValue(7)}})}});
  };
  {
    TimelineSampler sampler(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    queries->Add(3);
    sampler.Stop();
    EXPECT_GE(sampler.samples(), 2);  // >= one tick plus the final sample
  }

  std::ifstream in(path);
  std::string line;
  std::int64_t lines = 0;
  std::int64_t last_seq = -1;
  std::int64_t final_total = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const Result<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    const JsonValue& doc = *parsed;
    EXPECT_EQ(doc.Find("schema")->as_string(), "inferturbo.run_timeline.v1");
    const std::int64_t seq = doc.Find("seq")->as_int();
    EXPECT_GT(seq, last_seq);  // strictly increasing, no duplicate final
    last_seq = seq;
    EXPECT_GE(doc.Find("uptime_seconds")->as_double(), 0.0);
    const JsonValue* counter =
        doc.Find("counters")->Find("obs.timeline.queries");
    ASSERT_NE(counter, nullptr);
    final_total = counter->Find("total")->as_int();
    EXPECT_GE(counter->Find("delta")->as_int(), 0);
    // extra() members are merged into every line.
    EXPECT_EQ(doc.Find("serving")->Find("epoch")->as_int(), 7);
  }
  EXPECT_GE(lines, 2);
  EXPECT_EQ(final_total, 8);  // the final sample saw both Add calls
  std::remove(path.c_str());
}

// --- report diffing --------------------------------------------------

TEST_F(ObservabilityTest, ClassifyMetricKeyDirections) {
  EXPECT_EQ(ClassifyMetricKey("seconds"), MetricDirection::kHigherIsWorse);
  EXPECT_EQ(ClassifyMetricKey("p99_seconds"), MetricDirection::kHigherIsWorse);
  EXPECT_EQ(ClassifyMetricKey("speedup"), MetricDirection::kLowerIsWorse);
  EXPECT_EQ(ClassifyMetricKey("queries_per_second"),
            MetricDirection::kLowerIsWorse);
  EXPECT_EQ(ClassifyMetricKey("checksum"), MetricDirection::kExact);
  EXPECT_EQ(ClassifyMetricKey("logits_crc32"), MetricDirection::kExact);
  EXPECT_EQ(ClassifyMetricKey("threads"), MetricDirection::kInformational);
}

JsonValue BenchDoc(double speedup, const std::string& crc) {
  return JsonValue(JsonValue::Object{
      {"results",
       JsonValue(JsonValue::Array{JsonValue(JsonValue::Object{
           {"op", JsonValue("matmul")},
           {"threads", JsonValue(4)},
           {"speedup", JsonValue(speedup)},
           {"checksum", JsonValue(crc)},
       })})},
  });
}

TEST_F(ObservabilityTest, DiffReportsGatesRegressionNotImprovement) {
  ReportDiffOptions options;
  options.tolerance = 0.25;

  const ReportDiffResult same =
      DiffReports(BenchDoc(3.0, "abc"), BenchDoc(3.0, "abc"), options);
  EXPECT_TRUE(same.ok);
  EXPECT_GE(same.compared, 1);

  // A lower-is-worse key dropping past tolerance fails...
  const ReportDiffResult worse =
      DiffReports(BenchDoc(3.0, "abc"), BenchDoc(1.5, "abc"), options);
  EXPECT_FALSE(worse.ok);
  ASSERT_FALSE(worse.findings.empty());
  EXPECT_EQ(worse.findings[0].kind, "regression");

  // ...improving past tolerance does not.
  const ReportDiffResult better =
      DiffReports(BenchDoc(3.0, "abc"), BenchDoc(9.0, "abc"), options);
  EXPECT_TRUE(better.ok);

  // A small move inside tolerance passes.
  const ReportDiffResult wiggle =
      DiffReports(BenchDoc(3.0, "abc"), BenchDoc(2.8, "abc"), options);
  EXPECT_TRUE(wiggle.ok);
}

TEST_F(ObservabilityTest, DiffReportsExactKeysIgnoreTolerance) {
  ReportDiffOptions options;
  options.tolerance = 100.0;  // tolerance must not excuse exact keys
  const ReportDiffResult result =
      DiffReports(BenchDoc(3.0, "abc"), BenchDoc(3.0, "def"), options);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.findings.empty());
  EXPECT_EQ(result.findings[0].kind, "exact_mismatch");
}

TEST_F(ObservabilityTest, DiffReportsKeyFiltersAndMissing) {
  ReportDiffOptions options;
  options.key_filters = {"speedup"};
  // With the filter, only speedup is gated — but the exact-class
  // checksum is always gated regardless.
  const ReportDiffResult filtered =
      DiffReports(BenchDoc(3.0, "abc"), BenchDoc(1.0, "abc"), options);
  EXPECT_FALSE(filtered.ok);

  JsonValue empty(JsonValue::Object{
      {"results", JsonValue(JsonValue::Array{})},
  });
  ReportDiffOptions strict;
  strict.fail_on_missing = true;
  const ReportDiffResult missing =
      DiffReports(BenchDoc(3.0, "abc"), empty, strict);
  EXPECT_FALSE(missing.ok);
  EXPECT_GT(missing.missing, 0);

  // min_compared: two documents aligning zero gated values must not
  // silently pass.
  ReportDiffOptions lax;
  lax.fail_on_missing = false;
  const ReportDiffResult none = DiffReports(BenchDoc(3.0, "abc"), empty, lax);
  EXPECT_FALSE(none.ok);
  EXPECT_EQ(none.compared, 0);
}

TEST_F(ObservabilityTest, LintJsonFileValidatesJsonlWithSchema) {
  const std::string path = TempPath("obs_lint.jsonl");
  {
    std::ofstream out(path);
    out << R"({"schema": "inferturbo.run_timeline.v1", "seq": 0})" << "\n";
    out << R"({"schema": "inferturbo.run_timeline.v1", "seq": 1})" << "\n";
  }
  const Result<std::int64_t> count =
      LintJsonFile(path, "inferturbo.run_timeline.v1");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2);

  EXPECT_FALSE(LintJsonFile(path, "inferturbo.flight_record.v1").ok());

  {
    std::ofstream out(path);
    out << R"({"schema": "inferturbo.run_timeline.v1")" << "\n";  // truncated
  }
  EXPECT_FALSE(LintJsonFile(path, "inferturbo.run_timeline.v1").ok());
  std::remove(path.c_str());
}

// --- the plane-wide zero-perturbation contract -----------------------

Dataset ObservabilityDataset() {
  PlantedGraphConfig config;
  config.num_nodes = 300;
  config.avg_degree = 8.0;
  config.num_classes = 5;
  config.feature_dim = 12;
  config.seed = 23;
  return MakePlantedDataset("observability", config);
}

std::unique_ptr<GnnModel> ObservabilityModel(const Graph& graph) {
  ModelConfig config;
  config.input_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.num_classes = graph.num_classes();
  config.num_layers = 2;
  config.seed = 7;
  Result<std::unique_ptr<GnnModel>> model = MakeModel("sage", config);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    // Tolerance 0.0f: the observability plane must not move a bit.
    ASSERT_EQ(a.data()[i], b.data()[i]) << "logit " << i << " diverged";
  }
}

TEST_F(ObservabilityTest, FullPlaneDoesNotChangePregelLogits) {
  const Dataset dataset = ObservabilityDataset();
  const std::unique_ptr<GnnModel> model = ObservabilityModel(dataset.graph);
  InferTurboOptions options;
  options.num_workers = 4;
  const Result<InferenceResult> base =
      RunInferTurboPregel(dataset.graph, *model, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  // Everything on at once: metrics, tracing, flight ring.
  SetMetricsEnabled(true);
  SetTracingEnabled(true);
  SetFlightRecorderEnabled(true);
  const Result<InferenceResult> observed =
      RunInferTurboPregel(dataset.graph, *model, options);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  ExpectBitIdentical(base->logits, observed->logits);
  // And the plane actually observed the run: traced spans mirror into
  // the flight ring as span begin/end pairs.
  EXPECT_GT(FlightRecordTotalEvents(), 0u);
}

TEST_F(ObservabilityTest, FullPlaneDoesNotChangeMapReduceLogits) {
  const Dataset dataset = ObservabilityDataset();
  const std::unique_ptr<GnnModel> model = ObservabilityModel(dataset.graph);
  InferTurboOptions options;
  options.num_workers = 4;
  const Result<InferenceResult> base =
      RunInferTurboMapReduce(dataset.graph, *model, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  SetMetricsEnabled(true);
  SetTracingEnabled(true);
  SetFlightRecorderEnabled(true);
  const Result<InferenceResult> observed =
      RunInferTurboMapReduce(dataset.graph, *model, options);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  ExpectBitIdentical(base->logits, observed->logits);
  EXPECT_GT(FlightRecordTotalEvents(), 0u);
}

}  // namespace
}  // namespace inferturbo
