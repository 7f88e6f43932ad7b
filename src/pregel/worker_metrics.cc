#include "src/pregel/worker_metrics.h"

#include <algorithm>

#include "src/common/logging.h"

namespace inferturbo {

double JobMetrics::SimulatedWallSeconds() const {
  double total = 0.0;
  const std::int64_t steps = num_steps();
  for (std::int64_t s = 0; s < steps; ++s) {
    double slowest = 0.0;
    for (const WorkerMetrics& w : workers) {
      slowest = std::max(
          slowest,
          cost_model.StepLatencySeconds(w.steps[static_cast<std::size_t>(s)]));
    }
    total += slowest;
  }
  return total;
}

double JobMetrics::TotalCpuSeconds() const {
  double total = 0.0;
  for (const WorkerMetrics& w : workers) total += w.Total().busy_seconds;
  return total;
}

std::vector<WorkerStepMetrics> JobMetrics::PerWorkerTotals() const {
  std::vector<WorkerStepMetrics> totals;
  totals.reserve(workers.size());
  for (const WorkerMetrics& w : workers) totals.push_back(w.Total());
  return totals;
}

std::vector<double> JobMetrics::PerWorkerLatencySeconds() const {
  std::vector<double> latency;
  latency.reserve(workers.size());
  for (const WorkerMetrics& w : workers) {
    double sum = 0.0;
    for (const WorkerStepMetrics& s : w.steps) {
      sum += cost_model.StepLatencySeconds(s);
    }
    latency.push_back(sum);
  }
  return latency;
}

std::uint64_t JobMetrics::TotalBytesIn() const {
  std::uint64_t total = 0;
  for (const WorkerMetrics& w : workers) total += w.Total().bytes_in;
  return total;
}

std::uint64_t JobMetrics::TotalBytesOut() const {
  std::uint64_t total = 0;
  for (const WorkerMetrics& w : workers) total += w.Total().bytes_out;
  return total;
}

std::uint64_t JobMetrics::PeakResidentBytes() const {
  std::uint64_t peak = 0;
  for (const WorkerMetrics& w : workers) {
    peak = std::max(peak, w.Total().peak_resident_bytes);
  }
  return peak;
}

std::uint64_t JobMetrics::ModelKeyGroupBytes() const {
  std::uint64_t peak = 0;
  for (const WorkerMetrics& w : workers) {
    peak = std::max(peak, w.Total().model_key_group_bytes);
  }
  return peak;
}

void JobMetrics::AppendStages(const JobMetrics& other) {
  spill_read_retries += other.spill_read_retries;
  spill_write_retries += other.spill_write_retries;
  storage.Merge(other.storage);
  supervision.Merge(other.supervision);
  if (workers.empty()) {
    workers = other.workers;
    return;
  }
  INFERTURBO_CHECK(workers.size() == other.workers.size())
      << "AppendStages worker count mismatch";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].steps.insert(workers[i].steps.end(),
                            other.workers[i].steps.begin(),
                            other.workers[i].steps.end());
  }
}

double LatencyVariance(const JobMetrics& metrics) {
  const std::vector<double> latency = metrics.PerWorkerLatencySeconds();
  if (latency.empty()) return 0.0;
  double mean = 0.0;
  for (double v : latency) mean += v;
  mean /= static_cast<double>(latency.size());
  double var = 0.0;
  for (double v : latency) var += (v - mean) * (v - mean);
  return var / static_cast<double>(latency.size());
}

}  // namespace inferturbo
