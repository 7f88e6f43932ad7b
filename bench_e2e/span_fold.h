#ifndef BENCH_E2E_SPAN_FOLD_H_
#define BENCH_E2E_SPAN_FOLD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/telemetry/trace.h"

namespace bench_e2e {

/// Per-name totals folded out of one drained trace.
struct SpanTotals {
  /// Self time (span duration minus the part its nested child spans on
  /// the same track cover), summed over every track, in seconds.
  double self_s = 0.0;
  /// Per round (superstep or MapReduce stage), the largest per-track
  /// self time, summed over rounds: the part of the stage that gates
  /// the barrier.
  double critical_s = 0.0;
};

struct FoldedTrace {
  std::map<std::string, SpanTotals> by_name;
  /// The partition of every "storage/load" span, one entry per load (a
  /// storage span's track is its partition).
  std::vector<std::int64_t> loaded_partitions;
};

/// Folds drained trace events by name. Nesting is recovered per track:
/// a span is the child of the innermost earlier span on its track that
/// wholly contains it. Rounds are cut at the end of every
/// "pregel/barrier" span and at the start of every "mr/*_stage" span.
FoldedTrace FoldTrace(const std::vector<inferturbo::TraceEvent>& events);

/// Seconds of [begin_ns, end_ns) covered by at least one event whose
/// name starts with one of `prefixes`, merged across all tracks.
double CoveredSeconds(const std::vector<inferturbo::TraceEvent>& events,
                      const std::vector<std::string>& prefixes,
                      std::int64_t begin_ns, std::int64_t end_ns);

}  // namespace bench_e2e

#endif  // BENCH_E2E_SPAN_FOLD_H_
