#include "bench_e2e/span_fold.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace bench_e2e {

using inferturbo::TraceEvent;

namespace {

bool HasPrefix(const char* name, const std::string& prefix) {
  return std::strncmp(name, prefix.data(), prefix.size()) == 0;
}

bool IsStageSpan(const char* name) {
  return std::strcmp(name, "mr/map_stage") == 0 ||
         std::strcmp(name, "mr/reduce_stage") == 0;
}

}  // namespace

FoldedTrace FoldTrace(const std::vector<TraceEvent>& events) {
  // Round boundaries, ascending.
  std::vector<std::int64_t> cuts;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, "pregel/barrier") == 0) {
      cuts.push_back(e.start_ns + e.dur_ns);
    } else if (IsStageSpan(e.name)) {
      cuts.push_back(e.start_ns);
    }
  }
  std::sort(cuts.begin(), cuts.end());

  // Group by track, order by start (longer first on ties so parents
  // precede the children they contain).
  std::map<std::int64_t, std::vector<std::size_t>> by_track;
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_track[events[i].track].push_back(i);
  }
  std::vector<double> covered_ns(events.size(), 0.0);
  for (auto& [track, ids] : by_track) {
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      if (events[a].start_ns != events[b].start_ns) {
        return events[a].start_ns < events[b].start_ns;
      }
      return events[a].dur_ns > events[b].dur_ns;
    });
    std::vector<std::size_t> open;  // ancestors of the current span
    for (std::size_t id : ids) {
      const TraceEvent& e = events[id];
      const std::int64_t end = e.start_ns + e.dur_ns;
      while (!open.empty() && events[open.back()].start_ns +
                                      events[open.back()].dur_ns <=
                                  e.start_ns) {
        open.pop_back();
      }
      if (!open.empty() &&
          end <= events[open.back()].start_ns + events[open.back()].dur_ns) {
        covered_ns[open.back()] += static_cast<double>(e.dur_ns);
        open.push_back(id);
      } else if (open.empty()) {
        open.push_back(id);
      }
      // A span that overlaps the open one without nesting came from
      // another thread sharing the track: it is no one's child and
      // adopts no children.
    }
  }

  // (name, round, track) -> self ns.
  std::map<std::string, std::map<std::pair<std::size_t, std::int64_t>, double>>
      per_round;
  FoldedTrace folded;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const double self_ns =
        std::max(0.0, static_cast<double>(e.dur_ns) - covered_ns[i]);
    SpanTotals& totals = folded.by_name[e.name];
    totals.self_s += self_ns * 1e-9;
    const std::size_t round = static_cast<std::size_t>(
        std::upper_bound(cuts.begin(), cuts.end(), e.start_ns) - cuts.begin());
    per_round[e.name][{round, e.track}] += self_ns;
    if (std::strcmp(e.name, "storage/load") == 0) {
      folded.loaded_partitions.push_back(e.track);
    }
  }
  for (const auto& [name, cells] : per_round) {
    std::map<std::size_t, double> round_max;
    for (const auto& [key, ns] : cells) {
      double& slot = round_max[key.first];
      slot = std::max(slot, ns);
    }
    double sum = 0.0;
    for (const auto& [round, ns] : round_max) sum += ns;
    folded.by_name[name].critical_s = sum * 1e-9;
  }
  return folded;
}

double CoveredSeconds(const std::vector<TraceEvent>& events,
                      const std::vector<std::string>& prefixes,
                      std::int64_t begin_ns, std::int64_t end_ns) {
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (const TraceEvent& e : events) {
    const bool match = std::any_of(
        prefixes.begin(), prefixes.end(),
        [&](const std::string& p) { return HasPrefix(e.name, p); });
    if (!match) continue;
    const std::int64_t s = std::max(begin_ns, e.start_ns);
    const std::int64_t t = std::min(end_ns, e.start_ns + e.dur_ns);
    if (s < t) spans.emplace_back(s, t);
  }
  std::sort(spans.begin(), spans.end());
  std::int64_t covered = 0;
  std::int64_t reach = begin_ns;
  for (const auto& [s, t] : spans) {
    const std::int64_t from = std::max(s, reach);
    if (t > from) {
      covered += t - from;
      reach = t;
    }
  }
  return static_cast<double>(covered) * 1e-9;
}

}  // namespace bench_e2e
