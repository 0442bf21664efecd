// Arithmetic of the TPC-W layer ledger: percentiles over latency samples,
// span self time (duration minus the part of it that child spans cover), and
// windowed counter deltas. Kept apart from the harness so selftest.cc can
// check it on synthetic inputs.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/trace.h"

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least p% of the
/// samples are <= it. `p` in (0, 100]; 0 for an empty sample set.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Named counters read at one instant.
using Counters = std::map<std::string, double>;

/// after - before, key by key (a key missing from `before` counts from 0).
inline Counters Delta(const Counters& after, const Counters& before) {
  Counters delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return delta;
}

/// a / b, or 0 when b is 0 (a ratio over an empty window).
inline double Ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

/// Per-span self time: each span's duration minus the union of its direct
/// children's intervals clipped to the span. Spans whose parent is absent
/// from `spans` are roots. Returned in the order of `spans`.
inline std::vector<int64_t> SelfTimes(
    const std::vector<mtcache::TraceSpan>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].span_id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const mtcache::TraceSpan& span : spans) {
    auto it = index.find(span.parent_id);
    if (span.parent_id == 0 || it == index.end()) continue;
    children[it->second].emplace_back(span.start_us,
                                      span.start_us + span.dur_us);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_us;
    const int64_t hi = lo + spans[i].dur_us;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = lo;  // end of the covered prefix so far
    for (auto [start, end] : intervals) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = spans[i].dur_us - covered;
  }
  return self;
}

/// True when a span has an ancestor named `name` within `spans` (e.g. a
/// backend `query` nested under the cache's `remote_roundtrip`).
inline bool HasAncestor(const std::vector<mtcache::TraceSpan>& spans,
                        const std::unordered_map<uint64_t, size_t>& index,
                        size_t i, const std::string& name) {
  uint64_t parent = spans[i].parent_id;
  while (parent != 0) {
    auto it = index.find(parent);
    if (it == index.end()) return false;
    const mtcache::TraceSpan& up = spans[it->second];
    if (name == up.name) return true;
    parent = up.parent_id;
  }
  return false;
}

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
