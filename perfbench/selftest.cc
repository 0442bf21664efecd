// Checks the benchmark's own arithmetic (ledger.h) on synthetic inputs:
// nearest-rank percentiles, span self time, and counter deltas. Exits 1 and
// names the failed check on any mismatch; run.py runs it before measuring.

#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/trace.h"
#include "ledger.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "ledger selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) < 1e-9,
         what + " = " + std::to_string(got) + ", want " +
             std::to_string(want));
}

mtcache::TraceSpan Span(uint64_t id, uint64_t parent, const char* name,
                        int64_t start, int64_t dur) {
  mtcache::TraceSpan span;
  span.trace_id = 1;
  span.span_id = id;
  span.parent_id = parent;
  span.name = name;
  span.start_us = start;
  span.dur_us = dur;
  return span;
}

void PercentileRank() {
  using perfbench::Percentile;
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  ExpectNear(Percentile(hundred, 50), 50, "p50 of 1..100");
  ExpectNear(Percentile(hundred, 99), 99, "p99 of 1..100");
  ExpectNear(Percentile(hundred, 100), 100, "p100 of 1..100");
  ExpectNear(Percentile(hundred, 0.5), 1, "p0.5 of 1..100");
  ExpectNear(Percentile({7}, 99), 7, "p99 of one sample");
  ExpectNear(Percentile({1, 2, 3, 4}, 50), 2, "p50 of 1..4");
  ExpectNear(Percentile({}, 50), 0, "p50 of nothing");
}

void SelfTime() {
  // interaction [0,100)
  //   query [10,60)
  //     execute [20,50)
  //       remote [30,45)
  //         backend query [32,40)
  //   remote, forwarded DML [70,90)
  //   a child overlapping its sibling [80,95)
  std::vector<mtcache::TraceSpan> spans = {
      Span(1, 0, "tpcw.interaction", 0, 100),
      Span(2, 1, "query", 10, 50),
      Span(3, 2, "execute", 20, 30),
      Span(4, 3, "remote_roundtrip", 30, 15),
      Span(5, 4, "query", 32, 8),
      Span(6, 1, "remote_roundtrip", 70, 20),
      Span(7, 1, "overlap", 80, 15),
      Span(8, 99, "orphan", 200, 5),  // parent not in the batch: a root
  };
  std::vector<int64_t> self = perfbench::SelfTimes(spans);
  ExpectNear(self[0], 100 - 50 - 25, "interaction self (overlap counted once)");
  ExpectNear(self[1], 50 - 30, "query self");
  ExpectNear(self[2], 30 - 15, "execute self");
  ExpectNear(self[3], 15 - 8, "remote self");
  ExpectNear(self[4], 8, "leaf self");
  ExpectNear(self[7], 5, "orphan self");
  std::vector<mtcache::TraceSpan> tree(spans.begin(), spans.begin() + 6);
  int64_t sum = 0;
  for (int64_t s : perfbench::SelfTimes(tree)) sum += s;
  ExpectNear(sum, 100, "self times of a non-overlapping tree sum to the root");

  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].span_id] = i;
  Expect(perfbench::HasAncestor(spans, index, 4, "remote_roundtrip"),
         "backend query sits under a round trip");
  Expect(!perfbench::HasAncestor(spans, index, 1, "remote_roundtrip"),
         "cache query does not");
  Expect(!perfbench::HasAncestor(spans, index, 7, "tpcw.interaction"),
         "orphan has no ancestors");
}

void CounterDeltas() {
  perfbench::Counters before = {{"hits", 10}, {"misses", 4}};
  perfbench::Counters after = {{"hits", 25}, {"misses", 4}, {"new", 3}};
  perfbench::Counters d = perfbench::Delta(after, before);
  ExpectNear(d["hits"], 15, "hits delta");
  ExpectNear(d["misses"], 0, "unchanged delta");
  ExpectNear(d["new"], 3, "counter absent before counts from 0");
  ExpectNear(perfbench::Ratio(d["hits"], d["hits"] + d["misses"]), 1,
             "hit ratio");
  ExpectNear(perfbench::Ratio(1, 0), 0, "ratio over an empty window");
}

}  // namespace

int main() {
  PercentileRank();
  SelfTime();
  CounterDeltas();
  if (failures == 0) std::fprintf(stderr, "ledger selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
