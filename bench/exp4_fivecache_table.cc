// E4 — §6.2.1 summary table: throughput without caching vs with five
// web/cache servers, plus backend load with caching.
// Paper: Browsing 50 -> 129 WIPS (7.5%), Shopping 82 -> 199 (15.9%),
// Ordering 283 -> 271 (55.4%).

#include "bench/bench_util.h"

using namespace mtcache;
using namespace mtcache::bench;

int main() {
  Banner("E4", "No cache vs five web/cache servers",
         "section 6.2.1 summary table");
  std::printf("%-10s | %10s | %16s %14s | %s\n", "Workload", "NoCache",
              "FiveCaches", "BackendLoad", "Paper (nocache->5, load)");
  const char* paper[3] = {"50 -> 129, 7.5%", "82 -> 199, 15.9%",
                          "283 -> 271, 55.4%"};
  // Two labs serve all three mixes: the profile does not depend on the mix.
  sim::FleetConfig base = PaperConfig();
  base.num_caches = 0;
  sim::Fleet baseline(base);
  Check(baseline.Initialize(), "baseline init");
  sim::FleetConfig cached = PaperConfig();
  cached.num_caches = 5;
  sim::Fleet with_cache(cached);
  Check(with_cache.Initialize(), "cached init");
  int i = 0;
  for (auto mix : {tpcw::WorkloadMix::kBrowsing, tpcw::WorkloadMix::kShopping,
                   tpcw::WorkloadMix::kOrdering}) {
    sim::FleetResult rb =
        CheckOk(baseline.FindMaxThroughput(PaperLoad(mix, 5)), "run");
    sim::FleetResult rc =
        CheckOk(with_cache.FindMaxThroughput(PaperLoad(mix, 5)), "run");
    std::printf("%-10s | %7.1f    | %13.1f    %12.1f%% | %s\n",
                tpcw::MixName(mix), rb.wips, rc.wips, rc.backend_util * 100,
                paper[i++]);
  }
  return 0;
}
