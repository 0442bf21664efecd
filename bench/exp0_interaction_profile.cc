// E0 — supporting artifact: the measured per-interaction work profile that
// drives every other experiment. Each TPC-W interaction executes for real
// through the MTCache stack; the table shows where its work lands (cache
// server vs backend) and the replication work it causes. This is the §6.1.1
// "queries vary greatly in terms of cost" observation, quantified, and it
// explains the Figure 6 shapes: Browse-class work stays on the caches,
// Order-class work hits the backend.

#include "bench/bench_util.h"

using namespace mtcache;
using namespace mtcache::bench;

int main() {
  Banner("E0", "Measured per-interaction work profile (with MTCache)",
         "section 6.1.1; input to experiments E1-E6");

  sim::FleetConfig config = PaperConfig();
  config.num_caches = 1;
  config.profile_samples = 30;
  sim::Fleet fleet(config);
  Check(fleet.Initialize(), "init");
  const sim::FleetProfile& profile = fleet.profile();

  std::printf("%-22s %-7s %12s %12s %12s %12s\n", "interaction", "class",
              "cache work", "backend", "repl(pub)", "repl(apply)");
  double class_cache[2] = {0, 0};
  double class_backend[2] = {0, 0};
  for (int t = 0; t < tpcw::kNumInteractions; ++t) {
    auto kind = static_cast<tpcw::Interaction>(t);
    double web = 0;
    double backend = 0;
    for (const sim::FleetProfile::Sample& sample : profile.samples[t]) {
      web += sample.cache_cost;
      backend += sample.backend_cost;
    }
    web /= profile.samples[t].size();
    backend /= profile.samples[t].size();
    bool browse = tpcw::IsBrowseClass(kind);
    class_cache[browse ? 0 : 1] += web;
    class_backend[browse ? 0 : 1] += backend;
    std::printf("%-22s %-7s %12.0f %12.0f %12.0f %12.0f\n",
                tpcw::InteractionName(kind), browse ? "Browse" : "Order", web,
                backend, profile.repl_publisher_cost[t],
                profile.repl_apply_cost[t]);
  }
  std::printf("\nClass averages (unweighted):\n");
  std::printf("  Browse: %.0f on cache, %.0f on backend  -> offloaded\n",
              class_cache[0] / 6, class_backend[0] / 6);
  std::printf("  Order:  %.0f on cache, %.0f on backend  -> backend-bound\n",
              class_cache[1] / 8, class_backend[1] / 8);
  std::printf(
      "\nShape check: Browse-class interactions run almost entirely on the "
      "cache server\n(remote work ~0); Order-class interactions push their "
      "updates to the backend and\ntrigger replication work on both tiers.\n");
  return 0;
}
