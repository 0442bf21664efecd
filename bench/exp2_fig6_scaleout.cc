// E2/E3 — Figures 6(a) and 6(b): measured throughput (WIPS) and backend CPU
// load as the number of web/cache servers grows from 1 to 5, for the three
// TPC-W workloads with MTCache enabled on every web server.
//
// Paper shapes: WIPS grows linearly with servers for Browsing and Shopping
// (backend coasting: 7.5% / 15.9% at five servers); Ordering barely grows
// and drives the backend to 55.4%.

#include "bench/bench_util.h"

using namespace mtcache;
using namespace mtcache::bench;

int main() {
  Banner("E2+E3", "Scale-out with MTCache servers (Figure 6a: WIPS, 6b: backend CPU)",
         "Figure 6(a)/6(b); five-server endpoints 129/199/271 WIPS at "
         "7.5%/15.9%/55.4% backend CPU");

  const int kMaxServers = 5;
  double wips[3][kMaxServers + 1] = {};
  double backend[3][kMaxServers + 1] = {};

  // One real five-cache lab serves every cell: the profile depends on
  // neither the mix nor the simulated server count.
  sim::FleetConfig config = PaperConfig();
  config.num_caches = kMaxServers;
  sim::Fleet fleet(config);
  Check(fleet.Initialize(), "fleet init");
  int mi = 0;
  for (auto mix : {tpcw::WorkloadMix::kBrowsing, tpcw::WorkloadMix::kShopping,
                   tpcw::WorkloadMix::kOrdering}) {
    for (int n = 1; n <= kMaxServers; ++n) {
      sim::FleetResult r =
          CheckOk(fleet.FindMaxThroughput(PaperLoad(mix, n)), "find max");
      wips[mi][n] = r.wips;
      backend[mi][n] = r.backend_util * 100;
    }
    ++mi;
  }

  std::printf("\nFigure 6(a): measured throughput (WIPS)\n");
  std::printf("%-18s", "web/cache servers");
  for (int n = 1; n <= kMaxServers; ++n) std::printf("%10d", n);
  std::printf("\n");
  const char* names[3] = {"Browsing", "Shopping", "Ordering"};
  for (int m = 0; m < 3; ++m) {
    std::printf("%-18s", names[m]);
    for (int n = 1; n <= kMaxServers; ++n) std::printf("%10.1f", wips[m][n]);
    std::printf("\n");
  }

  std::printf("\nFigure 6(b): backend CPU load (%%)\n");
  std::printf("%-18s", "web/cache servers");
  for (int n = 1; n <= kMaxServers; ++n) std::printf("%10d", n);
  std::printf("\n");
  for (int m = 0; m < 3; ++m) {
    std::printf("%-18s", names[m]);
    for (int n = 1; n <= kMaxServers; ++n) {
      std::printf("%9.1f%%", backend[m][n]);
    }
    std::printf("\n");
  }

  std::printf(
      "\nShape check: near-linear WIPS growth for Browsing/Shopping with a "
      "coasting backend;\nOrdering flat with the backend load climbing "
      "steeply (paper: 7.5%% / 15.9%% / 55.4%% at n=5).\n");
  // Gate: WIPS must rise strictly with servers for Browsing and Shopping.
  bool ok = true;
  for (int m = 0; m < 2; ++m) {
    for (int n = 2; n <= kMaxServers; ++n) {
      if (!(wips[m][n] > wips[m][n - 1])) {
        std::printf("SHAPE FAIL: %s WIPS %.1f at %d servers <= %.1f at %d\n",
                    names[m], wips[m][n], n, wips[m][n - 1], n - 1);
        ok = false;
      }
    }
  }
  std::printf("Shape gate (Browsing/Shopping WIPS strictly rising): %s\n",
              ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
