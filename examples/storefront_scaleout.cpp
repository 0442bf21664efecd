// Storefront scale-out: the paper's headline scenario in miniature. Runs the
// TPC-W Shopping workload against (a) the backend alone and (b) one to five
// MTCache web/cache servers, printing throughput and backend CPU load.
//
//   ./build/examples/storefront_scaleout

#include <cstdio>
#include <memory>

#include "sim/fleet.h"

using namespace mtcache;
using namespace mtcache::sim;

namespace {

/// Builds a lab with `num_caches` real cache servers (0 = backend only).
std::unique_ptr<Fleet> BuildLab(int num_caches) {
  FleetConfig config;
  config.tpcw.num_items = 500;
  config.tpcw.num_authors = 125;
  config.tpcw.num_customers = 1000;
  config.tpcw.num_orders = 900;
  config.tpcw.best_seller_window = 120;
  config.num_caches = num_caches;
  config.profile_samples = 10;
  auto fleet = std::make_unique<Fleet>(config);
  if (!fleet->Initialize().ok()) return nullptr;
  return fleet;
}

FleetLoad ShoppingLoad(int servers) {
  FleetLoad load;
  load.mix = tpcw::WorkloadMix::kShopping;
  load.num_caches = servers;
  load.warmup = 10;
  load.measure = 40;
  return load;
}

}  // namespace

int main() {
  std::printf("TPC-W Shopping mix, miniature scale (500 items, 1000 "
              "customers)\n\n");
  std::printf("%-28s %8s %10s %12s %10s\n", "configuration", "users", "WIPS",
              "backendCPU", "p90(s)");

  {
    std::unique_ptr<Fleet> plain = BuildLab(0);
    if (plain == nullptr) return 1;
    auto r = plain->FindMaxThroughput(ShoppingLoad(3));
    if (!r.ok()) return 1;
    std::printf("%-28s %8d %10.1f %11.1f%% %10.2f\n", "no caching (backend only)",
                r->users, r->wips, r->backend_util * 100, r->latency_p90);
  }
  std::unique_ptr<Fleet> cached = BuildLab(5);
  if (cached == nullptr) return 1;
  for (int caches = 1; caches <= 5; ++caches) {
    auto r = cached->FindMaxThroughput(ShoppingLoad(caches));
    if (!r.ok()) return 1;
    std::printf("%-26s %2d %8d %10.1f %11.1f%% %10.2f\n", "MTCache servers:",
                caches, r->users, r->wips, r->backend_util * 100,
                r->latency_p90);
  }
  std::printf(
      "\nAdding cache servers grows read-mostly throughput nearly linearly "
      "while the\nbackend coasts — the paper's Figure 6 in miniature. (At "
      "this toy scale the\ndual-CPU backend alone is quick; the win is the "
      "slope: every extra commodity\ncache server adds throughput without "
      "touching the backend.)\n");
  return 0;
}
