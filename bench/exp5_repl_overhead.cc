// E5 — §6.2.2 replication overhead. The backend is saturated by web servers
// hitting it directly (the caches are deployed and keep subscribing but do
// not answer queries), Ordering workload. Two measurements:
//   (1) throughput with the log reader on vs off — the paper saw 283 vs 311
//       WIPS, a ~10% reduction caused by the log reader + distributor;
//   (2) CPU of a middle-tier machine that only applies pushed changes —
//       the paper measured 15%.

#include "bench/bench_util.h"

using namespace mtcache;
using namespace mtcache::bench;

namespace {

/// Five web servers drive the Ordering mix straight at the backend. With
/// `log_reader_on` five caches are deployed and keep subscribing (the
/// bypass deployment); without it there are no caches to feed (backend
/// only). app_work is zero so a cache machine does nothing but apply
/// changes.
sim::FleetConfig OverheadConfig(bool log_reader_on) {
  sim::FleetConfig config = PaperConfig();
  config.num_caches = log_reader_on ? 5 : 0;
  config.drivers_use_cache = false;
  config.app_work = 0;
  return config;
}

}  // namespace

int main() {
  Banner("E5", "Replication overhead on backend and middle tier",
         "section 6.2.2 (log reader on: 283 WIPS, off: 311 WIPS => ~10%; "
         "idle mid-tier apply CPU: 15%)");

  const sim::FleetLoad load = PaperLoad(tpcw::WorkloadMix::kOrdering, 5);
  sim::Fleet with_repl(OverheadConfig(true));
  Check(with_repl.Initialize(), "init (log reader on)");
  sim::FleetResult on = CheckOk(with_repl.FindMaxThroughput(load), "run (on)");

  sim::Fleet without_repl(OverheadConfig(false));
  Check(without_repl.Initialize(), "init (log reader off)");
  sim::FleetResult off =
      CheckOk(without_repl.FindMaxThroughput(load), "run (off)");

  double reduction = off.wips > 0 ? (1.0 - on.wips / off.wips) * 100 : 0;
  double apply_cpu = on.cache_util_avg * 100;
  std::printf("%-28s %10s %12s\n", "Configuration", "WIPS", "BackendCPU");
  std::printf("%-28s %10.1f %11.1f%%\n", "log reader ON", on.wips,
              on.backend_util * 100);
  std::printf("%-28s %10.1f %11.1f%%\n", "log reader OFF", off.wips,
              off.backend_util * 100);
  std::printf("\nBackend throughput reduction from replication: %.1f%%  "
              "(paper: ~10%%)\n", reduction);
  std::printf("Mid-tier apply-only CPU: %.1f%%  (paper: 15%%)\n", apply_cpu);
  bool ok = reduction < 15 && apply_cpu < 15;
  std::printf("Shape check: overhead under 15%% on both tiers: %s\n",
              ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
