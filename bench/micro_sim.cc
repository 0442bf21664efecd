// M5 — micro-benchmark: the discrete-event simulator itself (event
// throughput and a full closed-loop fleet run), establishing that the
// multi-machine simulation is never the bottleneck of an experiment.

#include <benchmark/benchmark.h>

#include "sim/fleet.h"

namespace mtcache {
namespace sim {
namespace {

void BM_DesEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Des des;
    int64_t fired = 0;
    // Self-rescheduling event chain.
    std::function<void()> tick = [&]() {
      ++fired;
      if (fired < state.range(0)) des.Schedule(des.now() + 0.001, tick);
    };
    des.Schedule(0, tick);
    des.RunUntil(1e9);
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DesEventThroughput)->Arg(100000);

void BM_MachineQueueing(benchmark::State& state) {
  for (auto _ : state) {
    Des des;
    Machine machine(&des, "m", 2, 1000.0);
    for (int i = 0; i < state.range(0); ++i) {
      machine.Submit(1.0, nullptr);
    }
    des.RunUntil(1e9);
    benchmark::DoNotOptimize(machine.jobs_completed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MachineQueueing)->Arg(100000);

Fleet* SharedFleet() {
  static Fleet* fleet = [] {
    FleetConfig config;
    config.tpcw.num_items = 300;
    config.tpcw.num_authors = 75;
    config.tpcw.num_customers = 500;
    config.tpcw.num_orders = 450;
    config.tpcw.best_seller_window = 60;
    config.num_caches = 3;
    config.profile_samples = 8;
    auto* f = new Fleet(config);
    if (!f->Initialize().ok()) std::abort();
    return f;
  }();
  return fleet;
}

void BM_FleetClosedLoopRun(benchmark::State& state) {
  Fleet* fleet = SharedFleet();
  FleetLoad load;
  load.num_caches = 3;
  load.users = static_cast<int>(state.range(0));
  load.warmup = 10;
  load.measure = 60;
  for (auto _ : state) {
    auto r = fleet->Simulate(load);
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r->wips);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FleetClosedLoopRun)->Arg(50)->Arg(200);

}  // namespace
}  // namespace sim
}  // namespace mtcache
