// Tests for the fleet layer (src/sim/fleet.*): deterministic replay of
// DES fleet simulations, end-of-run consistency across every cache (with
// and without fault injection), scaling/offload monotonicity at test scale,
// the simulated-lag -> sys.dm_repl_lag_histogram plumbing, and the
// backend-only and bypass deployments the paper tables run on.

#include "sim/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "check/consistency.h"
#include "tpcw/workload.h"

namespace mtcache {
namespace sim {
namespace {

/// Small but complete TPC-W population (same scale as tpcw_test).
tpcw::TpcwConfig SmallTpcw() {
  tpcw::TpcwConfig config;
  config.num_items = 200;
  config.num_authors = 50;
  config.num_customers = 300;
  config.num_orders = 260;
  config.best_seller_window = 40;
  return config;
}

FleetConfig SmallFleet(int num_caches = 2, double fraction = 1.0) {
  FleetConfig config;
  config.tpcw = SmallTpcw();
  config.num_caches = num_caches;
  config.cached_fraction = fraction;
  config.profile_samples = 4;
  config.seed = 7;
  return config;
}

FleetLoad SmallLoad(tpcw::WorkloadMix mix, int caches, int users) {
  FleetLoad load;
  load.mix = mix;
  load.num_caches = caches;
  load.users = users;
  load.warmup = 3;
  load.measure = 20;
  load.record_trace = true;
  load.seed = 5;
  return load;
}

TEST(FleetTest, InitializeBuildsRealFleet) {
  Fleet fleet(SmallFleet(3));
  ASSERT_TRUE(fleet.Initialize().ok());
  // Every cache holds the cached views and answers through them.
  for (int i = 0; i < 3; ++i) {
    auto r = fleet.cache(i)->Execute("SELECT COUNT(*) FROM item_cache");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), 200);
  }
  // The profile measured every interaction type.
  for (int t = 0; t < tpcw::kNumInteractions; ++t) {
    EXPECT_EQ(fleet.profile().samples[t].size(), 4u) << "interaction " << t;
  }
}

// Satellite: deterministic replay. Two simulations from identically
// configured fleets with the same seed produce byte-identical interaction
// traces and metric snapshots; a different seed produces a different trace.
TEST(FleetTest, DeterministicReplay) {
  FleetResult first;
  {
    Fleet fleet(SmallFleet());
    ASSERT_TRUE(fleet.Initialize().ok());
    first = std::move(
        fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kShopping, 4, 120))
            .ConsumeValue());
  }
  {
    Fleet fleet(SmallFleet());
    ASSERT_TRUE(fleet.Initialize().ok());
    FleetResult second =
        fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kShopping, 4, 120))
            .ConsumeValue();
    EXPECT_GT(first.interactions, 0);
    EXPECT_FALSE(first.trace.empty());
    EXPECT_EQ(first.trace, second.trace);
    EXPECT_EQ(first.trace_digest, second.trace_digest);
    EXPECT_EQ(first.ToJson(), second.ToJson());
  }
  {
    Fleet fleet(SmallFleet());
    ASSERT_TRUE(fleet.Initialize().ok());
    FleetLoad load = SmallLoad(tpcw::WorkloadMix::kShopping, 4, 120);
    load.seed = 6;
    FleetResult other = fleet.Simulate(load).ConsumeValue();
    EXPECT_NE(first.trace, other.trace);
    EXPECT_NE(first.trace_digest, other.trace_digest);
  }
}

// Replays are deterministic within one fleet too: Simulate does not mutate
// the profile, so re-running the same load reproduces the same digest.
TEST(FleetTest, RepeatSimulationSameFleetIsIdentical) {
  Fleet fleet(SmallFleet());
  ASSERT_TRUE(fleet.Initialize().ok());
  FleetLoad load = SmallLoad(tpcw::WorkloadMix::kBrowsing, 2, 60);
  FleetResult a = fleet.Simulate(load).ConsumeValue();
  FleetResult b = fleet.Simulate(load).ConsumeValue();
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

// Satellite: end-of-run convergence. A 3-cache fleet runs a Shopping-mix
// burst of real interactions; after DrainPipeline the ConsistencyChecker
// proves every cache matches the backend.
TEST(FleetTest, ConvergesAcrossAllCaches) {
  Fleet fleet(SmallFleet(3));
  ASSERT_TRUE(fleet.Initialize().ok());
  ASSERT_TRUE(
      fleet.ExecuteInteractions(tpcw::WorkloadMix::kShopping, 40).ok());
  ASSERT_TRUE(fleet.Drain().ok());
  ConsistencyReport report = fleet.CheckConsistency();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Same run with the fault storm enabled: deliveries dropped, agents and the
// log reader crashing. The pipeline must still converge to consistency at
// the drain point — replication's recovery guarantees, fleet-wide.
TEST(FleetTest, ConvergesAcrossAllCachesUnderFaults) {
  FleetConfig config = SmallFleet(3);
  config.fault_injection = true;
  Fleet fleet(config);
  ASSERT_TRUE(fleet.Initialize().ok());
  ASSERT_TRUE(
      fleet.ExecuteInteractions(tpcw::WorkloadMix::kShopping, 40).ok());
  // The storm must actually have fired for this test to mean anything.
  const ReplicationMetrics& metrics = fleet.repl()->metrics();
  EXPECT_GT(metrics.crashes_injected + metrics.deliveries_dropped, 0);
  ASSERT_TRUE(fleet.Drain().ok());
  ConsistencyReport report = fleet.CheckConsistency();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Partial caching converges too: range-filtered articles replicate only
// their slice, and the checker recomputes that slice as ground truth.
TEST(FleetTest, PartialFractionConverges) {
  Fleet fleet(SmallFleet(2, 0.5));
  ASSERT_TRUE(fleet.Initialize().ok());
  auto r = fleet.cache(0)->Execute("SELECT COUNT(*) FROM item_cache");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 100);  // ceil(0.5 * 200)
  ASSERT_TRUE(
      fleet.ExecuteInteractions(tpcw::WorkloadMix::kOrdering, 30).ok());
  ASSERT_TRUE(fleet.Drain().ok());
  ConsistencyReport report = fleet.CheckConsistency();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Satellite: monotonicity at test scale. Offload grows with the cached
// fraction (Browsing), and aggregate QPS at 4 caches >= 1 cache.
TEST(FleetTest, OffloadGrowsWithCachedFraction) {
  Fleet quarter(SmallFleet(2, 0.25));
  ASSERT_TRUE(quarter.Initialize().ok());
  Fleet full(SmallFleet(2, 1.0));
  ASSERT_TRUE(full.Initialize().ok());
  FleetLoad load = SmallLoad(tpcw::WorkloadMix::kBrowsing, 2, 60);
  FleetResult lo = quarter.Simulate(load).ConsumeValue();
  FleetResult hi = full.Simulate(load).ConsumeValue();
  EXPECT_LT(lo.offload_pct, hi.offload_pct);
  EXPECT_GT(hi.offload_pct, 90.0);  // fully cached Browsing is ~all local
}

TEST(FleetTest, AggregateQpsGrowsWithCaches) {
  Fleet fleet(SmallFleet());
  ASSERT_TRUE(fleet.Initialize().ok());
  FleetResult one =
      fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kBrowsing, 1, 50))
          .ConsumeValue();
  FleetResult four =
      fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kBrowsing, 4, 200))
          .ConsumeValue();
  EXPECT_GE(four.cache_qps + four.backend_qps,
            one.cache_qps + one.backend_qps);
  EXPECT_GT(four.wips, one.wips);
}

// Simulated commit->apply lag feeds the same LogHistogram that serves
// sys.dm_repl_lag_histogram, so the DMV reflects the simulated run.
TEST(FleetTest, SimulatedLagReachesDmv) {
  Fleet fleet(SmallFleet());
  ASSERT_TRUE(fleet.Initialize().ok());
  int64_t before = fleet.repl()->metrics().lag_histogram.Count();
  FleetResult r =
      fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kOrdering, 2, 80))
          .ConsumeValue();
  EXPECT_GT(r.lag_samples, 0);
  EXPECT_GT(r.lag_p95, 0.0);
  EXPECT_LE(r.lag_p50, r.lag_p95);
  EXPECT_LE(r.lag_p95, r.lag_max * (1 + 1e-9));
  EXPECT_EQ(fleet.repl()->metrics().lag_histogram.Count(),
            before + r.lag_samples);
  // Through the SQL path: the DMV's total count includes the merged samples.
  auto dmv = fleet.cache(0)->Execute(
      "SELECT SUM(count) FROM sys.dm_repl_lag_histogram");
  ASSERT_TRUE(dmv.ok()) << dmv.status().ToString();
  EXPECT_GE(dmv->rows[0][0].AsInt(), r.lag_samples);
}

TEST(FleetTest, SimulateValidatesLoad) {
  Fleet fleet(SmallFleet());
  ASSERT_TRUE(fleet.Initialize().ok());
  FleetLoad load = SmallLoad(tpcw::WorkloadMix::kShopping, 0, 10);
  EXPECT_FALSE(fleet.Simulate(load).ok());
  load = SmallLoad(tpcw::WorkloadMix::kShopping, 1, 0);
  EXPECT_FALSE(fleet.Simulate(load).ok());
}

TEST(FleetTest, UninitializedFleetRejectsUse) {
  Fleet fleet(SmallFleet());
  EXPECT_FALSE(
      fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kShopping, 1, 10)).ok());
  EXPECT_FALSE(
      fleet.ExecuteInteractions(tpcw::WorkloadMix::kShopping, 1).ok());
}

// The backend-only (num_caches = 0) and bypass (!drivers_use_cache)
// deployments: the profile is measured on the backend, all database work
// and statements land there, and the front-end machines carry app work.

TEST(FleetTest, ProfileMeasuresEveryInteraction) {
  Fleet cached(SmallFleet());
  ASSERT_TRUE(cached.Initialize().ok());
  Fleet plain(SmallFleet(0));
  ASSERT_TRUE(plain.Initialize().ok());
  for (int t = 0; t < tpcw::kNumInteractions; ++t) {
    const char* name = tpcw::InteractionName(static_cast<tpcw::Interaction>(t));
    ASSERT_EQ(cached.profile().samples[t].size(), 4u) << name;
    ASSERT_EQ(plain.profile().samples[t].size(), 4u) << name;
    double cached_total = 0;
    for (const auto& sample : cached.profile().samples[t]) {
      cached_total += sample.cache_cost + sample.backend_cost;
    }
    EXPECT_GT(cached_total, 0) << name;
    double backend_total = 0;
    for (const auto& sample : plain.profile().samples[t]) {
      EXPECT_EQ(sample.cache_cost, 0) << name;
      EXPECT_EQ(sample.cache_statements, 0) << name;
      EXPECT_GT(sample.backend_statements, 0) << name;
      backend_total += sample.backend_cost;
    }
    EXPECT_GT(backend_total, 0) << name;
    // Nothing replicates without caches.
    EXPECT_EQ(plain.profile().repl_publisher_cost[t], 0) << name;
    EXPECT_EQ(plain.profile().repl_txns[t], 0) << name;
  }
  // Update interactions cause replication work; pure reads do not.
  EXPECT_GT(cached.profile().repl_publisher_cost[static_cast<int>(
                tpcw::Interaction::kBuyConfirm)],
            0);
  EXPECT_DOUBLE_EQ(cached.profile().repl_publisher_cost[static_cast<int>(
                       tpcw::Interaction::kProductDetail)],
                   0);
}

TEST(FleetTest, RunProducesThroughputAndLatency) {
  Fleet fleet(SmallFleet(0));
  ASSERT_TRUE(fleet.Initialize().ok());
  auto r = fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kShopping, 2, 10));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->wips, 0);
  EXPECT_GT(r->latency_p90, 0);
  EXPECT_GT(r->backend_util, 0);
  EXPECT_GT(r->cache_util_max, 0);  // the front ends' app work
  EXPECT_EQ(r->cache_qps, 0);
  EXPECT_GT(r->backend_qps, 0);
  EXPECT_EQ(r->offload_pct, 0);
  EXPECT_EQ(r->lag_samples, 0);
}

TEST(FleetTest, DeterministicForSameSeed) {
  Fleet a(SmallFleet(0));
  Fleet b(SmallFleet(0));
  ASSERT_TRUE(a.Initialize().ok());
  ASSERT_TRUE(b.Initialize().ok());
  FleetLoad load = SmallLoad(tpcw::WorkloadMix::kShopping, 2, 20);
  auto ra = a.Simulate(load);
  auto rb = b.Simulate(load);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->trace, rb->trace);
  EXPECT_EQ(ra->ToJson(), rb->ToJson());
  EXPECT_DOUBLE_EQ(ra->latency_p90, rb->latency_p90);
}

TEST(FleetTest, MoreUsersMoreThroughputUntilSaturation) {
  Fleet fleet(SmallFleet(0));
  ASSERT_TRUE(fleet.Initialize().ok());
  auto r10 = fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kShopping, 2, 10));
  auto r40 = fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kShopping, 2, 40));
  ASSERT_TRUE(r10.ok() && r40.ok());
  EXPECT_GT(r40->wips, r10->wips);
}

TEST(FleetTest, CachingOffloadsBackend) {
  Fleet plain(SmallFleet(0));
  Fleet cached(SmallFleet());
  ASSERT_TRUE(plain.Initialize().ok());
  ASSERT_TRUE(cached.Initialize().ok());
  FleetLoad load = SmallLoad(tpcw::WorkloadMix::kShopping, 2, 20);
  auto rp = plain.Simulate(load);
  auto rc = cached.Simulate(load);
  ASSERT_TRUE(rp.ok() && rc.ok());
  EXPECT_LT(rc->backend_util, rp->backend_util * 0.5)
      << "cache servers should absorb most of the query load";
}

TEST(FleetTest, FindMaxThroughputRespectsLatencyBound) {
  Fleet fleet(SmallFleet(0));
  ASSERT_TRUE(fleet.Initialize().ok());
  auto r = fleet.FindMaxThroughput(
      SmallLoad(tpcw::WorkloadMix::kShopping, 2, /*users=*/1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(r->latency_p90, kMaxP90Latency);
  EXPECT_GT(r->users, 1);
  // At the operating point some tier is the busy resource.
  EXPECT_GT(std::max(r->backend_util, r->cache_util_max), 0.5);
  EXPECT_LE(std::max(r->backend_util, r->cache_util_max), kMaxBottleneckUtil);
}

TEST(FleetTest, BypassModeMeasuresApplyOverhead) {
  FleetConfig config = SmallFleet();
  config.drivers_use_cache = false;
  Fleet fleet(config);
  ASSERT_TRUE(fleet.Initialize().ok());
  auto r = fleet.Simulate(SmallLoad(tpcw::WorkloadMix::kOrdering, 2, 30));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Cache machines run app work and apply replicated changes: some but
  // little CPU. Every statement goes to the backend.
  EXPECT_GT(r->cache_util_avg, 0);
  EXPECT_LT(r->cache_util_avg, 0.5);
  EXPECT_EQ(r->cache_qps, 0);
  EXPECT_GT(r->lag_avg, 0);
}

}  // namespace
}  // namespace sim
}  // namespace mtcache
