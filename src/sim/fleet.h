#ifndef MTCACHE_SIM_FLEET_H_
#define MTCACHE_SIM_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "check/consistency.h"
#include "common/histogram.h"
#include "mtcache/mtcache.h"
#include "repl/fault.h"
#include "sim/des.h"
#include "tpcw/cache_setup.h"
#include "tpcw/workload.h"

namespace mtcache {
namespace sim {

/// Configuration of the simulated lab (§6.1.2): one real backend Server plus
/// `num_caches` real MTCache servers (catalog clones, cached views at
/// `cached_fraction`, replication subscriptions), and the machine model the
/// discrete-event simulation replays measured work against. The real system
/// is where interactions execute for real (profiling, consistency tests);
/// the DES is where tens of thousands of closed-loop users replay the
/// measured service demands against an arbitrarily large simulated fleet.
///
/// The lab has three deployments, chosen by config alone:
///   - cached (num_caches >= 1, drivers_use_cache): the paper's MTCache
///     setup; each web/cache box runs its share of the database work;
///   - bypass (num_caches >= 1, !drivers_use_cache): the caches keep
///     subscribing but the drivers query the backend (§6.2.2);
///   - backend-only (num_caches = 0): no caches and no replication.
/// In the last two the profile is measured on the backend and all database
/// work and statements land there; the front-end machines carry app_work.
struct FleetConfig {
  tpcw::TpcwConfig tpcw;
  /// Real MTCache servers built by Initialize(). Profiling and consistency
  /// checks run against these; Simulate() may model more (FleetLoad). 0 is
  /// the backend-only deployment.
  int num_caches = 2;
  /// Route the drivers at the cache servers. False is the §6.2.2 bypass
  /// setup: beyond app_work, the cache machines only apply replicated
  /// changes.
  bool drivers_use_cache = true;
  /// Fraction of each cacheable table's rows covered by its cached view
  /// (see tpcw::SetupTpcwCache's fraction overload).
  double cached_fraction = 1.0;
  int profile_samples = 20;
  uint64_t seed = 42;
  /// Installs a seeded probabilistic FaultPlan (crash/drop/delay across the
  /// replication pipeline) after setup, so ExecuteInteractions runs against
  /// a faulty pipeline. Same seed => identical fault schedule.
  bool fault_injection = false;

  // Machine model for Simulate(). Defaults are "one modern box per tier":
  // a core processes unit_rate cost units per second.
  int backend_cpus = 2;
  int cache_cpus = 1;
  double unit_rate = 100000;
  /// Non-database page-generation work per interaction on the cache/web box.
  double app_work = 800;
  double think_time = 1.0;
  double repl_poll_interval = 0.75;
  /// Group-commit batch size threaded into the real pipeline
  /// (ReplicationSystem::set_distribution_batch_size) before profiling, so
  /// the profiled per-interaction repl costs amortize the per-delivery
  /// overhead the way the production pipeline would. 1 = serial pipeline.
  int distribution_batch_size = 1;
};

/// One simulated closed-loop run over an initialized fleet's profile.
struct FleetLoad {
  tpcw::WorkloadMix mix = tpcw::WorkloadMix::kShopping;
  /// Simulated web/cache machines (plain web servers in the backend-only
  /// deployment). May exceed the real fleet: per-cache service demands come
  /// from the profile, so the DES scales the topology freely.
  int num_caches = 1;
  /// Total closed-loop users, pinned user -> cache (user % num_caches): a
  /// session's statements all route through its cache, the §4 ODBC
  /// re-routing at fleet scale.
  int users = 100;
  double warmup = 10;
  double measure = 60;
  /// Number of equal time slices the measure window is divided into for the
  /// per-slice series (FleetResult::slices): per simulated cache per slice,
  /// interactions, statement split, db work, offload %, and repl lag. 8
  /// matches the smoke gate's minimum; the full sweep may raise it.
  int slices = 8;
  /// Keep the full per-interaction trace text in FleetResult::trace. Off by
  /// default (a million-interaction run would hold ~60 MB); the 64-bit FNV
  /// digest over the same bytes is always computed.
  bool record_trace = false;
  /// Combined with FleetConfig::seed; two Simulate calls with equal seeds
  /// (and equal profiles) produce byte-identical traces and results.
  uint64_t seed = 1;
};

/// Measured per-interaction service demands and statement routing, averaged
/// or sampled from real executions through a cache server. In the
/// backend-only and bypass deployments the drivers run on the backend, and
/// every sample's work and statements are backend_cost/backend_statements.
struct FleetProfile {
  struct Sample {
    double cache_cost = 0;    // work on the cache server (local_cost)
    double backend_cost = 0;  // work pushed to the backend (remote_cost)
    int64_t cache_statements = 0;    // statements issued at the cache tier
    int64_t backend_statements = 0;  // remote queries sent to the backend
  };
  std::vector<Sample> samples[tpcw::kNumInteractions];
  /// Replication pipeline work caused per interaction of each type.
  double repl_publisher_cost[tpcw::kNumInteractions] = {};
  double repl_apply_cost[tpcw::kNumInteractions] = {};  // per cache server
  /// Average source transactions distributed per interaction of each type
  /// (drives per-txn commit->apply lag accounting in the DES).
  double repl_txns[tpcw::kNumInteractions] = {};
};

/// One (simulated cache, time slice) cell of a Simulate() run's series: the
/// workload-repository idea applied to the DES — deltas over one slice of
/// the measure window, attributable per cache because every user is pinned
/// to one. The offload ramp, per-slice lag, and hot interaction come from
/// here; the *real* per-cache engine snapshots (hot fingerprints, per-view
/// attribution) come from Server::workload() after ExecuteInteractions.
struct FleetSlice {
  int slice = 0;        // 0-based slice index within the measure window
  int cache = 0;        // simulated cache machine index
  double start = 0;     // slice bounds in simulated seconds
  double end = 0;
  int64_t interactions = 0;
  int64_t cache_statements = 0;
  int64_t backend_statements = 0;
  double cache_db_units = 0;
  double backend_db_units = 0;
  /// 100 * cache_db / (cache_db + backend_db) for this cell.
  double offload_pct = 0;
  int64_t lag_samples = 0;  // commit->apply samples applied at this cache
  double lag_avg = 0;
  double lag_max = 0;
  /// Most-executed interaction type in the cell (ties -> lowest ordinal).
  std::string top_interaction;
  int64_t top_interaction_count = 0;

  /// Single-line JSON object; byte-stable like FleetResult::ToJson.
  std::string ToJson() const;
};

/// One Simulate() measurement. ToJson() is byte-stable for a fixed seed —
/// the deterministic-replay tests compare it directly.
struct FleetResult {
  std::string mix;
  int num_caches = 0;
  double cached_fraction = 0;
  int users = 0;
  int64_t interactions = 0;  // completed inside the measure window
  double wips = 0;           // interactions per simulated second

  // Per-tier statement throughput and database work.
  double cache_qps = 0;    // statements/sec served at the cache tier
  double backend_qps = 0;  // statements/sec reaching the backend
  double cache_db_units_per_sec = 0;
  double backend_db_units_per_sec = 0;
  /// Share of database work kept off the backend:
  /// 100 * cache_db / (cache_db + backend_db).
  double offload_pct = 0;

  double latency_avg = 0;
  double latency_p50 = 0;
  /// The paper's latency bound is on p90 (Fleet::FindMaxThroughput). Not
  /// printed by ToJson, which stays byte-identical to earlier releases.
  double latency_p90 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;

  double backend_util = 0;
  double cache_util_avg = 0;
  double cache_util_max = 0;

  // Commit->apply replication lag across every simulated subscription
  // (percentiles via the same LogHistogram that backs
  // sys.dm_repl_lag_histogram; Simulate merges the samples into the real
  // pipeline's metrics so the DMV reflects the run).
  double lag_avg = 0;
  double lag_p50 = 0;
  double lag_p95 = 0;
  double lag_p99 = 0;
  double lag_max = 0;
  int64_t lag_samples = 0;

  /// Per (simulated cache, time slice) series over the measure window —
  /// num_caches * FleetLoad::slices cells, slice-major then cache order.
  std::vector<FleetSlice> slices;

  /// FNV-1a over every interaction trace record (warmup included).
  uint64_t trace_digest = 0;
  /// Full trace text, one record per completed interaction in completion
  /// order: "seq user cache interaction start end". Only populated when
  /// FleetLoad::record_trace is set.
  std::string trace;

  /// Single-line JSON (trace text excluded, digest included). The slice
  /// series is deliberately NOT part of this string — ToJson stays
  /// byte-identical to earlier releases for the deterministic-replay tests;
  /// callers that want the series splice SlicesJson() in themselves.
  std::string ToJson() const;

  /// JSON array of the per-cache per-slice series (FleetSlice::ToJson per
  /// cell), byte-stable for a fixed seed.
  std::string SlicesJson() const;
};

/// The paper's operating point (§6.1.2): the 90th-percentile interaction
/// latency stays within 3 s and the bottleneck machine below ~90% CPU.
inline constexpr double kMaxP90Latency = 3.0;
inline constexpr double kMaxBottleneckUtil = 0.92;

/// A backend + N MTCache servers wired through replication, profiled once,
/// then replayed at fleet scale on the discrete-event testbed. Everything is
/// deterministic under a fixed seed: the real system (data generation,
/// profiling, fault schedules) and the DES (event order, think-time jitter,
/// demand sampling), which is what makes the fleet a testable artifact.
class Fleet {
 public:
  explicit Fleet(FleetConfig config);
  ~Fleet();

  /// Builds the real fleet (backend, caches, cached views at the configured
  /// fraction, subscriptions), measures the interaction profile, and — when
  /// fault_injection is set — installs the fault plan.
  Status Initialize();

  /// Closed-loop DES run replaying the profile against `load.num_caches`
  /// simulated cache machines. Also folds the run's simulated commit->apply
  /// lag into the real pipeline's metrics (sys.dm_repl_lag_histogram).
  StatusOr<FleetResult> Simulate(const FleetLoad& load);

  /// The paper's methodology: raises `load.users` (its own value is
  /// ignored) until kMaxP90Latency or kMaxBottleneckUtil is exceeded and
  /// returns the Simulate() result at the last acceptable user count.
  StatusOr<FleetResult> FindMaxThroughput(FleetLoad load);

  /// Executes `per_cache` real interactions through each cache server's
  /// dedicated driver (disjoint client id spaces), interleaving a full
  /// replication round every `repl_every` interactions. Injected pipeline
  /// crashes (kUnavailable) are tolerated — they are the point of the
  /// fault-injection runs; any other error is returned. After each
  /// replication round (one "epoch"), every cache's WorkloadRepository
  /// captures a snapshot, so sys.dm_workload_snapshots /
  /// sys.dm_workload_query_deltas carry a per-epoch time series of real
  /// per-fingerprint deltas and offload attribution per cache.
  Status ExecuteInteractions(tpcw::WorkloadMix mix, int per_cache,
                             int repl_every = 7);

  /// Drives the replication pipeline to a quiesce point (DrainPipeline:
  /// faults disabled, clock advanced past backoffs).
  Status Drain();

  /// Runs the ConsistencyChecker for every cache (row diffs of each
  /// subscription recomputed against the backend + commit-order invariants
  /// + dead-view detection) and merges the reports. Meaningful after
  /// Drain().
  ConsistencyReport CheckConsistency() const;

  const FleetProfile& profile() const { return profile_; }
  const FleetConfig& config() const { return config_; }
  Server* backend() { return backend_.get(); }
  Server* cache(int i) { return caches_[i].get(); }
  MTCache* mtcache(int i) { return mtcaches_[i].get(); }
  ReplicationSystem* repl() { return repl_.get(); }
  FaultPlan* fault_plan() { return fault_plan_.get(); }
  SimClock* clock() { return &clock_; }

 private:
  Status BuildSystem();
  Status ProfileInteractions();
  /// One log-reader + all-subscriber distribution round, tolerating
  /// injected kUnavailable crashes. Charges nothing (profiling uses the
  /// stats-charging variant inline).
  Status ReplicationRound();

  FleetConfig config_;
  SimClock clock_;
  LinkedServerRegistry links_;
  std::unique_ptr<Server> backend_;
  std::vector<std::unique_ptr<Server>> caches_;
  std::unique_ptr<ReplicationSystem> repl_;
  std::vector<std::unique_ptr<MTCache>> mtcaches_;
  /// One driver per cache, index i / stride num_caches+1 (the profiling
  /// driver owns the last residue class), so concurrent client id spaces
  /// stay disjoint across the fleet.
  std::vector<std::unique_ptr<tpcw::TpcwDriver>> drivers_;
  std::unique_ptr<FaultPlan> fault_plan_;
  FleetProfile profile_;
  bool initialized_ = false;
};

}  // namespace sim
}  // namespace mtcache

#endif  // MTCACHE_SIM_FLEET_H_
