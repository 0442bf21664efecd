#ifndef MTCACHE_ENGINE_METRICS_H_
#define MTCACHE_ENGINE_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/atomics.h"
#include "common/histogram.h"
#include "exec/exec.h"
#include "opt/optimizer_stats.h"

namespace mtcache {

/// Plan-cache effectiveness counters (exposed via sys.dm_plan_cache).
/// Relaxed atomics: concurrent sessions bump them lock-free on the hit path.
struct PlanCacheStats {
  RelaxedInt64 hits = 0;
  RelaxedInt64 misses = 0;
  /// Statements that can never be cached (freshness-constrained SELECTs,
  /// max_staleness >= 0). Counted separately so they don't skew the
  /// hit-rate: a plan that was never eligible is not a cache miss.
  RelaxedInt64 uncacheable = 0;
  /// Times the whole cache was flushed (DDL, stats refresh, option change).
  RelaxedInt64 invalidations = 0;
  /// Ad-hoc statement plans dropped by the clock to stay within
  /// Server::kStatementPlanCacheCapacity entries.
  RelaxedInt64 evictions = 0;

  double HitRate() const {
    int64_t h = hits, m = misses;
    return h + m > 0 ? static_cast<double>(h) / static_cast<double>(h + m)
                     : 0.0;
  }
};

/// Mirror of repl::ReplicationMetrics for sys.dm_repl_metrics. The engine
/// cannot include repl headers (repl depends on engine), so whoever owns the
/// ReplicationSystem installs a provider translating into this struct.
struct ReplLagBucket {
  double lo = 0;       // inclusive lower bound (simulated seconds)
  double hi = 0;       // exclusive upper bound; HUGE_VAL for overflow
  int64_t count = 0;
};

struct ReplMetricsSnapshot {
  int64_t records_scanned = 0;
  int64_t changes_enqueued = 0;
  int64_t changes_applied = 0;
  int64_t txns_applied = 0;
  int64_t txns_retried = 0;
  int64_t crashes_injected = 0;
  int64_t deliveries_dropped = 0;
  double latency_avg = 0;
  double latency_max = 0;
  int64_t latency_count = 0;
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;
  // Group-commit observability (batched distribution).
  int64_t batches_distributed = 0;
  double avg_batch_size = 0;
  /// Non-empty commit→apply lag buckets (sys.dm_repl_lag_histogram).
  std::vector<ReplLagBucket> lag_buckets;
};

/// Per-fingerprint rollup (sys.dm_exec_query_stats), aggregated over all
/// executions since server start. Keyed by the normalized statement so
/// literal variants fold into one row; `sample_text` keeps the raw SQL of the
/// first plan built for the fingerprint (a procedure statement's own SQL).
/// `latency` buckets real elapsed seconds per execution: the p50/p95/p99
/// columns come from here.
struct StatementRollup {
  int64_t executions = 0;
  ExecStats totals;
  int64_t rows_returned = 0;  // rows a SELECT returned or a write changed
  LogHistogram latency;
  uint64_t query_hash = 0;
  std::string sample_text;
  double elapsed_seconds = 0;  // wall-clock sum (latency.Sum(), kept exact)
};

/// Cumulative per-cached-view offload attribution: how much backend work this
/// view absorbed. sys.dm_mtcache_view_offload and the workload repository
/// render from snapshots.
struct ViewOffloadStats {
  int64_t matches = 0;             // executions whose plan read the view
  int64_t roundtrips_avoided = 0;  // of those, finished with 0 remote queries
  double est_saved_units = 0;      // optimizer units: cost(no view) - cost
};

/// What every execution of one plan is recorded under: built once with the
/// plan, immutable, and shared by reference by the cached plan and by each
/// trace-ring entry and profile of its executions, so a record copies no
/// string. `rollup` and `views` point into the registry's maps.
struct StatementInfo {
  // The statement text, `<proc> stmt#<position>` for a procedure statement
  // (its depth-first position in the body), or "(ad-hoc)" for a statement
  // of a multi-statement script.
  std::string label;
  std::string fingerprint;  // NormalizeStatement(label): the rollup key
  uint64_t query_hash = 0;  // FNV-1a of `fingerprint`
  std::string plan_text;    // PhysicalToString rendering of the plan
  std::string routing;      // "local" | "remote" | "dynamic"
  double est_cost = 0;      // optimizer estimate for the plan
  StatementRollup* rollup = nullptr;
  // The views the plan reads by substitution; each is credited in full with
  // the optimizer's estimated per-execution saving in cost units.
  std::vector<ViewOffloadStats*> views;
  double est_saved_units = 0;
};
using StatementInfoPtr = std::shared_ptr<const StatementInfo>;

/// One entry of the per-query trace ring (sys.dm_exec_requests): one of the
/// last N executions, with its plan's info and its measured cost.
struct QueryTrace {
  int64_t query_id = 0;  // monotonically increasing per server
  StatementInfoPtr info;
  ExecStats stats;  // full per-statement measurement
  int64_t rows_returned = 0;
  double elapsed_seconds = 0;  // real wall-clock time for the statement
};

/// One retained query profile (sys.dm_exec_query_profiles): the full
/// per-operator actuals tree for a profiled execution (EXPLAIN ANALYZE or
/// SET STATISTICS PROFILE ON).
struct QueryProfileRecord {
  int64_t query_id = 0;
  StatementInfoPtr info;
  double total_seconds = 0;
  OperatorProfile root;
};

/// Central per-server counter aggregation: the single place the DMV layer
/// reads. Sub-structs are plain public fields of relaxed atomics — the owning
/// Server (and, via installed pointers, the optimizer and executor) bump them
/// in place from any session thread; the registry itself adds the trace ring
/// and per-statement rollups on top, guarded by a small spinlock (a record is
/// a deque push and a fold through pointers, far cheaper than a mutex park).
class MetricsRegistry {
 public:
  PlanCacheStats plan_cache;
  OptimizerDecisionStats optimizer;
  ChoosePlanRuntimeStats chooseplan;

  /// Points a plan's `info` at the rollup of its fingerprint and at the
  /// offload counters of each of `views`, creating any that are new (a new
  /// rollup takes `sample_text`), and publishes it. Thread-safe.
  StatementInfoPtr BindCounters(StatementInfo info,
                                const std::string& sample_text,
                                const std::vector<std::string>& views);

  /// Records one execution of a planned statement under one lock take:
  /// folds it into the counters `info` points to, with no lookup, and
  /// appends it to the trace ring (evicting the oldest entry past capacity).
  /// Assigns and returns the query id. Thread-safe.
  int64_t RecordStatement(StatementInfoPtr info, const ExecStats& stats,
                          int64_t rows, double elapsed_seconds);

  std::map<std::string, ViewOffloadStats> SnapshotViewOffload() const {
    std::lock_guard<SpinLock> guard(ring_lock_);
    return view_offload_;
  }

  /// Retains a profiled execution's operator tree in the profile ring
  /// (capacity-bounded, oldest evicted). Thread-safe.
  void RecordProfile(QueryProfileRecord profile);
  std::vector<QueryProfileRecord> SnapshotProfiles() const {
    std::lock_guard<SpinLock> guard(ring_lock_);
    return std::vector<QueryProfileRecord>(profiles_.begin(), profiles_.end());
  }

  /// Server-wide profiling switch (in addition to the per-session
  /// SET STATISTICS PROFILE). One relaxed load per SELECT when off.
  bool profiling_enabled() const { return profiling_enabled_.load() != 0; }
  void set_profiling_enabled(bool on) { profiling_enabled_.store(on ? 1 : 0); }

  /// Trace-ring entries silently evicted since startup (capacity overflow
  /// or capacity shrink); surfaced as dm_exec_requests.entries_dropped so
  /// consumers can tell the window truncated.
  int64_t entries_dropped() const { return entries_dropped_.load(); }

  /// A direct reference into the ring — only valid while no other
  /// thread is executing statements (single-threaded tests, post-run
  /// inspection). Concurrent readers must use the Snapshot* copies.
  const std::deque<QueryTrace>& trace() const { return trace_; }

  /// Consistent copies taken under the ring lock: every row in the snapshot
  /// is a fully-recorded statement, never a torn entry. The DMV layer
  /// (sys.dm_exec_requests / dm_exec_query_stats) renders from these.
  std::deque<QueryTrace> SnapshotTrace() const {
    std::lock_guard<SpinLock> guard(ring_lock_);
    return trace_;
  }
  std::map<std::string, StatementRollup> SnapshotRollups() const {
    std::lock_guard<SpinLock> guard(ring_lock_);
    return rollups_;
  }

  /// Trace-ring sizing: how many recent statements dm_exec_requests keeps.
  void set_trace_capacity(size_t n) {
    std::lock_guard<SpinLock> guard(ring_lock_);
    trace_capacity_ = n;
    while (trace_.size() > trace_capacity_) {
      trace_.pop_front();
      ++entries_dropped_;
    }
  }

  using ReplMetricsProvider = std::function<ReplMetricsSnapshot()>;
  /// Installed by the layer owning the ReplicationSystem (MTCache::Setup or
  /// tests); dm_repl_metrics reads through it. Unset = all-zero row.
  void set_repl_metrics_provider(ReplMetricsProvider provider) {
    repl_provider_ = std::move(provider);
  }
  ReplMetricsSnapshot repl_snapshot() const {
    return repl_provider_ ? repl_provider_() : ReplMetricsSnapshot{};
  }

 private:
  // Guards trace_, rollups_, view_offload_, next_query_id_, profiles_.
  mutable SpinLock ring_lock_;
  std::deque<QueryTrace> trace_;
  size_t trace_capacity_ = 32;
  int64_t next_query_id_ = 1;
  // Keyed by fingerprint and by view name. Nodes are never erased and do not
  // move, so StatementInfo pointers into them stay valid.
  std::map<std::string, StatementRollup> rollups_;
  std::map<std::string, ViewOffloadStats> view_offload_;
  std::deque<QueryProfileRecord> profiles_;
  size_t profile_capacity_ = 16;
  RelaxedInt64 entries_dropped_;
  RelaxedInt64 profiling_enabled_;
  ReplMetricsProvider repl_provider_;
};

}  // namespace mtcache

#endif  // MTCACHE_ENGINE_METRICS_H_
