#ifndef MTCACHE_ENGINE_WORKLOAD_H_
#define MTCACHE_ENGINE_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/atomics.h"
#include "engine/metrics.h"

namespace mtcache {

/// Query fingerprinting + the workload repository (the observability substrate
/// for the cache-advisor work, ROADMAP item 2).
///
/// A *fingerprint* is the statement with literals replaced by `?`
/// placeholders, identifiers/keywords lower-cased, and whitespace folded to
/// single spaces — so `SELECT * FROM t WHERE id = 7` and
/// `select *  from T where id=42` share one fingerprint and their stats
/// aggregate into one dm_exec_query_stats row. The fingerprint is computed
/// once per plan-cache *miss*, into the plan's StatementInfo; every execution
/// of the plan records through that shared info and copies no string.
///
/// The *repository* turns the since-boot counters of MetricsRegistry into a
/// bounded ring of time slices: each Capture() reads the cumulative totals,
/// subtracts the previous capture's totals, and stores the delta. Summing the
/// deltas of an unevicted ring reproduces the cumulative totals exactly
/// (workload_test pins this). The hot path never touches the repository —
/// capture is triggered manually (Server::CaptureWorkloadSnapshot), on a
/// sim-clock cadence (one relaxed load per statement when armed), or by the
/// fleet simulation per DES epoch.

/// Normalizes a SQL statement for fingerprinting: literals (int/float/string)
/// become `?`, identifiers and keywords are lower-cased (the lexer already
/// folds them), comments vanish, and tokens are joined with single spaces.
/// Unlexable text falls back to lower-case + whitespace folding so every
/// statement has *some* stable fingerprint.
std::string NormalizeStatement(const std::string& sql);

/// FNV-1a 64-bit hash of the normalized text.
uint64_t FingerprintHash(const std::string& normalized);

/// The hash rendered as 16 lower-case hex digits — the dm_exec_query_stats
/// `query_hash` column (string, not int64: the full unsigned range survives).
std::string FingerprintHex(uint64_t hash);

/// Measured seconds per charged cost unit: Σ elapsed seconds / Σ (local +
/// remote) units over `rollups`, or 0 before any execution.
double MeasuredSecondsPerUnit(
    const std::map<std::string, StatementRollup>& rollups);

/// Per-fingerprint delta over one slice (sys.dm_workload_query_deltas).
struct WorkloadQueryDelta {
  std::string query_hash;   // FingerprintHex of the normalized statement
  std::string statement;    // normalized text (the rollup key)
  std::string sample_text;  // the rollup's sample SQL
  int64_t executions = 0;
  int64_t rows_returned = 0;
  double local_cost = 0;
  double remote_cost = 0;
  int64_t remote_queries = 0;
  double elapsed_seconds = 0;  // wall-clock sum over the slice's executions
};

/// Per-cached-view offload delta over one slice.
struct WorkloadViewDelta {
  std::string view;
  int64_t matches = 0;             // executions whose plan read this view
  int64_t roundtrips_avoided = 0;  // of those, ran with zero remote queries
  double est_saved_units = 0;      // optimizer units: cost(no view) - cost
  double est_saved_seconds = 0;    // units * MeasuredSecondsPerUnit
};

/// One captured time slice: counter deltas since the previous capture plus
/// the per-fingerprint and per-view breakdowns. `repl_lag_p99` is a gauge
/// (point-in-time), everything else is a delta over the interval.
struct WorkloadSlice {
  int64_t slice_id = 0;        // monotone per repository, never reused
  double captured_at = 0;      // sim-clock seconds at capture
  double interval_seconds = 0;  // captured_at - previous capture (0 = first)
  int64_t statements = 0;      // planned-statement executions recorded
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t view_match_hits = 0;
  int64_t remote_queries = 0;
  int64_t rows_transferred = 0;
  double bytes_transferred = 0;
  int64_t repl_changes_applied = 0;
  double repl_lag_p99 = 0;  // gauge
  double wait_seconds = 0;  // summed over all wait sites
  int64_t wait_contentions = 0;
  int64_t offload_matches = 0;
  int64_t offload_roundtrips_avoided = 0;
  double offload_est_saved_units = 0;
  double offload_est_saved_seconds = 0;
  std::vector<WorkloadQueryDelta> queries;  // only fingerprints that moved
  std::vector<WorkloadViewDelta> views;     // only views that moved
};

/// Bounded in-memory ring of workload slices. Thread-safe: Capture() and
/// SnapshotSlices() may race query execution (the concurrency_test hammer
/// proves TSan-cleanliness); captures serialize on the repository lock, and
/// the counter reads go through MetricsRegistry's own snapshot paths.
class WorkloadRepository {
 public:
  /// Captures one slice: cumulative totals now, minus the totals at the
  /// previous capture. Returns a copy of the stored slice.
  WorkloadSlice Capture(const MetricsRegistry& metrics, double now);

  /// Consistent copy of the retained slices, oldest first.
  std::vector<WorkloadSlice> SnapshotSlices() const;

  /// Ring sizing. Shrinking evicts oldest-first immediately.
  void set_capacity(size_t n);
  size_t capacity() const;

  /// Slices evicted since startup (ring overflow); consumers use this to
  /// tell a truncated history from a complete one.
  int64_t slices_dropped() const { return slices_dropped_.load(); }
  int64_t slices_captured() const { return slices_captured_.load(); }

 private:
  /// The cumulative counters as read at one capture (all zero before one).
  struct Totals {
    double captured_at = -1;  // -1 until the first capture
    int64_t plan_cache_hits = 0;
    int64_t plan_cache_misses = 0;
    int64_t view_match_hits = 0;
    int64_t repl_changes_applied = 0;
    double wait_seconds = 0;
    int64_t wait_contentions = 0;
    std::map<std::string, StatementRollup> rollups;
    std::map<std::string, ViewOffloadStats> views;
  };

  // Guards ring_, baseline_, next_slice_id_. Captures are rare (cadence or
  // manual) so a spinlock is plenty; the expensive part — snapshotting the
  // rollup map — happens via MetricsRegistry's lock, not this one.
  mutable SpinLock mu_;
  std::deque<WorkloadSlice> ring_;
  Totals baseline_;  // the totals at the previous capture
  int64_t next_slice_id_ = 1;
  size_t capacity_ = 64;
  RelaxedInt64 slices_dropped_;
  RelaxedInt64 slices_captured_;
};

}  // namespace mtcache

#endif  // MTCACHE_ENGINE_WORKLOAD_H_
