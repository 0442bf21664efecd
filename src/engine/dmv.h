#ifndef MTCACHE_ENGINE_DMV_H_
#define MTCACHE_ENGINE_DMV_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/metrics.h"
#include "engine/workload.h"

namespace mtcache {

class StorageProvider;

/// The dynamic-management-view catalog of one server: read-only virtual
/// tables, resolved by the binder under the reserved `sys` qualifier and
/// scanned through the ordinary SeqScan path (SQL Server's sys.dm_* views,
/// scaled to this engine's counters):
///
///   sys.dm_plan_cache          one wide row of plan-cache/optimizer counters
///   sys.dm_exec_query_stats    per-statement-text rollups + p50/p95/p99
///   sys.dm_exec_requests       the trace ring: last N executed statements
///   sys.dm_exec_query_profiles per-operator actuals of profiled queries
///   sys.dm_mtcache_views       per cached/materialized view currency state
///   sys.dm_repl_metrics        replication-pipeline counters (via provider)
///   sys.dm_repl_lag_histogram  commit->apply lag distribution (via provider)
///   sys.dm_os_wait_stats       latch/mutex wait accounting (process-global)
///   sys.dm_db_column_histograms  equi-depth stats buckets per column
///   sys.dm_db_index_stats      size and shape of every stored index
///   sys.dm_workload_snapshots  workload-repository time slices (deltas)
///   sys.dm_workload_query_deltas per-fingerprint deltas per slice
///   sys.dm_mtcache_view_offload  per-cached-view offload attribution
///
/// The defs are owned per-Server so LogicalGet/PhysSeqScan TableDef pointers
/// in cached plans stay valid for the server's lifetime.
///
/// Concurrency: the catalog is fully populated in the constructor and never
/// mutated afterwards — read-only after setup, so concurrent sessions may
/// call Find()/Names() without any locking.
class DmvCatalog {
 public:
  DmvCatalog();

  /// Resolves the bare DMV name as written after `sys.` (e.g.
  /// "dm_plan_cache"). Returns null for unknown names.
  const TableDef* Find(const std::string& name) const;

  /// Bare names in catalog order, for snapshot helpers and smoke tests.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, TableDef> tables_;  // keyed by bare name
};

/// Everything a DMV row producer reads. All pointers are borrowed from the
/// owning Server for the duration of one scan-open.
struct DmvSource {
  const MetricsRegistry* metrics = nullptr;
  const Catalog* catalog = nullptr;  // for dm_mtcache_views
  // For dm_db_index_stats. Null = that DMV renders empty.
  StorageProvider* storage = nullptr;
  // For dm_workload_snapshots / dm_workload_query_deltas. Null = those DMVs
  // render empty.
  const WorkloadRepository* workload = nullptr;
  double now = 0;                    // staleness = now - freshness_time
  int64_t cached_statements = 0;       // ad-hoc statement cache entries
  int64_t cached_procedure_plans = 0;  // plans across compiled procedures
};

/// Materializes the rows of the named DMV (full dotted name, e.g.
/// "sys.dm_plan_cache") from the source snapshot. `filter` is the scan's
/// pushed-down predicate (may be null): it is applied while the rows are
/// being rendered, so a selective query over a large registry (e.g.
/// `... WHERE query_id = ?` against the profile ring) never accumulates the
/// non-matching rows at all.
StatusOr<std::vector<Row>> DmvRows(const std::string& name,
                                   const DmvSource& src,
                                   const VirtualRowFilter& filter);

}  // namespace mtcache

#endif  // MTCACHE_ENGINE_DMV_H_
