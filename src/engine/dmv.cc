#include "engine/dmv.h"

#include <cmath>
#include <string_view>

#include "common/wait_stats.h"
#include "exec/exec.h"
#include "storage/table.h"

namespace mtcache {

namespace {

constexpr const char* kPlanCache = "dm_plan_cache";
constexpr const char* kQueryStats = "dm_exec_query_stats";
constexpr const char* kRequests = "dm_exec_requests";
constexpr const char* kMtcacheViews = "dm_mtcache_views";
constexpr const char* kReplMetrics = "dm_repl_metrics";
constexpr const char* kQueryProfiles = "dm_exec_query_profiles";
constexpr const char* kReplLagHistogram = "dm_repl_lag_histogram";
constexpr const char* kWaitStats = "dm_os_wait_stats";
constexpr const char* kColumnHistograms = "dm_db_column_histograms";
constexpr const char* kIndexStats = "dm_db_index_stats";
constexpr const char* kWorkloadSnapshots = "dm_workload_snapshots";
constexpr const char* kWorkloadQueryDeltas = "dm_workload_query_deltas";
constexpr const char* kViewOffload = "dm_mtcache_view_offload";

TableDef MakeDmv(const std::string& bare_name,
                 std::vector<std::pair<std::string, TypeId>> columns) {
  TableDef def;
  def.name = "sys." + bare_name;
  def.virtual_table = true;
  for (auto& [col, type] : columns) {
    ColumnInfo info;
    info.name = col;
    info.type = type;
    info.table = def.name;
    info.nullable = true;
    def.schema.AddColumn(std::move(info));
  }
  // Nominal stats: DMVs are tiny; keep the optimizer from assuming zero rows.
  def.stats.row_count = 1;
  return def;
}

// Applies the scan's pushed-down filter at render time: rejected rows are
// dropped immediately instead of being accumulated into the materialized
// snapshot. A null filter keeps everything.
Status EmitRow(const VirtualRowFilter& filter, Row row,
               std::vector<Row>* rows) {
  if (filter != nullptr) {
    MT_ASSIGN_OR_RETURN(bool keep, filter(row));
    if (!keep) return Status::Ok();
  }
  rows->push_back(std::move(row));
  return Status::Ok();
}

Row PlanCacheRow(const DmvSource& src) {
  const MetricsRegistry& m = *src.metrics;
  return Row{
      Value::Int(m.plan_cache.hits),
      Value::Int(m.plan_cache.misses),
      Value::Int(m.plan_cache.uncacheable),
      Value::Int(m.plan_cache.invalidations),
      Value::Int(m.plan_cache.evictions),
      Value::Double(m.plan_cache.HitRate()),
      Value::Int(src.cached_statements),
      Value::Int(src.cached_procedure_plans),
      Value::Int(m.optimizer.view_match_hits),
      Value::Int(m.optimizer.view_match_misses),
      Value::Int(m.optimizer.view_match_conditional),
      Value::Int(m.optimizer.dynamic_plans),
      Value::Int(m.optimizer.remote_plans),
      Value::Int(m.chooseplan.guards_evaluated),
      Value::Int(m.chooseplan.local_branches),
      Value::Int(m.chooseplan.remote_branches),
      Value::Int(m.optimizer.currency_checks_passed),
      Value::Int(m.optimizer.currency_fallbacks),
  };
}

StatusOr<std::vector<Row>> QueryStatsRows(const DmvSource& src,
                                          const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  // Keyed by normalized fingerprint: literal variants share one row, with
  // one raw SQL retained as sample_text. A rollup exists from its first
  // plan on; it has a row once a statement has executed under it.
  for (const auto& [text, rollup] : src.metrics->SnapshotRollups()) {
    if (rollup.executions == 0) continue;
    MT_RETURN_IF_ERROR(EmitRow(filter, Row{
        Value::String(FingerprintHex(rollup.query_hash)),
        Value::String(text),
        Value::String(rollup.sample_text),
        Value::Int(rollup.executions),
        Value::Int(rollup.rows_returned),
        Value::Double(rollup.totals.local_cost),
        Value::Double(rollup.totals.remote_cost),
        Value::Int(rollup.totals.rows_transferred),
        Value::Double(rollup.totals.bytes_transferred),
        Value::Int(rollup.totals.remote_queries),
        Value::Double(rollup.latency.Avg()),
        Value::Double(rollup.latency.Max()),
        Value::Double(rollup.latency.Percentile(0.50)),
        Value::Double(rollup.latency.Percentile(0.95)),
        Value::Double(rollup.latency.Percentile(0.99)),
    }, &rows));
  }
  return rows;
}

StatusOr<std::vector<Row>> RequestsRows(const DmvSource& src,
                                        const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  int64_t dropped = src.metrics->entries_dropped();
  for (const QueryTrace& t : src.metrics->SnapshotTrace()) {
    MT_RETURN_IF_ERROR(EmitRow(filter, Row{
        Value::Int(t.query_id),
        Value::String(t.info->label),
        Value::String(t.info->routing),
        Value::Double(t.info->est_cost),
        Value::Double(t.stats.local_cost + t.stats.remote_cost),
        Value::Double(t.stats.local_cost),
        Value::Double(t.stats.remote_cost),
        Value::Int(t.rows_returned),
        Value::Int(t.stats.rows_transferred),
        Value::Int(t.stats.remote_queries),
        Value::Double(t.elapsed_seconds),
        Value::Int(dropped),
        Value::String(t.info->plan_text),
    }, &rows));
  }
  return rows;
}

// Flattens one profile tree pre-order. op_id is the pre-order position
// (root = 0), parent_id is the parent's op_id (-1 for the root), so the
// tree can be reassembled from the rows.
Status AppendProfileRows(const QueryProfileRecord& rec,
                         const OperatorProfile& op, int64_t parent_id,
                         int64_t* next_id, const VirtualRowFilter& filter,
                         std::vector<Row>* rows) {
  int64_t op_id = (*next_id)++;
  MT_RETURN_IF_ERROR(EmitRow(filter, Row{
      Value::Int(rec.query_id),
      Value::String(FingerprintHex(rec.info->query_hash)),
      Value::String(rec.info->label),
      Value::Int(op_id),
      Value::Int(parent_id),
      Value::String(op.op_name),
      Value::Double(op.est_rows),
      Value::Int(op.actual_rows),
      Value::Int(op.opens),
      Value::Int(op.next_calls),
      Value::Double(op.open_seconds),
      Value::Double(op.next_seconds),
      Value::Double(op.close_seconds),
      Value::Int(op.mem_peak_bytes),
      Value::Double(op.est_cost),
      Value::Double(op.charged_units),
  }, rows));
  for (const OperatorProfile& child : op.children) {
    MT_RETURN_IF_ERROR(
        AppendProfileRows(rec, child, op_id, next_id, filter, rows));
  }
  return Status::Ok();
}

StatusOr<std::vector<Row>> QueryProfilesRows(const DmvSource& src,
                                             const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  for (const QueryProfileRecord& rec : src.metrics->SnapshotProfiles()) {
    int64_t next_id = 0;
    MT_RETURN_IF_ERROR(
        AppendProfileRows(rec, rec.root, -1, &next_id, filter, &rows));
  }
  return rows;
}

StatusOr<std::vector<Row>> MtcacheViewsRows(const DmvSource& src,
                                            const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  for (const std::string& name : src.catalog->TableNames()) {
    const TableDef* def = src.catalog->GetTable(name);
    if (def == nullptr || !def->view_def.has_value()) continue;
    bool cached = def->kind == RelationKind::kCachedView;
    // Staleness only means something for asynchronously maintained cached
    // views with a known currency point.
    double staleness = cached && def->freshness_time >= 0
                           ? src.now - def->freshness_time
                           : -1;
    MT_RETURN_IF_ERROR(EmitRow(filter, Row{
        Value::String(def->name),
        Value::String(cached ? "cached" : "materialized"),
        Value::String(def->view_def->base_table),
        Value::Int(def->subscription_id),
        Value::Double(def->freshness_time),
        Value::Double(staleness),
        Value::Double(def->stats.row_count),
    }, &rows));
  }
  return rows;
}

Row ReplMetricsRow(const DmvSource& src) {
  ReplMetricsSnapshot r = src.metrics->repl_snapshot();
  return Row{
      Value::Int(r.records_scanned),
      Value::Int(r.changes_enqueued),
      Value::Int(r.changes_applied),
      Value::Int(r.txns_applied),
      Value::Int(r.txns_retried),
      Value::Int(r.crashes_injected),
      Value::Int(r.deliveries_dropped),
      Value::Double(r.latency_avg),
      Value::Double(r.latency_max),
      Value::Int(r.latency_count),
      Value::Double(r.latency_p50),
      Value::Double(r.latency_p95),
      Value::Double(r.latency_p99),
      Value::Int(r.batches_distributed),
      Value::Double(r.avg_batch_size),
  };
}

StatusOr<std::vector<Row>> ReplLagHistogramRows(
    const DmvSource& src, const VirtualRowFilter& filter) {
  ReplMetricsSnapshot r = src.metrics->repl_snapshot();
  std::vector<Row> rows;
  int64_t cumulative = 0;
  for (const ReplLagBucket& b : r.lag_buckets) {
    cumulative += b.count;
    // The overflow bucket's open upper bound is rendered as NULL, not inf:
    // the Value layer treats non-finite doubles as untrustworthy literals.
    MT_RETURN_IF_ERROR(EmitRow(filter, Row{
        Value::Double(b.lo),
        std::isfinite(b.hi) ? Value::Double(b.hi) : Value::Null(),
        Value::Int(b.count),
        Value::Int(cumulative),
    }, &rows));
  }
  return rows;
}

StatusOr<std::vector<Row>> WaitStatsRows(const VirtualRowFilter& filter) {
  const WaitStats& ws = GlobalWaitStats();
  std::vector<Row> rows;
  for (int i = 0; i < static_cast<int>(WaitSite::kCount); ++i) {
    WaitSite site = static_cast<WaitSite>(i);
    const WaitSiteStats& s = ws.at(site);
    MT_RETURN_IF_ERROR(EmitRow(filter, Row{
        Value::String(WaitSiteName(site)),
        Value::Int(s.acquisitions),
        Value::Int(s.contentions),
        Value::Double(s.wait_seconds),
        Value::Double(s.max_wait_seconds),
    }, &rows));
  }
  return rows;
}

// One row per equi-depth histogram bucket of every stored relation's
// column statistics (shadow tables included — their buckets describe the
// *backend* data, which is exactly what the cache optimizer costs with).
// lower_bound is exclusive except for the first bucket; a row with
// lower_bound == upper_bound is a heavy-hitter spike.
StatusOr<std::vector<Row>> ColumnHistogramsRows(const DmvSource& src,
                                                const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  for (const std::string& name : src.catalog->TableNames()) {
    const TableDef* def = src.catalog->GetTable(name);
    if (def == nullptr || def->virtual_table) continue;
    const TableStats& stats = def->stats;
    for (size_t c = 0; c < stats.columns.size(); ++c) {
      const ColumnStats& cs = stats.columns[c];
      if (cs.hist_bounds.empty()) continue;
      const double fraction = 1.0 / cs.hist_bounds.size();
      const double est_rows =
          stats.row_count * (1.0 - cs.null_frac) * fraction;
      double lo = cs.min;
      for (size_t b = 0; b < cs.hist_bounds.size(); ++b) {
        double hi = cs.hist_bounds[b];
        MT_RETURN_IF_ERROR(EmitRow(filter, Row{
            Value::String(def->name),
            Value::String(c < static_cast<size_t>(def->schema.num_columns())
                              ? def->schema.column(static_cast<int>(c)).name
                              : ""),
            Value::Int(static_cast<int64_t>(c)),
            Value::Int(static_cast<int64_t>(b)),
            Value::Double(lo),
            Value::Double(hi),
            Value::Double(fraction),
            Value::Double(est_rows),
        }, &rows));
        lo = hi;
      }
    }
  }
  return rows;
}

// One row per index of every stored relation: its entries, levels, nodes
// and bytes (node headers plus node array capacity, BPlusTree::Shape). Each
// tree is walked under its table's shared latch at scan-open, so the DMV
// costs nothing until it is read.
StatusOr<std::vector<Row>> IndexStatsRows(const DmvSource& src,
                                          const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  if (src.storage == nullptr) return rows;
  for (const std::string& name : src.catalog->TableNames()) {
    StoredTable* table = src.storage->GetStoredTable(name);
    if (table == nullptr) continue;
    std::vector<Row> table_rows;
    {
      SharedLatchWait latch(table->latch(), WaitSite::kTableLatchShared);
      const TableDef& def = table->def();
      for (size_t i = 0; i < def.indexes.size(); ++i) {
        BPlusTree::Shape shape =
            table->index(static_cast<int>(i)).ComputeShape();
        table_rows.push_back(Row{
            Value::String(def.name),
            Value::String(def.indexes[i].name),
            Value::Int(shape.entries),
            Value::Int(shape.height),
            Value::Int(shape.leaf_nodes),
            Value::Int(shape.inner_nodes),
            Value::Int(shape.bytes),
        });
      }
    }
    for (Row& row : table_rows) {
      MT_RETURN_IF_ERROR(EmitRow(filter, std::move(row), &rows));
    }
  }
  return rows;
}

// One row per retained workload slice: counter deltas over the interval
// (repl_lag_p99 is a gauge) plus the rolled-up offload attribution.
StatusOr<std::vector<Row>> WorkloadSnapshotsRows(const DmvSource& src,
                                                 const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  if (src.workload == nullptr) return rows;
  const int64_t dropped = src.workload->slices_dropped();
  for (const WorkloadSlice& s : src.workload->SnapshotSlices()) {
    MT_RETURN_IF_ERROR(EmitRow(filter, Row{
        Value::Int(s.slice_id),
        Value::Double(s.captured_at),
        Value::Double(s.interval_seconds),
        Value::Int(s.statements),
        Value::Int(s.plan_cache_hits),
        Value::Int(s.plan_cache_misses),
        Value::Int(s.view_match_hits),
        Value::Int(s.remote_queries),
        Value::Int(s.rows_transferred),
        Value::Double(s.bytes_transferred),
        Value::Int(s.repl_changes_applied),
        Value::Double(s.repl_lag_p99),
        Value::Double(s.wait_seconds),
        Value::Int(s.wait_contentions),
        Value::Int(s.offload_matches),
        Value::Int(s.offload_roundtrips_avoided),
        Value::Double(s.offload_est_saved_units),
        Value::Double(s.offload_est_saved_seconds),
        Value::Int(dropped),
    }, &rows));
  }
  return rows;
}

// One row per (slice, fingerprint) that executed during the slice.
StatusOr<std::vector<Row>> WorkloadQueryDeltasRows(
    const DmvSource& src, const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  if (src.workload == nullptr) return rows;
  for (const WorkloadSlice& s : src.workload->SnapshotSlices()) {
    for (const WorkloadQueryDelta& d : s.queries) {
      MT_RETURN_IF_ERROR(EmitRow(filter, Row{
          Value::Int(s.slice_id),
          Value::String(d.query_hash),
          Value::String(d.statement),
          Value::String(d.sample_text),
          Value::Int(d.executions),
          Value::Int(d.rows_returned),
          Value::Double(d.local_cost),
          Value::Double(d.remote_cost),
          Value::Int(d.remote_queries),
          Value::Double(d.elapsed_seconds),
      }, &rows));
    }
  }
  return rows;
}

// Cumulative per-cached-view offload attribution since server start, for
// each view a statement has executed through. The seconds column converts
// optimizer units at the server's measured seconds per charged unit.
StatusOr<std::vector<Row>> ViewOffloadRows(const DmvSource& src,
                                           const VirtualRowFilter& filter) {
  std::vector<Row> rows;
  const double unit_seconds =
      MeasuredSecondsPerUnit(src.metrics->SnapshotRollups());
  for (const auto& [view, s] : src.metrics->SnapshotViewOffload()) {
    if (s.matches == 0) continue;
    MT_RETURN_IF_ERROR(EmitRow(filter, Row{
        Value::String(view),
        Value::Int(s.matches),
        Value::Int(s.roundtrips_avoided),
        Value::Double(s.est_saved_units),
        Value::Double(s.est_saved_units * unit_seconds),
    }, &rows));
  }
  return rows;
}

}  // namespace

DmvCatalog::DmvCatalog() {
  tables_[kPlanCache] = MakeDmv(
      kPlanCache,
      {{"hits", TypeId::kInt64},
       {"misses", TypeId::kInt64},
       {"uncacheable", TypeId::kInt64},
       {"invalidations", TypeId::kInt64},
       {"evictions", TypeId::kInt64},
       {"hit_rate", TypeId::kDouble},
       {"cached_statements", TypeId::kInt64},
       {"cached_procedure_plans", TypeId::kInt64},
       {"view_match_hits", TypeId::kInt64},
       {"view_match_misses", TypeId::kInt64},
       {"view_match_conditional", TypeId::kInt64},
       {"dynamic_plans", TypeId::kInt64},
       {"remote_plans", TypeId::kInt64},
       {"chooseplan_guards", TypeId::kInt64},
       {"chooseplan_local", TypeId::kInt64},
       {"chooseplan_remote", TypeId::kInt64},
       {"currency_checks_passed", TypeId::kInt64},
       {"currency_fallbacks", TypeId::kInt64}});
  tables_[kQueryStats] = MakeDmv(
      kQueryStats,
      {{"query_hash", TypeId::kString},
       {"statement", TypeId::kString},
       {"sample_text", TypeId::kString},
       {"executions", TypeId::kInt64},
       {"rows_returned", TypeId::kInt64},
       {"local_cost", TypeId::kDouble},
       {"remote_cost", TypeId::kDouble},
       {"rows_transferred", TypeId::kInt64},
       {"bytes_transferred", TypeId::kDouble},
       {"remote_queries", TypeId::kInt64},
       {"latency_avg", TypeId::kDouble},
       {"latency_max", TypeId::kDouble},
       {"latency_p50", TypeId::kDouble},
       {"latency_p95", TypeId::kDouble},
       {"latency_p99", TypeId::kDouble}});
  tables_[kRequests] = MakeDmv(
      kRequests,
      {{"query_id", TypeId::kInt64},
       {"statement", TypeId::kString},
       {"routing", TypeId::kString},
       {"est_cost", TypeId::kDouble},
       {"measured_cost", TypeId::kDouble},
       {"local_cost", TypeId::kDouble},
       {"remote_cost", TypeId::kDouble},
       {"rows_returned", TypeId::kInt64},
       {"rows_transferred", TypeId::kInt64},
       {"remote_queries", TypeId::kInt64},
       {"elapsed_seconds", TypeId::kDouble},
       {"entries_dropped", TypeId::kInt64},
       {"plan", TypeId::kString}});
  tables_[kQueryProfiles] = MakeDmv(
      kQueryProfiles,
      {{"query_id", TypeId::kInt64},
       {"query_hash", TypeId::kString},
       {"statement", TypeId::kString},
       {"op_id", TypeId::kInt64},
       {"parent_id", TypeId::kInt64},
       {"operator", TypeId::kString},
       {"est_rows", TypeId::kDouble},
       {"actual_rows", TypeId::kInt64},
       {"opens", TypeId::kInt64},
       {"next_calls", TypeId::kInt64},
       {"open_seconds", TypeId::kDouble},
       {"next_seconds", TypeId::kDouble},
       {"close_seconds", TypeId::kDouble},
       {"mem_peak_bytes", TypeId::kInt64},
       {"est_cost", TypeId::kDouble},
       {"charged_units", TypeId::kDouble}});
  tables_[kMtcacheViews] = MakeDmv(
      kMtcacheViews,
      {{"name", TypeId::kString},
       {"kind", TypeId::kString},
       {"base_table", TypeId::kString},
       {"subscription_id", TypeId::kInt64},
       {"freshness_time", TypeId::kDouble},
       {"staleness", TypeId::kDouble},
       {"row_count", TypeId::kDouble}});
  tables_[kReplMetrics] = MakeDmv(
      kReplMetrics,
      {{"records_scanned", TypeId::kInt64},
       {"changes_enqueued", TypeId::kInt64},
       {"changes_applied", TypeId::kInt64},
       {"txns_applied", TypeId::kInt64},
       {"txns_retried", TypeId::kInt64},
       {"crashes_injected", TypeId::kInt64},
       {"deliveries_dropped", TypeId::kInt64},
       {"latency_avg", TypeId::kDouble},
       {"latency_max", TypeId::kDouble},
       {"latency_count", TypeId::kInt64},
       {"latency_p50", TypeId::kDouble},
       {"latency_p95", TypeId::kDouble},
       {"latency_p99", TypeId::kDouble},
       {"batches_distributed", TypeId::kInt64},
       {"avg_batch_size", TypeId::kDouble}});
  tables_[kReplLagHistogram] = MakeDmv(
      kReplLagHistogram,
      {{"bucket_lo", TypeId::kDouble},
       {"bucket_hi", TypeId::kDouble},
       {"count", TypeId::kInt64},
       {"cumulative", TypeId::kInt64}});
  tables_[kWaitStats] = MakeDmv(
      kWaitStats,
      {{"wait_type", TypeId::kString},
       {"acquisitions", TypeId::kInt64},
       {"contentions", TypeId::kInt64},
       {"wait_seconds", TypeId::kDouble},
       {"max_wait_seconds", TypeId::kDouble}});
  tables_[kColumnHistograms] = MakeDmv(
      kColumnHistograms,
      {{"table_name", TypeId::kString},
       {"column_name", TypeId::kString},
       {"ordinal", TypeId::kInt64},
       {"bucket", TypeId::kInt64},
       {"lower_bound", TypeId::kDouble},
       {"upper_bound", TypeId::kDouble},
       {"rows_fraction", TypeId::kDouble},
       {"est_rows", TypeId::kDouble}});
  tables_[kIndexStats] = MakeDmv(
      kIndexStats,
      {{"table_name", TypeId::kString},
       {"index_name", TypeId::kString},
       {"entries", TypeId::kInt64},
       {"height", TypeId::kInt64},
       {"leaf_nodes", TypeId::kInt64},
       {"inner_nodes", TypeId::kInt64},
       {"bytes", TypeId::kInt64}});
  tables_[kWorkloadSnapshots] = MakeDmv(
      kWorkloadSnapshots,
      {{"slice_id", TypeId::kInt64},
       {"captured_at", TypeId::kDouble},
       {"interval_seconds", TypeId::kDouble},
       {"statements", TypeId::kInt64},
       {"plan_cache_hits", TypeId::kInt64},
       {"plan_cache_misses", TypeId::kInt64},
       {"view_match_hits", TypeId::kInt64},
       {"remote_queries", TypeId::kInt64},
       {"rows_transferred", TypeId::kInt64},
       {"bytes_transferred", TypeId::kDouble},
       {"repl_changes_applied", TypeId::kInt64},
       {"repl_lag_p99", TypeId::kDouble},
       {"wait_seconds", TypeId::kDouble},
       {"wait_contentions", TypeId::kInt64},
       {"offload_matches", TypeId::kInt64},
       {"offload_roundtrips_avoided", TypeId::kInt64},
       {"offload_est_saved_units", TypeId::kDouble},
       {"offload_est_saved_seconds", TypeId::kDouble},
       {"slices_dropped", TypeId::kInt64}});
  tables_[kWorkloadQueryDeltas] = MakeDmv(
      kWorkloadQueryDeltas,
      {{"slice_id", TypeId::kInt64},
       {"query_hash", TypeId::kString},
       {"statement", TypeId::kString},
       {"sample_text", TypeId::kString},
       {"executions", TypeId::kInt64},
       {"rows_returned", TypeId::kInt64},
       {"local_cost", TypeId::kDouble},
       {"remote_cost", TypeId::kDouble},
       {"remote_queries", TypeId::kInt64},
       {"elapsed_seconds", TypeId::kDouble}});
  tables_[kViewOffload] = MakeDmv(
      kViewOffload,
      {{"view_name", TypeId::kString},
       {"matches", TypeId::kInt64},
       {"roundtrips_avoided", TypeId::kInt64},
       {"est_saved_units", TypeId::kDouble},
       {"est_saved_seconds", TypeId::kDouble}});
}

const TableDef* DmvCatalog::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

std::vector<std::string> DmvCatalog::Names() const {
  std::vector<std::string> names;
  for (const auto& [name, def] : tables_) names.push_back(name);
  return names;
}

StatusOr<std::vector<Row>> DmvRows(const std::string& name,
                                   const DmvSource& src,
                                   const VirtualRowFilter& filter) {
  if (src.metrics == nullptr || src.catalog == nullptr) {
    return Status::Internal("DMV source not wired");
  }
  // The name after `sys.`, compared without building a prefixed string.
  const std::string_view bare = name.rfind("sys.", 0) == 0
                                    ? std::string_view(name).substr(4)
                                    : std::string_view();
  if (bare == kPlanCache || bare == kReplMetrics) {
    std::vector<Row> rows;
    MT_RETURN_IF_ERROR(EmitRow(
        filter, bare == kPlanCache ? PlanCacheRow(src) : ReplMetricsRow(src),
        &rows));
    return rows;
  }
  if (bare == kQueryStats) return QueryStatsRows(src, filter);
  if (bare == kRequests) return RequestsRows(src, filter);
  if (bare == kMtcacheViews) return MtcacheViewsRows(src, filter);
  if (bare == kQueryProfiles) return QueryProfilesRows(src, filter);
  if (bare == kReplLagHistogram) return ReplLagHistogramRows(src, filter);
  if (bare == kWaitStats) return WaitStatsRows(filter);
  if (bare == kColumnHistograms) return ColumnHistogramsRows(src, filter);
  if (bare == kIndexStats) return IndexStatsRows(src, filter);
  if (bare == kWorkloadSnapshots) return WorkloadSnapshotsRows(src, filter);
  if (bare == kWorkloadQueryDeltas) {
    return WorkloadQueryDeltasRows(src, filter);
  }
  if (bare == kViewOffload) return ViewOffloadRows(src, filter);
  return Status::NotFound("unknown DMV: " + name);
}

}  // namespace mtcache
