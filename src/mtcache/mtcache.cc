#include "mtcache/mtcache.h"

#include <mutex>
#include <shared_mutex>

#include "engine/view_util.h"
#include "sql/parser.h"

namespace mtcache {

StatusOr<std::unique_ptr<MTCache>> MTCache::Setup(Server* cache,
                                                  Server* backend,
                                                  ReplicationSystem* repl,
                                                  MTCacheOptions options) {
  if (cache->links() == nullptr) {
    return Status::InvalidArgument(
        "cache server needs a linked-server registry");
  }
  cache->links()->Register(options.backend_link_name, backend);
  // The backend link is the only one this topology ever needs; freezing the
  // registry here marks the end of setup so concurrent execution can read it
  // without a lock (read-only after Freeze, asserted in debug builds).
  cache->links()->Freeze();

  OptimizerOptions opt = cache->optimizer_options();
  opt.backend_server = options.backend_link_name;
  cache->set_optimizer_options(opt);

  std::unique_ptr<MTCache> mtcache(
      new MTCache(cache, backend, repl, std::move(options)));
  MT_RETURN_IF_ERROR(mtcache->CloneCatalog());

  MTCache* raw = mtcache.get();
  cache->set_cached_view_handler(
      [raw](Server*, const CreateViewStmt& stmt) -> Status {
        return raw->CreateCachedView(stmt.view, *stmt.select);
      });
  cache->set_cached_view_drop_handler(
      [raw](Server*, const std::string& view) -> Status {
        return raw->DropCachedView(view);
      });
  repl->AddPublisher(backend);
  // Surface the replication pipeline's counters through the cache server's
  // sys.dm_repl_metrics DMV. Translated into the engine-layer snapshot
  // struct because the engine cannot depend on repl headers.
  ReplicationSystem* repl_raw = repl;
  cache->metrics().set_repl_metrics_provider([repl_raw]() {
    const ReplicationMetrics& m = repl_raw->metrics();
    ReplMetricsSnapshot snap;
    snap.records_scanned = m.records_scanned;
    snap.changes_enqueued = m.changes_enqueued;
    snap.changes_applied = m.changes_applied;
    snap.txns_applied = m.txns_applied;
    snap.txns_retried = m.txns_retried;
    snap.crashes_injected = m.crashes_injected;
    snap.deliveries_dropped = m.deliveries_dropped;
    snap.latency_avg = m.AvgLatency();
    snap.latency_max = m.latency_max;
    snap.latency_count = m.latency_count;
    snap.latency_p50 = m.lag_histogram.Percentile(0.50);
    snap.latency_p95 = m.lag_histogram.Percentile(0.95);
    snap.latency_p99 = m.lag_histogram.Percentile(0.99);
    snap.batches_distributed = m.batches_distributed;
    snap.avg_batch_size = m.AvgBatchSize();
    // Only occupied buckets cross the boundary: dm_repl_lag_histogram rows.
    for (int i = 0; i < LogHistogram::kBuckets; ++i) {
      int64_t count = m.lag_histogram.BucketCount(i);
      if (count == 0) continue;
      ReplLagBucket bucket;
      bucket.lo = LogHistogram::BucketLowerBound(i);
      bucket.hi = LogHistogram::BucketUpperBound(i);
      bucket.count = count;
      snap.lag_buckets.push_back(bucket);
    }
    return snap;
  });
  return mtcache;
}

Status MTCache::CloneCatalog() {
  const Catalog& src = backend_->db().catalog();
  for (const std::string& name : src.TableNames()) {
    const TableDef* def = src.GetTable(name);
    TableDef shadow;
    shadow.name = def->name;
    shadow.schema = def->schema;
    shadow.primary_key = def->primary_key;
    shadow.indexes = def->indexes;
    shadow.stats = def->stats;  // shadowed statistics (§3)
    shadow.kind = def->kind;
    shadow.view_def = def->view_def;
    shadow.grants = def->grants;
    shadow.shadow = true;  // catalog only; no rows
    shadow.home_server = options_.backend_link_name;
    MT_RETURN_IF_ERROR(cache_->db().CreateTable(std::move(shadow)));
  }
  cache_->InvalidatePlanCache();
  return Status::Ok();
}

Status MTCache::CreateCachedView(const std::string& name,
                                 const std::string& select_sql) {
  MT_ASSIGN_OR_RETURN(StmtPtr stmt, ParseSql(select_sql));
  if (stmt->kind != StmtKind::kSelect) {
    return Status::InvalidArgument("cached view definition must be a SELECT");
  }
  return CreateCachedView(name, static_cast<const SelectStmt&>(*stmt));
}

Status MTCache::CreateCachedView(const std::string& name,
                                 const SelectStmt& select) {
  if (select.from.empty()) {
    return Status::InvalidArgument("cached view must select from a table");
  }
  // The shadow copy of the base table carries schema, keys, and the
  // shadowed statistics the derived view statistics come from.
  TableDef* base = cache_->db().catalog().GetTable(select.from[0].name);
  if (base == nullptr) {
    return Status::NotFound("base table not in shadow catalog: " +
                            select.from[0].name);
  }
  MT_ASSIGN_OR_RETURN(SelectProjectDef def,
                      BuildSelectProjectDef(select, *base));
  MT_ASSIGN_OR_RETURN(
      TableDef view_def,
      MakeViewTableDef(name, *base, def, RelationKind::kCachedView));
  MT_RETURN_IF_ERROR(cache_->db().CreateTable(std::move(view_def)));

  auto subscription =
      SnapshotThenSubscribe(cache_->db().GetStoredTable(name), def);
  if (!subscription.ok()) {
    // Drop the half-built view so the optimizer never sees a partially
    // populated replica. Retrying CreateCachedView starts over from scratch.
    cache_->db().DropTable(name).ok();
    cache_->InvalidatePlanCache();
    return subscription.status();
  }
  TableDef* created = cache_->db().catalog().GetTable(name);
  created->subscription_id = *subscription;
  created->freshness_time = cache_->db().Now();  // snapshot is current now
  cache_->InvalidatePlanCache();
  return Status::Ok();
}

Status MTCache::DropCachedView(const std::string& name) {
  TableDef* def = cache_->db().catalog().GetTable(name);
  if (def == nullptr || def->kind != RelationKind::kCachedView) {
    return Status::NotFound("cached view not found: " + name);
  }
  if (def->subscription_id >= 0) {
    MT_RETURN_IF_ERROR(repl_->Unsubscribe(def->subscription_id));
  }
  MT_RETURN_IF_ERROR(cache_->db().DropTable(name));
  cache_->InvalidatePlanCache();
  return Status::Ok();
}

Status MTCache::RefreshCachedView(const std::string& name) {
  TableDef* def = cache_->db().catalog().GetTable(name);
  if (def == nullptr || def->kind != RelationKind::kCachedView) {
    return Status::NotFound("cached view not found: " + name);
  }
  StoredTable* backing = cache_->db().GetStoredTable(name);
  if (backing == nullptr) {
    return Status::Internal("cached view has no storage: " + name);
  }
  // Stop delivery first so nothing lands between clear and re-subscribe.
  if (def->subscription_id >= 0) {
    MT_RETURN_IF_ERROR(repl_->Unsubscribe(def->subscription_id));
    def->subscription_id = -1;
  }
  // Replace the contents with a fresh snapshot, atomically. A failure (a
  // crash mid-copy included) keeps the previous contents and leaves the view
  // unsubscribed (subscription_id == -1) and possibly stale — exactly the
  // condition RefreshCachedView repairs — and the consistency checker flags
  // it until the refresh is retried.
  auto subscription = SnapshotThenSubscribe(backing, *def->view_def);
  if (!subscription.ok()) {
    cache_->InvalidatePlanCache();
    return subscription.status();
  }
  def->subscription_id = *subscription;
  def->freshness_time = cache_->db().Now();
  backing->RecomputeStats();
  cache_->InvalidatePlanCache();
  return Status::Ok();
}

StatusOr<int64_t> MTCache::SnapshotThenSubscribe(
    StoredTable* backing, const SelectProjectDef& def) {
  ExecStats snapshot_stats;
  MT_ASSIGN_OR_RETURN(
      QueryResult snapshot,
      backend_->Execute(def.ToSelectSql(), ParamMap{}, &snapshot_stats));
  // Collect the live rids under a shared latch first; Delete takes the
  // exclusive latch internally per row.
  std::vector<RowId> live;
  {
    std::shared_lock<std::shared_mutex> latch(backing->latch());
    for (RowId rid = 0; rid < backing->heap().slot_count(); ++rid) {
      if (backing->heap().IsLive(rid)) live.push_back(rid);
    }
  }
  auto txn = cache_->db().txn_manager().Begin();
  Status status = Status::Ok();
  for (size_t i = 0; status.ok() && i < live.size(); ++i) {
    status = backing->Delete(live[i], txn.get()).status();
  }
  for (size_t i = 0; status.ok() && i < snapshot.rows.size(); ++i) {
    if (fault_plan_ != nullptr &&
        fault_plan_->Decide(FaultSite::kSnapshotRow) == FaultAction::kCrash) {
      status = Status::Unavailable("injected crash: snapshot of " +
                                   backing->def().name + " died mid-copy");
    } else {
      status = backing->Insert(snapshot.rows[i], txn.get()).status();
    }
  }
  if (!status.ok()) {
    cache_->db().txn_manager().Abort(txn.get());
    return status;
  }
  cache_->db().txn_manager().Commit(txn.get(), cache_->db().Now());
  // Single-threaded setup: no backend write slips between the snapshot and
  // the subscription, which starts at the current log position.
  Article article;
  article.name = backing->def().name + "_article";
  article.def = def;
  return repl_->Subscribe(backend_, article, cache_, backing->def().name);
}

Status MTCache::CopyProcedure(const std::string& name) {
  const ProcedureDef* def = backend_->db().catalog().GetProcedure(name);
  if (def == nullptr) {
    return Status::NotFound("procedure not found on backend: " + name);
  }
  return cache_->db().catalog().CreateProcedure(*def);
}

Status MTCache::RefreshShadowedStatistics() {
  const Catalog& src = backend_->db().catalog();
  for (const std::string& name : cache_->db().catalog().TableNames()) {
    TableDef* local = cache_->db().catalog().GetTable(name);
    if (local->shadow) {
      const TableDef* remote = src.GetTable(name);
      if (remote != nullptr) local->stats = remote->stats;
    } else if (local->kind == RelationKind::kCachedView) {
      StoredTable* table = cache_->db().GetStoredTable(name);
      if (table != nullptr) table->RecomputeStats();
    }
  }
  cache_->InvalidatePlanCache();
  return Status::Ok();
}

}  // namespace mtcache
