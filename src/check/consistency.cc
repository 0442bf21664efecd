#include "check/consistency.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

namespace mtcache {

namespace {

std::string RenderRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToSqlLiteral();
    out += "|";
  }
  return out;
}

/// Sorted multiset of rendered rows from a query result.
StatusOr<std::vector<std::string>> BackendRows(Server* server,
                                               const std::string& sql) {
  MT_ASSIGN_OR_RETURN(QueryResult result, server->Execute(sql));
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) rows.push_back(RenderRow(row));
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Sorted multiset of rendered rows read straight off the target's heap —
/// deliberately below the query layer, so the diff sees exactly what
/// replication wrote, with no optimizer/routing in the way. Taken under a
/// shared table latch so the checker can run while agents are applying.
std::vector<std::string> StoredRows(StoredTable* table) {
  std::vector<std::string> rows;
  std::shared_lock<std::shared_mutex> latch(table->latch());
  const HeapTable& heap = table->heap();
  for (RowId rid = 0; rid < heap.slot_count(); ++rid) {
    if (heap.IsLive(rid)) rows.push_back(RenderRow(heap.Get(rid)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Multiset difference a \ b of two sorted vectors.
std::vector<std::string> Difference(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

void DiffTarget(int64_t subscription_id, const std::string& target,
                const std::vector<std::string>& expected,
                const std::vector<std::string>& actual,
                ConsistencyReport* report) {
  ConsistencyReport::TargetDiff diff;
  diff.subscription_id = subscription_id;
  diff.target_table = target;
  diff.missing = Difference(expected, actual);
  diff.extra = Difference(actual, expected);
  if (!diff.missing.empty() || !diff.extra.empty()) {
    report->diffs.push_back(std::move(diff));
  }
}

}  // namespace

std::string ConsistencyReport::ToString() const {
  if (ok()) return "consistent";
  std::string out;
  for (const TargetDiff& diff : diffs) {
    out += "target " + diff.target_table + " (subscription " +
           std::to_string(diff.subscription_id) + "): " +
           std::to_string(diff.missing.size()) + " missing, " +
           std::to_string(diff.extra.size()) + " extra\n";
    for (const std::string& row : diff.missing) out += "  missing: " + row + "\n";
    for (const std::string& row : diff.extra) out += "  extra:   " + row + "\n";
  }
  for (const std::string& violation : violations) {
    out += "violation: " + violation + "\n";
  }
  return out;
}

ConsistencyReport ConsistencyChecker::Check() const {
  ConsistencyReport report = CheckInvariants();
  for (const SubscriptionInfo& sub : repl_->DescribeSubscriptions()) {
    auto expected = BackendRows(sub.publisher, sub.def.ToSelectSql());
    if (!expected.ok()) {
      report.violations.push_back("recompute failed for subscription " +
                                  std::to_string(sub.id) + ": " +
                                  expected.status().ToString());
      continue;
    }
    StoredTable* target =
        sub.subscriber->db().GetStoredTable(sub.target_table);
    if (target == nullptr) {
      report.violations.push_back("subscription " + std::to_string(sub.id) +
                                  " target has no storage: " +
                                  sub.target_table);
      continue;
    }
    DiffTarget(sub.id, sub.target_table, *expected, StoredRows(target),
               &report);
  }
  if (cache_ != nullptr && backend_ != nullptr) {
    // Cached views whose subscription died (e.g. a refresh crashed between
    // unsubscribe and resubscribe) are invisible to the subscription walk;
    // recompute them straight from their view definition.
    for (const std::string& name : cache_->db().catalog().TableNames()) {
      const TableDef* def = cache_->db().catalog().GetTable(name);
      if (def->kind != RelationKind::kCachedView || !def->view_def) continue;
      if (def->subscription_id >= 0) continue;  // covered above
      report.violations.push_back("cached view " + name +
                                  " has no live subscription");
      StoredTable* backing = cache_->db().GetStoredTable(name);
      if (backing == nullptr) continue;
      auto expected = BackendRows(backend_, def->view_def->ToSelectSql());
      if (!expected.ok()) continue;
      DiffTarget(-1, name, *expected, StoredRows(backing), &report);
    }
  }
  return report;
}

ConsistencyReport ConsistencyChecker::CheckInvariants() const {
  ConsistencyReport report;
  for (const SubscriptionInfo& sub : repl_->DescribeSubscriptions()) {
    if (sub.applied_txns.size() > sub.enqueued_txns.size()) {
      report.violations.push_back(
          "subscription " + std::to_string(sub.id) + " applied " +
          std::to_string(sub.applied_txns.size()) + " txns but only " +
          std::to_string(sub.enqueued_txns.size()) + " were distributed");
      continue;
    }
    for (size_t i = 0; i < sub.applied_txns.size(); ++i) {
      if (sub.applied_txns[i] != sub.enqueued_txns[i]) {
        report.violations.push_back(
            "subscription " + std::to_string(sub.id) +
            " applied txns are not a prefix of commit order at position " +
            std::to_string(i) + ": applied " +
            std::to_string(sub.applied_txns[i]) + ", distributed " +
            std::to_string(sub.enqueued_txns[i]));
        break;
      }
    }
    // The queue must hold exactly the distributed-but-unacked suffix. Txns
    // applied ahead of their batch's ack (the committed prefix of a batch
    // cut down mid-apply, or a crash in the ack window) stay queued and are
    // counted by the in-flight watermark instead of applied history, so the
    // identity is exact — no slack window. Histories may be trimmed,
    // but both lose the same settled prefix, so the size difference is
    // unaffected.
    int64_t outstanding = static_cast<int64_t>(sub.enqueued_txns.size()) -
                          static_cast<int64_t>(sub.applied_txns.size());
    if (sub.queued_txns != outstanding) {
      report.violations.push_back(
          "subscription " + std::to_string(sub.id) + " queue holds " +
          std::to_string(sub.queued_txns) + " txns, expected exactly " +
          std::to_string(outstanding));
    }
    // The crash-safe apply watermark only ever covers queued (unacked) txns.
    if (sub.inflight_applied > sub.queued_txns) {
      report.violations.push_back(
          "subscription " + std::to_string(sub.id) + " watermark marks " +
          std::to_string(sub.inflight_applied) +
          " applied-but-unacked txns but only " +
          std::to_string(sub.queued_txns) + " are queued");
    }
  }
  return report;
}

Status DrainPipeline(ReplicationSystem* repl, SimClock* clock,
                     int max_rounds) {
  FaultPlan* plan = repl->fault_plan();
  bool was_enabled = plan != nullptr && plan->enabled();
  if (plan != nullptr) plan->set_enabled(false);
  Status status = Status::Ok();
  int round = 0;
  for (; round < max_rounds && !repl->Quiesced(); ++round) {
    status = repl->RunOnce(nullptr, nullptr);
    if (!status.ok()) break;
    // Step past any retry backoff so failed subscriptions re-deliver.
    if (clock != nullptr) clock->Advance(repl->backoff_max());
  }
  if (plan != nullptr) plan->set_enabled(was_enabled);
  if (!status.ok()) return status;
  if (!repl->Quiesced()) {
    return Status::Unavailable("pipeline failed to quiesce after " +
                               std::to_string(max_rounds) + " rounds");
  }
  return Status::Ok();
}

}  // namespace mtcache
