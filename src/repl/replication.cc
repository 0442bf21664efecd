#include "repl/replication.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/trace.h"
#include "opt/cost_model.h"

namespace mtcache {

void ReplicationSystem::AddPublisher(Server* publisher) {
  if (publishers_.count(publisher) > 0) return;
  PublisherState state;
  state.server = publisher;
  state.next_lsn = publisher->db().log().next_lsn();
  publishers_[publisher] = std::move(state);
}

StatusOr<int64_t> ReplicationSystem::Subscribe(Server* publisher,
                                               const Article& article,
                                               Server* subscriber,
                                               const std::string& target_table) {
  AddPublisher(publisher);
  const TableDef* base =
      publisher->db().catalog().GetTable(article.def.base_table);
  if (base == nullptr) {
    return Status::NotFound("published table not found: " +
                            article.def.base_table);
  }
  MT_ASSIGN_OR_RETURN(ViewMapping mapping,
                      ViewMapping::Resolve(article.def, *base));
  if (subscriber->db().GetStoredTable(target_table) == nullptr) {
    return Status::NotFound("subscription target table not found: " +
                            target_table);
  }
  auto sub = std::make_unique<Subscription>();
  sub->id = next_subscription_id_++;
  sub->publisher = publisher;
  sub->article = article;
  sub->mapping = std::move(mapping);
  sub->subscriber = subscriber;
  sub->target_table = target_table;
  sub->start_lsn = publisher->db().log().next_lsn();
  int64_t id = sub->id;
  subscriptions_[id] = std::move(sub);
  return id;
}

Status ReplicationSystem::Unsubscribe(int64_t subscription_id) {
  if (subscriptions_.erase(subscription_id) == 0) {
    return Status::NotFound("unknown subscription");
  }
  return Status::Ok();
}

Status ReplicationSystem::Crash(const std::string& what) {
  ++metrics_.crashes_injected;
  return Status::Unavailable("injected crash: " + what);
}

void ReplicationSystem::RecordFailure(Subscription* sub) {
  ++sub->consecutive_failures;
  int shift = sub->consecutive_failures - 1;
  if (shift > 16) shift = 16;
  double backoff = backoff_base_ * static_cast<double>(int64_t{1} << shift);
  if (backoff > backoff_max_) backoff = backoff_max_;
  if (backoff_jitter_ > 0) {
    // Shrink by a random fraction of the jitter window so a fleet of failed
    // subscriptions spreads its retries instead of thundering in lockstep.
    // Drawn from the system's seeded RNG: same seed + same failure sequence
    // => byte-identical backoff schedule (DES replays stay stable).
    backoff *= 1.0 - backoff_jitter_ * backoff_rng_.NextDouble();
  }
  double now = clock_ != nullptr ? clock_->Now() : 0.0;
  sub->retry_after = now + backoff;
}

void ReplicationSystem::TrimHistories(Subscription* sub) {
  if (history_limit_ <= 0) return;
  int64_t excess =
      static_cast<int64_t>(sub->applied_history.size()) - history_limit_;
  if (excess <= 0) return;
  // Only the settled prefix is trimmed — acked txns are by construction an
  // element-wise prefix of the enqueue history, so dropping the same count
  // from the front of both keeps the prefix invariant checkable on the
  // retained suffixes.
  sub->applied_history.erase(sub->applied_history.begin(),
                             sub->applied_history.begin() + excess);
  sub->enqueued_history.erase(sub->enqueued_history.begin(),
                              sub->enqueued_history.begin() + excess);
  sub->history_trimmed += excess;
}

Status ReplicationSystem::RunLogReader(Server* publisher,
                                       ExecStats* publisher_stats) {
  if (!log_reader_enabled_) return Status::Ok();
  // Pipeline stage 1+2 span: WAL pickup and per-commit distribution. The
  // distributor runs inline here (the kCommit case), so its repl.distribute
  // spans nest under this one through the thread-local span stack.
  SpanScope span("repl.log_reader", TraceRecorder::Global().enabled()
                                        ? publisher->name()
                                        : std::string());
  auto it = publishers_.find(publisher);
  if (it == publishers_.end()) {
    return Status::NotFound("server is not a registered publisher");
  }
  PublisherState& state = it->second;
  std::vector<LogRecord> records;
  Lsn scanned_to = publisher->db().log().ReadFrom(state.next_lsn, &records);

  // The scan runs against shadow state: a copy of the open-transaction map
  // and a staging area for distributed txns. Only a fully successful pass
  // commits them (plus the read position, metrics, and log truncation), so
  // an injected crash anywhere below leaves the durable state exactly as it
  // was and the restarted reader re-runs the batch from the same LSN —
  // transactions are distributed exactly once.
  std::map<TxnId, std::vector<LogRecord>> open_txns = state.open_txns;
  std::vector<std::pair<Subscription*, PendingTxn>> staged;
  int64_t records_scanned = 0;
  int64_t changes_enqueued = 0;
  double publisher_cost = 0;

  for (LogRecord& rec : records) {
    if (Decide(FaultSite::kLogReadRecord) == FaultAction::kCrash) {
      return Crash("log reader died at lsn " + std::to_string(rec.lsn) +
                   " on " + publisher->name());
    }
    ++records_scanned;
    publisher_cost += CostModel::kLogReadRecordCost;
    switch (rec.type) {
      case LogRecordType::kBegin:
        open_txns[rec.txn];  // start accumulating
        break;
      case LogRecordType::kInsert:
      case LogRecordType::kDelete:
      case LogRecordType::kUpdate:
        open_txns[rec.txn].push_back(std::move(rec));
        break;
      case LogRecordType::kAbort:
        open_txns.erase(rec.txn);
        break;
      case LogRecordType::kCommit: {
        auto txn_it = open_txns.find(rec.txn);
        if (txn_it == open_txns.end()) break;
        std::vector<LogRecord> changes = std::move(txn_it->second);
        open_txns.erase(txn_it);
        if (Decide(FaultSite::kDistributeTxn) == FaultAction::kCrash) {
          return Crash("distributor died on txn " + std::to_string(rec.txn));
        }
        SpanScope distribute_span(
            "repl.distribute", TraceRecorder::Global().enabled()
                                   ? "txn " + std::to_string(rec.txn)
                                   : std::string());
        // Filter and project per subscription (the distributor's job).
        for (auto& [id, sub] : subscriptions_) {
          if (sub->publisher != publisher) continue;
          PendingTxn pending;
          pending.source_txn = rec.txn;
          pending.commit_time = rec.commit_time;
          for (const LogRecord& change : changes) {
            if (change.table != sub->article.def.base_table) continue;
            // Changes predating the subscription's snapshot are already in
            // the initial copy.
            if (change.lsn < sub->start_lsn) continue;
            std::optional<ViewChange> out = sub->mapping.Classify(
                change.type == LogRecordType::kInsert ? nullptr
                                                      : &change.before,
                change.type == LogRecordType::kDelete ? nullptr
                                                      : &change.after);
            if (!out.has_value()) continue;  // entirely outside the article
            pending.changes.push_back(std::move(*out));
            ++changes_enqueued;
            publisher_cost += CostModel::kDistributeRecordCost;
          }
          if (!pending.changes.empty()) {
            staged.emplace_back(sub.get(), std::move(pending));
          }
        }
        break;
      }
    }
  }

  // Group-commit: pack the staged txns into per-subscription batches of at
  // most distribution_batch_size_, preserving commit order per subscription
  // (staged is scanned in commit order). Each batch is one delivery unit.
  std::vector<std::pair<Subscription*, TxnBatch>> staged_batches;
  std::map<Subscription*, size_t> open_batch;
  for (auto& [sub, pending] : staged) {
    auto ob = open_batch.find(sub);
    if (ob == open_batch.end() ||
        staged_batches[ob->second].second.txns.size() >=
            static_cast<size_t>(distribution_batch_size_)) {
      staged_batches.emplace_back(sub, TxnBatch{});
      ob = open_batch.insert_or_assign(sub, staged_batches.size() - 1).first;
    }
    staged_batches[ob->second].second.txns.push_back(std::move(pending));
  }

  // Batch-boundary fault site: one visit per formed batch, decided BEFORE
  // anything commits, so a crash here leaves durable state untouched and the
  // re-run scan re-forms identical batches (exactly-once distribution).
  for (auto& [sub, batch] : staged_batches) {
    if (Decide(FaultSite::kDistributeBatch) == FaultAction::kCrash) {
      return Crash("log reader died at a batch boundary for subscription " +
                   std::to_string(sub->id));
    }
  }

  // Commit the scan: queues first (the distribution database), then the
  // reader's durable position and the accounting.
  for (auto& [sub, batch] : staged_batches) {
    for (const PendingTxn& pending : batch.txns) {
      sub->enqueued_history.push_back(pending.source_txn);
    }
    ++metrics_.batches_distributed;
    metrics_.batch_txns_distributed += static_cast<int64_t>(batch.txns.size());
    sub->queue.push_back(std::move(batch));
  }
  state.open_txns = std::move(open_txns);
  state.next_lsn = scanned_to;
  metrics_.records_scanned += records_scanned;
  metrics_.changes_enqueued += changes_enqueued;
  if (publisher_stats != nullptr) {
    publisher_stats->local_cost += publisher_cost;
  }

  // Processed records are no longer needed: "once changes have been
  // propagated to all subscribers, they are deleted" — here the distribution
  // database owns them, so the publisher log can truncate.
  if (state.open_txns.empty()) {
    publisher->db().log().TruncateBefore(state.next_lsn);
    if (state.next_lsn == publisher->db().log().next_lsn()) {
      state.last_scan_time = clock_ != nullptr ? clock_->Now() : 0.0;
    }
  }
  return Status::Ok();
}

Status ReplicationSystem::ApplyTxn(Subscription* sub, const PendingTxn& txn,
                                   ExecStats* stats) {
  // Pipeline stage 3 span: subscriber apply of one source transaction.
  SpanScope span("repl.apply",
                 TraceRecorder::Global().enabled()
                     ? sub->target_table + " txn " +
                           std::to_string(txn.source_txn)
                     : std::string());
  Database& db = sub->subscriber->db();
  StoredTable* table = db.GetStoredTable(sub->target_table);
  if (table == nullptr) {
    return Status::NotFound("subscription target table vanished: " +
                            sub->target_table);
  }
  const TableDef& def = table->def();

  auto local_txn = db.txn_manager().Begin();
  Status status = Status::Ok();
  int64_t applied_changes = 0;
  for (const ViewChange& change : txn.changes) {
    if (Decide(FaultSite::kApplyChange) == FaultAction::kCrash) {
      // The subscriber dies mid-apply: its local transaction rolls back, so
      // no partial txn is ever visible, and the delivery is retried.
      db.txn_manager().Abort(local_txn.get());
      return Crash("subscriber died applying txn " +
                   std::to_string(txn.source_txn) + " into " +
                   sub->target_table);
    }
    if (stats != nullptr) {
      stats->local_cost += CostModel::kApplyRecordCost +
                           def.indexes.size() * CostModel::kIndexMaintRowCost;
    }
    status = table->ApplyByKey(change, local_txn.get());
    if (!status.ok()) break;
    ++applied_changes;
  }
  if (!status.ok()) {
    db.txn_manager().Abort(local_txn.get());
    return status;
  }
  double now = clock_ != nullptr ? clock_->Now() : 0.0;
  db.txn_manager().Commit(local_txn.get(), now);
  // The apply watermark is recorded together with the commit (in a real
  // subscriber both live in the same database), so redelivery of the batch
  // after a crash before the ack is detected and skipped txn-by-txn —
  // exactly-once apply even when only a prefix of the batch committed.
  {
    std::lock_guard<SpinLock> lock(sub->marks_lock);
    sub->applied_unacked.insert(txn.source_txn);
  }
  metrics_.changes_applied += applied_changes;
  ++metrics_.txns_applied;
  double latency = now - txn.commit_time;
  if (latency >= 0) {
    metrics_.latency_sum += latency;
    metrics_.latency_max.UpdateMax(latency);
    ++metrics_.latency_count;
    metrics_.lag_histogram.Record(latency);
  }
  if (Decide(FaultSite::kApplyCommit) == FaultAction::kCrash) {
    // Crash after the local commit but before the batch is acked: the txn
    // stays queued and will be redelivered, hitting the watermark above.
    return Crash("subscriber died after committing txn " +
                 std::to_string(txn.source_txn) + ", before ack");
  }
  return Status::Ok();
}

Status ReplicationSystem::DeliverBatch(Subscription* sub, TxnBatch* batch,
                                       ExecStats* stats) {
  auto applied = [sub](const PendingTxn& txn) {
    std::lock_guard<SpinLock> lock(sub->marks_lock);
    return sub->applied_unacked.count(txn.source_txn) > 0;
  };
  for (PendingTxn& txn : batch->txns) {
    if (applied(txn)) {
      // Partially-applied batch being redelivered: the txn committed before
      // the crash and is skipped below, but each skip is a re-attempt.
      ++metrics_.txns_retried;
      continue;
    }
    if (txn.attempts > 0) ++metrics_.txns_retried;
    ++txn.attempts;
  }
  if (sub->subscriber->db().GetStoredTable(sub->target_table) == nullptr) {
    return Status::NotFound("subscription target table vanished: " +
                            sub->target_table);
  }
  // Per-delivery-unit overhead, amortized over the batch by group commit.
  if (stats != nullptr) {
    stats->local_cost += CostModel::kReplDeliveryOverheadCost;
  }
  // Commit order within the batch: every key sees its changes in the order
  // the publisher committed them.
  for (const PendingTxn& txn : batch->txns) {
    if (applied(txn)) continue;
    MT_RETURN_IF_ERROR(ApplyTxn(sub, txn, stats));
  }
  return Status::Ok();
}

void ReplicationSystem::AckBatch(Subscription* sub) {
  TxnBatch& batch = sub->queue.front();
  {
    std::lock_guard<SpinLock> lock(sub->marks_lock);
    for (const PendingTxn& txn : batch.txns) {
      sub->applied_unacked.erase(txn.source_txn);
    }
  }
  // The ack appends to the applied history in batch (commit) order, so
  // applied_history stays an element-wise prefix of enqueued_history at
  // every observation point.
  for (const PendingTxn& txn : batch.txns) {
    sub->applied_history.push_back(txn.source_txn);
  }
  sub->queue.pop_front();
  TrimHistories(sub);
}

Status ReplicationSystem::RunDistributionAgent(Server* subscriber,
                                               ExecStats* subscriber_stats) {
  double now = clock_ != nullptr ? clock_->Now() : 0.0;
  for (auto& [id, sub] : subscriptions_) {
    if (sub->subscriber != subscriber) continue;
    if (sub->retry_after > now) continue;  // backing off after a failure
    int acked_this_poll = 0;
    while (!sub->queue.empty() &&
           (max_batches_per_poll_ == 0 ||
            acked_this_poll < max_batches_per_poll_)) {
      TxnBatch& batch = sub->queue.front();
      size_t marked = 0;
      {
        std::lock_guard<SpinLock> lock(sub->marks_lock);
        for (const PendingTxn& txn : batch.txns) {
          if (sub->applied_unacked.count(txn.source_txn) > 0) ++marked;
        }
      }
      if (marked == batch.txns.size()) {
        // Redelivery of a batch whose apply fully committed (the agent
        // crashed in the ack window): ack it without re-applying.
        metrics_.txns_retried += static_cast<int64_t>(marked);
      } else {
        FaultAction delivery = Decide(FaultSite::kDeliverTxn);
        if (delivery == FaultAction::kDrop) {
          // Lost in transit. The distribution database still holds it, so
          // it is redelivered after a backoff.
          ++metrics_.deliveries_dropped;
          RecordFailure(sub.get());
          break;
        }
        if (delivery == FaultAction::kDelay) break;  // stalls; next poll
        if (delivery == FaultAction::kCrash) {
          RecordFailure(sub.get());
          return Crash("distribution agent died delivering to " +
                       subscriber->name());
        }
        Status applied = DeliverBatch(sub.get(), &batch, subscriber_stats);
        if (!applied.ok()) {
          RecordFailure(sub.get());
          return applied;
        }
      }
      if (Decide(FaultSite::kBatchAck) == FaultAction::kCrash) {
        // Every txn applied and committed, but the agent dies before the
        // ack: the batch stays queued fully marked; the next delivery acks
        // it through the watermark without re-applying anything.
        RecordFailure(sub.get());
        return Crash("distribution agent died before acking batch to " +
                     subscriber->name());
      }
      AckBatch(sub.get());
      sub->consecutive_failures = 0;
      sub->retry_after = 0;
      ++acked_this_poll;
    }
    if (!sub->queue.empty()) continue;
    // Queue drained: the replica is current as of the publisher's last
    // fully-processed log position (freshness bookkeeping, §7 extension).
    auto pub = publishers_.find(sub->publisher);
    if (pub != publishers_.end()) {
      TableDef* target =
          subscriber->db().catalog().GetTable(sub->target_table);
      if (target != nullptr) {
        target->freshness_time.UpdateMax(pub->second.last_scan_time);
      }
    }
  }
  return Status::Ok();
}

Status ReplicationSystem::RunOnce(ExecStats* publisher_stats,
                                  ExecStats* subscriber_stats) {
  for (auto& [server, state] : publishers_) {
    MT_RETURN_IF_ERROR(RunLogReader(server, publisher_stats));
  }
  // Collect distinct subscribers.
  std::vector<Server*> subscribers;
  for (auto& [id, sub] : subscriptions_) {
    bool seen = false;
    for (Server* s : subscribers) {
      if (s == sub->subscriber) seen = true;
    }
    if (!seen) subscribers.push_back(sub->subscriber);
  }
  for (Server* s : subscribers) {
    MT_RETURN_IF_ERROR(RunDistributionAgent(s, subscriber_stats));
  }
  return Status::Ok();
}

int64_t ReplicationSystem::PendingChanges() const {
  int64_t total = 0;
  for (const auto& [id, sub] : subscriptions_) {
    for (const TxnBatch& batch : sub->queue) {
      for (const PendingTxn& txn : batch.txns) {
        total += static_cast<int64_t>(txn.changes.size());
      }
    }
  }
  return total;
}

bool ReplicationSystem::Quiesced() const {
  for (const auto& [id, sub] : subscriptions_) {
    if (!sub->queue.empty()) return false;
  }
  for (const auto& [server, state] : publishers_) {
    if (!state.open_txns.empty()) return false;
    if (state.next_lsn != server->db().log().next_lsn()) return false;
  }
  return true;
}

std::vector<SubscriptionInfo> ReplicationSystem::DescribeSubscriptions() const {
  std::vector<SubscriptionInfo> out;
  for (const auto& [id, sub] : subscriptions_) {
    SubscriptionInfo info;
    info.id = sub->id;
    info.publisher = sub->publisher;
    info.subscriber = sub->subscriber;
    info.def = sub->article.def;
    info.target_table = sub->target_table;
    for (const TxnBatch& batch : sub->queue) {
      info.queued_txns += static_cast<int64_t>(batch.txns.size());
    }
    info.enqueued_txns = sub->enqueued_history;
    info.applied_txns = sub->applied_history;
    info.history_trimmed = sub->history_trimmed;
    {
      std::lock_guard<SpinLock> lock(sub->marks_lock);
      info.inflight_applied = static_cast<int64_t>(sub->applied_unacked.size());
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace mtcache
