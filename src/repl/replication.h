#ifndef MTCACHE_REPL_REPLICATION_H_
#define MTCACHE_REPL_REPLICATION_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/view_def.h"
#include "common/atomics.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "engine/server.h"
#include "repl/fault.h"

namespace mtcache {

/// A replication article: a select-project expression over a published table
/// (§2.2: "an article may contain only a subset of the columns and rows of
/// the underlying table or materialized view").
struct Article {
  std::string name;
  SelectProjectDef def;
};

/// A publication groups articles on one publisher.
struct Publication {
  std::string name;
  std::vector<Article> articles;
};

/// A committed source transaction's changes for one subscription. Changes
/// propagate "one complete (committed) transaction at a time in commit
/// order", so subscribers always see transactionally consistent states.
struct PendingTxn {
  TxnId source_txn = 0;
  double commit_time = 0;
  std::vector<ViewChange> changes;  // projected to article columns
  /// Delivery attempts so far (drives the txns_retried metric).
  int64_t attempts = 0;
};

/// The group-commit distribution unit: up to distribution_batch_size
/// committed source transactions, in commit order, distributed by one log
/// reader scan and delivered/acked as one unit by the distribution agent.
/// At batch size 1 this degenerates to the original one-txn-at-a-time
/// pipeline (and old scripted fault schedules keep their visit counts).
struct TxnBatch {
  std::vector<PendingTxn> txns;
};

/// Relaxed atomics: the pipeline bumps these from the replication driver
/// while concurrent sessions read them through the sys.dm_repl_metrics
/// provider.
struct ReplicationMetrics {
  RelaxedInt64 records_scanned = 0;     // log reader work
  RelaxedInt64 changes_enqueued = 0;    // distributor work
  RelaxedInt64 changes_applied = 0;     // subscriber work
  RelaxedInt64 txns_applied = 0;
  RelaxedInt64 txns_retried = 0;        // deliveries re-attempted after fail
  RelaxedInt64 crashes_injected = 0;    // pipeline crashes taken (FaultPlan)
  RelaxedInt64 deliveries_dropped = 0;  // deliveries lost in transit (retried)
  RelaxedDouble latency_sum = 0;        // commit-to-commit, seconds
  RelaxedDouble latency_max = 0;
  RelaxedInt64 latency_count = 0;
  // Group-commit counters.
  RelaxedInt64 batches_distributed = 0;  // delivery units formed by the reader
  RelaxedInt64 batch_txns_distributed = 0;  // txns inside those units
  /// Full commit→apply lag distribution (simulated seconds): the source of
  /// sys.dm_repl_lag_histogram and the p50/p95/p99 in sys.dm_repl_metrics.
  LogHistogram lag_histogram;

  double AvgLatency() const {
    int64_t n = latency_count;
    return n > 0 ? latency_sum / n : 0.0;
  }
  double AvgBatchSize() const {
    int64_t n = batches_distributed;
    return n > 0 ? static_cast<double>(batch_txns_distributed.load()) / n
                 : 0.0;
  }

  /// Field-wise atomic reset. Unlike reassigning the whole struct, this
  /// never copy-constructs over fields a concurrent DMV reader is loading:
  /// each counter is individually stored to zero, so readers see a plain
  /// point-in-time (possibly mid-reset) snapshot, never a torn one.
  void Reset() {
    records_scanned.store(0);
    changes_enqueued.store(0);
    changes_applied.store(0);
    txns_applied.store(0);
    txns_retried.store(0);
    crashes_injected.store(0);
    deliveries_dropped.store(0);
    latency_sum.store(0.0);
    latency_max.store(0.0);
    latency_count.store(0);
    batches_distributed.store(0);
    batch_txns_distributed.store(0);
    lag_histogram.Reset();
  }
};

/// Read-only snapshot of one subscription's state, for the consistency
/// checker: the article definition to recompute against the publisher, the
/// target to diff, and the enqueue/apply histories for the commit-order
/// prefix invariant.
struct SubscriptionInfo {
  int64_t id = 0;
  Server* publisher = nullptr;
  Server* subscriber = nullptr;
  SelectProjectDef def;
  std::string target_table;
  int64_t queued_txns = 0;  // txns across all queued (unacked) batches
  std::vector<TxnId> enqueued_txns;  // commit order, as distributed
  std::vector<TxnId> applied_txns;   // acked, in commit order
  /// Entries trimmed off the FRONT of both histories above when a retention
  /// limit is set (set_history_limit); both vectors lose the same settled
  /// prefix, so the element-wise prefix invariant survives the trim.
  int64_t history_trimmed = 0;
  /// Txns of the in-flight batch whose local apply committed but whose batch
  /// has not been acked yet (the crash-safe per-batch apply watermark).
  int64_t inflight_applied = 0;
};

/// The replication pipeline: publishers' log readers, the distribution
/// database, and push distribution agents. All components are polled
/// explicitly (by tests, examples, or the multi-server simulation), never by
/// background threads, so every run is deterministic.
///
/// One performance knob relaxes the txn-at-a-time pipeline without giving up
/// its guarantees: set_distribution_batch_size(N) makes the log reader group
/// up to N committed txns per scan into one TxnBatch per subscription —
/// filtering/projection amortized over the scan, one shadow-state commit, one
/// delivery unit, one ack. The distribution agent applies a batch's txns one
/// at a time in commit order, so every key sees its changes in commit order.
///
/// Failure model: a FaultPlan (set_fault_plan) can crash any stage
/// mid-operation, drop or delay deliveries, and stall WAL reads. Every stage
/// recovers on its next poll:
///   - The log reader works on shadow state (copies of its open-transaction
///     map plus a staging area for distributed batches) and commits the scan
///     — read position, open txns, queues, log truncation — only when the
///     whole batch succeeds. A crash discards the shadow state, so the
///     restarted reader resumes from the durable LSN and re-distributes
///     exactly once.
///   - The distribution database (per-subscription batch queues) is durable;
///     a dropped or delayed delivery stays queued and is retried.
///   - The subscriber applies each txn inside a local transaction and
///     records the source txn id in the per-batch apply watermark in the
///     same commit. A crash mid-batch rolls back only the txn it cut down
///     mid-transaction; txns already locally committed stay in the
///     watermark, and redelivery of the unacked batch skips them
///     (exactly-once apply). The watermark clears when the batch acks.
///   - A failed subscription backs off exponentially (with optional
///     deterministic jitter) on the simulated clock before its next attempt.
class ReplicationSystem {
 public:
  explicit ReplicationSystem(SimClock* clock) : clock_(clock) {}

  /// Registers a publisher. Log reading starts at the *current* end of its
  /// log: pre-existing data must be carried over by a snapshot (the cached
  /// view manager does this before subscribing).
  void AddPublisher(Server* publisher);

  /// Creates a publication implicitly (one article) and a push subscription
  /// delivering the article's changes into `target_table` on `subscriber`.
  /// Returns the subscription id, or InvalidArgument when the article names
  /// a column (projected or in its predicate) the published table lacks.
  StatusOr<int64_t> Subscribe(Server* publisher, const Article& article,
                              Server* subscriber,
                              const std::string& target_table);

  Status Unsubscribe(int64_t subscription_id);

  /// Log reader + distributor step for one publisher: scans new WAL records,
  /// groups them per committed transaction, filters/projects them per
  /// article, and enqueues them as TxnBatches in the distribution database.
  /// Work is charged to `publisher_stats` — this is the §6.2.2 backend
  /// overhead. When `enabled=false` (the log reader is "turned off"),
  /// nothing happens. Returns kUnavailable when an injected fault crashed
  /// the reader; the scan had no effect and the next call resumes from the
  /// same position.
  Status RunLogReader(Server* publisher, ExecStats* publisher_stats);

  /// Push distribution agent for one subscriber: delivers every pending
  /// batch, applying its txns in commit order inside subscriber-local
  /// transactions, then acks the batch. Apply work is charged to
  /// `subscriber_stats` (§6.2.2 mid-tier overhead); commit-to-commit latency
  /// is recorded in the metrics (§6.2.3). Returns kUnavailable when an
  /// injected fault crashed the agent; undelivered batches stay queued and
  /// are retried after a backoff.
  Status RunDistributionAgent(Server* subscriber, ExecStats* subscriber_stats);

  /// Convenience: one full pipeline round for every publisher + subscriber.
  Status RunOnce(ExecStats* publisher_stats, ExecStats* subscriber_stats);

  /// Total changes sitting in the distribution database.
  int64_t PendingChanges() const;

  /// True when nothing is in flight anywhere: no queued deliveries, no open
  /// transactions being accumulated, and every publisher log fully scanned.
  /// This is the quiesce point at which the consistency checker's row-level
  /// diff is meaningful.
  bool Quiesced() const;

  const ReplicationMetrics& metrics() const { return metrics_; }
  /// Field-wise atomic reset — safe against concurrent sys.dm_repl_metrics
  /// readers (see ReplicationMetrics::Reset).
  void ResetMetrics() { metrics_.Reset(); }

  /// Folds externally measured commit→apply lag samples into the pipeline
  /// metrics. The DES fleet simulation replays profiled replication work on
  /// virtual machines and records each transaction's simulated lag here, so
  /// sys.dm_repl_lag_histogram (served off metrics().lag_histogram) reports
  /// the simulated fleet's distribution through the same DMV path as a real
  /// run's.
  void MergeLagHistogram(const LogHistogram& lag) {
    metrics_.lag_histogram.Merge(lag);
  }

  /// Snapshots of all live subscriptions (see SubscriptionInfo).
  std::vector<SubscriptionInfo> DescribeSubscriptions() const;

  /// The §6.2.2 experiment switch: with the log reader off, no replication
  /// work happens at all (and the distribution queue stops growing).
  void set_log_reader_enabled(bool enabled) { log_reader_enabled_ = enabled; }
  bool log_reader_enabled() const { return log_reader_enabled_; }

  /// Installs a fault schedule (null = no faults). Not owned.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  FaultPlan* fault_plan() const { return fault_plan_; }

  /// Group-commit knob: max committed txns the log reader packs into one
  /// TxnBatch per subscription per scan. 1 (default) = the original
  /// txn-at-a-time pipeline.
  void set_distribution_batch_size(int n) {
    distribution_batch_size_ = n < 1 ? 1 : n;
  }
  int distribution_batch_size() const { return distribution_batch_size_; }

  /// Caps batches acked per subscription per RunDistributionAgent call
  /// (0 = drain fully, the default). A pacing knob for pollers that advance
  /// a clock between polls — exp6 uses it to convert each poll's measured
  /// wall time into simulated commit→apply lag.
  void set_max_batches_per_poll(int n) {
    max_batches_per_poll_ = n < 0 ? 0 : n;
  }
  int max_batches_per_poll() const { return max_batches_per_poll_; }

  /// Bounds the per-subscription enqueue/apply histories: once more than
  /// `limit` acked txns are retained, the settled common prefix is trimmed
  /// from BOTH vectors (the trimmed count stays observable via
  /// SubscriptionInfo::history_trimmed). 0 (default) = unbounded retention,
  /// which the consistency checker's full-history tests rely on.
  void set_history_limit(int64_t limit) {
    history_limit_ = limit < 0 ? 0 : limit;
  }
  int64_t history_limit() const { return history_limit_; }

  /// Exponential backoff applied to a subscription after a failed delivery:
  /// base * 2^(consecutive failures - 1), capped at max, on the sim clock.
  /// `jitter` in [0, 1] shrinks each backoff by a uniformly random fraction
  /// of itself (so a fleet of failed subscriptions does not retry in
  /// lockstep); the jitter stream is drawn from a seeded RNG
  /// (set_backoff_seed), so a replay with the same seed and failure sequence
  /// is byte-identical.
  void set_retry_backoff(double base_seconds, double max_seconds,
                         double jitter = 0.0) {
    backoff_base_ = base_seconds;
    backoff_max_ = max_seconds;
    backoff_jitter_ = jitter < 0 ? 0.0 : (jitter > 1 ? 1.0 : jitter);
  }
  double backoff_max() const { return backoff_max_; }
  void set_backoff_seed(uint64_t seed) { backoff_rng_ = Random(seed); }

 private:
  struct Subscription {
    int64_t id = 0;
    Server* publisher = nullptr;
    Article article;
    /// The article resolved against the publisher's base table.
    ViewMapping mapping;
    Server* subscriber = nullptr;
    std::string target_table;
    /// Changes logged before this LSN predate the subscription's snapshot
    /// and must not be delivered (they are already in the initial copy).
    Lsn start_lsn = 0;
    std::deque<TxnBatch> queue;  // the distribution database
    /// The crash-safe per-batch apply watermark: source txn ids of the
    /// in-flight batch whose local apply committed (each id is inserted
    /// atomically with its local commit — in a real subscriber both live in
    /// the same database). Redelivery of an unacked batch skips these
    /// (exactly-once apply); the set clears when the batch acks. Guarded by
    /// `marks_lock` so a DescribeSubscriptions snapshot taken off the
    /// replication thread never reads the set mid-update. This generalizes
    /// the old single `last_applied_txn` marker to batches.
    std::set<TxnId> applied_unacked;
    mutable SpinLock marks_lock;
    /// Histories in commit order, for the prefix invariant. `applied` is
    /// appended at batch ACK time (in batch commit order), so it is an exact
    /// element-wise prefix of `enqueued` at every observation point, even
    /// while a batch is applied but not yet acked.
    std::vector<TxnId> enqueued_history;
    std::vector<TxnId> applied_history;
    int64_t history_trimmed = 0;
    // Retry/backoff state after failed deliveries.
    int consecutive_failures = 0;
    double retry_after = 0;
  };

  struct PublisherState {
    Server* server = nullptr;
    /// Durable read position: only advances when a whole scan batch has been
    /// distributed, so a crashed scan is re-run from here.
    Lsn next_lsn = 1;
    // Open transactions being accumulated from the log.
    std::map<TxnId, std::vector<LogRecord>> open_txns;
    /// Time up to which the publisher's log has been fully processed. A
    /// subscription whose queue is drained is current as of this time
    /// (drives TableDef::freshness_time for the §7 freshness extension).
    double last_scan_time = 0;
  };

  /// Applies one txn inside a subscriber-local transaction and records it in
  /// the batch watermark atomically with the commit.
  Status ApplyTxn(Subscription* sub, const PendingTxn& txn, ExecStats* stats);

  /// Delivers the front batch of `sub`: applies its not-yet-watermarked txns
  /// in commit order, stopping at the first failure. Does NOT ack — the
  /// caller decides that after the kBatchAck fault site.
  Status DeliverBatch(Subscription* sub, TxnBatch* batch, ExecStats* stats);

  /// Acks the front batch: appends its txns to applied_history in commit
  /// order, clears the watermark, pops the queue, trims histories.
  void AckBatch(Subscription* sub);

  FaultAction Decide(FaultSite site) {
    return fault_plan_ != nullptr ? fault_plan_->Decide(site)
                                  : FaultAction::kNone;
  }
  /// Records an injected crash and returns the kUnavailable status the
  /// crashed component surfaces to its caller.
  Status Crash(const std::string& what);
  void RecordFailure(Subscription* sub);
  void TrimHistories(Subscription* sub);

  SimClock* clock_;
  bool log_reader_enabled_ = true;
  FaultPlan* fault_plan_ = nullptr;
  double backoff_base_ = 0.05;
  double backoff_max_ = 1.0;
  double backoff_jitter_ = 0.0;
  Random backoff_rng_{0x5EEDBACCULL};
  int distribution_batch_size_ = 1;
  int max_batches_per_poll_ = 0;
  int64_t history_limit_ = 0;
  std::map<Server*, PublisherState> publishers_;
  std::map<int64_t, std::unique_ptr<Subscription>> subscriptions_;
  int64_t next_subscription_id_ = 1;
  ReplicationMetrics metrics_;
};

}  // namespace mtcache

#endif  // MTCACHE_REPL_REPLICATION_H_
