#include <gtest/gtest.h>

#include "check/consistency.h"
#include "repl/replication.h"

namespace mtcache {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE customer (c_id INT PRIMARY KEY, "
                        "c_name VARCHAR(30), c_region VARCHAR(10), "
                        "c_balance FLOAT)")
                    .ok());
    for (int i = 1; i <= 20; ++i) {
      std::string region = i <= 10 ? "east" : "west";
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO customer VALUES (" +
                                     std::to_string(i) + ", 'cust" +
                                     std::to_string(i) + "', '" + region +
                                     "', 0.0)")
                      .ok());
    }
    // Target table on the cache: east customers, name+id only.
    ASSERT_TRUE(cache_
                    .ExecuteScript(
                        "CREATE TABLE customer_east (c_id INT PRIMARY KEY, "
                        "c_name VARCHAR(30))")
                    .ok());
    repl_.AddPublisher(&backend_);
    Article article;
    article.name = "customer_east_article";
    article.def.base_table = "customer";
    article.def.columns = {"c_id", "c_name"};
    article.def.predicates = {
        {"c_region", CompareOp::kEq, Value::String("east")}};
    auto sub = repl_.Subscribe(&backend_, article, &cache_, "customer_east");
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    sub_id_ = *sub;
  }

  int64_t CountCacheRows() {
    auto r = cache_.Execute("SELECT COUNT(*) FROM customer_east");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  void InsertEastRow(int id) {
    ASSERT_TRUE(backend_
                    .ExecuteScript("INSERT INTO customer VALUES (" +
                                   std::to_string(id) + ", 'c" +
                                   std::to_string(id) + "', 'east', 0.0)")
                    .ok());
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  int64_t sub_id_ = 0;
};

TEST_F(ReplicationTest, InsertPropagatesWhenMatchingArticle) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (21, 'new east', 'east', 0.0)")
                  .ok());
  ExecStats pub_stats, sub_stats;
  ASSERT_TRUE(repl_.RunOnce(&pub_stats, &sub_stats).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  EXPECT_GT(pub_stats.local_cost, 0) << "log reader/distributor work";
  EXPECT_GT(sub_stats.local_cost, 0) << "apply work";
}

TEST_F(ReplicationTest, NonMatchingInsertFilteredOut) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (22, 'new west', 'west', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
}

TEST_F(ReplicationTest, ProjectionDropsUnpublishedColumns) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (23, 'eve', 'east', 9.5)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute("SELECT c_id, c_name FROM customer_east");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsString(), "eve");
}

TEST_F(ReplicationTest, UpdatePropagates) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (24, 'old name', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET c_name = 'new name' WHERE c_id = 24")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute("SELECT c_name FROM customer_east WHERE c_id = 24");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "new name");
}

TEST_F(ReplicationTest, UpdateMovingRowIntoArticleRegionInserts) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET c_region = 'east' WHERE c_id = 15")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute("SELECT c_id FROM customer_east WHERE c_id = 15");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(ReplicationTest, UpdateMovingRowOutOfRegionDeletes) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (25, 'mover', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET c_region = 'west' WHERE c_id = 25")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
}

TEST_F(ReplicationTest, DeletePropagates) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (26, 'gone', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ASSERT_TRUE(backend_.ExecuteScript("DELETE FROM customer WHERE c_id = 26").ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
}

TEST_F(ReplicationTest, AbortedTransactionNeverShips) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "BEGIN TRANSACTION; "
                      "INSERT INTO customer VALUES (27, 'phantom', 'east', 0.0); "
                      "ROLLBACK;")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
  EXPECT_EQ(repl_.metrics().changes_enqueued, 0);
}

TEST_F(ReplicationTest, MultiStatementTransactionAppliedAtomicallyInOrder) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "BEGIN TRANSACTION; "
                      "INSERT INTO customer VALUES (28, 'a', 'east', 0.0); "
                      "INSERT INTO customer VALUES (29, 'b', 'east', 0.0); "
                      "UPDATE customer SET c_name = 'a2' WHERE c_id = 28; "
                      "COMMIT;")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute(
      "SELECT c_id, c_name FROM customer_east ORDER BY c_id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][1].AsString(), "a2");
  EXPECT_EQ(repl_.metrics().txns_applied, 1);
}

TEST_F(ReplicationTest, LatencyMeasuredOnSimulatedClock) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (30, 'timed', 'east', 0.0)")
                  .ok());
  clock_.Advance(0.75);  // replication delay before the agent fires
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_NEAR(repl_.metrics().AvgLatency(), 0.75, 1e-9);
  EXPECT_NEAR(repl_.metrics().latency_max, 0.75, 1e-9);
}

TEST_F(ReplicationTest, LogReaderDisabledStopsPipeline) {
  repl_.set_log_reader_enabled(false);
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (31, 'held', 'east', 0.0)")
                  .ok());
  ExecStats pub_stats;
  ASSERT_TRUE(repl_.RunOnce(&pub_stats, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
  EXPECT_DOUBLE_EQ(pub_stats.local_cost, 0.0);
  // Re-enable: the pending log is drained.
  repl_.set_log_reader_enabled(true);
  ASSERT_TRUE(repl_.RunOnce(&pub_stats, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
}

TEST_F(ReplicationTest, LogTruncatedAfterDistribution) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (32, 'x', 'east', 0.0)")
                  .ok());
  EXPECT_GT(backend_.db().log().size(), 0);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(backend_.db().log().size(), 0);
}

TEST_F(ReplicationTest, PendingChangesCountsQueue) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (33, 'q', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 1);
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
}

TEST_F(ReplicationTest, SubscriptionSkipsChangesPredatingItsSnapshot) {
  // Regression: changes logged BEFORE a subscription exists must not be
  // delivered to it (they are covered by the initial snapshot). Here the
  // "snapshot" is simulated by inserting the row into the target directly.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (40, 'pre', 'east', 0.0)")
                  .ok());
  // A second subscription created after that insert, with the row already
  // present in its target (as a real snapshot would have it).
  ASSERT_TRUE(cache_
                  .ExecuteScript(
                      "CREATE TABLE customer_east2 (c_id INT PRIMARY KEY, "
                      "c_name VARCHAR(30)); "
                      "INSERT INTO customer_east2 VALUES (40, 'pre')")
                  .ok());
  Article article;
  article.name = "late";
  article.def.base_table = "customer";
  article.def.columns = {"c_id", "c_name"};
  article.def.predicates = {
      {"c_region", CompareOp::kEq, Value::String("east")}};
  ASSERT_TRUE(
      repl_.Subscribe(&backend_, article, &cache_, "customer_east2").ok());
  // Without the per-subscription start LSN this round would try to re-insert
  // row 40 into customer_east2 and fail on the unique key.
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto r = cache_.Execute("SELECT COUNT(*) FROM customer_east2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  // ...while the ORIGINAL (earlier) subscription did receive it.
  EXPECT_EQ(CountCacheRows(), 1);
}

TEST_F(ReplicationTest, ApplyConflictSurfacesAndPreservesAtomicity) {
  // Failure injection: someone tampers with the subscriber's backing table,
  // creating a key collision for the next replicated insert. The apply must
  // fail loudly, roll back the whole transaction's changes (commit-order
  // atomicity), and keep the batch queued for retry after repair.
  ASSERT_TRUE(cache_
                  .ExecuteScript(
                      "INSERT INTO customer_east VALUES (50, 'intruder')")
                  .ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "BEGIN TRANSACTION; "
                      "INSERT INTO customer VALUES (49, 'ok', 'east', 0.0); "
                      "INSERT INTO customer VALUES (50, 'clash', 'east', 0.0); "
                      "COMMIT;")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  Status apply = repl_.RunDistributionAgent(&cache_, nullptr);
  EXPECT_EQ(apply.code(), StatusCode::kAlreadyExists) << apply.ToString();
  // Atomic: row 49 must NOT have been half-applied.
  auto r = cache_.Execute("SELECT COUNT(*) FROM customer_east WHERE c_id = 49");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
  EXPECT_EQ(repl_.PendingChanges(), 2);
  // Repair (remove the intruder), wait out the retry backoff, and retry:
  // the batch drains.
  ASSERT_TRUE(
      cache_.ExecuteScript("DELETE FROM customer_east WHERE c_id = 50").ok());
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 2);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_GE(repl_.metrics().txns_retried, 1);
}

TEST_F(ReplicationTest, FailedDeliveryBacksOffUntilClockAdvances) {
  // A failed apply must not be retried hot: the subscription backs off on
  // the simulated clock, so an immediate agent run is a no-op.
  ASSERT_TRUE(cache_
                  .ExecuteScript("INSERT INTO customer_east VALUES (51, 'dup')")
                  .ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (51, 'clash', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_FALSE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  ASSERT_TRUE(
      cache_.ExecuteScript("DELETE FROM customer_east WHERE c_id = 51").ok());
  // Still backing off: nothing is delivered...
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 1);
  // ...until the clock passes the backoff deadline.
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_EQ(CountCacheRows(), 1);
}

TEST(ReplicationMetricsTest, AvgLatencyGuardsDivideByZero) {
  // Freshly-reset metrics have latency_count == 0; AvgLatency must return a
  // defined 0.0, not NaN (this pins the divide-by-zero guard).
  ReplicationMetrics metrics;
  EXPECT_EQ(metrics.latency_count, 0);
  EXPECT_EQ(metrics.AvgLatency(), 0.0);
  metrics.latency_sum = 3.5;  // stale sum with no samples still guards
  EXPECT_EQ(metrics.AvgLatency(), 0.0);
  metrics.latency_count = 2;
  EXPECT_DOUBLE_EQ(metrics.AvgLatency(), 1.75);
}

TEST_F(ReplicationTest, DeleteOfAlreadyMissingRowIsIdempotent) {
  // The subscriber may have lost a row (tampering/cleanup); a replicated
  // delete for it must not fail the pipeline.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (60, 'gone', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ASSERT_TRUE(
      cache_.ExecuteScript("DELETE FROM customer_east WHERE c_id = 60").ok());
  ASSERT_TRUE(
      backend_.ExecuteScript("DELETE FROM customer WHERE c_id = 60").ok());
  EXPECT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
}

TEST_F(ReplicationTest, UnsubscribeStopsDeliveryAndDropsQueue) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (70, 'x', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 1);
  ASSERT_TRUE(repl_.Unsubscribe(sub_id_).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
  EXPECT_EQ(repl_.Unsubscribe(sub_id_).code(), StatusCode::kNotFound);
}

TEST_F(ReplicationTest, TwoSubscribersBothReceive) {
  Server cache2(ServerOptions{"cache2", "dbo", {}}, &clock_, &links_);
  ASSERT_TRUE(cache2
                  .ExecuteScript(
                      "CREATE TABLE customer_east (c_id INT PRIMARY KEY, "
                      "c_name VARCHAR(30))")
                  .ok());
  Article article;
  article.name = "a2";
  article.def.base_table = "customer";
  article.def.columns = {"c_id", "c_name"};
  article.def.predicates = {
      {"c_region", CompareOp::kEq, Value::String("east")}};
  ASSERT_TRUE(repl_.Subscribe(&backend_, article, &cache2, "customer_east").ok());
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO customer VALUES (34, 'dup', 'east', 0.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache2, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  auto r = cache2.Execute("SELECT COUNT(*) FROM customer_east");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

// ---------------------------------------------------------------------------
// Group-commit batching, in-batch commit order, history bounding, and
// metrics reset.
// ---------------------------------------------------------------------------

TEST_F(ReplicationTest, BatchedDistributionGroupsTxnsAndPropagatesEquivalently) {
  repl_.set_distribution_batch_size(4);
  for (int i = 100; i < 110; ++i) InsertEastRow(i);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 10);
  // 10 txns in batches of at most 4 => ceil(10/4) = 3 delivery units.
  EXPECT_EQ(repl_.metrics().batches_distributed, 3);
  EXPECT_EQ(repl_.metrics().batch_txns_distributed, 10);
  EXPECT_NEAR(repl_.metrics().AvgBatchSize(), 10.0 / 3.0, 1e-9);
  EXPECT_EQ(repl_.metrics().txns_applied, 10);
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].applied_txns, subs[0].enqueued_txns);
  EXPECT_EQ(subs[0].queued_txns, 0);
  EXPECT_EQ(subs[0].inflight_applied, 0);
}

TEST_F(ReplicationTest, BatchedInsertAndUpdateOfSameKeyApplyInCommitOrder) {
  // An insert and a later update of the same key share one delivery unit,
  // with a txn on another key between them. The batch applies in commit
  // order, so the cache ends on the update, never on the insert's image.
  repl_.set_distribution_batch_size(16);
  InsertEastRow(200);
  InsertEastRow(201);
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET c_name = 'u200' WHERE c_id = 200")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(repl_.metrics().batches_distributed, 1);
  EXPECT_EQ(repl_.metrics().txns_applied, 3);
  auto r = cache_.Execute(
      "SELECT c_id, c_name FROM customer_east WHERE c_id >= 200 "
      "ORDER BY c_id");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][1].AsString(), "u200");
  EXPECT_EQ(r->rows[1][1].AsString(), "c201");
  // Invariants only: the fixture seeds the published table BEFORE
  // subscribing, so a full row diff would flag the un-snapshotted prefix.
  ConsistencyReport report = ConsistencyChecker(&repl_).CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ReplicationBackoffTest, JitteredBackoffIsDeterministicUnderSeed) {
  // Two pipelines with the same backoff seed and the same failure sequence
  // must retry at exactly the same simulated time; jitter only ever SHRINKS
  // the deterministic exponential backoff (never extends past the cap).
  auto steps_until_drained = [](uint64_t seed) {
    SimClock clock;
    LinkedServerRegistry links;
    Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
    Server cache(ServerOptions{"cache", "dbo", {}}, &clock, &links);
    ReplicationSystem repl(&clock);
    EXPECT_TRUE(backend
                    .ExecuteScript(
                        "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                    .ok());
    EXPECT_TRUE(
        cache.ExecuteScript("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .ok());
    Article article;
    article.name = "a";
    article.def.base_table = "t";
    article.def.columns = {"id", "v"};
    EXPECT_TRUE(repl.Subscribe(&backend, article, &cache, "t").ok());
    repl.set_retry_backoff(10.0, 100.0, 0.5);
    repl.set_backoff_seed(seed);
    // Force one delivery failure via a key collision, then repair it.
    EXPECT_TRUE(cache.ExecuteScript("INSERT INTO t VALUES (1, 0)").ok());
    EXPECT_TRUE(backend.ExecuteScript("INSERT INTO t VALUES (1, 7)").ok());
    EXPECT_TRUE(repl.RunLogReader(&backend, nullptr).ok());
    EXPECT_FALSE(repl.RunDistributionAgent(&cache, nullptr).ok());
    EXPECT_TRUE(cache.ExecuteScript("DELETE FROM t WHERE id = 1").ok());
    int steps = 0;
    while (repl.PendingChanges() > 0 && steps < 100) {
      clock.Advance(0.5);
      ++steps;
      EXPECT_TRUE(repl.RunDistributionAgent(&cache, nullptr).ok());
    }
    return steps;
  };
  int first = steps_until_drained(1234);
  int second = steps_until_drained(1234);
  EXPECT_EQ(first, second);
  // Jitter 0.5 on a 10 s base: the retry fires within (5, 10] seconds.
  EXPECT_GT(first, 10);
  EXPECT_LE(first, 20);
}

TEST_F(ReplicationTest, HistoryLimitBoundsVectorsAndKeepsInvariantCheckable) {
  repl_.set_history_limit(5);
  ConsistencyChecker checker(&repl_);
  for (int i = 300; i < 320; ++i) {
    InsertEastRow(i);
    ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    // The prefix invariant stays checkable on the retained suffixes at
    // every point of the trim schedule.
    ConsistencyReport invariants = checker.CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << invariants.ToString();
  }
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].applied_txns.size(), 5u);
  EXPECT_EQ(subs[0].enqueued_txns.size(), 5u);
  EXPECT_EQ(subs[0].history_trimmed, 15);
  EXPECT_EQ(CountCacheRows(), 20);
  ConsistencyReport report = checker.CheckInvariants();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ReplicationTest, ResetMetricsClearsEveryCounter) {
  InsertEastRow(400);
  clock_.Advance(0.25);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_GT(repl_.metrics().records_scanned, 0);
  EXPECT_GT(repl_.metrics().txns_applied, 0);
  EXPECT_GT(repl_.metrics().batches_distributed, 0);
  EXPECT_GT(repl_.metrics().lag_histogram.Count(), 0);
  repl_.ResetMetrics();
  EXPECT_EQ(repl_.metrics().records_scanned, 0);
  EXPECT_EQ(repl_.metrics().changes_enqueued, 0);
  EXPECT_EQ(repl_.metrics().changes_applied, 0);
  EXPECT_EQ(repl_.metrics().txns_applied, 0);
  EXPECT_EQ(repl_.metrics().batches_distributed, 0);
  EXPECT_EQ(repl_.metrics().batch_txns_distributed, 0);
  EXPECT_EQ(repl_.metrics().AvgBatchSize(), 0.0);
  EXPECT_EQ(repl_.metrics().AvgLatency(), 0.0);
  EXPECT_EQ(repl_.metrics().lag_histogram.Count(), 0);
  EXPECT_EQ(repl_.metrics().lag_histogram.Max(), 0.0);
}

}  // namespace
}  // namespace mtcache
