#include <gtest/gtest.h>

#include "check/consistency.h"
#include "common/random.h"
#include "mtcache/mtcache.h"
#include "repl/fault.h"
#include "sim/des.h"
#include "tpcw/cache_setup.h"
#include "tpcw/datagen.h"
#include "tpcw/procs.h"
#include "tpcw/schema.h"

namespace mtcache {
namespace {

/// A pipeline round under fault injection either succeeds or dies on an
/// injected crash; anything else is a real bug.
void RunRoundTolerantly(ReplicationSystem* repl) {
  Status status = repl->RunOnce(nullptr, nullptr);
  ASSERT_TRUE(status.ok() || status.code() == StatusCode::kUnavailable)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Focused crash/recovery scenarios on the small customer fixture.
// ---------------------------------------------------------------------------

class ReplicationFaultTest : public ::testing::Test {
 protected:
  ReplicationFaultTest()
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
    ASSERT_TRUE(cache_
                    .ExecuteScript(
                        "CREATE TABLE customer_east (c_id INT PRIMARY KEY, "
                        "c_name VARCHAR(30))")
                    .ok());
    Article article;
    article.name = "customer_east_article";
    article.def.base_table = "customer";
    article.def.columns = {"c_id", "c_name"};
    article.def.predicates = {
        {"c_region", CompareOp::kEq, Value::String("east")}};
    auto sub = repl_.Subscribe(&backend_, article, &cache_, "customer_east");
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    repl_.set_fault_plan(&plan_);
  }

  void InsertEast(int id) {
    ASSERT_TRUE(backend_
                    .ExecuteScript("INSERT INTO customer VALUES (" +
                                   std::to_string(id) + ", 'c" +
                                   std::to_string(id) + "', 'east', 0.0)")
                    .ok());
  }

  int64_t CountCacheRows() {
    auto r = cache_.Execute("SELECT COUNT(*) FROM customer_east");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r->rows[0][0].AsInt();
  }

  void ExpectConsistent() {
    ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
    ConsistencyReport report = ConsistencyChecker(&repl_).Check();
    EXPECT_TRUE(report.ok()) << report.ToString() << plan_.ToString();
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  FaultPlan plan_;
};

TEST_F(ReplicationFaultTest, LogReaderCrashLeavesDurablePositionAndRecovers) {
  plan_.AddRule(FaultSite::kLogReadRecord, FaultAction::kCrash, 1);
  InsertEast(1);
  Status crashed = repl_.RunLogReader(&backend_, nullptr);
  EXPECT_EQ(crashed.code(), StatusCode::kUnavailable) << crashed.ToString();
  // The crashed scan had no effect: nothing scanned, nothing enqueued, the
  // log intact.
  EXPECT_EQ(repl_.metrics().records_scanned, 0);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_GT(backend_.db().log().size(), 0);
  // The restarted reader re-runs the batch from the same LSN.
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  EXPECT_EQ(repl_.metrics().crashes_injected, 1);
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, DistributorCrashEnqueuesNothingTwice) {
  plan_.AddRule(FaultSite::kDistributeTxn, FaultAction::kCrash, 1);
  InsertEast(1);
  InsertEast(2);
  EXPECT_EQ(repl_.RunLogReader(&backend_, nullptr).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  // Recovery re-distributes the whole batch exactly once.
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 2);
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 2);
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, SubscriberCrashMidApplyRollsBackAndRetries) {
  InsertEast(1);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  plan_.AddRule(FaultSite::kApplyChange, FaultAction::kCrash, 2);
  // One source txn with two changes; the subscriber dies on the second.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "BEGIN TRANSACTION; "
                      "INSERT INTO customer VALUES (2, 'a', 'east', 0.0); "
                      "INSERT INTO customer VALUES (3, 'b', 'east', 0.0); "
                      "COMMIT;")
                  .ok());
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.RunDistributionAgent(&cache_, nullptr).code(),
            StatusCode::kUnavailable);
  // Atomicity: the local transaction rolled back, nothing half-applied.
  EXPECT_EQ(CountCacheRows(), 1);
  EXPECT_EQ(repl_.PendingChanges(), 2);
  // After the backoff the delivery is retried and applies in full.
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 3);
  EXPECT_EQ(repl_.metrics().txns_retried, 1);
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, PostCommitCrashDeduplicatesOnRedelivery) {
  plan_.AddRule(FaultSite::kApplyCommit, FaultAction::kCrash, 1);
  InsertEast(1);
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  // The apply commits, then the agent dies before acking the delivery.
  EXPECT_EQ(repl_.RunDistributionAgent(&cache_, nullptr).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(CountCacheRows(), 1);           // committed...
  EXPECT_EQ(repl_.PendingChanges(), 1);     // ...but still queued.
  // Redelivery must NOT apply twice (the insert would collide on the key).
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_EQ(repl_.metrics().txns_applied, 1);
  EXPECT_EQ(repl_.metrics().txns_retried, 1);
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, DroppedDeliveryIsRedeliveredAfterBackoff) {
  plan_.AddRule(FaultSite::kDeliverTxn, FaultAction::kDrop, 1);
  InsertEast(1);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());  // delivery lost
  EXPECT_EQ(CountCacheRows(), 0);
  EXPECT_EQ(repl_.PendingChanges(), 1);
  EXPECT_EQ(repl_.metrics().deliveries_dropped, 1);
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, LogReadStallDelaysButNeverLosesChanges) {
  backend_.db().log().set_read_fault_hook(MakeLogReadStallHook(&plan_));
  plan_.AddRule(FaultSite::kLogReadStall, FaultAction::kDelay, 1);
  InsertEast(1);
  // First scan dies on the first log page: nothing is read.
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 0);
  // The reader resumes from the stalled position on its next poll.
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 1);
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, CommitOrderPrefixInvariantHoldsMidFlight) {
  plan_.AddRule(FaultSite::kApplyCommit, FaultAction::kCrash, 2);
  plan_.AddRule(FaultSite::kDeliverTxn, FaultAction::kDrop, 4);
  ConsistencyChecker checker(&repl_);
  for (int i = 1; i <= 6; ++i) {
    InsertEast(i);
    clock_.Advance(0.1);
    RunRoundTolerantly(&repl_);
    // The ordering invariant holds at every instant, faults or not.
    ConsistencyReport invariants = checker.CheckInvariants();
    EXPECT_TRUE(invariants.ok())
        << "after insert " << i << ":\n" << invariants.ToString();
    clock_.Advance(repl_.backoff_max());
  }
  ExpectConsistent();
}

// ---------------------------------------------------------------------------
// Batch-boundary, mid-batch apply, and ack-window fault sites
// (kDistributeBatch, kApplyChange/kApplyCommit inside a batch, kBatchAck).
// ---------------------------------------------------------------------------

TEST_F(ReplicationFaultTest, BatchBoundaryCrashRedistributesExactlyOnce) {
  repl_.set_distribution_batch_size(2);
  // Second formed batch hits the crash: the WHOLE scan must abort with no
  // durable effect (group commit is all-or-nothing per scan).
  plan_.AddRule(FaultSite::kDistributeBatch, FaultAction::kCrash, 2);
  for (int i = 1; i <= 4; ++i) InsertEast(i);
  EXPECT_EQ(repl_.RunLogReader(&backend_, nullptr).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_EQ(repl_.metrics().batches_distributed, 0);
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_TRUE(subs[0].enqueued_txns.empty());
  // The restarted scan re-forms identical batches and distributes once.
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 4);
  EXPECT_EQ(repl_.metrics().batches_distributed, 2);
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 4);
  EXPECT_EQ(repl_.metrics().txns_applied, 4);
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, ApplyCrashMidBatchKeepsWatermarkAndDedups) {
  repl_.set_distribution_batch_size(4);
  // The subscriber dies inside the 2nd txn of the 4-txn batch (one change
  // per txn); the 1st already committed locally.
  plan_.AddRule(FaultSite::kApplyChange, FaultAction::kCrash, 2);
  for (int i = 1; i <= 4; ++i) InsertEast(i);
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.RunDistributionAgent(&cache_, nullptr).code(),
            StatusCode::kUnavailable);
  // Txn 1 committed and is held by the apply watermark; txn 2 rolled back;
  // the batch itself stays queued (not acked).
  EXPECT_EQ(CountCacheRows(), 1);
  EXPECT_EQ(repl_.metrics().txns_applied, 1);
  EXPECT_EQ(repl_.PendingChanges(), 4);
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].inflight_applied, 1);
  EXPECT_TRUE(subs[0].applied_txns.empty()) << "acked only at batch ack";
  ConsistencyReport invariants =
      ConsistencyChecker(&repl_).CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  // Redelivery applies exactly the three unapplied txns (exactly-once).
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 4);
  EXPECT_EQ(repl_.metrics().txns_applied, 4);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, CommitCrashMidBatchRetriesRestWithDedup) {
  repl_.set_distribution_batch_size(3);
  // The subscriber dies right after the 2nd txn's local commit.
  plan_.AddRule(FaultSite::kApplyCommit, FaultAction::kCrash, 2);
  for (int i = 1; i <= 3; ++i) InsertEast(i);
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  EXPECT_EQ(repl_.RunDistributionAgent(&cache_, nullptr).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(CountCacheRows(), 2);  // txns 1 and 2 committed
  EXPECT_EQ(repl_.metrics().txns_applied, 2);
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].inflight_applied, 2);
  EXPECT_EQ(subs[0].queued_txns, 3);
  // Redelivery skips the two watermarked txns and applies exactly one.
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 3);
  EXPECT_EQ(repl_.metrics().txns_applied, 3);
  EXPECT_EQ(repl_.metrics().txns_retried, 3);  // the whole batch redelivered
  ExpectConsistent();
}

TEST_F(ReplicationFaultTest, AckCrashAcksViaWatermarkWithoutReapplying) {
  repl_.set_distribution_batch_size(3);
  plan_.AddRule(FaultSite::kBatchAck, FaultAction::kCrash, 1);
  for (int i = 1; i <= 3; ++i) InsertEast(i);
  ASSERT_TRUE(repl_.RunLogReader(&backend_, nullptr).ok());
  // Every txn applies and commits; the agent dies in the ack window.
  EXPECT_EQ(repl_.RunDistributionAgent(&cache_, nullptr).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(CountCacheRows(), 3);
  EXPECT_EQ(repl_.PendingChanges(), 3);  // still queued, fully marked
  std::vector<SubscriptionInfo> subs = repl_.DescribeSubscriptions();
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].inflight_applied, 3);
  // The next delivery recognizes the fully-marked batch and acks it through
  // the watermark without executing a single change again.
  clock_.Advance(repl_.backoff_max());
  ASSERT_TRUE(repl_.RunDistributionAgent(&cache_, nullptr).ok());
  EXPECT_EQ(CountCacheRows(), 3);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  EXPECT_EQ(repl_.metrics().txns_applied, 3);   // never re-applied
  EXPECT_EQ(repl_.metrics().txns_retried, 3);   // but counted as redelivered
  subs = repl_.DescribeSubscriptions();
  EXPECT_EQ(subs[0].inflight_applied, 0);
  EXPECT_EQ(subs[0].applied_txns.size(), 3u);
  ExpectConsistent();
}

// ---------------------------------------------------------------------------
// Acceptance demo: a fault schedule that crashes each pipeline stage once and
// drops one delivery, over the full TPC-W cache (all cached views), must
// recover to zero ConsistencyChecker diffs.
// ---------------------------------------------------------------------------

TEST(ReplicationFaultDemoTest, TpcwCacheSurvivesCrashOfEveryPipelineStage) {
  SimClock clock;
  LinkedServerRegistry links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
  Server cache(ServerOptions{"cache", "dbo", {}}, &clock, &links);
  ReplicationSystem repl(&clock);

  tpcw::TpcwConfig config;
  config.num_items = 60;
  config.num_authors = 15;
  config.num_customers = 50;
  config.num_orders = 40;
  config.avg_lines_per_order = 2;
  config.best_seller_window = 10;
  ASSERT_TRUE(tpcw::CreateSchema(&backend).ok());
  ASSERT_TRUE(tpcw::GenerateData(&backend, config).ok());
  ASSERT_TRUE(tpcw::CreateProcedures(&backend, config).ok());
  clock.AdvanceTo(tpcw::LoadEndTime(config));

  auto setup = MTCache::Setup(&cache, &backend, &repl);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  std::unique_ptr<MTCache> mtcache = setup.ConsumeValue();
  Status cache_setup = tpcw::SetupTpcwCache(mtcache.get(), config);
  ASSERT_TRUE(cache_setup.ok()) << cache_setup.ToString();

  FaultPlan plan;
  plan.AddRule(FaultSite::kLogReadRecord, FaultAction::kCrash, 1);
  plan.AddRule(FaultSite::kDistributeTxn, FaultAction::kCrash, 2);
  plan.AddRule(FaultSite::kApplyChange, FaultAction::kCrash, 1);
  plan.AddRule(FaultSite::kApplyCommit, FaultAction::kCrash, 3);
  plan.AddRule(FaultSite::kDeliverTxn, FaultAction::kDrop, 2);
  repl.set_fault_plan(&plan);

  // A workload touching every published table, interleaved with pipeline
  // rounds so the faults land at different stages of different txns.
  const char* kDml[] = {
      "UPDATE item SET i_stock = i_stock + 5 WHERE i_id <= 10",
      "INSERT INTO orders VALUES (9001, 1, 123, 10.0, 11.0, 'shipped', 1)",
      "INSERT INTO order_line VALUES (9001, 3, 2, 0.0)",
      "BEGIN TRANSACTION; "
      "INSERT INTO order_line VALUES (9001, 7, 1, 0.1); "
      "UPDATE item SET i_title = 'revised' WHERE i_id = 7; "
      "COMMIT;",
      "UPDATE author SET a_bio = 'updated bio' WHERE a_id <= 3",
      "BEGIN TRANSACTION; "
      "INSERT INTO orders VALUES (9002, 2, 124, 5.0, 5.5, 'phantom', 1); "
      "ROLLBACK;",
      "DELETE FROM order_line WHERE ol_o_id = 9001 AND ol_i_id = 3",
      "UPDATE orders SET o_status = 'delivered' WHERE o_id = 9001",
  };
  for (const char* sql : kDml) {
    ASSERT_TRUE(backend.ExecuteScript(sql).ok()) << sql;
    clock.Advance(0.2);
    RunRoundTolerantly(&repl);
  }

  // Every scripted fault must actually have fired.
  EXPECT_EQ(plan.injected(FaultSite::kLogReadRecord), 1) << plan.ToString();
  EXPECT_EQ(plan.injected(FaultSite::kDistributeTxn), 1) << plan.ToString();
  EXPECT_EQ(plan.injected(FaultSite::kApplyChange), 1) << plan.ToString();
  EXPECT_EQ(plan.injected(FaultSite::kApplyCommit), 1) << plan.ToString();
  EXPECT_EQ(plan.injected(FaultSite::kDeliverTxn), 1) << plan.ToString();
  EXPECT_EQ(repl.metrics().crashes_injected, 4);
  EXPECT_EQ(repl.metrics().deliveries_dropped, 1);

  // Recovery: drain and check every TPC-W cached view row-by-row.
  ASSERT_TRUE(DrainPipeline(&repl, &clock).ok());
  ConsistencyReport report =
      ConsistencyChecker(&repl, &backend, &cache).Check();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GE(repl.metrics().txns_retried, 1);
}

// ---------------------------------------------------------------------------
// Discrete-event-driven schedule: DML and pipeline polls fire as sim/des.h
// events, with faults landing mid-run; the system must converge afterwards.
// ---------------------------------------------------------------------------

TEST(ReplicationFaultDesTest, EventDrivenScheduleConverges) {
  SimClock clock;
  LinkedServerRegistry links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
  Server cache(ServerOptions{"cache", "dbo", {}}, &clock, &links);
  ReplicationSystem repl(&clock);
  ASSERT_TRUE(backend
                  .ExecuteScript(
                      "CREATE TABLE ticks (t_id INT PRIMARY KEY, v FLOAT)")
                  .ok());
  ASSERT_TRUE(cache
                  .ExecuteScript(
                      "CREATE TABLE ticks_cache (t_id INT PRIMARY KEY, "
                      "v FLOAT)")
                  .ok());
  Article article;
  article.name = "ticks_article";
  article.def.base_table = "ticks";
  article.def.columns = {"t_id", "v"};
  ASSERT_TRUE(repl.Subscribe(&backend, article, &cache, "ticks_cache").ok());

  FaultPlan plan(42);
  plan.AddRule(FaultSite::kApplyChange, FaultAction::kCrash, 3);
  plan.AddRule(FaultSite::kLogReadRecord, FaultAction::kCrash, 7);
  plan.AddRule(FaultSite::kDeliverTxn, FaultAction::kDrop, 5);
  repl.set_fault_plan(&plan);

  sim::Des des;
  // Writers: one insert every 0.13s for 30 ticks.
  for (int i = 1; i <= 30; ++i) {
    des.Schedule(0.13 * i, [&, i]() {
      clock.AdvanceTo(des.now());
      ASSERT_TRUE(backend
                      .ExecuteScript("INSERT INTO ticks VALUES (" +
                                     std::to_string(i) + ", " +
                                     std::to_string(i * 0.5) + ")")
                      .ok());
    });
  }
  // The pipeline polls every 0.4s, tolerating injected crashes.
  std::function<void()> poll = [&]() {
    clock.AdvanceTo(des.now());
    RunRoundTolerantly(&repl);
    if (des.now() < 6.0) des.Schedule(des.now() + 0.4, poll);
  };
  des.Schedule(0.4, poll);
  des.RunUntil(12.0);
  clock.AdvanceTo(des.now());

  ASSERT_TRUE(DrainPipeline(&repl, &clock).ok());
  ConsistencyReport report = ConsistencyChecker(&repl).Check();
  EXPECT_TRUE(report.ok()) << report.ToString() << plan.ToString();
  auto r = cache.Execute("SELECT COUNT(*) FROM ticks_cache");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 30);
  EXPECT_GT(plan.total_injected(), 0);
}

// ---------------------------------------------------------------------------
// Seeded randomized crash/restart schedules: 200 iterations, each with its
// own workload and fault schedule. After every recovery the checker must
// pass and the commit-order prefix invariant must hold.
// ---------------------------------------------------------------------------

class RandomizedFaultHarness {
 public:
  explicit RandomizedFaultHarness(uint64_t seed)
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache", "dbo", {}}, &clock_, &links_),
        repl_(&clock_), rng_(seed * 0x9E3779B9ULL + 1), plan_(seed + 1) {}

  void Setup() {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE stock (sid INT PRIMARY KEY, "
                        "sym VARCHAR(8), px FLOAT, active INT)")
                    .ok());
    // Two subscriptions with different shapes: a filtered projection and a
    // full-width copy.
    ASSERT_TRUE(cache_
                    .ExecuteScript(
                        "CREATE TABLE active_stock (sid INT PRIMARY KEY, "
                        "sym VARCHAR(8), px FLOAT); "
                        "CREATE TABLE all_stock (sid INT PRIMARY KEY, "
                        "sym VARCHAR(8), px FLOAT, active INT)")
                    .ok());
    Article filtered;
    filtered.name = "active_article";
    filtered.def.base_table = "stock";
    filtered.def.columns = {"sid", "sym", "px"};
    filtered.def.predicates = {{"active", CompareOp::kEq, Value::Int(1)}};
    ASSERT_TRUE(
        repl_.Subscribe(&backend_, filtered, &cache_, "active_stock").ok());
    Article full;
    full.name = "all_article";
    full.def.base_table = "stock";
    full.def.columns = {"sid", "sym", "px", "active"};
    ASSERT_TRUE(repl_.Subscribe(&backend_, full, &cache_, "all_stock").ok());

    // Seed the published table AFTER subscribing: a subscription starts at
    // the current log position (snapshot-then-subscribe semantics), so rows
    // inserted earlier would never replicate. Here the initial load itself
    // flows through the (faulty) pipeline.
    for (int i = 1; i <= 30; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO stock VALUES (" +
                                     std::to_string(i) + ", 'S" +
                                     std::to_string(i % 5) + "', " +
                                     std::to_string(i * 1.5) + ", " +
                                     std::to_string(i % 2) + ")")
                      .ok());
    }

    // A randomized fault schedule: each site gets a seed-derived crash /
    // drop / delay probability, plus the WAL read-stall seam.
    plan_.AddRandomRule(FaultSite::kLogReadRecord, FaultAction::kCrash,
                        rng_.NextDouble() * 0.04);
    plan_.AddRandomRule(FaultSite::kDistributeTxn, FaultAction::kCrash,
                        rng_.NextDouble() * 0.1);
    plan_.AddRandomRule(FaultSite::kApplyChange, FaultAction::kCrash,
                        rng_.NextDouble() * 0.1);
    plan_.AddRandomRule(FaultSite::kApplyCommit, FaultAction::kCrash,
                        rng_.NextDouble() * 0.1);
    plan_.AddRandomRule(FaultSite::kDeliverTxn, FaultAction::kDrop,
                        rng_.NextDouble() * 0.15);
    plan_.AddRandomRule(FaultSite::kDeliverTxn, FaultAction::kDelay,
                        rng_.NextDouble() * 0.15);
    plan_.AddRandomRule(FaultSite::kLogReadStall, FaultAction::kDelay,
                        rng_.NextDouble() * 0.05);
    // Group commit, jittered backoff, and bounded histories are part of the
    // randomized surface: most seeds run the batched pipeline, so the fault
    // sites at batch boundaries, mid-batch applies, and the ack window fire
    // under every knob combination.
    repl_.set_distribution_batch_size(
        static_cast<int>(rng_.Uniform(1, 8)));
    repl_.set_retry_backoff(0.05, 1.0, rng_.NextDouble() * 0.5);
    repl_.set_backoff_seed(rng_.NextU64());
    if (rng_.Bernoulli(0.5)) repl_.set_history_limit(8);
    plan_.AddRandomRule(FaultSite::kDistributeBatch, FaultAction::kCrash,
                        rng_.NextDouble() * 0.08);
    plan_.AddRandomRule(FaultSite::kBatchAck, FaultAction::kCrash,
                        rng_.NextDouble() * 0.08);
    backend_.db().log().set_read_fault_hook(MakeLogReadStallHook(&plan_));
    repl_.set_fault_plan(&plan_);
  }

  void RandomDml() {
    switch (rng_.Uniform(0, 3)) {
      case 0: {
        int64_t id = next_id_++;
        ASSERT_TRUE(backend_
                        .ExecuteScript("INSERT INTO stock VALUES (" +
                                       std::to_string(id) + ", 'N', 1.0, " +
                                       std::to_string(rng_.Uniform(0, 1)) +
                                       ")")
                        .ok());
        break;
      }
      case 1: {
        std::string set = rng_.Bernoulli(0.5) ? "px = px + 1"
                                              : "active = 1 - active";
        ASSERT_TRUE(backend_
                        .ExecuteScript("UPDATE stock SET " + set +
                                       " WHERE sid % 7 = " +
                                       std::to_string(rng_.Uniform(0, 6)))
                        .ok());
        break;
      }
      case 2: {
        ASSERT_TRUE(backend_
                        .ExecuteScript("DELETE FROM stock WHERE sid % 11 = " +
                                       std::to_string(rng_.Uniform(0, 10)))
                        .ok());
        break;
      }
      default: {
        bool commit = rng_.Bernoulli(0.7);
        ASSERT_TRUE(backend_
                        .ExecuteScript(
                            std::string("BEGIN TRANSACTION; ") +
                            "INSERT INTO stock VALUES (" +
                            std::to_string(next_id_++) + ", 'T', 2.0, 1); " +
                            "UPDATE stock SET px = px * 1.1 WHERE active = 1; " +
                            (commit ? "COMMIT;" : "ROLLBACK;"))
                        .ok());
        break;
      }
    }
  }

  void Run() {
    ConsistencyChecker checker(&repl_);
    int rounds = static_cast<int>(rng_.Uniform(3, 6));
    for (int round = 0; round < rounds; ++round) {
      int burst = static_cast<int>(rng_.Uniform(1, 4));
      for (int i = 0; i < burst; ++i) {
        RandomDml();
        if (::testing::Test::HasFatalFailure()) return;
      }
      clock_.Advance(0.05 + rng_.NextDouble() * 0.4);
      RunRoundTolerantly(&repl_);
      if (::testing::Test::HasFatalFailure()) return;
      // The prefix invariant holds mid-flight, with faults still firing.
      ConsistencyReport invariants = checker.CheckInvariants();
      ASSERT_TRUE(invariants.ok())
          << "round " << round << ":\n"
          << invariants.ToString() << plan_.ToString();
    }
    // Recovery: with faults quiesced the pipeline must drain and the cache
    // must equal the recomputed articles, row for row.
    Status drained = DrainPipeline(&repl_, &clock_);
    ASSERT_TRUE(drained.ok()) << drained.ToString() << plan_.ToString();
    ConsistencyReport report = checker.Check();
    ASSERT_TRUE(report.ok()) << report.ToString() << plan_.ToString();
  }

 private:
  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  Random rng_;
  FaultPlan plan_;
  int64_t next_id_ = 100;
};

TEST(ReplicationFaultRandomizedTest, TwoHundredSeededSchedulesAllRecover) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomizedFaultHarness harness(seed);
    harness.Setup();
    if (::testing::Test::HasFatalFailure()) return;
    harness.Run();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mtcache
