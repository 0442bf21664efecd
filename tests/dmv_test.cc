#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/consistency.h"
#include "mtcache/mtcache.h"
#include "repl/fault.h"

namespace mtcache {
namespace {

// Column lookup by name, so the tests don't depend on DMV column order.
int ColumnOrdinal(const QueryResult& r, const std::string& col) {
  for (int i = 0; i < r.schema.num_columns(); ++i) {
    if (r.schema.column(i).name == col) return i;
  }
  ADD_FAILURE() << "no column " << col;
  return -1;
}

int64_t IntCol(const QueryResult& r, const std::string& col, size_t row = 0) {
  int ord = ColumnOrdinal(r, col);
  return ord < 0 ? -1 : r.rows[row][ord].AsInt();
}

double DoubleCol(const QueryResult& r, const std::string& col,
                 size_t row = 0) {
  int ord = ColumnOrdinal(r, col);
  return ord < 0 ? -1 : r.rows[row][ord].AsDouble();
}

std::string StringCol(const QueryResult& r, const std::string& col,
                      size_t row = 0) {
  int ord = ColumnOrdinal(r, col);
  return ord < 0 ? "" : std::string(r.rows[row][ord].AsString());
}

// ---------------------------------------------------------------------------
// Standalone server: plan-cache counters, trace ring, rollups.
// ---------------------------------------------------------------------------

class DmvTest : public ::testing::Test {
 protected:
  DmvTest() : server_(ServerOptions{"s", "dbo", {}}) {}

  void SetUp() override {
    ASSERT_TRUE(server_
                    .ExecuteScript(
                        "CREATE TABLE t (id INT PRIMARY KEY, x FLOAT)")
                    .ok());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE(server_
                      .ExecuteScript("INSERT INTO t VALUES (" +
                                     std::to_string(i) + ", " +
                                     std::to_string(i * 0.5) + ")")
                      .ok());
    }
  }

  Server server_;
};

TEST_F(DmvTest, PlanCacheCountersVisibleThroughDmv) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server_.Execute("SELECT id FROM t WHERE x > 1.0").ok());
  }
  // 1 miss + 2 hits so far; the DMV query below is itself a miss, counted
  // before its scan materializes the row.
  auto r = server_.Execute("SELECT * FROM sys.dm_plan_cache");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(IntCol(*r, "hits"), 2);
  EXPECT_EQ(IntCol(*r, "misses"), 2);
  EXPECT_EQ(IntCol(*r, "uncacheable"), 0);
  EXPECT_DOUBLE_EQ(DoubleCol(*r, "hit_rate"), 0.5);
  EXPECT_EQ(IntCol(*r, "cached_statements"), 2);
}

TEST_F(DmvTest, InvalidationCountedAndRepansAfterFlush) {
  ASSERT_TRUE(server_.Execute("SELECT COUNT(*) FROM t").ok());
  ASSERT_TRUE(server_.Execute("SELECT COUNT(*) FROM t").ok());
  EXPECT_EQ(server_.plan_cache_stats().hits, 1);
  int64_t invalidations_before = server_.plan_cache_stats().invalidations;
  server_.InvalidatePlanCache();
  EXPECT_EQ(server_.plan_cache_stats().invalidations,
            invalidations_before + 1);
  // Replanned from scratch: a miss, not a hit.
  ASSERT_TRUE(server_.Execute("SELECT COUNT(*) FROM t").ok());
  EXPECT_EQ(server_.plan_cache_stats().hits, 1);
  EXPECT_EQ(server_.plan_cache_stats().misses, 2);
  auto r = server_.Execute("SELECT invalidations FROM sys.dm_plan_cache");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(IntCol(*r, "invalidations"), invalidations_before + 1);
}

TEST_F(DmvTest, FreshnessQueriesCountedUncacheableNotMissed) {
  ASSERT_TRUE(
      server_.Execute("SELECT id FROM t WHERE id <= 5 WITH MAXSTALENESS 10")
          .ok());
  EXPECT_EQ(server_.plan_cache_stats().uncacheable, 1);
  // A statement that was never cache-eligible must not dilute the hit-rate.
  EXPECT_EQ(server_.plan_cache_stats().misses, 0);
  EXPECT_EQ(server_.plan_cache_stats().hits, 0);
}

TEST_F(DmvTest, UncachedPlansDoNotPolluteTheSharedCache) {
  // Regression: uncacheable (freshness-constrained) plans used to be stashed
  // under a "#uncached" sentinel key in the statement cache, where the next
  // such statement clobbered the entry while a pointer to it was live, and
  // the sentinel inflated cache-size accounting.
  ASSERT_TRUE(
      server_.Execute("SELECT id FROM t WHERE id <= 5 WITH MAXSTALENESS 10")
          .ok());
  auto r = server_.Execute("SELECT cached_statements FROM sys.dm_plan_cache");
  ASSERT_TRUE(r.ok());
  // Only the DMV query itself was cached; with the sentinel bug this reads 2.
  EXPECT_EQ(IntCol(*r, "cached_statements"), 1);
}

TEST_F(DmvTest, TraceRingKeepsLastNStatements) {
  server_.metrics().set_trace_capacity(4);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(
        server_.Execute("SELECT id FROM t WHERE id = " + std::to_string(i))
            .ok());
  }
  ASSERT_EQ(server_.metrics().trace().size(), 4u);
  EXPECT_EQ(server_.metrics().trace().back().info->label,
            "SELECT id FROM t WHERE id = 6");
  EXPECT_EQ(server_.metrics().trace().front().info->label,
            "SELECT id FROM t WHERE id = 3");
  // Ids stay monotonic across eviction.
  EXPECT_EQ(server_.metrics().trace().back().query_id,
            server_.metrics().trace().front().query_id + 3);
  // The ring is queryable: at scan-open the COUNT query is not yet recorded.
  auto r = server_.Execute("SELECT COUNT(*) FROM sys.dm_exec_requests");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 4);
}

TEST_F(DmvTest, QueryStatsRollUpRepeatedExecutions) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server_.Execute("SELECT COUNT(*) FROM t").ok());
  }
  // Rollups are keyed by normalized fingerprint text (lower-cased, tokens
  // space-separated); sample_text preserves one original spelling.
  auto r = server_.Execute(
      "SELECT executions, rows_returned, local_cost, sample_text FROM "
      "sys.dm_exec_query_stats "
      "WHERE statement = 'select count ( * ) from t'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(IntCol(*r, "executions"), 3);
  EXPECT_EQ(IntCol(*r, "rows_returned"), 3);
  EXPECT_GT(DoubleCol(*r, "local_cost"), 0);
  EXPECT_EQ(StringCol(*r, "sample_text"), "SELECT COUNT(*) FROM t");
}

TEST_F(DmvTest, QueryStatsAggregateAcrossLiteralVariants) {
  // Six spellings differing only in literals (and one in case/whitespace)
  // share a fingerprint and roll up into one row with a stable query_hash.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        server_.Execute("SELECT id FROM t WHERE id = " + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(server_.Execute("select  ID from T where id = 3").ok());
  // The trace ring still records each original spelling, fingerprint
  // alongside (checked before the DMV query appends its own entry).
  EXPECT_EQ(server_.metrics().trace().back().info->label,
            "select  ID from T where id = 3");
  EXPECT_EQ(server_.metrics().trace().back().info->fingerprint,
            "select id from t where id = ?");
  auto r = server_.Execute(
      "SELECT * FROM sys.dm_exec_query_stats "
      "WHERE statement = 'select id from t where id = ?'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(IntCol(*r, "executions"), 6);
  EXPECT_EQ(StringCol(*r, "query_hash").size(), 16u);
  EXPECT_NE(StringCol(*r, "query_hash"), "0000000000000000");
}

TEST_F(DmvTest, UpdatesRollUpWithRowsAffected) {
  // Writes are recorded like reads: one parameterized UPDATE text run five
  // times is one dm_exec_query_stats row whose rows_returned counts the
  // rows the executions changed (2 per execution here).
  const std::string kUpdate = "UPDATE t SET x = x + 1 WHERE id <= @n";
  ParamMap params;
  params["@n"] = Value::Int(2);
  for (int i = 0; i < 5; ++i) {
    auto r = server_.Execute(kUpdate, params, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows_affected, 2);
  }
  EXPECT_EQ(server_.metrics().trace().back().info->label, kUpdate);
  EXPECT_EQ(server_.metrics().trace().back().rows_returned, 2);
  auto r = server_.Execute(
      "SELECT executions, rows_returned, local_cost, sample_text FROM "
      "sys.dm_exec_query_stats "
      "WHERE statement = 'update t set x = x + ? where id <= @n'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(IntCol(*r, "executions"), 5);
  EXPECT_EQ(IntCol(*r, "rows_returned"), 10);
  EXPECT_GT(DoubleCol(*r, "local_cost"), 0);
  EXPECT_EQ(StringCol(*r, "sample_text"), kUpdate);
}

TEST_F(DmvTest, ProcedureStatementKeepsItsLabelAcrossReplanning) {
  // A procedure statement is labelled by its depth-first position in the
  // body (the IF is #0, its THEN branch #1, its ELSE branch #2), not by the
  // order its plans were built in, so an invalidation that replans the
  // branches in the other order cannot merge two statements into one row.
  ASSERT_TRUE(server_
                  .ExecuteScript(
                      "CREATE TABLE a (k INT PRIMARY KEY, v INT); "
                      "CREATE TABLE b (k INT PRIMARY KEY, w INT); "
                      "INSERT INTO a VALUES (1, 10); "
                      "INSERT INTO b VALUES (1, 20); "
                      "CREATE PROCEDURE p(@x INT) AS BEGIN "
                      "IF @x = 1 BEGIN SELECT v FROM a END "
                      "ELSE BEGIN SELECT w FROM b END "
                      "END")
                  .ok());
  auto call = [this](int x, int64_t expected) {
    auto r = server_.CallProcedure("p", {Value::Int(x)}, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsInt(), expected);
  };
  call(2, 20);  // ELSE first
  call(1, 10);
  server_.RecomputeStats();
  call(1, 10);  // THEN first
  call(2, 20);
  auto r = server_.Execute(
      "SELECT statement, executions, sample_text FROM sys.dm_exec_query_stats");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::map<std::string, std::pair<int64_t, std::string>> procedure_rows;
  for (size_t i = 0; i < r->rows.size(); ++i) {
    const std::string statement = StringCol(*r, "statement", i);
    if (statement.rfind("p stmt#", 0) != 0) continue;
    procedure_rows[statement] = {IntCol(*r, "executions", i),
                                 StringCol(*r, "sample_text", i)};
  }
  ASSERT_EQ(procedure_rows.size(), 2u);
  EXPECT_EQ(procedure_rows["p stmt#1"].first, 2);
  EXPECT_EQ(procedure_rows["p stmt#1"].second, "SELECT v FROM a");
  EXPECT_EQ(procedure_rows["p stmt#2"].first, 2);
  EXPECT_EQ(procedure_rows["p stmt#2"].second, "SELECT w FROM b");
}

TEST_F(DmvTest, RecordsOutliveTheirInvalidatedPlans) {
  // Ring entries and profiles share their plan's info by reference. After
  // the plan cache drops every plan, each retained row must still render
  // its label, plan and hash; under ASan a dangling info fails here.
  const std::string kSelect = "SELECT x FROM t WHERE id = 3";
  const std::string kUpdate = "UPDATE t SET x = 7.5 WHERE id = 4";
  ASSERT_TRUE(server_.Execute(kSelect).ok());
  ASSERT_TRUE(server_.Execute(kUpdate).ok());
  auto explained =
      server_.Execute("EXPLAIN ANALYZE SELECT x FROM t WHERE id = 4");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  server_.InvalidatePlanCache();

  auto requests =
      server_.Execute("SELECT statement, routing, plan FROM sys.dm_exec_requests");
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->rows.size(), 2u);
  EXPECT_EQ(StringCol(*requests, "statement", 0), kSelect);
  EXPECT_EQ(StringCol(*requests, "statement", 1), kUpdate);
  for (size_t i = 0; i < requests->rows.size(); ++i) {
    EXPECT_EQ(StringCol(*requests, "routing", i), "local");
    EXPECT_FALSE(StringCol(*requests, "plan", i).empty());
  }

  // EXPLAIN ANALYZE builds its info like a planned statement: its profile
  // carries the statement's text and query hash.
  auto profiles = server_.Execute(
      "SELECT statement, query_hash, operator FROM sys.dm_exec_query_profiles "
      "WHERE parent_id = -1");
  ASSERT_TRUE(profiles.ok()) << profiles.status().ToString();
  ASSERT_EQ(profiles->rows.size(), 1u);
  EXPECT_EQ(StringCol(*profiles, "statement"),
            "SELECT x FROM t WHERE (id = 4)");
  EXPECT_EQ(StringCol(*profiles, "query_hash"),
            FingerprintHex(FingerprintHash(
                NormalizeStatement("SELECT x FROM t WHERE (id = 4)"))));
  EXPECT_FALSE(StringCol(*profiles, "operator").empty());
}

TEST_F(DmvTest, TraceRecordsLocalRoutingAndMeasuredCost) {
  ASSERT_TRUE(server_.Execute("SELECT COUNT(*) FROM t").ok());
  const QueryTrace& t = server_.metrics().trace().back();
  EXPECT_EQ(t.info->routing, "local");
  EXPECT_GT(t.stats.local_cost, 0);
  EXPECT_DOUBLE_EQ(t.stats.remote_cost, 0);
  EXPECT_EQ(t.rows_returned, 1);
  EXPECT_NE(t.info->plan_text.find("SeqScan"), std::string::npos)
      << t.info->plan_text;
}

TEST_F(DmvTest, DmvsAreReadOnlyAndUnknownNamesRejected) {
  EXPECT_FALSE(server_.Execute("SELECT * FROM sys.dm_no_such_view").ok());
  EXPECT_FALSE(
      server_.Execute("INSERT INTO sys.dm_plan_cache VALUES (1)").ok());
}

// ---------------------------------------------------------------------------
// MTCache deployment: optimizer decisions, ChoosePlan branches, currency
// checks, view currency, and replication metrics.
// ---------------------------------------------------------------------------

class DmvMtcacheTest : public ::testing::Test {
 protected:
  DmvMtcacheTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache1", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE customer (cid INT PRIMARY KEY, "
                        "cname VARCHAR(30), cbalance FLOAT)")
                    .ok());
    for (int i = 1; i <= 300; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO customer VALUES (" +
                                     std::to_string(i) + ", 'name" +
                                     std::to_string(i) + "', 0.0)")
                      .ok());
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("cust200",
                                       "SELECT cid, cname FROM customer "
                                       "WHERE cid <= 200")
                    .ok());
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
};

TEST_F(DmvMtcacheTest, ViewMatchHitsAndMissesCounted) {
  ASSERT_TRUE(
      cache_.Execute("SELECT cid, cname FROM customer WHERE cid = 77").ok());
  EXPECT_EQ(cache_.metrics().optimizer.view_match_hits, 1);
  EXPECT_EQ(cache_.metrics().optimizer.view_match_misses, 0);
  EXPECT_EQ(cache_.metrics().trace().back().info->routing, "local");

  // Outside the view region with a constant predicate: decided statically,
  // a definite miss that ships the query to the backend.
  ASSERT_TRUE(
      cache_.Execute("SELECT cid, cname FROM customer WHERE cid = 250").ok());
  EXPECT_EQ(cache_.metrics().optimizer.view_match_misses, 1);
  EXPECT_EQ(cache_.metrics().optimizer.remote_plans, 1);
  EXPECT_EQ(cache_.metrics().trace().back().info->routing, "remote");
  EXPECT_GT(cache_.metrics().trace().back().stats.remote_cost, 0);
}

TEST_F(DmvMtcacheTest, ChoosePlanBranchCountersFollowTheParameter) {
  const std::string sql =
      "SELECT cid, cname FROM customer WHERE cid <= @cid";
  ParamMap params;
  params["@cid"] = Value::Int(100);
  ASSERT_TRUE(cache_.Execute(sql, params, nullptr).ok());
  EXPECT_GE(cache_.metrics().optimizer.view_match_conditional, 1);
  EXPECT_EQ(cache_.metrics().optimizer.dynamic_plans, 1);
  EXPECT_EQ(cache_.metrics().chooseplan.local_branches, 1);
  EXPECT_EQ(cache_.metrics().chooseplan.remote_branches, 0);
  EXPECT_GE(cache_.metrics().chooseplan.guards_evaluated, 2);
  EXPECT_EQ(cache_.metrics().trace().back().info->routing, "dynamic");

  // Same cached plan, parameter outside the view: the remote arm runs.
  params["@cid"] = Value::Int(250);
  ASSERT_TRUE(cache_.Execute(sql, params, nullptr).ok());
  EXPECT_EQ(cache_.metrics().chooseplan.local_branches, 1);
  EXPECT_EQ(cache_.metrics().chooseplan.remote_branches, 1);
  EXPECT_GT(cache_.plan_cache_stats().hits, 0) << "plan was reused";

  auto r = cache_.Execute(
      "SELECT chooseplan_local, chooseplan_remote, dynamic_plans "
      "FROM sys.dm_plan_cache");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(IntCol(*r, "chooseplan_local"), 1);
  EXPECT_EQ(IntCol(*r, "chooseplan_remote"), 1);
  EXPECT_EQ(IntCol(*r, "dynamic_plans"), 1);
}

TEST_F(DmvMtcacheTest, CurrencyCheckCountersGateOnStaleness) {
  // The snapshot just ran, so the view is current for any positive bound.
  ExecStats fresh_stats;
  ASSERT_TRUE(cache_
                  .Execute(
                      "SELECT cid, cname FROM customer WHERE cid = 50 "
                      "WITH MAXSTALENESS 100",
                      {}, &fresh_stats)
                  .ok());
  EXPECT_GE(cache_.metrics().optimizer.currency_checks_passed, 1);
  EXPECT_EQ(cache_.metrics().optimizer.currency_fallbacks, 0);
  EXPECT_DOUBLE_EQ(fresh_stats.remote_cost, 0);

  // Let the view age past the bound with no replication catching it up.
  clock_.Advance(200);
  ExecStats stale_stats;
  ASSERT_TRUE(cache_
                  .Execute(
                      "SELECT cid, cname FROM customer WHERE cid = 50 "
                      "WITH MAXSTALENESS 100",
                      {}, &stale_stats)
                  .ok());
  EXPECT_GE(cache_.metrics().optimizer.currency_fallbacks, 1);
  EXPECT_GT(stale_stats.remote_cost, 0) << "stale view must be bypassed";
  EXPECT_EQ(cache_.plan_cache_stats().uncacheable, 2);
}

TEST_F(DmvMtcacheTest, MtcacheViewsDmvReportsCurrency) {
  clock_.Advance(5);
  auto r = cache_.Execute("SELECT * FROM sys.dm_mtcache_views");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(StringCol(*r, "name"), "cust200");
  EXPECT_EQ(StringCol(*r, "kind"), "cached");
  EXPECT_EQ(StringCol(*r, "base_table"), "customer");
  EXPECT_GE(IntCol(*r, "subscription_id"), 0);
  EXPECT_DOUBLE_EQ(DoubleCol(*r, "staleness"), 5.0);
  // The backend has no cached views, and its DMVs are independent.
  auto b = backend_.Execute("SELECT COUNT(*) FROM sys.dm_mtcache_views");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->rows[0][0].AsInt(), 0);
}

TEST_F(DmvMtcacheTest, ReplMetricsDmvAfterFaultedRun) {
  FaultPlan plan;
  plan.AddRule(FaultSite::kApplyChange, FaultAction::kCrash, 1);
  repl_.set_fault_plan(&plan);
  ASSERT_TRUE(
      backend_
          .ExecuteScript(
              "UPDATE customer SET cname = 'renamed' WHERE cid <= 5")
          .ok());
  clock_.Advance(0.25);
  for (int round = 0; round < 4; ++round) {
    Status s = repl_.RunOnce(nullptr, nullptr);
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kUnavailable)
        << s.ToString();
    clock_.Advance(repl_.backoff_max());
  }
  ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
  ConsistencyReport report =
      ConsistencyChecker(&repl_, &backend_, &cache_).Check();
  ASSERT_TRUE(report.ok()) << report.ToString();

  auto r = cache_.Execute("SELECT * FROM sys.dm_repl_metrics");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(IntCol(*r, "crashes_injected"), 1);
  EXPECT_GE(IntCol(*r, "txns_retried"), 1);
  EXPECT_GE(IntCol(*r, "changes_applied"), 5);
  EXPECT_GE(IntCol(*r, "txns_applied"), 1);
  EXPECT_GE(IntCol(*r, "records_scanned"), 5);
  EXPECT_GT(DoubleCol(*r, "latency_avg"), 0);
  // Without an installed provider (standalone backend) the row is all-zero.
  auto b = backend_.Execute("SELECT txns_applied FROM sys.dm_repl_metrics");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(IntCol(*b, "txns_applied"), 0);
}

TEST_F(DmvMtcacheTest, ForwardedWriteIsRecordedByTheBackend) {
  // A cache forwards every write to the backend (paper section 5.2), so the
  // write is a statement the backend plans, runs and records; the cache,
  // which ran no plan for it, records none.
  auto r = cache_.Execute("UPDATE customer SET cbalance = 5.0 WHERE cid = 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_affected, 1);
  const std::string forwarded =
      "UPDATE customer SET cbalance = 5.0 WHERE (cid = 7)";
  auto b = backend_.Execute(
      "SELECT executions, rows_returned, sample_text "
      "FROM sys.dm_exec_query_stats WHERE statement = '" +
      NormalizeStatement(forwarded) + "'");
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(b->rows.size(), 1u);
  EXPECT_EQ(IntCol(*b, "executions"), 1);
  EXPECT_EQ(IntCol(*b, "rows_returned"), 1);
  EXPECT_EQ(StringCol(*b, "sample_text"), forwarded);
  auto c = cache_.Execute(
      "SELECT COUNT(*) FROM sys.dm_exec_query_stats "
      "WHERE sample_text = '" + forwarded + "'");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->rows[0][0].AsInt(), 0);
}

TEST_F(DmvMtcacheTest, DmvQueriesAreLocalOnlyDespiteBackendLink) {
  // A DMV scan on the cache server must never ship to the backend, even
  // though every shadow table around it does.
  ExecStats stats;
  auto r = cache_.Execute("SELECT * FROM sys.dm_plan_cache", {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(stats.remote_cost, 0);
  EXPECT_EQ(cache_.metrics().trace().back().info->routing, "local");
}

// ---------------------------------------------------------------------------
// Golden schemas: the sys.dm_* column names and types are a public surface
// (bench JSON artifacts and EXPERIMENTS.md recipes key on them). Renaming or
// retyping a column must be a deliberate act that updates this test.
// ---------------------------------------------------------------------------

using GoldenColumn = std::pair<std::string, TypeId>;

void ExpectSchema(Server* server, const std::string& dmv,
                  const std::vector<GoldenColumn>& golden) {
  auto r = server->Execute("SELECT * FROM sys." + dmv);
  ASSERT_TRUE(r.ok()) << dmv << ": " << r.status().ToString();
  ASSERT_EQ(static_cast<size_t>(r->schema.num_columns()), golden.size())
      << dmv;
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(r->schema.column(static_cast<int>(i)).name, golden[i].first)
        << dmv << " column " << i;
    EXPECT_EQ(r->schema.column(static_cast<int>(i)).type, golden[i].second)
        << dmv << " column " << golden[i].first;
  }
}

TEST_F(DmvTest, GoldenSchemas) {
  const TypeId I = TypeId::kInt64, D = TypeId::kDouble, S = TypeId::kString;
  ExpectSchema(&server_, "dm_plan_cache",
               {{"hits", I},
                {"misses", I},
                {"uncacheable", I},
                {"invalidations", I},
                {"evictions", I},
                {"hit_rate", D},
                {"cached_statements", I},
                {"cached_procedure_plans", I},
                {"view_match_hits", I},
                {"view_match_misses", I},
                {"view_match_conditional", I},
                {"dynamic_plans", I},
                {"remote_plans", I},
                {"chooseplan_guards", I},
                {"chooseplan_local", I},
                {"chooseplan_remote", I},
                {"currency_checks_passed", I},
                {"currency_fallbacks", I}});
  ExpectSchema(&server_, "dm_exec_query_stats",
               {{"query_hash", S},
                {"statement", S},
                {"sample_text", S},
                {"executions", I},
                {"rows_returned", I},
                {"local_cost", D},
                {"remote_cost", D},
                {"rows_transferred", I},
                {"bytes_transferred", D},
                {"remote_queries", I},
                {"latency_avg", D},
                {"latency_max", D},
                {"latency_p50", D},
                {"latency_p95", D},
                {"latency_p99", D}});
  ExpectSchema(&server_, "dm_exec_requests",
               {{"query_id", I},
                {"statement", S},
                {"routing", S},
                {"est_cost", D},
                {"measured_cost", D},
                {"local_cost", D},
                {"remote_cost", D},
                {"rows_returned", I},
                {"rows_transferred", I},
                {"remote_queries", I},
                {"elapsed_seconds", D},
                {"entries_dropped", I},
                {"plan", S}});
  ExpectSchema(&server_, "dm_exec_query_profiles",
               {{"query_id", I},
                {"query_hash", S},
                {"statement", S},
                {"op_id", I},
                {"parent_id", I},
                {"operator", S},
                {"est_rows", D},
                {"actual_rows", I},
                {"opens", I},
                {"next_calls", I},
                {"open_seconds", D},
                {"next_seconds", D},
                {"close_seconds", D},
                {"mem_peak_bytes", I},
                {"est_cost", D},
                {"charged_units", D}});
  ExpectSchema(&server_, "dm_mtcache_views",
               {{"name", S},
                {"kind", S},
                {"base_table", S},
                {"subscription_id", I},
                {"freshness_time", D},
                {"staleness", D},
                {"row_count", D}});
  ExpectSchema(&server_, "dm_repl_metrics",
               {{"records_scanned", I},
                {"changes_enqueued", I},
                {"changes_applied", I},
                {"txns_applied", I},
                {"txns_retried", I},
                {"crashes_injected", I},
                {"deliveries_dropped", I},
                {"latency_avg", D},
                {"latency_max", D},
                {"latency_count", I},
                {"latency_p50", D},
                {"latency_p95", D},
                {"latency_p99", D},
                {"batches_distributed", I},
                {"avg_batch_size", D}});
  ExpectSchema(&server_, "dm_repl_lag_histogram",
               {{"bucket_lo", D}, {"bucket_hi", D}, {"count", I},
                {"cumulative", I}});
  ExpectSchema(&server_, "dm_os_wait_stats",
               {{"wait_type", S},
                {"acquisitions", I},
                {"contentions", I},
                {"wait_seconds", D},
                {"max_wait_seconds", D}});
  ExpectSchema(&server_, "dm_db_column_histograms",
               {{"table_name", S},
                {"column_name", S},
                {"ordinal", I},
                {"bucket", I},
                {"lower_bound", D},
                {"upper_bound", D},
                {"rows_fraction", D},
                {"est_rows", D}});
  ExpectSchema(&server_, "dm_db_index_stats",
               {{"table_name", S},
                {"index_name", S},
                {"entries", I},
                {"height", I},
                {"leaf_nodes", I},
                {"inner_nodes", I},
                {"bytes", I}});
  ExpectSchema(&server_, "dm_workload_snapshots",
               {{"slice_id", I},
                {"captured_at", D},
                {"interval_seconds", D},
                {"statements", I},
                {"plan_cache_hits", I},
                {"plan_cache_misses", I},
                {"view_match_hits", I},
                {"remote_queries", I},
                {"rows_transferred", I},
                {"bytes_transferred", D},
                {"repl_changes_applied", I},
                {"repl_lag_p99", D},
                {"wait_seconds", D},
                {"wait_contentions", I},
                {"offload_matches", I},
                {"offload_roundtrips_avoided", I},
                {"offload_est_saved_units", D},
                {"offload_est_saved_seconds", D},
                {"slices_dropped", I}});
  ExpectSchema(&server_, "dm_workload_query_deltas",
               {{"slice_id", I},
                {"query_hash", S},
                {"statement", S},
                {"sample_text", S},
                {"executions", I},
                {"rows_returned", I},
                {"local_cost", D},
                {"remote_cost", D},
                {"remote_queries", I},
                {"elapsed_seconds", D}});
  ExpectSchema(&server_, "dm_mtcache_view_offload",
               {{"view_name", S},
                {"matches", I},
                {"roundtrips_avoided", I},
                {"est_saved_units", D},
                {"est_saved_seconds", D}});
}

TEST_F(DmvTest, ColumnHistogramsExposeStatsBuckets) {
  // 20 rows is below the per-bucket sample floor, so t carries no histogram
  // yet and the DMV is empty (not an error).
  ASSERT_TRUE(server_.ExecuteScript("CREATE TABLE wide (k INT PRIMARY KEY, "
                                    "v INT)")
                  .ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(server_
                    .ExecuteScript("INSERT INTO wide VALUES (" +
                                   std::to_string(i) + ", " +
                                   std::to_string(i % 10) + ")")
                    .ok());
  }
  server_.RecomputeStats();
  auto r = server_.Execute(
      "SELECT * FROM sys.dm_db_column_histograms "
      "WHERE table_name = 'wide' AND column_name = 'k'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 32u) << "one row per equi-depth bucket";
  // Buckets cover [min, max] contiguously with equal fractions.
  EXPECT_DOUBLE_EQ(DoubleCol(*r, "lower_bound", 0), 0.0);
  EXPECT_DOUBLE_EQ(DoubleCol(*r, "upper_bound", r->rows.size() - 1), 199.0);
  double prev_hi = 0;
  for (size_t b = 0; b < r->rows.size(); ++b) {
    EXPECT_EQ(IntCol(*r, "bucket", b), static_cast<int64_t>(b));
    if (b > 0) EXPECT_DOUBLE_EQ(DoubleCol(*r, "lower_bound", b), prev_hi);
    prev_hi = DoubleCol(*r, "upper_bound", b);
    EXPECT_DOUBLE_EQ(DoubleCol(*r, "rows_fraction", b), 1.0 / 32);
    EXPECT_DOUBLE_EQ(DoubleCol(*r, "est_rows", b), 200.0 / 32);
  }
}

TEST_F(DmvTest, IndexStatsReportEveryStoredIndex) {
  ASSERT_TRUE(server_.ExecuteScript("CREATE INDEX t_x ON t (x)").ok());
  auto read = [this]() {
    auto r = server_.Execute(
        "SELECT * FROM sys.dm_db_index_stats WHERE table_name = 't'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  };
  QueryResult r = read();
  ASSERT_EQ(r.rows.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(IntCol(r, "entries", i), 20);
    EXPECT_EQ(IntCol(r, "height", i), 1);
    EXPECT_EQ(IntCol(r, "leaf_nodes", i), 1);
    EXPECT_EQ(IntCol(r, "inner_nodes", i), 0);
    // One 16-byte cell and one 8-byte rowid per entry at least.
    EXPECT_GE(IntCol(r, "bytes", i), 20 * 24);
  }
  for (int i = 21; i <= 200; ++i) {
    ASSERT_TRUE(server_
                    .ExecuteScript("INSERT INTO t VALUES (" +
                                   std::to_string(i) + ", 1.5)")
                    .ok());
  }
  ASSERT_TRUE(server_.ExecuteScript("DELETE FROM t WHERE id > 190").ok());
  r = read();
  ASSERT_EQ(r.rows.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(IntCol(r, "entries", i), 190);
    EXPECT_EQ(IntCol(r, "height", i), 2);
    EXPECT_GE(IntCol(r, "leaf_nodes", i), 3);
    EXPECT_EQ(IntCol(r, "inner_nodes", i), 1);
  }
  // Stored tables only: the DMVs themselves have no indexes.
  auto all = server_.Execute("SELECT COUNT(*) FROM sys.dm_db_index_stats");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows[0][0].AsInt(), 2);
}

TEST_F(DmvTest, IndexStatsReadableWhileRowsAreInserted) {
  std::atomic<bool> failed{false};
  std::thread writer([this, &failed] {
    for (int i = 21; i <= 400 && !failed.load(); ++i) {
      if (!server_
               .ExecuteScript("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", 2.5)")
               .ok()) {
        failed.store(true);
      }
    }
  });
  int64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    auto r = server_.Execute(
        "SELECT entries FROM sys.dm_db_index_stats WHERE index_name = 't_pk'");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    int64_t entries = r->rows[0][0].AsInt();
    EXPECT_GE(entries, last);
    EXPECT_LE(entries, 400);
    last = entries;
  }
  writer.join();
  EXPECT_FALSE(failed.load());
}

TEST_F(DmvTest, EntriesDroppedSurfacesRingEviction) {
  EXPECT_EQ(server_.metrics().entries_dropped(), 0);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(
        server_.Execute("SELECT id FROM t WHERE id = " + std::to_string(i))
            .ok());
  }
  // Shrinking the ring evicts and counts the overflow immediately.
  server_.metrics().set_trace_capacity(2);
  int64_t after_shrink = server_.metrics().entries_dropped();
  EXPECT_GE(after_shrink, 4);
  // Normal capacity-overflow eviction counts too.
  ASSERT_TRUE(server_.Execute("SELECT COUNT(*) FROM t").ok());
  ASSERT_TRUE(server_.Execute("SELECT MAX(id) FROM t").ok());
  EXPECT_GE(server_.metrics().entries_dropped(), after_shrink + 1);
  // The counter rides along on every dm_exec_requests row, snapshotted at
  // scan-open (before this DMV query's own trace entry evicts anything).
  int64_t at_scan = server_.metrics().entries_dropped();
  auto r = server_.Execute(
      "SELECT MAX(entries_dropped) FROM sys.dm_exec_requests");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), at_scan);
}

TEST_F(DmvTest, ProfileRingKeepsLastNTrees) {
  server_.metrics().set_profiling_enabled(true);
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(
        server_.Execute("SELECT id FROM t WHERE id = " + std::to_string(i))
            .ok());
  }
  server_.metrics().set_profiling_enabled(false);
  auto profiles = server_.metrics().SnapshotProfiles();
  ASSERT_EQ(profiles.size(), 16u);  // ring capacity: last 16 kept
  EXPECT_EQ(profiles.back().info->label, "SELECT id FROM t WHERE id = 20");
  EXPECT_EQ(profiles.front().info->label, "SELECT id FROM t WHERE id = 5");
  // Profile ids come from the same sequence as the trace ring, so a profile
  // joins back to its dm_exec_requests row.
  EXPECT_GT(profiles.back().query_id, profiles.front().query_id);
  for (const auto& rec : profiles) {
    EXPECT_EQ(rec.root.actual_rows, 1) << rec.info->label;
    EXPECT_GT(rec.root.opens, 0) << rec.info->label;
  }
  // The DMV flattening: every profiled tree contributes a root row op_id=0
  // with parent_id=-1 joined to its query_id.
  auto r = server_.Execute(
      "SELECT COUNT(*) FROM sys.dm_exec_query_profiles WHERE parent_id = -1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 16);
}

TEST_F(DmvMtcacheTest, ReplLagHistogramRowsMatchLatencyCount) {
  ASSERT_TRUE(
      backend_
          .ExecuteScript("UPDATE customer SET cname = 'lagged' WHERE cid <= 8")
          .ok());
  clock_.Advance(0.5);
  ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
  auto metrics = cache_.Execute(
      "SELECT latency_count FROM sys.dm_repl_metrics");
  ASSERT_TRUE(metrics.ok());
  int64_t latency_count = IntCol(*metrics, "latency_count");
  ASSERT_GT(latency_count, 0);

  auto r = cache_.Execute("SELECT * FROM sys.dm_repl_lag_histogram");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->rows.empty());
  // Buckets are emitted in ascending order, cumulative sums the counts, and
  // the final cumulative equals the total number of recorded lags.
  int64_t running = 0;
  double prev_lo = -1;
  for (size_t i = 0; i < r->rows.size(); ++i) {
    double lo = DoubleCol(*r, "bucket_lo", i);
    EXPECT_GT(lo, prev_lo);
    prev_lo = lo;
    running += IntCol(*r, "count", i);
    EXPECT_EQ(IntCol(*r, "cumulative", i), running);
  }
  EXPECT_EQ(running, latency_count);
  // p50/p95/p99 in dm_repl_metrics come from the same histogram.
  auto p = cache_.Execute(
      "SELECT latency_p50, latency_p99 FROM sys.dm_repl_metrics");
  ASSERT_TRUE(p.ok());
  EXPECT_GT(DoubleCol(*p, "latency_p50"), 0);
  EXPECT_GE(DoubleCol(*p, "latency_p99"), DoubleCol(*p, "latency_p50"));
}

TEST_F(DmvTest, QueryStatsConsistentUnderConcurrentExecution) {
  // Hammer one statement (returning exactly 5 rows per execution) from
  // several threads while another thread repeatedly snapshots
  // dm_exec_query_stats. Every snapshot of the rollup row must be
  // internally consistent — rows_returned exactly 5 * executions — which
  // fails if the DMV reads the registry without a lock and sees a torn
  // half-updated rollup.
  const std::string kStmt = "SELECT id FROM t WHERE id <= 5";
  // Rollups key on the fingerprint, so the snapshot filters on the
  // normalized text (the literal folds to '?').
  const std::string kFingerprint = "select id from t where id <= ?";
  ASSERT_TRUE(server_.Execute(kStmt).ok());  // seed the rollup row

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([this, &kStmt, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (!server_.Execute(kStmt).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  std::string bad_snapshot;
  for (int i = 0; i < 100; ++i) {
    auto r = server_.Execute(
        "SELECT * FROM sys.dm_exec_query_stats WHERE statement = '" +
        kFingerprint + "'");
    if (!r.ok()) {
      bad_snapshot = r.status().ToString();
      ++failures;
      break;
    }
    if (r->rows.size() != 1) continue;  // rollup key mismatch is a test bug
    int64_t executions = IntCol(*r, "executions");
    int64_t rows_returned = IntCol(*r, "rows_returned");
    if (rows_returned != executions * 5) {
      bad_snapshot = "executions=" + std::to_string(executions) +
                     " rows_returned=" + std::to_string(rows_returned);
      ++failures;
      break;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0) << bad_snapshot;
}

}  // namespace
}  // namespace mtcache
