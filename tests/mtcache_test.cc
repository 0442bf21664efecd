#include <gtest/gtest.h>

#include "mtcache/mtcache.h"

namespace mtcache {
namespace {

/// End-to-end MTCache fixture: one backend with the paper's running example
/// (Customer / Orders), one cache server configured per §4.
class MTCacheTest : public ::testing::Test {
 protected:
  MTCacheTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache1", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE customer (cid INT PRIMARY KEY, "
                        "cname VARCHAR(30), caddress VARCHAR(60), "
                        "cbalance FLOAT); "
                        "CREATE TABLE orders (okey INT PRIMARY KEY, "
                        "ckey INT, odate INT, total FLOAT); "
                        "CREATE INDEX orders_ckey ON orders (ckey);")
                    .ok());
    for (int i = 1; i <= 2000; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO customer VALUES (" +
                                     std::to_string(i) + ", 'name" +
                                     std::to_string(i) + "', 'addr" +
                                     std::to_string(i) + "', 0.0)")
                      .ok());
    }
    for (int i = 1; i <= 1000; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO orders VALUES (" +
                                     std::to_string(i) + ", " +
                                     std::to_string(i % 2000 + 1) + ", " +
                                     std::to_string(10000 + i) + ", " +
                                     std::to_string(i * 1.0) + ")")
                      .ok());
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
};

TEST_F(MTCacheTest, ShadowCatalogMirrorsBackend) {
  const TableDef* shadow = cache_.db().catalog().GetTable("customer");
  ASSERT_NE(shadow, nullptr);
  EXPECT_TRUE(shadow->shadow);
  EXPECT_EQ(shadow->schema.num_columns(), 4);
  // Shadowed statistics reflect backend data even though no rows are local.
  EXPECT_DOUBLE_EQ(shadow->stats.row_count, 2000);
  EXPECT_EQ(cache_.db().GetStoredTable("customer"), nullptr);
}

TEST_F(MTCacheTest, QueryOnShadowTableExecutesRemotely) {
  auto plan = cache_.Explain("SELECT cname FROM customer WHERE cid = 42");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->uses_remote);
  auto r = cache_.Execute("SELECT cname FROM customer WHERE cid = 42");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "name42");
}

TEST_F(MTCacheTest, RemoteWorkChargedToBackend) {
  ExecStats stats;
  auto r = cache_.Execute("SELECT COUNT(*) FROM customer", {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 2000);
  EXPECT_GT(stats.remote_cost, 0) << "backend did the scan";
  EXPECT_GT(stats.rows_transferred, 0);
}

TEST_F(MTCacheTest, CachedViewCreationSnapshotsAndSubscribes) {
  Status s = mtcache_->CreateCachedView(
      "cust1000",
      "SELECT cid, cname, caddress FROM customer WHERE cid <= 1000");
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto r = cache_.Execute("SELECT COUNT(*) FROM cust1000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1000);
  const TableDef* view = cache_.db().catalog().GetTable("cust1000");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->kind, RelationKind::kCachedView);
  EXPECT_GE(view->subscription_id, 0);
  // Derived (shadow-based) statistics: about half the customers.
  EXPECT_NEAR(view->stats.row_count, 1000, 120);
}

TEST_F(MTCacheTest, CachedViewViaDdlStatement) {
  Status s = cache_.ExecuteScript(
      "CREATE CACHED MATERIALIZED VIEW cust1000 AS "
      "SELECT cid, cname, caddress FROM customer WHERE cid <= 1000");
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto r = cache_.Execute("SELECT COUNT(*) FROM cust1000");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 1000);
}

TEST_F(MTCacheTest, QueryAnsweredLocallyFromCachedView) {
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  auto plan = cache_.Explain(
      "SELECT cid, cname FROM customer WHERE cid = 77");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = PhysicalToString(*plan->plan);
  EXPECT_NE(text.find("cust1000"), std::string::npos) << text;
  EXPECT_FALSE(plan->uses_remote) << text;
  ExecStats stats;
  auto r = cache_.Execute("SELECT cid, cname FROM customer WHERE cid = 77",
                          {}, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsString(), "name77");
  EXPECT_DOUBLE_EQ(stats.remote_cost, 0) << "fully offloaded";
}

TEST_F(MTCacheTest, QueryOutsideViewRegionGoesRemote) {
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  ExecStats stats;
  auto r = cache_.Execute("SELECT cid, cname FROM customer WHERE cid = 1500",
                          {}, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsString(), "name1500");
  EXPECT_GT(stats.remote_cost, 0);
}

TEST_F(MTCacheTest, DynamicPlanForParameterizedQuery) {
  // The paper's §5.1 example: Cust1000 plus "cid <= @cid".
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  auto plan = cache_.Explain(
      "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->dynamic_plan) << PhysicalToString(*plan->plan);

  // In-range parameter: answered locally.
  ExecStats local_stats;
  ParamMap params;
  params["@cid"] = Value::Int(500);
  auto r1 = cache_.Execute(
      "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid", params,
      &local_stats);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->rows.size(), 500u);
  EXPECT_DOUBLE_EQ(local_stats.remote_cost, 0);

  // Out-of-range parameter: same (cached!) plan runs the remote branch.
  ExecStats remote_stats;
  params["@cid"] = Value::Int(1500);
  auto r2 = cache_.Execute(
      "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid", params,
      &remote_stats);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->rows.size(), 1500u);
  EXPECT_GT(remote_stats.remote_cost, 0);
  // Second round used the plan cache, no reoptimization.
  EXPECT_GT(cache_.plan_cache_stats().hits, 0);
}

TEST_F(MTCacheTest, DynamicPlanDisabledFallsBackToRemote) {
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  OptimizerOptions opts = cache_.optimizer_options();
  opts.enable_dynamic_plans = false;
  cache_.set_optimizer_options(opts);
  auto plan = cache_.Explain(
      "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->dynamic_plan);
}

TEST_F(MTCacheTest, UpdatesForwardedToBackendAndReplicatedBack) {
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  // The application updates through the cache server, transparently.
  ExecStats stats;
  auto upd = cache_.Execute(
      "UPDATE customer SET cname = 'renamed' WHERE cid = 10", {}, &stats);
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->rows_affected, 1);
  EXPECT_GT(stats.remote_cost, 0) << "update ran on the backend";
  // Backend changed immediately; cached view is stale until replication runs.
  auto backend_row =
      backend_.Execute("SELECT cname FROM customer WHERE cid = 10");
  ASSERT_TRUE(backend_row.ok());
  EXPECT_EQ(backend_row->rows[0][0].AsString(), "renamed");
  auto stale = cache_.Execute("SELECT cname FROM cust1000 WHERE cid = 10");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows[0][0].AsString(), "name10");
  // Propagate.
  clock_.Advance(0.5);
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto fresh = cache_.Execute("SELECT cname FROM cust1000 WHERE cid = 10");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows[0][0].AsString(), "renamed");
  EXPECT_NEAR(repl_.metrics().AvgLatency(), 0.5, 1e-9);
}

TEST_F(MTCacheTest, InsertAndDeleteForwardedToBackend) {
  auto ins = cache_.Execute(
      "INSERT INTO customer VALUES (5000, 'new', 'addr', 0.0)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  auto r = backend_.Execute("SELECT COUNT(*) FROM customer");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 2001);
  auto del = cache_.Execute("DELETE FROM customer WHERE cid = 5000");
  ASSERT_TRUE(del.ok());
  r = backend_.Execute("SELECT COUNT(*) FROM customer");
  EXPECT_EQ((*r).rows[0][0].AsInt(), 2000);
}

TEST_F(MTCacheTest, InsertSelectIntoShadowTableShipsItsQuery) {
  // Ad-hoc text: the cache forwards the whole statement, source query
  // included (with a join, an alias, ORDER BY and a parameter), and the
  // backend reads the source rows itself.
  ParamMap params;
  params["@n"] = Value::Int(3);
  auto ins = cache_.Execute(
      "INSERT INTO orders (okey, ckey, odate, total) "
      "SELECT c.cid + 5000, c.cid, o.odate, o.total * 2 FROM customer c "
      "JOIN orders o ON o.okey = c.cid WHERE c.cid <= @n ORDER BY c.cid DESC",
      params, nullptr);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->rows_affected, 3);
  auto r = backend_.Execute(
      "SELECT okey, ckey, odate, total FROM orders WHERE okey > 5000 "
      "ORDER BY okey");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r->rows[i][0].AsInt(), 5001 + i);
    EXPECT_EQ(r->rows[i][1].AsInt(), 1 + i);
    EXPECT_EQ(r->rows[i][2].AsInt(), 10001 + i);
    EXPECT_DOUBLE_EQ(r->rows[i][3].AsDouble(), 2.0 * (1 + i));
  }

  // A statement of a procedure copied to the cache forwards the same way,
  // with the procedure's parameter bound at the backend.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "CREATE PROCEDURE copy_orders(@lo INT) AS BEGIN "
                      "INSERT INTO orders SELECT okey + 6000, ckey, odate, "
                      "total FROM orders WHERE okey >= @lo AND okey < @lo + 2 "
                      "END")
                  .ok());
  ASSERT_TRUE(mtcache_->CopyProcedure("copy_orders").ok());
  auto call = cache_.CallProcedure("copy_orders", {Value::Int(10)}, nullptr);
  ASSERT_TRUE(call.ok()) << call.status().ToString();
  r = backend_.Execute(
      "SELECT okey, ckey FROM orders WHERE okey > 6000 ORDER BY okey");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 6010);
  EXPECT_EQ(r->rows[0][1].AsInt(), 11);
  EXPECT_EQ(r->rows[1][0].AsInt(), 6011);
}

TEST_F(MTCacheTest, ProcedureForwardedWhenNotCopied) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "CREATE PROCEDURE get_customer(@id INT) AS BEGIN "
                      "SELECT cid, cname FROM customer WHERE cid = @id "
                      "END")
                  .ok());
  // Not copied: call through the cache is transparently forwarded (§5.2).
  ExecStats stats;
  auto r = cache_.CallProcedure("get_customer", {Value::Int(7)}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsString(), "name7");
  EXPECT_GT(stats.remote_cost, 0);
}

TEST_F(MTCacheTest, CopiedProcedureRunsLocallyAgainstCachedView) {
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "CREATE PROCEDURE get_customer(@id INT) AS BEGIN "
                      "SELECT cid, cname FROM customer WHERE cid = @id "
                      "END")
                  .ok());
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  ASSERT_TRUE(mtcache_->CopyProcedure("get_customer").ok());
  ExecStats stats;
  auto r = cache_.CallProcedure("get_customer", {Value::Int(7)}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsString(), "name7");
  EXPECT_DOUBLE_EQ(stats.remote_cost, 0) << "served from the cached view";
}

TEST_F(MTCacheTest, JoinSplitsBetweenLocalViewAndRemoteTable) {
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  // Join of a (locally cached) customer subset with remote orders.
  ExecStats stats;
  auto r = cache_.Execute(
      "SELECT c.cname, o.total FROM customer c JOIN orders o "
      "ON c.cid = o.ckey WHERE c.cid <= 100 AND o.total > 990",
      {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Validate against the backend executing the same query.
  auto expected = backend_.Execute(
      "SELECT c.cname, o.total FROM customer c JOIN orders o "
      "ON c.cid = o.ckey WHERE c.cid <= 100 AND o.total > 990");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(r->rows.size(), expected->rows.size());
}

TEST_F(MTCacheTest, DropCachedViewRestoresRemoteRouting) {
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  ASSERT_TRUE(mtcache_->DropCachedView("cust1000").ok());
  auto plan = cache_.Explain("SELECT cname FROM customer WHERE cid = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->uses_remote);
  // And the subscription is gone: backend writes no longer accumulate.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET cname = 'x' WHERE cid = 5")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  EXPECT_EQ(repl_.PendingChanges(), 0);
}

TEST_F(MTCacheTest, CostBasedRoutingPrefersBackendIndex) {
  // Cached view WITHOUT a useful index vs backend WITH one: the optimizer
  // should pick the backend when the predicate is on the indexed column
  // (§1: "if there is an index on the backend that greatly reduces the cost
  // of the query, it will be executed on the backend database").
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView(
                      "orders_all",
                      "SELECT okey, ckey, odate, total FROM orders")
                  .ok());
  // The local copy only has the pk index (okey); backend also has orders_ckey.
  // Equality on ckey: local = full scan of 1000 rows, remote = index seek.
  auto plan = cache_.Explain("SELECT total FROM orders WHERE ckey = 123");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Drop the index information from the local view... it never had it, so
  // cost-based routing should ship this query.
  EXPECT_TRUE(plan->uses_remote) << PhysicalToString(*plan->plan);

  // DBCache-style heuristic routing always uses the cache instead.
  OptimizerOptions opts = cache_.optimizer_options();
  opts.cost_based_routing = false;
  cache_.set_optimizer_options(opts);
  auto heuristic = cache_.Explain("SELECT total FROM orders WHERE ckey = 123");
  ASSERT_TRUE(heuristic.ok());
  EXPECT_FALSE(heuristic->uses_remote)
      << PhysicalToString(*heuristic->plan);
}

TEST_F(MTCacheTest, FreshnessClauseRejectsStaleView) {
  // The §7 extension: "a query might include an optional clause stating
  // that a result up to 30 seconds old is acceptable."
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  const char* kFresh =
      "SELECT cname FROM customer WHERE cid = 5 WITH MAXSTALENESS 30";
  // Freshly snapshotted: the view qualifies.
  auto plan = cache_.Explain(kFresh);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // (Explain goes through the default options; execute instead and check
  // routing by measured work.)
  ExecStats fresh_stats;
  ASSERT_TRUE(cache_.Execute(kFresh, {}, &fresh_stats).ok());
  EXPECT_DOUBLE_EQ(fresh_stats.remote_cost, 0) << "fresh view used";

  // Time passes without any replication round: the view goes stale.
  clock_.Advance(120.0);
  ExecStats stale_stats;
  auto stale = cache_.Execute(kFresh, {}, &stale_stats);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_GT(stale_stats.remote_cost, 0)
      << "stale view must be bypassed in favour of the backend";
  // Without the clause the stale view is still fine (default transparency).
  ExecStats lax_stats;
  ASSERT_TRUE(cache_
                  .Execute("SELECT cname FROM customer WHERE cid = 5", {},
                           &lax_stats)
                  .ok());
  EXPECT_DOUBLE_EQ(lax_stats.remote_cost, 0);

  // A replication round restores freshness.
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  ExecStats refreshed_stats;
  ASSERT_TRUE(cache_.Execute(kFresh, {}, &refreshed_stats).ok());
  EXPECT_DOUBLE_EQ(refreshed_stats.remote_cost, 0) << "fresh again";
}

TEST_F(MTCacheTest, FreshnessClauseParsesAndClones) {
  auto stmt = ParseSql(
      "SELECT cid FROM customer WHERE cid = 1 WITH MAXSTALENESS 30");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto* select = static_cast<SelectStmt*>(stmt->get());
  EXPECT_DOUBLE_EQ(select->max_staleness, 30.0);
  auto copy = CloneSelect(*select);
  EXPECT_DOUBLE_EQ(copy->max_staleness, 30.0);
}

TEST_F(MTCacheTest, CachedViewOverBackendMaterializedView) {
  // §4: cached views may be "selections and projections of tables or
  // materialized views residing on the backend server".
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "CREATE MATERIALIZED VIEW big_orders AS "
                      "SELECT okey, ckey, total FROM orders WHERE total > 500")
                  .ok());
  backend_.RecomputeStats();
  // Fresh cache server so the shadow includes the new matview.
  Server cache2(ServerOptions{"cache2", "dbo", {}}, &clock_, &links_);
  auto setup = MTCache::Setup(&cache2, &backend_, &repl_);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  auto mtcache2 = setup.ConsumeValue();
  ASSERT_TRUE(mtcache2
                  ->CreateCachedView(
                      "big_orders_cache",
                      "SELECT okey, ckey, total FROM big_orders "
                      "WHERE total > 900")
                  .ok());
  // Served locally on the cache.
  ExecStats stats;
  auto r = cache2.Execute(
      "SELECT COUNT(*) FROM big_orders WHERE total > 950", {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 50);
  EXPECT_DOUBLE_EQ(stats.remote_cost, 0);
  // Changes flow base table -> backend matview (sync) -> cached view (repl).
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "INSERT INTO orders VALUES (9001, 1, 20000, 999.0)")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  r = cache2.Execute("SELECT COUNT(*) FROM big_orders_cache WHERE total > 950");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 51);
}

TEST_F(MTCacheTest, OverlappingViewsChosenCostBased) {
  // Two views cover cid = 50: a narrow one and a wide one. The narrower
  // (cheaper) view should win the cost comparison.
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust_wide",
                                     "SELECT cid, cname, caddress, cbalance "
                                     "FROM customer WHERE cid <= 1500")
                  .ok());
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust_narrow",
                                     "SELECT cid, cname FROM customer "
                                     "WHERE cid <= 100")
                  .ok());
  auto plan = cache_.Explain("SELECT cname FROM customer WHERE cid = 50");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = PhysicalToString(*plan->plan);
  EXPECT_NE(text.find("cust_narrow"), std::string::npos) << text;
  // A query needing caddress can only use the wide view.
  auto wide = cache_.Explain("SELECT caddress FROM customer WHERE cid = 50");
  ASSERT_TRUE(wide.ok());
  EXPECT_NE(PhysicalToString(*wide->plan).find("cust_wide"),
            std::string::npos);
}

TEST_F(MTCacheTest, NarrowerViewCompensationComposesIntoOneProjection) {
  // A view narrower than its base table is substituted behind a column
  // remap (caddress: base column 2, view column 1) that null-pads the
  // missing columns. The select list composes with it into one projection
  // of the consumed column, pushed into the seek.
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust_addr",
                                     "SELECT cid, caddress FROM customer "
                                     "WHERE cid <= 100")
                  .ok());
  const std::string sql = "SELECT caddress FROM customer WHERE cid = 50";
  auto plan = cache_.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = PhysicalToString(*plan->plan);
  EXPECT_EQ(PhysicalPlanSize(*plan->plan), 1) << text;
  EXPECT_EQ(PhysicalOpLabel(*plan->plan),
            "IndexSeek(cust_addr.cust_addr_pk) [proj: cust_addr.caddress]")
      << text;
  auto r = cache_.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "addr50");
}

TEST_F(MTCacheTest, DropCachedViewViaDdl) {
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  ASSERT_TRUE(cache_.ExecuteScript("DROP MATERIALIZED VIEW cust1000").ok());
  EXPECT_EQ(cache_.db().catalog().GetTable("cust1000"), nullptr);
  EXPECT_EQ(repl_.PendingChanges(), 0);
  auto plan = cache_.Explain("SELECT cname FROM customer WHERE cid = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->uses_remote);
}

TEST_F(MTCacheTest, RefreshCachedViewRecoversFromDivergence) {
  ASSERT_TRUE(mtcache_
                  ->CreateCachedView("cust1000",
                                     "SELECT cid, cname, caddress FROM "
                                     "customer WHERE cid <= 1000")
                  .ok());
  // Diverge the replica: delete some rows and plant a fake one.
  ASSERT_TRUE(cache_
                  .ExecuteScript(
                      "DELETE FROM cust1000 WHERE cid <= 100; "
                      "INSERT INTO cust1000 VALUES (99999, 'fake', 'fake')")
                  .ok());
  auto broken = cache_.Execute("SELECT COUNT(*) FROM cust1000");
  ASSERT_TRUE(broken.ok());
  EXPECT_EQ(broken->rows[0][0].AsInt(), 901);
  // Resync.
  ASSERT_TRUE(mtcache_->RefreshCachedView("cust1000").ok());
  auto fixed = cache_.Execute("SELECT COUNT(*) FROM cust1000");
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->rows[0][0].AsInt(), 1000);
  // Replication keeps working afterwards.
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "UPDATE customer SET cname = 'post-sync' WHERE cid = 5")
                  .ok());
  ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
  auto row = cache_.Execute("SELECT cname FROM cust1000 WHERE cid = 5");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->rows[0][0].AsString(), "post-sync");
}

TEST_F(MTCacheTest, ExplicitLinkedServerJoinSection21Example) {
  // The paper's §2.1 distributed-query example: a local orderline table
  // joined with PartServer.part through the linked-server registry.
  Server part_server(ServerOptions{"partserver", "dbo", {}}, &clock_, &links_);
  links_.Register("partserver", &part_server);
  ASSERT_TRUE(part_server
                  .ExecuteScript(
                      "CREATE TABLE part (id INT PRIMARY KEY, "
                      "name VARCHAR(20), type VARCHAR(10))")
                  .ok());
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(part_server
                    .ExecuteScript("INSERT INTO part VALUES (" +
                                   std::to_string(i) + ", 'part" +
                                   std::to_string(i) + "', '" +
                                   (i % 4 == 0 ? "tire" : "other") + "')")
                    .ok());
  }
  part_server.RecomputeStats();
  Server local(ServerOptions{"app", "dbo", {}}, &clock_, &links_);
  ASSERT_TRUE(local
                  .ExecuteScript(
                      "CREATE TABLE orderline (id INT PRIMARY KEY, qty INT)")
                  .ok());
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(local
                    .ExecuteScript("INSERT INTO orderline VALUES (" +
                                   std::to_string(i) + ", " +
                                   std::to_string(i * 10) + ")")
                    .ok());
  }
  local.RecomputeStats();
  ExecStats stats;
  auto r = local.Execute(
      "SELECT ol.id, ps.name, ol.qty "
      "FROM orderline ol, partserver.part ps "
      "WHERE ol.id = ps.id AND ol.qty > 500 AND ps.type = 'tire'",
      {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // ids 52..100 with id % 4 == 0: 52,56,...,100 -> 13 rows.
  EXPECT_EQ(r->rows.size(), 13u);
  EXPECT_GT(stats.remote_cost, 0) << "the selection was pushed to the link";
}

TEST_F(MTCacheTest, CartesianProductShipsInputsNotTheResult) {
  // §5's extreme example: for a cross product "it is cheaper to ship the
  // individual tables to the local server and evaluate the join locally
  // than performing the join remotely and shipping the much larger result".
  ASSERT_TRUE(backend_
                  .ExecuteScript(
                      "CREATE TABLE small_a (a INT PRIMARY KEY); "
                      "CREATE TABLE small_b (b INT PRIMARY KEY);")
                  .ok());
  for (int i = 1; i <= 80; ++i) {
    ASSERT_TRUE(backend_
                    .ExecuteScript("INSERT INTO small_a VALUES (" +
                                   std::to_string(i) + "); "
                                   "INSERT INTO small_b VALUES (" +
                                   std::to_string(i) + ")")
                    .ok());
  }
  backend_.RecomputeStats();
  // Fresh cache so the new tables are shadowed.
  Server cache2(ServerOptions{"cache_x", "dbo", {}}, &clock_, &links_);
  auto setup = MTCache::Setup(&cache2, &backend_, &repl_);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  auto mtcache2 = setup.ConsumeValue();
  auto plan = cache2.Explain("SELECT COUNT(*) FROM small_a, small_b");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = PhysicalToString(*plan->plan);
  // Two separate RemoteQuery nodes feeding a LOCAL join: the 6400-row cross
  // product is built on the cache, only 160 input rows cross the wire.
  int remote_nodes = 0;
  for (size_t pos = text.find("RemoteQuery"); pos != std::string::npos;
       pos = text.find("RemoteQuery", pos + 1)) {
    ++remote_nodes;
  }
  EXPECT_EQ(remote_nodes, 2) << text;
  EXPECT_NE(text.find("NLJoin"), std::string::npos) << text;
  auto result = cache2.Execute("SELECT COUNT(*) FROM small_a, small_b");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt(), 6400);
}

TEST_F(MTCacheTest, OneCacheServerTwoBackends) {
  // §3: "a cache server may store data from multiple backend servers".
  // A second backend with its own table, shadowed into the same cache.
  Server backend2(ServerOptions{"backend2", "dbo", {}}, &clock_, &links_);
  ASSERT_TRUE(backend2
                  .ExecuteScript(
                      "CREATE TABLE parts (pid INT PRIMARY KEY, "
                      "pname VARCHAR(30))")
                  .ok());
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(backend2
                    .ExecuteScript("INSERT INTO parts VALUES (" +
                                   std::to_string(i) + ", 'part" +
                                   std::to_string(i) + "')")
                    .ok());
  }
  backend2.RecomputeStats();
  MTCacheOptions opts2;
  opts2.backend_link_name = "backend2";
  auto setup2 = MTCache::Setup(&cache_, &backend2, &repl_, opts2);
  ASSERT_TRUE(setup2.ok()) << setup2.status().ToString();
  auto mtcache2 = setup2.ConsumeValue();

  // Queries route to each table's home backend.
  auto r1 = cache_.Execute("SELECT cname FROM customer WHERE cid = 3");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->rows[0][0].AsString(), "name3");
  auto r2 = cache_.Execute("SELECT pname FROM parts WHERE pid = 3");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->rows[0][0].AsString(), "part3");

  // DML forwards to the right home server.
  ASSERT_TRUE(cache_
                  .Execute("UPDATE parts SET pname = 'renamed' WHERE pid = 9")
                  .ok());
  auto check = backend2.Execute("SELECT pname FROM parts WHERE pid = 9");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].AsString(), "renamed");
  // The first backend is untouched by that update.
  auto untouched = backend_.Execute("SELECT COUNT(*) FROM customer");
  ASSERT_TRUE(untouched.ok());

  // Cached views can come from either backend.
  ASSERT_TRUE(mtcache2
                  ->CreateCachedView("parts_cache", "SELECT * FROM parts")
                  .ok());
  ExecStats stats;
  auto local = cache_.Execute("SELECT COUNT(*) FROM parts", {}, &stats);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->rows[0][0].AsInt(), 50);
  EXPECT_DOUBLE_EQ(stats.remote_cost, 0);
}

TEST_F(MTCacheTest, OutOfRangeClientTextEndsInStatus) {
  // Text that used to abort the process (std::out_of_range from the lexer,
  // SIGFPE from INT64_MIN / -1) or wrap (int64 + - * and unary minus) ends
  // in a Status on the backend and through the cache, which ships the
  // arithmetic over its shadow `orders` to the backend; each server then
  // answers the next statement.
  const std::string kMin = "(okey + (-9223372036854775807 - 1) - 1)";  // okey 1
  const std::vector<std::pair<std::string, StatusCode>> cases = {
      {"SELECT 99999999999999999999", StatusCode::kInvalidArgument},
      {"SELECT 1e999", StatusCode::kInvalidArgument},
      {"SELECT okey + 9223372036854775807 FROM orders WHERE okey = 1",
       StatusCode::kOutOfRange},
      {"SELECT okey * 9223372036854775807 FROM orders WHERE okey = 2",
       StatusCode::kOutOfRange},
      {"SELECT -" + kMin + " FROM orders WHERE okey = 1",
       StatusCode::kOutOfRange},
      {"SELECT " + kMin + " / -1 FROM orders WHERE okey = 1",
       StatusCode::kOutOfRange},
  };
  for (Server* server : {&backend_, &cache_}) {
    SCOPED_TRACE(server->name());
    for (const auto& [sql, code] : cases) {
      auto r = server->Execute(sql);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_EQ(r.status().code(), code) << sql << ": " << r.status().ToString();
      auto next = server->Execute("SELECT cname FROM customer WHERE cid = 7");
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      EXPECT_EQ(next->rows[0][0].AsString(), "name7");
    }
    auto rem = server->Execute("SELECT " + kMin + " % -1 FROM orders "
                               "WHERE okey = 1");
    ASSERT_TRUE(rem.ok()) << rem.status().ToString();
    EXPECT_EQ(rem->rows[0][0].AsInt(), 0);
    // A SET that overflows fails the UPDATE, sent to the backend or
    // forwarded by the cache, and the row keeps its value.
    auto update = server->Execute(
        "UPDATE orders SET ckey = ckey + 9223372036854775807 WHERE okey = 5");
    ASSERT_FALSE(update.ok());
    EXPECT_EQ(update.status().code(), StatusCode::kOutOfRange);
    auto row = backend_.Execute("SELECT ckey FROM orders WHERE okey = 5");
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->rows[0][0].AsInt(), 6);
  }
}

TEST_F(MTCacheTest, RefreshShadowedStatistics) {
  // Backend grows; the shadow stats are stale until refreshed.
  for (int i = 3000; i < 3500; ++i) {
    ASSERT_TRUE(backend_
                    .ExecuteScript("INSERT INTO customer VALUES (" +
                                   std::to_string(i) + ", 'n', 'a', 0.0)")
                    .ok());
  }
  backend_.RecomputeStats();
  const TableDef* shadow = cache_.db().catalog().GetTable("customer");
  EXPECT_DOUBLE_EQ(shadow->stats.row_count, 2000);
  ASSERT_TRUE(mtcache_->RefreshShadowedStatistics().ok());
  EXPECT_DOUBLE_EQ(shadow->stats.row_count, 2500);
}

}  // namespace
}  // namespace mtcache
