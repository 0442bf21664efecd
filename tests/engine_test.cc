#include <gtest/gtest.h>

#include "engine/server.h"
#include "mtcache/mtcache.h"
#include "opt/cost_model.h"
#include "opt/view_matching.h"

namespace mtcache {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : server_(ServerOptions{"backend", "dbo", {}}, &clock_) {}

  void Exec(const std::string& sql) {
    Status s = server_.ExecuteScript(sql);
    ASSERT_TRUE(s.ok()) << s.ToString() << "\nSQL: " << sql;
  }

  QueryResult Query(const std::string& sql) {
    auto r = server_.Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nSQL: " << sql;
    return r.ok() ? r.ConsumeValue() : QueryResult{};
  }

  void SetUpBasicTables() {
    Exec("CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60), "
         "i_subject VARCHAR(20), i_cost FLOAT)");
    Exec("CREATE TABLE orders (o_id INT PRIMARY KEY, o_c_id INT, o_total FLOAT, "
         "o_date INT)");
    Exec("CREATE INDEX item_subject ON item (i_subject)");
    for (int i = 1; i <= 50; ++i) {
      std::string subject = i % 5 == 0 ? "history" : "fiction";
      Exec("INSERT INTO item VALUES (" + std::to_string(i) + ", 'title" +
           std::to_string(i) + "', '" + subject + "', " +
           std::to_string(i * 1.5) + ")");
    }
    for (int i = 1; i <= 30; ++i) {
      Exec("INSERT INTO orders VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 10 + 1) + ", " + std::to_string(i * 10.0) +
           ", " + std::to_string(1000 + i) + ")");
    }
    server_.RecomputeStats();
  }

  SimClock clock_;
  Server server_;
};

TEST_F(EngineTest, CreateInsertSelect) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20))");
  Exec("INSERT INTO t VALUES (1, 'alpha'), (2, 'beta')");
  QueryResult r = Query("SELECT id, name FROM t ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][1].AsString(), "beta");
}

TEST_F(EngineTest, WhereFiltering) {
  SetUpBasicTables();
  QueryResult r = Query("SELECT i_id FROM item WHERE i_subject = 'history'");
  EXPECT_EQ(r.rows.size(), 10u);
}

TEST_F(EngineTest, PrimaryKeyLookupUsesIndexSeek) {
  SetUpBasicTables();
  auto plan = server_.Explain("SELECT i_title FROM item WHERE i_id = 7");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = PhysicalToString(*plan->plan);
  EXPECT_NE(text.find("IndexSeek(item.item_pk)"), std::string::npos) << text;
  QueryResult r = Query("SELECT i_title FROM item WHERE i_id = 7");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "title7");
}

// The optimizer prices plans with the CostModel constants the executor
// charges. On plans whose cardinalities are exact, the root estimate equals
// the measured work less the per-statement overhead, which only the
// executor charges, and each profiled operator's charged units equal its
// estimate.
TEST_F(EngineTest, EstimatedCostEqualsChargedCost) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, val INT)");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i * 3) + ")";
  }
  Exec(insert);
  server_.RecomputeStats();
  server_.metrics().set_profiling_enabled(true);
  // The operator tree of the statement just executed.
  auto last_profile = [](Server& server) {
    std::vector<QueryProfileRecord> ring = server.metrics().SnapshotProfiles();
    return ring.empty() ? OperatorProfile{} : ring.back().root;
  };
  struct Case {
    const char* sql;
    const char* op;
    size_t rows;
  };
  auto expect_estimate_is_charge = [&](const Case& c) {
    SCOPED_TRACE(c.sql);
    auto plan = server_.Explain(c.sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::string text = PhysicalToString(*plan->plan);
    EXPECT_NE(text.find(c.op), std::string::npos) << text;
    EXPECT_EQ(PhysicalPlanSize(*plan->plan), 1) << text;
    ExecStats stats;
    auto r = server_.Execute(c.sql, {}, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), c.rows);
    EXPECT_DOUBLE_EQ(plan->est_cost,
                     stats.local_cost - CostModel::kStatementOverhead)
        << text;
    const OperatorProfile root = last_profile(server_);
    EXPECT_EQ(root.op_name, PhysicalOpLabel(*plan->plan));
    EXPECT_DOUBLE_EQ(root.charged_units, root.est_cost) << text;
  };
  for (const Case& c :
       {Case{"SELECT * FROM t", "SeqScan(t)", 200},
        Case{"SELECT * FROM t WHERE val = 42", "[pred:", 1},
        Case{"SELECT * FROM t WHERE id = 42", "IndexSeek(t.t_pk)", 1}}) {
    expect_estimate_is_charge(c);
  }
  // View-served plans. The full-width view's compensation is the identity
  // and plans as nothing; the narrower view's composes into the select
  // list's projection. Either way one scan remains, and its estimate is the
  // charged work.
  Exec("CREATE MATERIALIZED VIEW t_low AS SELECT * FROM t WHERE id < 100");
  Exec("CREATE MATERIALIZED VIEW t_high_ids AS SELECT id FROM t "
       "WHERE id >= 150");
  for (const Case& c :
       {Case{"SELECT * FROM t WHERE id < 100", "SeqScan(t_low) [pred:", 100},
        Case{"SELECT id * 2 FROM t WHERE id >= 150",
             "SeqScan(t_high_ids) [pred: (t.id >= 150)] [proj: ", 50}}) {
    expect_estimate_is_charge(c);
  }
  // A Top-N sort is priced and charged n log k, k the limit.
  const std::string top = "SELECT TOP 5 * FROM t ORDER BY val DESC";
  auto plan = server_.Explain(top);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(PhysicalOpLabel(*plan->plan->children[0]), "Sort(top 5)")
      << PhysicalToString(*plan->plan);
  ExecStats stats;
  auto r = server_.Execute(top, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->rows[0][1].AsInt(), 199 * 3);
  EXPECT_DOUBLE_EQ(plan->est_cost,
                   stats.local_cost - CostModel::kStatementOverhead);
  const PhysicalOp& scan = *plan->plan->children[0]->children[0];
  EXPECT_DOUBLE_EQ(
      stats.local_cost - CostModel::kStatementOverhead - scan.est_cost,
      CostModel::SortCost(200, 5));
  // Per operator: the sort's units include its input's, as its estimate
  // does, and both match.
  const OperatorProfile top_root = last_profile(server_);
  ASSERT_EQ(top_root.children.size(), 1u);
  const OperatorProfile& sort_prof = top_root.children[0];
  ASSERT_EQ(sort_prof.op_name, "Sort(top 5)");
  ASSERT_EQ(sort_prof.children.size(), 1u);
  EXPECT_DOUBLE_EQ(sort_prof.charged_units, sort_prof.est_cost);
  EXPECT_DOUBLE_EQ(sort_prof.children[0].charged_units,
                   sort_prof.children[0].est_cost);
  EXPECT_DOUBLE_EQ(sort_prof.children[0].est_cost, scan.est_cost);
  EXPECT_DOUBLE_EQ(top_root.charged_units, plan->est_cost);

  // Cache side: a query on a shadow table plans as one RemoteQuery, whose
  // units include the backend's whole statement (charged as remote_cost)
  // and the transfer. Across the hop every unit the statement charged is
  // in the profile root but the cache's own per-statement overhead.
  {
    LinkedServerRegistry links;
    Server backend(ServerOptions{"backend", "dbo", {}}, &clock_, &links);
    Server cache(ServerOptions{"cache1", "dbo", {}}, &clock_, &links);
    ReplicationSystem repl(&clock_);
    ASSERT_TRUE(backend.ExecuteScript(
                    "CREATE TABLE r (id INT PRIMARY KEY, val INT); "
                    "INSERT INTO r" + insert.substr(insert.find(" VALUES")))
                    .ok());
    backend.RecomputeStats();
    auto setup = MTCache::Setup(&cache, &backend, &repl);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    cache.metrics().set_profiling_enabled(true);
    const std::string remote = "SELECT val FROM r WHERE id < 50";
    auto remote_plan = cache.Explain(remote);
    ASSERT_TRUE(remote_plan.ok()) << remote_plan.status().ToString();
    EXPECT_TRUE(remote_plan->uses_remote);
    ExecStats cache_stats;
    auto rows = cache.Execute(remote, {}, &cache_stats);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->rows.size(), 50u);
    const OperatorProfile root = last_profile(cache);
    EXPECT_EQ(root.op_name.rfind("RemoteQuery", 0), 0u) << root.op_name;
    EXPECT_GT(cache_stats.remote_cost, 0);
    EXPECT_DOUBLE_EQ(root.charged_units + CostModel::kStatementOverhead,
                     cache_stats.local_cost + cache_stats.remote_cost);
  }

  // UPDATE and DELETE run the plan EXPLAIN shows: an index seek on t itself
  // (never the matching t_low), charged as estimated, plus per changed row
  // its write, t's one index and the upkeep of t's two views. The range's
  // histogram estimate is 10.42 rows for the 10 it finds, so its estimate is
  // compared at the actual row count (the point seeks estimate 1 exactly).
  const double upkeep =
      CostModel::kIndexMaintRowCost + 2 * CostModel::kApplyRecordCost;
  struct DmlCase {
    const char* sql;
    double write;
    int64_t rows;
  };
  for (const DmlCase& c :
       {DmlCase{"UPDATE t SET val = val + 1 WHERE id = 42",
                CostModel::kUpdateRowCost + upkeep, 1},
        DmlCase{"DELETE FROM t WHERE id = 42",
                CostModel::kDeleteRowCost + upkeep, 1},
        DmlCase{"DELETE FROM t WHERE id < 10",
                CostModel::kDeleteRowCost + upkeep, 10}}) {
    SCOPED_TRACE(c.sql);
    auto dml_plan = server_.Explain(c.sql);
    ASSERT_TRUE(dml_plan.ok()) << dml_plan.status().ToString();
    std::string text = PhysicalToString(*dml_plan->plan);
    EXPECT_NE(text.find("IndexSeek(t.t_pk)"), std::string::npos) << text;
    EXPECT_EQ(PhysicalPlanSize(*dml_plan->plan), 1) << text;
    ExecStats dml_stats;
    auto done = server_.Execute(c.sql, {}, &dml_stats);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_EQ(done->rows_affected, c.rows);
    const auto& seek = static_cast<const PhysIndexSeek&>(*dml_plan->plan);
    const double per_row =
        CostModel::ReadRowCost(CostModel::kIndexRowCost, seek.row_bytes);
    EXPECT_DOUBLE_EQ(
        dml_plan->est_cost + (c.rows - seek.est_rows) * per_row +
            c.rows * c.write,
        dml_stats.local_cost - CostModel::kStatementOverhead)
        << text;
  }
  EXPECT_EQ(Query("SELECT COUNT(*) FROM t").rows[0][0].AsInt(), 189);
  EXPECT_EQ(Query("SELECT COUNT(*) FROM t_low").rows[0][0].AsInt(), 89);
}

TEST_F(EngineTest, UniqueKeyEqualityPlansAsSeekOnAnEmptyTable) {
  // Statistics taken while a table was empty price a scan below one index
  // descent. A lookup of the whole unique key seeks anyway, so its cached
  // plan stays cheap as the table grows; other predicates go by cost.
  Exec("CREATE TABLE cart (id INT, line INT, qty INT, PRIMARY KEY (id, line))");
  server_.RecomputeStats();
  for (const char* sql :
       {"SELECT qty FROM cart WHERE id = 5 AND line = 1",
        "UPDATE cart SET qty = 2 WHERE line = 1 AND id = 5",
        "DELETE FROM cart WHERE id = 5 AND line = 1 AND qty > 0"}) {
    auto plan = server_.Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(PhysicalOpLabel(*plan->plan).rfind("IndexSeek(cart.cart_pk)", 0),
              0u)
        << sql << "\n" << PhysicalToString(*plan->plan);
  }
  auto prefix = server_.Explain("DELETE FROM cart WHERE id = 5");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(PhysicalOpLabel(*prefix->plan).rfind("SeqScan(cart)", 0), 0u);
}

TEST_F(EngineTest, UpdateOverflowFailsAndLeavesRowsUnchanged) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, x BIGINT)");
  Exec("INSERT INTO t VALUES (1, 5), (2, 9223372036854775807)");
  // The SET is evaluated under the exclusive latch, from the current row:
  // x + 1 over INT64_MAX fails the statement, and the row it already
  // changed is rolled back with it.
  auto r = server_.Execute("UPDATE t SET x = x + 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  QueryResult rows = Query("SELECT id, x FROM t ORDER BY id");
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows[0][1].AsInt(), 5);
  EXPECT_EQ(rows.rows[1][1].AsInt(), INT64_MAX);
  EXPECT_EQ(Query("UPDATE t SET x = x - 1 WHERE id = 2").rows_affected, 1);
  EXPECT_EQ(Query("SELECT x FROM t WHERE id = 2").rows[0][0].AsInt(),
            INT64_MAX - 1);
}

TEST_F(EngineTest, JoinQuery) {
  SetUpBasicTables();
  QueryResult r = Query(
      "SELECT o.o_id, i.i_title FROM orders o JOIN item i ON o.o_c_id = "
      "i.i_id WHERE o.o_total > 250");
  // orders with o_total > 250: o_id 26..30; each joins item o_c_id in 1..10.
  EXPECT_EQ(r.rows.size(), 5u);
}

TEST_F(EngineTest, GroupByAggregates) {
  SetUpBasicTables();
  QueryResult r = Query(
      "SELECT i_subject, COUNT(*) cnt, AVG(i_cost) avgc FROM item "
      "GROUP BY i_subject ORDER BY cnt DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "fiction");
  EXPECT_EQ(r.rows[0][1].AsInt(), 40);
  EXPECT_EQ(r.rows[1][1].AsInt(), 10);
}

TEST_F(EngineTest, ScalarAggregateOnEmptyInput) {
  Exec("CREATE TABLE empty_t (x INT)");
  QueryResult r = Query("SELECT COUNT(*), SUM(x), MIN(x) FROM empty_t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(EngineTest, TopWithOrderBy) {
  SetUpBasicTables();
  QueryResult r = Query("SELECT TOP 3 o_id FROM orders ORDER BY o_total DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 30);
  EXPECT_EQ(r.rows[2][0].AsInt(), 28);
}

TEST_F(EngineTest, DerivedTableWithTop) {
  SetUpBasicTables();
  QueryResult r = Query(
      "SELECT COUNT(*) FROM (SELECT TOP 10 o_id FROM orders ORDER BY o_date "
      "DESC) recent");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
}

TEST_F(EngineTest, DistinctPreservesFirstAppearance) {
  SetUpBasicTables();
  QueryResult r = Query("SELECT DISTINCT i_subject FROM item");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, LikeSearch) {
  SetUpBasicTables();
  QueryResult r = Query("SELECT i_id FROM item WHERE i_title LIKE 'title1%'");
  // title1, title10..title19 -> 11 rows.
  EXPECT_EQ(r.rows.size(), 11u);
}

TEST_F(EngineTest, UpdateAndDelete) {
  SetUpBasicTables();
  auto upd = server_.Execute("UPDATE item SET i_cost = 99.0 WHERE i_id <= 5");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->rows_affected, 5);
  QueryResult r = Query("SELECT COUNT(*) FROM item WHERE i_cost = 99.0");
  EXPECT_EQ(r.rows[0][0].AsInt(), 5);
  auto del = server_.Execute("DELETE FROM item WHERE i_subject = 'history'");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->rows_affected, 10);
  r = Query("SELECT COUNT(*) FROM item");
  EXPECT_EQ(r.rows[0][0].AsInt(), 40);
}

TEST_F(EngineTest, ParameterizedQuery) {
  SetUpBasicTables();
  ExecStats stats;
  ParamMap params;
  params["@id"] = Value::Int(3);
  auto r = server_.Execute("SELECT i_title FROM item WHERE i_id = @id",
                           params, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "title3");
  EXPECT_GT(stats.local_cost, 0);
}

TEST_F(EngineTest, PlanCacheHitsOnRepeatedStatement) {
  SetUpBasicTables();
  ParamMap params;
  params["@id"] = Value::Int(3);
  ExecStats stats;
  ASSERT_TRUE(server_
                  .Execute("SELECT i_title FROM item WHERE i_id = @id", params,
                           &stats)
                  .ok());
  int64_t misses = server_.plan_cache_stats().misses;
  params["@id"] = Value::Int(5);
  ASSERT_TRUE(server_
                  .Execute("SELECT i_title FROM item WHERE i_id = @id", params,
                           &stats)
                  .ok());
  EXPECT_EQ(server_.plan_cache_stats().misses, misses);
  EXPECT_GT(server_.plan_cache_stats().hits, 0);
}

TEST_F(EngineTest, ParseFreeHitMatchesParsedExecution) {
  SetUpBasicTables();
  const std::string text =
      "SELECT i_id, i_title FROM item WHERE i_cost > 30 ORDER BY i_id";
  QueryResult parsed = Query(text);
  const int64_t hits = server_.plan_cache_stats().hits;
  const int64_t misses = server_.plan_cache_stats().misses;
  QueryResult hit = Query(text);
  // One probe, one hit, no second lookup or miss behind it.
  EXPECT_EQ(server_.plan_cache_stats().hits, hits + 1);
  EXPECT_EQ(server_.plan_cache_stats().misses, misses);
  ASSERT_EQ(hit.rows.size(), parsed.rows.size());
  ASSERT_FALSE(parsed.rows.empty());
  for (size_t i = 0; i < parsed.rows.size(); ++i) {
    EXPECT_EQ(hit.rows[i], parsed.rows[i]) << "row " << i;
  }

  // SELECT @v = ... assigns through the AST the cached plan owns.
  const std::string assign = "SELECT @t = i_title FROM item WHERE i_id = @id";
  Session session;
  ExecStats stats;
  session.vars["@id"] = Value::Int(3);
  ASSERT_TRUE(server_.ExecuteOnSession(&session, assign, &stats).ok());
  EXPECT_EQ(session.vars["@t"].AsString(), "title3");
  const int64_t hits_before = server_.plan_cache_stats().hits;
  session.vars["@id"] = Value::Int(5);
  ASSERT_TRUE(server_.ExecuteOnSession(&session, assign, &stats).ok());
  EXPECT_EQ(server_.plan_cache_stats().hits, hits_before + 1);
  EXPECT_EQ(session.vars["@t"].AsString(), "title5");
}

TEST_F(EngineTest, DmlTextAndProcedureDmlRunFromCachedPlans) {
  SetUpBasicTables();
  // UPDATE and DELETE text plans once, like SELECT: the second execution
  // of the same text is one hit and no miss (and no parse).
  const std::string update =
      "UPDATE item SET i_cost = i_cost + 1000.0 WHERE i_id = @id";
  Session session;
  ExecStats stats;
  for (int id : {3, 4}) {
    session.vars["@id"] = Value::Int(id);
    const PlanCacheStats before = server_.plan_cache_stats();
    auto r = server_.ExecuteOnSession(&session, update, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows_affected, 1);
    EXPECT_EQ(server_.plan_cache_stats().hits, before.hits + (id == 4));
    EXPECT_EQ(server_.plan_cache_stats().misses, before.misses + (id == 3));
  }
  QueryResult costs = Query("SELECT i_cost FROM item WHERE i_id <= 5 "
                            "ORDER BY i_id");
  EXPECT_DOUBLE_EQ(costs.rows[2][0].AsDouble(), 1004.5);
  EXPECT_DOUBLE_EQ(costs.rows[3][0].AsDouble(), 1006.0);
  EXPECT_DOUBLE_EQ(costs.rows[4][0].AsDouble(), 7.5);

  const std::string del = "DELETE FROM orders WHERE o_c_id = 4";
  ASSERT_EQ(Query(del).rows_affected, 3);
  const int64_t hits = server_.plan_cache_stats().hits;
  ASSERT_EQ(Query(del).rows_affected, 0);
  EXPECT_EQ(server_.plan_cache_stats().hits, hits + 1);
  // CREATE INDEX invalidates: the same text re-plans onto the new index,
  // and EXPLAIN shows the seek it now runs.
  Exec("CREATE INDEX orders_cust ON orders (o_c_id)");
  const int64_t misses = server_.plan_cache_stats().misses;
  EXPECT_EQ(Query("DELETE FROM orders WHERE o_c_id = 5").rows_affected, 3);
  EXPECT_EQ(server_.plan_cache_stats().misses, misses + 1);
  auto plan = server_.Explain("DELETE FROM orders WHERE o_c_id = 5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(PhysicalOpLabel(*plan->plan), "IndexSeek(orders.orders_cust)");

  // A procedure's UPDATE plans once per statement, not once per call.
  Exec("CREATE PROCEDURE bump(@id INT) AS BEGIN "
       "UPDATE item SET i_cost = i_cost + 1 WHERE i_id = @id; END");
  const int64_t proc_misses = server_.plan_cache_stats().misses;
  for (int id = 10; id < 15; ++id) {
    auto r = server_.CallProcedure("bump", {Value::Int(id)}, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows_affected, 1);
  }
  EXPECT_EQ(server_.plan_cache_stats().misses, proc_misses + 1);
  EXPECT_DOUBLE_EQ(
      Query("SELECT i_cost FROM item WHERE i_id = 14").rows[0][0].AsDouble(),
      22.0);
}

TEST_F(EngineTest, ParseFreeHitNeverRunsAStalePlan) {
  SetUpBasicTables();
  const std::string text = "SELECT o_id FROM orders WHERE o_c_id = 4";
  auto last_plan = [this] {
    return server_.metrics().trace().back().info->plan_text;
  };
  ASSERT_EQ(Query(text).rows.size(), 3u);
  EXPECT_EQ(last_plan().find("IndexSeek"), std::string::npos) << last_plan();

  // CREATE INDEX: the same text re-plans onto the new index.
  Exec("CREATE INDEX orders_cust ON orders (o_c_id)");
  int64_t misses = server_.plan_cache_stats().misses;
  ASSERT_EQ(Query(text).rows.size(), 3u);
  EXPECT_EQ(server_.plan_cache_stats().misses, misses + 1);
  EXPECT_NE(last_plan().find("IndexSeek(orders.orders_cust)"),
            std::string::npos)
      << last_plan();

  // New statistics: re-planned, not served from the old entry.
  server_.RecomputeStats();
  misses = server_.plan_cache_stats().misses;
  ASSERT_EQ(Query(text).rows.size(), 3u);
  EXPECT_EQ(server_.plan_cache_stats().misses, misses + 1);

  // DROP TABLE: the error a server that never had the table gives.
  Exec("DROP TABLE orders");
  const int64_t hits = server_.plan_cache_stats().hits;
  auto dropped = server_.Execute(text);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(server_.plan_cache_stats().hits, hits);
  SimClock fresh_clock;
  Server fresh(ServerOptions{"backend", "dbo", {}}, &fresh_clock);
  auto never = fresh.Execute(text);
  ASSERT_FALSE(never.ok());
  EXPECT_EQ(dropped.status().ToString(), never.status().ToString());
}

TEST_F(EngineTest, UnparsableTextFailsAlikeAndIsNeverCached) {
  SetUpBasicTables();
  const std::string count_sql =
      "SELECT cached_statements FROM sys.dm_plan_cache";
  const int64_t cached = Query(count_sql).rows[0][0].AsInt();
  const std::string bad = "SELECT i_id FROM item WHERE";
  auto first = server_.Execute(bad);
  ASSERT_FALSE(first.ok());
  const PlanCacheStats before = server_.plan_cache_stats();
  for (int i = 0; i < 3; ++i) {
    auto again = server_.Execute(bad);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().ToString(), first.status().ToString());
  }
  EXPECT_EQ(server_.plan_cache_stats().hits, before.hits);
  EXPECT_EQ(server_.plan_cache_stats().misses, before.misses);
  EXPECT_EQ(Query(count_sql).rows[0][0].AsInt(), cached);
}

TEST_F(EngineTest, StatementPlanCacheIsBoundedByClock) {
  SetUpBasicTables();  // ends with RecomputeStats: the cache starts empty
  constexpr int kDistinct = 20000;
  constexpr int64_t kCap = Server::kStatementPlanCacheCapacity;
  const std::string hot = "SELECT i_title FROM item WHERE i_id = 7";
  ASSERT_EQ(Query(hot).rows.size(), 1u);
  const int64_t misses = server_.plan_cache_stats().misses;
  for (int i = 0; i < kDistinct; ++i) {
    auto r = server_.Execute("SELECT i_cost FROM item WHERE i_id = " +
                             std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Hit well within one sweep of the clock hand, the hot entry keeps its
    // reference bit and is never the one evicted.
    if (i % 1000 == 0) {
      ASSERT_EQ(Query(hot).rows.size(), 1u);
    }
  }
  EXPECT_EQ(server_.plan_cache_stats().misses, misses + kDistinct);
  // The DMV query is one more insert, so it sees itself evict one entry.
  QueryResult r =
      Query("SELECT cached_statements, evictions FROM sys.dm_plan_cache");
  const int64_t inserts = 1 + kDistinct + 1;
  EXPECT_LE(r.rows[0][0].AsInt(), kCap);
  EXPECT_EQ(r.rows[0][0].AsInt(), kCap);
  EXPECT_EQ(r.rows[0][1].AsInt(), inserts - kCap);
  EXPECT_EQ(server_.plan_cache_stats().evictions, inserts - kCap);
}

TEST_F(EngineTest, InsertSelect) {
  SetUpBasicTables();
  Exec("CREATE TABLE expensive (e_id INT PRIMARY KEY, e_cost FLOAT)");
  auto r = server_.Execute(
      "INSERT INTO expensive (e_id, e_cost) SELECT i_id, i_cost FROM item "
      "WHERE i_cost > 60");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows_affected, 10);
}

TEST_F(EngineTest, TransactionsRollback) {
  SetUpBasicTables();
  Status s = server_.ExecuteScript(
      "BEGIN TRANSACTION; "
      "DELETE FROM orders WHERE o_id <= 10; "
      "ROLLBACK;");
  ASSERT_TRUE(s.ok()) << s.ToString();
  QueryResult r = Query("SELECT COUNT(*) FROM orders");
  EXPECT_EQ(r.rows[0][0].AsInt(), 30);
}

TEST_F(EngineTest, TransactionsCommit) {
  SetUpBasicTables();
  Status s = server_.ExecuteScript(
      "BEGIN TRANSACTION; "
      "DELETE FROM orders WHERE o_id <= 10; "
      "COMMIT;");
  ASSERT_TRUE(s.ok()) << s.ToString();
  QueryResult r = Query("SELECT COUNT(*) FROM orders");
  EXPECT_EQ(r.rows[0][0].AsInt(), 20);
}

TEST_F(EngineTest, NotNullEnforced) {
  Exec("CREATE TABLE strict_t (id INT PRIMARY KEY, req VARCHAR(10) NOT NULL)");
  auto r = server_.Execute("INSERT INTO strict_t (id) VALUES (1)");
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineTest, UniqueViolationReported) {
  Exec("CREATE TABLE u_t (id INT PRIMARY KEY)");
  Exec("INSERT INTO u_t VALUES (1)");
  auto r = server_.Execute("INSERT INTO u_t VALUES (1)");
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, StoredProcedureWithParamsAndControlFlow) {
  SetUpBasicTables();
  Exec("CREATE PROCEDURE get_item(@id INT) AS BEGIN "
       "SELECT i_id, i_title FROM item WHERE i_id = @id; "
       "END");
  ExecStats stats;
  auto r = server_.CallProcedure("get_item", {Value::Int(12)}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsString(), "title12");
}

TEST_F(EngineTest, StoredProcedureVariablesAndIf) {
  SetUpBasicTables();
  Exec("CREATE PROCEDURE classify(@id INT) AS BEGIN "
       "DECLARE @cost FLOAT; "
       "SELECT @cost = i_cost FROM item WHERE i_id = @id; "
       "IF @cost > 50 BEGIN SELECT 'pricey' verdict END "
       "ELSE BEGIN SELECT 'cheap' verdict END "
       "END");
  auto r = server_.CallProcedure("classify", {Value::Int(40)}, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsString(), "pricey");
  r = server_.CallProcedure("classify", {Value::Int(10)}, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsString(), "cheap");
}

TEST_F(EngineTest, ProcedureTransactionAndDml) {
  SetUpBasicTables();
  Exec("CREATE PROCEDURE add_order(@id INT, @cid INT, @total FLOAT) AS BEGIN "
       "BEGIN TRANSACTION; "
       "INSERT INTO orders VALUES (@id, @cid, @total, GETDATE()); "
       "UPDATE item SET i_cost = i_cost + 1 WHERE i_id = @cid; "
       "COMMIT; "
       "END");
  auto r = server_.CallProcedure(
      "add_order", {Value::Int(99), Value::Int(1), Value::Double(5.0)},
      nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  QueryResult check = Query("SELECT COUNT(*) FROM orders");
  EXPECT_EQ(check.rows[0][0].AsInt(), 31);
}

TEST_F(EngineTest, MaterializedViewPopulatedAndMaintained) {
  SetUpBasicTables();
  Exec("CREATE MATERIALIZED VIEW cheap_items AS "
       "SELECT i_id, i_title, i_cost FROM item WHERE i_cost <= 30");
  QueryResult r = Query("SELECT COUNT(*) FROM cheap_items");
  EXPECT_EQ(r.rows[0][0].AsInt(), 20);  // cost = 1.5 * id <= 30 -> id <= 20
  // Insert a matching row: view follows synchronously.
  Exec("INSERT INTO item VALUES (200, 'cheap new', 'fiction', 2.0)");
  r = Query("SELECT COUNT(*) FROM cheap_items");
  EXPECT_EQ(r.rows[0][0].AsInt(), 21);
  // Update pushes a row out of the view region.
  Exec("UPDATE item SET i_cost = 500 WHERE i_id = 200");
  r = Query("SELECT COUNT(*) FROM cheap_items");
  EXPECT_EQ(r.rows[0][0].AsInt(), 20);
  // Delete a contained row.
  Exec("DELETE FROM item WHERE i_id = 1");
  r = Query("SELECT COUNT(*) FROM cheap_items");
  EXPECT_EQ(r.rows[0][0].AsInt(), 19);
}

TEST_F(EngineTest, MaterializedViewRequiresBasePrimaryKey) {
  // View rows are maintained by key; without a base key a DELETE used to
  // remove whichever view row came first and an UPDATE rewrite it, leaving
  // v = {(2,99),(3,30)} beside t = {(1,10),(2,99)}.
  Exec("CREATE TABLE t (x INT, y INT)");
  Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  Status created =
      server_.ExecuteScript("CREATE MATERIALIZED VIEW v AS SELECT x, y FROM t");
  EXPECT_EQ(created.code(), StatusCode::kInvalidArgument)
      << created.ToString();
  EXPECT_EQ(server_.db().catalog().GetTable("v"), nullptr);

  // The same DML over a keyed base keeps the view equal to its definition.
  Exec("CREATE TABLE tk (x INT PRIMARY KEY, y INT)");
  Exec("INSERT INTO tk VALUES (1, 10), (2, 20), (3, 30)");
  Exec("CREATE MATERIALIZED VIEW vk AS SELECT x, y FROM tk");
  Exec("DELETE FROM tk WHERE x = 3");
  Exec("UPDATE tk SET y = 99 WHERE x = 2");
  QueryResult view = Query("SELECT x, y FROM vk ORDER BY x");
  ASSERT_EQ(view.rows.size(), 2u);
  EXPECT_EQ(view.rows[0], (Row{Value::Int(1), Value::Int(10)}));
  EXPECT_EQ(view.rows[1], (Row{Value::Int(2), Value::Int(99)}));
}

TEST_F(EngineTest, ViewMatchingSubstitutesMaterializedView) {
  SetUpBasicTables();
  Exec("CREATE MATERIALIZED VIEW cheap_items AS "
       "SELECT i_id, i_title, i_cost FROM item WHERE i_cost <= 30");
  server_.RecomputeStats();
  auto plan = server_.Explain(
      "SELECT i_title FROM item WHERE i_cost <= 10 AND i_id > 2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = PhysicalToString(*plan->plan);
  EXPECT_NE(text.find("cheap_items"), std::string::npos) << text;
  // Results identical with and without view matching.
  QueryResult with_views = Query(
      "SELECT i_title FROM item WHERE i_cost <= 10 AND i_id > 2");
  OptimizerOptions no_views = server_.optimizer_options();
  no_views.enable_view_matching = false;
  server_.set_optimizer_options(no_views);
  QueryResult without = Query(
      "SELECT i_title FROM item WHERE i_cost <= 10 AND i_id > 2");
  EXPECT_EQ(with_views.rows.size(), without.rows.size());
}

TEST_F(EngineTest, LeftOuterJoin) {
  Exec("CREATE TABLE l (id INT PRIMARY KEY)");
  Exec("CREATE TABLE r (id INT PRIMARY KEY, lid INT)");
  Exec("INSERT INTO l VALUES (1), (2), (3)");
  Exec("INSERT INTO r VALUES (10, 1)");
  QueryResult res = Query(
      "SELECT l.id, r.id FROM l LEFT OUTER JOIN r ON l.id = r.lid "
      "ORDER BY l.id");
  ASSERT_EQ(res.rows.size(), 3u);
  EXPECT_EQ(res.rows[0][1].AsInt(), 10);
  EXPECT_TRUE(res.rows[1][1].is_null());
  EXPECT_TRUE(res.rows[2][1].is_null());
}

// Inner-join chains are ordered by cost; every shape the enumeration
// handles differently returns the rows the query asks for, in the query's
// column order: a chain longer than the ordered-leaf cap, a cross product,
// non-equi and three-table conjuncts, an outer join as one leaf, and a
// derived table over a join.
TEST_F(EngineTest, JoinChainsOfEveryShapeReturnTheirRows) {
  Exec("CREATE TABLE n (v INT PRIMARY KEY)");
  Exec("CREATE TABLE m (v INT, w INT)");
  Exec("INSERT INTO n VALUES (1), (2), (3), (4), (5)");
  Exec("INSERT INTO m VALUES (1, 10), (3, 2)");
  server_.RecomputeStats();
  std::string ten = "SELECT COUNT(*) FROM n t0";
  std::string chain;
  for (int t = 1; t < 10; ++t) {
    ten += ", n t" + std::to_string(t);
    chain += std::string(t > 1 ? " AND " : " WHERE ") + "t" +
             std::to_string(t - 1) + ".v = t" + std::to_string(t) + ".v";
  }
  const std::pair<std::string, int64_t> counts[] = {
      {ten + chain, 5},
      {"SELECT COUNT(*) FROM n a, n b, n c WHERE a.v = b.v", 25},
      {"SELECT COUNT(*) FROM n a, n b WHERE a.v < b.v", 10},
      {"SELECT COUNT(*) FROM n a, n b, n c WHERE a.v + b.v = c.v", 10},
      {"SELECT COUNT(*) FROM n a LEFT OUTER JOIN m ON a.v = m.v, n b "
       "WHERE b.v = a.v",
       5},
  };
  for (const auto& [sql, want] : counts) {
    QueryResult r = Query(sql);
    ASSERT_EQ(r.rows.size(), 1u) << sql;
    EXPECT_EQ(r.rows[0][0].AsInt(), want) << sql;
  }
  QueryResult r = Query(
      "SELECT * FROM n a, m, n b WHERE a.v = m.v AND m.w = b.v");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].size(), 4u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);  // a.v
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);  // m.v
  EXPECT_EQ(r.rows[0][2].AsInt(), 2);  // m.w
  EXPECT_EQ(r.rows[0][3].AsInt(), 2);  // b.v

  // A derived table that only selects columns of a join (as shipped SQL
  // nests every join) is part of the chain around it: the outer table's
  // one key seeks into the derived table's two tables, as in the flat
  // query, instead of joining their 200 rows first.
  Exec("CREATE TABLE big (k INT PRIMARY KEY, g INT)");
  Exec("CREATE TABLE big2 (k INT PRIMARY KEY, h INT)");
  std::string values;
  for (int k = 1; k <= 200; ++k) {
    values += (k > 1 ? ", (" : "(") + std::to_string(k) + ", " +
              std::to_string(k % 7) + ")";
  }
  Exec("INSERT INTO big VALUES " + values);
  Exec("INSERT INTO big2 VALUES " + values);
  server_.RecomputeStats();
  const std::string flat =
      "SELECT x.k, y.h FROM big x, big2 y, m WHERE x.k = y.k AND y.k = m.w";
  const std::string nested =
      "SELECT d.k, d.h FROM (SELECT x.k AS k, y.h AS h FROM big x, big2 y "
      "WHERE x.k = y.k) d, m WHERE d.k = m.w";
  auto flat_plan = server_.Explain(flat);
  auto nested_plan = server_.Explain(nested);
  ASSERT_TRUE(flat_plan.ok()) << flat_plan.status().ToString();
  ASSERT_TRUE(nested_plan.ok()) << nested_plan.status().ToString();
  EXPECT_EQ(nested_plan->est_cost, flat_plan->est_cost)
      << PhysicalToString(*nested_plan->plan);
  QueryResult rows = Query(nested);
  ASSERT_EQ(rows.rows.size(), 2u);  // m.w = 10 and m.w = 2
  EXPECT_EQ(rows.rows[0][0].AsInt() + rows.rows[1][0].AsInt(), 12);
}

TEST_F(EngineTest, PermissionDeniedForUnauthorizedUser) {
  SetUpBasicTables();
  TableDef* item = server_.db().catalog().GetTable("item");
  item->grants["admin"] = {Privilege::kSelect, Privilege::kInsert,
                           Privilege::kUpdate, Privilege::kDelete};
  server_.InvalidatePlanCache();
  // Default user "dbo" is no longer covered once grants are non-empty.
  auto r = server_.Execute("SELECT i_id FROM item");
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(EngineTest, BestSellerShapedQuery) {
  SetUpBasicTables();
  Exec("CREATE TABLE order_line (ol_o_id INT, ol_i_id INT, ol_qty INT, "
       "PRIMARY KEY (ol_o_id, ol_i_id))");
  for (int o = 1; o <= 30; ++o) {
    for (int k = 0; k < 3; ++k) {
      int item_id = (o * 7 + k * 11) % 50 + 1;
      Exec("INSERT INTO order_line VALUES (" + std::to_string(o) + ", " +
           std::to_string(item_id) + ", " + std::to_string(k + 1) + ")");
    }
  }
  server_.RecomputeStats();
  QueryResult r = Query(
      "SELECT TOP 5 i.i_id, i.i_title, SUM(ol.ol_qty) total "
      "FROM order_line ol, item i, "
      "(SELECT TOP 20 o_id FROM orders ORDER BY o_date DESC) recent "
      "WHERE ol.ol_o_id = recent.o_id AND i.i_id = ol.ol_i_id "
      "GROUP BY i.i_id, i.i_title ORDER BY total DESC");
  EXPECT_LE(r.rows.size(), 5u);
  ASSERT_GE(r.rows.size(), 1u);
  // Totals are non-increasing.
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i - 1][2].AsInt(), r.rows[i][2].AsInt());
  }
}

TEST_F(EngineTest, DropTableIndexProcedure) {
  SetUpBasicTables();
  Exec("CREATE PROCEDURE p1 AS BEGIN SELECT 1 one END");
  Exec("DROP PROCEDURE p1");
  EXPECT_FALSE(server_.Execute("EXEC p1").ok());

  Exec("DROP INDEX item_subject ON item");
  EXPECT_EQ(server_.db().catalog().GetTable("item")->FindIndex("item_subject"),
            -1);
  // Queries still work (via seq scan now).
  QueryResult r = Query("SELECT COUNT(*) FROM item WHERE i_subject = 'history'");
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);

  Exec("DROP TABLE orders");
  EXPECT_FALSE(server_.Execute("SELECT * FROM orders").ok());
}

TEST_F(EngineTest, DropTableWithDependentViewRejected) {
  SetUpBasicTables();
  Exec("CREATE MATERIALIZED VIEW mv AS SELECT i_id FROM item");
  auto r = server_.Execute("DROP TABLE item");
  EXPECT_FALSE(r.ok());
  Exec("DROP MATERIALIZED VIEW mv");
  Exec("DROP TABLE item");
}

TEST_F(EngineTest, GrantRevokeStatements) {
  SetUpBasicTables();
  Exec("GRANT SELECT, INSERT ON item TO alice");
  const TableDef* item = server_.db().catalog().GetTable("item");
  EXPECT_TRUE(Catalog::HasPrivilege(*item, "alice", Privilege::kSelect));
  EXPECT_TRUE(Catalog::HasPrivilege(*item, "alice", Privilege::kInsert));
  EXPECT_FALSE(Catalog::HasPrivilege(*item, "alice", Privilege::kDelete));
  // Grants became non-empty: other users lose public access.
  EXPECT_FALSE(Catalog::HasPrivilege(*item, "bob", Privilege::kSelect));
  Exec("REVOKE INSERT ON item FROM alice");
  EXPECT_FALSE(Catalog::HasPrivilege(*item, "alice", Privilege::kInsert));
  EXPECT_TRUE(Catalog::HasPrivilege(*item, "alice", Privilege::kSelect));
  Exec("GRANT ALL ON item TO admin");
  EXPECT_TRUE(Catalog::HasPrivilege(*item, "admin", Privilege::kDelete));
}

TEST_F(EngineTest, ExplainStatementReturnsPlanText) {
  SetUpBasicTables();
  QueryResult r = Query("EXPLAIN SELECT i_title FROM item WHERE i_id = 7");
  ASSERT_GE(r.rows.size(), 2u);
  std::string all;
  for (const Row& row : r.rows) all += std::string(row[0].AsString()) + "\n";
  EXPECT_NE(all.find("IndexSeek(item.item_pk)"), std::string::npos) << all;
  EXPECT_NE(all.find("estimated cost"), std::string::npos) << all;
}

TEST_F(EngineTest, MixedResultPlanExecutesCorrectly) {
  // §5.1.1 / Figure 3: a regular matview answers the in-range part and the
  // base table tops up the remainder — allowed only for synchronously
  // maintained views. Build the mixed plan directly from view matching and
  // execute it on both sides of the boundary.
  SetUpBasicTables();
  Exec("CREATE MATERIALIZED VIEW cheap_items AS "
       "SELECT i_id, i_title, i_cost FROM item WHERE i_cost <= 30");
  server_.RecomputeStats();

  auto stmt = ParseSql(
      "SELECT i_id, i_title, i_cost, i_subject FROM item WHERE i_cost <= @p");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&server_.db().catalog(), "dbo");
  auto logical = binder.BindSelect(static_cast<const SelectStmt&>(**stmt));
  ASSERT_TRUE(logical.ok());
  // Locate the Filter(Get) site inside Project(Filter(Get)).
  LogicalOp* filter = (*logical)->children[0].get();
  ASSERT_EQ(filter->kind, LogicalKind::kFilter);
  const auto* get = static_cast<const LogicalGet*>(filter->children[0].get());
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(*static_cast<LogicalFilter*>(filter)->predicate,
                   &conjuncts);
  std::set<int> used = {0, 1, 3};  // i_id, i_title, i_cost
  auto matches = MatchViews(*get, conjuncts, used, server_.db().catalog(),
                            /*allow_mixed_results=*/true);
  const ViewMatch* with_mixed = nullptr;
  for (const auto& m : matches) {
    if (m.mixed != nullptr) with_mixed = &m;
  }
  ASSERT_NE(with_mixed, nullptr) << "regular matview should offer Figure 3";

  Optimizer optimizer(&server_.db().catalog(), {});
  auto plan = optimizer.Optimize(*with_mixed->mixed);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  for (double p : {10.0, 30.0, 60.0}) {
    ParamMap params;
    params["@p"] = Value::Double(p);
    ExecContext ctx;
    ctx.storage = &server_.db();
    ctx.params = &params;
    auto mixed_rows = ExecutePlan(*plan->plan, &ctx);
    ASSERT_TRUE(mixed_rows.ok()) << mixed_rows.status().ToString();
    auto direct = server_.Execute(
        "SELECT COUNT(*) FROM item WHERE i_cost <= " + std::to_string(p));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(static_cast<int64_t>(mixed_rows->rows.size()),
              direct->rows[0][0].AsInt())
        << "@p = " << p;
  }
}

TEST_F(EngineTest, MatchViewsRejectsOutOfRangeOrdinals) {
  SetUpBasicTables();
  Exec("CREATE MATERIALIZED VIEW cheap_items AS "
       "SELECT i_id, i_title, i_cost FROM item WHERE i_cost <= 30");
  auto stmt = ParseSql("SELECT i_id FROM item WHERE i_cost <= 10");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&server_.db().catalog(), "dbo");
  auto logical = binder.BindSelect(static_cast<const SelectStmt&>(**stmt));
  ASSERT_TRUE(logical.ok());
  LogicalOp* filter = (*logical)->children[0].get();
  ASSERT_EQ(filter->kind, LogicalKind::kFilter);
  const auto* get = static_cast<const LogicalGet*>(filter->children[0].get());
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(*static_cast<LogicalFilter*>(filter)->predicate,
                   &conjuncts);
  EXPECT_FALSE(
      MatchViews(*get, conjuncts, {0, 3}, server_.db().catalog(),
                 /*allow_mixed_results=*/false)
          .empty());
  // item has 4 columns: ordinals 4 and -1 name none of them.
  EXPECT_TRUE(
      MatchViews(*get, conjuncts, {0, 4}, server_.db().catalog(),
                 /*allow_mixed_results=*/false)
          .empty());
  EXPECT_TRUE(
      MatchViews(*get, conjuncts, {-1, 0}, server_.db().catalog(),
                 /*allow_mixed_results=*/false)
          .empty());
}

TEST_F(EngineTest, CaseExpressionSearchedAndSimple) {
  SetUpBasicTables();
  QueryResult r = Query(
      "SELECT i_id, CASE WHEN i_cost < 30 THEN 'cheap' "
      "WHEN i_cost < 60 THEN 'mid' ELSE 'pricey' END AS band "
      "FROM item WHERE i_id IN (1, 25, 45) ORDER BY i_id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].AsString(), "cheap");   // 1.5
  EXPECT_EQ(r.rows[1][1].AsString(), "mid");     // 37.5
  EXPECT_EQ(r.rows[2][1].AsString(), "pricey");  // 67.5
  // Simple CASE form + missing ELSE yields NULL.
  QueryResult simple = Query(
      "SELECT CASE i_subject WHEN 'history' THEN 1 END "
      "FROM item WHERE i_id = 4");
  EXPECT_TRUE(simple.rows[0][0].is_null());  // id 4 is fiction
}

TEST_F(EngineTest, CaseInsideAggregatesAndGroups) {
  SetUpBasicTables();
  // Pivot-style conditional aggregation.
  QueryResult r = Query(
      "SELECT SUM(CASE WHEN i_subject = 'history' THEN 1 ELSE 0 END) h, "
      "SUM(CASE WHEN i_subject = 'fiction' THEN 1 ELSE 0 END) f FROM item");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  EXPECT_EQ(r.rows[0][1].AsInt(), 40);
}

TEST_F(EngineTest, WhileLoopInProcedure) {
  SetUpBasicTables();
  Exec("CREATE PROCEDURE sum_to(@n INT) AS BEGIN "
       "DECLARE @i INT = 1; DECLARE @total INT = 0; "
       "WHILE @i <= @n BEGIN "
       "  SET @total = @total + @i; "
       "  SET @i = @i + 1 "
       "END; "
       "SELECT @total AS total "
       "END");
  auto r = server_.CallProcedure("sum_to", {Value::Int(100)}, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 5050);
}

TEST_F(EngineTest, WhileLoopDrivingDml) {
  Exec("CREATE TABLE seq_t (n INT PRIMARY KEY)");
  Exec("DECLARE @i INT = 1; "
       "WHILE @i <= 20 BEGIN "
       "  INSERT INTO seq_t VALUES (@i); "
       "  SET @i = @i + 1 "
       "END;");
  QueryResult r = Query("SELECT COUNT(*), SUM(n) FROM seq_t");
  EXPECT_EQ(r.rows[0][0].AsInt(), 20);
  EXPECT_EQ(r.rows[0][1].AsInt(), 210);
}

TEST_F(EngineTest, UnionAllConcatenatesSelects) {
  SetUpBasicTables();
  QueryResult r = Query(
      "SELECT i_id FROM item WHERE i_id <= 2 "
      "UNION ALL SELECT i_id FROM item WHERE i_id = 1 "
      "UNION ALL SELECT o_id FROM orders WHERE o_id = 30");
  ASSERT_EQ(r.rows.size(), 4u);  // duplicates preserved
  EXPECT_EQ(r.rows[3][0].AsInt(), 30);
  // Arity / type mismatches rejected.
  EXPECT_FALSE(
      server_.Execute("SELECT i_id, i_title FROM item UNION ALL "
                      "SELECT o_id FROM orders")
          .ok());
  EXPECT_FALSE(
      server_.Execute("SELECT i_id FROM item UNION ALL "
                      "SELECT i_title FROM item")
          .ok());
}

TEST_F(EngineTest, UnionAllWithAggregatedMembers) {
  SetUpBasicTables();
  QueryResult r = Query(
      "SELECT COUNT(*) FROM item UNION ALL SELECT COUNT(*) FROM orders");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 50);
  EXPECT_EQ(r.rows[1][0].AsInt(), 30);
}

TEST_F(EngineTest, GetDateUsesSimulatedClock) {
  clock_.AdvanceTo(1234.0);
  QueryResult r = Query("SELECT GETDATE()");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1234);
}

}  // namespace
}  // namespace mtcache
