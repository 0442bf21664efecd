#include <gtest/gtest.h>

#include "binder/binder.h"
#include "engine/server.h"
#include "opt/cardinality.h"
#include "opt/optimizer.h"
#include "opt/unparse.h"
#include "opt/view_matching.h"
#include "sql/parser.h"

namespace mtcache {
namespace {

// ---------------------------------------------------------------------------
// Fixtures: a standalone catalog with synthetic statistics (no storage
// needed: the optimizer works purely from the catalog, which is the whole
// point of shadowed statistics).
// ---------------------------------------------------------------------------

ColumnStats MakeStats(double min, double max, double ndv) {
  ColumnStats cs;
  cs.min = min;
  cs.max = max;
  cs.ndv = ndv;
  return cs;
}

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef customer;
    customer.name = "customer";
    customer.schema = Schema({{"cid", TypeId::kInt64, "customer", false},
                              {"cname", TypeId::kString, "customer", true},
                              {"region", TypeId::kString, "customer", true}});
    customer.primary_key = {0};
    customer.indexes.push_back(IndexDef{"customer_pk", {0}, true});
    customer.stats.row_count = 10000;
    customer.stats.columns = {MakeStats(1, 10000, 10000),
                              MakeStats(0, 1, 9000), MakeStats(0, 1, 4)};
    ASSERT_TRUE(catalog_.CreateTable(std::move(customer)).ok());

    TableDef orders;
    orders.name = "orders";
    orders.schema = Schema({{"okey", TypeId::kInt64, "orders", false},
                            {"ckey", TypeId::kInt64, "orders", true},
                            {"total", TypeId::kDouble, "orders", true}});
    orders.primary_key = {0};
    orders.indexes.push_back(IndexDef{"orders_pk", {0}, true});
    orders.indexes.push_back(IndexDef{"orders_ckey", {1}, false});
    orders.stats.row_count = 50000;
    orders.stats.columns = {MakeStats(1, 50000, 50000),
                            MakeStats(1, 10000, 10000),
                            MakeStats(0, 5000, 20000)};
    ASSERT_TRUE(catalog_.CreateTable(std::move(orders)).ok());
  }

  LogicalPtr Bind(const std::string& sql) {
    auto stmt = ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&catalog_, "dbo");
    auto plan = binder.BindSelect(static_cast<const SelectStmt&>(**stmt));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << sql;
    return plan.ok() ? plan.ConsumeValue() : nullptr;
  }

  OptimizeResult Optimize(const std::string& sql,
                          OptimizerOptions opts = {}) {
    LogicalPtr logical = Bind(sql);
    Optimizer optimizer(&catalog_, opts);
    auto result = optimizer.Optimize(*logical);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? result.ConsumeValue() : OptimizeResult{};
  }

  Catalog catalog_;
};

TEST_F(OptimizerTest, PointLookupPicksPkIndexSeek) {
  OptimizeResult r = Optimize("SELECT cname FROM customer WHERE cid = 7");
  std::string text = PhysicalToString(*r.plan);
  EXPECT_NE(text.find("IndexSeek(customer.customer_pk)"), std::string::npos)
      << text;
  EXPECT_LT(r.est_rows, 3);
}

TEST_F(OptimizerTest, UnselectivePredicatePrefersSeqScan) {
  OptimizeResult r = Optimize("SELECT cname FROM customer WHERE cid > 5");
  std::string text = PhysicalToString(*r.plan);
  EXPECT_NE(text.find("SeqScan(customer)"), std::string::npos) << text;
}

TEST_F(OptimizerTest, RangePredicateUsesIndexWhenSelective) {
  OptimizeResult r = Optimize(
      "SELECT cname FROM customer WHERE cid >= 100 AND cid <= 120");
  std::string text = PhysicalToString(*r.plan);
  EXPECT_NE(text.find("IndexSeek(customer.customer_pk)"), std::string::npos)
      << text;
}

TEST_F(OptimizerTest, EquiJoinWithIndexedInnerUsesIndexNLJoin) {
  OptimizeResult r = Optimize(
      "SELECT c.cname, o.total FROM customer c, orders o "
      "WHERE c.cid = 3 AND c.cid = o.ckey");
  std::string text = PhysicalToString(*r.plan);
  EXPECT_NE(text.find("IndexNLJoin(orders.orders_ckey)"), std::string::npos)
      << text;
}

TEST_F(OptimizerTest, JoinCommutesBuildOntoSmallerInput) {
  // Left side is the big orders table, right side the smaller customer
  // table: building on the (selective) left side is wrong; the planner
  // should either keep build=right or probe the orders index. Conversely,
  // with a tiny filtered LEFT input and a huge right input, the commuted
  // plan (build on left) wins.
  OptimizeResult r = Optimize(
      "SELECT c.cname FROM customer c, orders o "
      "WHERE c.region = 'east' AND c.cid = o.okey");
  std::string text = PhysicalToString(*r.plan);
  if (text.find("HashJoin") != std::string::npos) {
    // If a hash join was chosen, the build side (second child) must be the
    // filtered customer input, i.e. the plan is the commuted one whose
    // first child scans orders.
    EXPECT_NE(text.find("Project"), std::string::npos) << text;
  } else {
    // Otherwise the index path on orders.okey is fine too.
    EXPECT_NE(text.find("IndexNLJoin"), std::string::npos) << text;
  }
  // Execution correctness of the commuted shape is covered by the
  // property-based equivalence suite.
}

TEST_F(OptimizerTest, LargeJoinPrefersHashJoin) {
  // Whole-table join: per-probe index seeks are costlier than one build.
  OptimizeResult r = Optimize(
      "SELECT COUNT(*) FROM orders o, customer c WHERE o.ckey = c.cid");
  std::string text = PhysicalToString(*r.plan);
  EXPECT_NE(text.find("HashJoin"), std::string::npos) << text;
}

TEST_F(OptimizerTest, FilterPushdownThroughJoin) {
  OptimizeResult r = Optimize(
      "SELECT c.cname FROM customer c, orders o "
      "WHERE c.cid = o.ckey AND c.region = 'east' AND o.total > 4999");
  std::string text = PhysicalToString(*r.plan);
  // Both single-table conjuncts sit below the join as filters/seeks, not in
  // a residual above it.
  size_t join_pos = text.find("Join");
  ASSERT_NE(join_pos, std::string::npos);
  size_t region_pos = text.find("region");
  size_t total_pos = text.find("total >");
  EXPECT_GT(region_pos, join_pos) << text;  // below = printed after the join
  EXPECT_GT(total_pos, join_pos) << text;
}

TEST_F(OptimizerTest, CardinalityEstimatesAreSane) {
  LogicalPtr scan = Bind("SELECT cid FROM customer");
  RelStats all = EstimateLogical(*scan);
  EXPECT_DOUBLE_EQ(all.rows, 10000);

  LogicalPtr eq = Bind("SELECT cid FROM customer WHERE cid = 5");
  EXPECT_NEAR(EstimateLogical(*eq).rows, 1, 1);

  LogicalPtr half = Bind("SELECT cid FROM customer WHERE cid <= 5000");
  EXPECT_NEAR(EstimateLogical(*half).rows, 5000, 500);

  LogicalPtr join = Bind(
      "SELECT c.cid FROM customer c, orders o WHERE c.cid = o.ckey");
  EXPECT_NEAR(EstimateLogical(*join).rows, 50000, 5000);
}

TEST_F(OptimizerTest, GuardProbabilityUniformAssumption) {
  ColumnStats cs = MakeStats(0, 1000, 1000);
  EXPECT_NEAR(EstimateGuardProbability(CompareOp::kLe, 250, cs), 0.25, 1e-9);
  EXPECT_NEAR(EstimateGuardProbability(CompareOp::kGe, 250, cs), 0.75, 1e-9);
  EXPECT_NEAR(EstimateGuardProbability(CompareOp::kLe, 2000, cs), 1.0, 1e-9);
}

TEST_F(OptimizerTest, SelectivityOfLiteralPredicates) {
  // Predicate ordinals reference the base-table schema, so take the stats
  // straight from the catalog (what the Get node would report).
  RelStats stats;
  const TableDef* customer = catalog_.GetTable("customer");
  stats.rows = customer->stats.row_count;
  stats.cols = customer->stats.columns;
  Binder binder(&catalog_, "dbo");
  auto parse_pred = [&](const std::string& where) {
    auto stmt = ParseSql("SELECT cid FROM customer WHERE " + where);
    auto plan = binder.BindSelect(static_cast<const SelectStmt&>(**stmt));
    // plan: Project(Filter(Get)); grab the filter predicate.
    const LogicalOp* filter = plan->get()->children[0].get();
    EXPECT_EQ(filter->kind, LogicalKind::kFilter);
    return CloneBound(*static_cast<const LogicalFilter*>(filter)->predicate);
  };
  EXPECT_NEAR(EstimateSelectivity(*parse_pred("cid = 7"), stats), 1e-4, 1e-5);
  EXPECT_NEAR(EstimateSelectivity(*parse_pred("cid <= 2500"), stats), 0.25,
              0.01);
  EXPECT_NEAR(EstimateSelectivity(*parse_pred("region = 'east'"), stats),
              0.25, 0.01);
  double d = EstimateSelectivity(*parse_pred("cid <= 2500 AND region = 'east'"),
                                 stats);
  EXPECT_NEAR(d, 0.0625, 0.01);  // independence
}

// ---------------------------------------------------------------------------
// View matching unit tests (structural, no execution).
// ---------------------------------------------------------------------------

class ViewMatchingTest : public OptimizerTest {
 protected:
  void AddView(const std::string& name, std::vector<std::string> columns,
               std::vector<SimplePredicate> preds,
               RelationKind kind = RelationKind::kCachedView) {
    const TableDef* base = catalog_.GetTable("customer");
    TableDef view;
    view.name = name;
    view.kind = kind;
    view.view_def = SelectProjectDef{"customer", columns, preds};
    for (const std::string& col : columns) {
      int ord = base->ColumnOrdinal(col);
      ColumnInfo info = base->schema.column(ord);
      info.table = name;
      view.schema.AddColumn(info);
      view.stats.columns.push_back(base->stats.columns[ord]);
    }
    view.primary_key = {0};
    view.indexes.push_back(IndexDef{name + "_pk", {0}, true});
    view.stats.row_count = 5000;
    view.freshness_time = 0;
    ASSERT_TRUE(catalog_.CreateTable(std::move(view)).ok());
  }

  std::vector<ViewMatch> Match(const std::string& sql) {
    LogicalPtr plan = Bind(sql);
    // Normalized shape from the binder here: Project(Filter(Get)) or
    // Project(Get).
    LogicalOp* node = plan->children[0].get();
    const BoundExpr* pred = nullptr;
    const LogicalGet* get = nullptr;
    if (node->kind == LogicalKind::kFilter) {
      pred = static_cast<LogicalFilter*>(node)->predicate.get();
      get = static_cast<const LogicalGet*>(node->children[0].get());
    } else {
      get = static_cast<const LogicalGet*>(node);
    }
    std::vector<const BoundExpr*> conjuncts;
    if (pred != nullptr) CollectConjuncts(*pred, &conjuncts);
    std::set<int> used;
    for (const auto& e :
         static_cast<LogicalProject*>(plan.get())->exprs) {
      std::vector<int> refs;
      CollectColumnRefs(*e, &refs);
      used.insert(refs.begin(), refs.end());
    }
    matches_storage_ = MatchViews(*get, conjuncts, used, catalog_,
                                  /*allow_mixed_results=*/true);
    return std::move(matches_storage_);
  }

  std::vector<ViewMatch> matches_storage_;
};

TEST_F(ViewMatchingTest, UnconditionalContainment) {
  AddView("cust5000", {"cid", "cname"},
          {{"cid", CompareOp::kLe, Value::Int(5000)}});
  auto matches = Match("SELECT cname FROM customer WHERE cid <= 3000");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].guard, nullptr);
  EXPECT_NE(matches[0].substitute, nullptr);
}

TEST_F(ViewMatchingTest, NoMatchWhenRegionNotContained) {
  AddView("cust5000", {"cid", "cname"},
          {{"cid", CompareOp::kLe, Value::Int(5000)}});
  auto matches = Match("SELECT cname FROM customer WHERE cid <= 7000");
  EXPECT_TRUE(matches.empty());
}

TEST_F(ViewMatchingTest, NoMatchWhenColumnMissing) {
  AddView("cust_noname", {"cid"}, {});
  auto matches = Match("SELECT cname FROM customer WHERE cid = 5");
  EXPECT_TRUE(matches.empty());
}

TEST_F(ViewMatchingTest, EqualityImpliesRange) {
  AddView("cust5000", {"cid", "cname"},
          {{"cid", CompareOp::kLe, Value::Int(5000)}});
  auto matches = Match("SELECT cname FROM customer WHERE cid = 123");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].guard, nullptr);
}

TEST_F(ViewMatchingTest, ParameterizedMatchProducesGuard) {
  AddView("cust5000", {"cid", "cname"},
          {{"cid", CompareOp::kLe, Value::Int(5000)}});
  auto matches = Match("SELECT cname FROM customer WHERE cid <= @p");
  ASSERT_EQ(matches.size(), 1u);
  ASSERT_NE(matches[0].guard, nullptr);
  EXPECT_EQ(BoundToSql(*matches[0].guard), "(@p <= 5000)");
  // Fl under the uniform assumption: 5000 of [1,10000] ~ 0.5.
  EXPECT_NEAR(matches[0].guard_prob, 0.5, 0.05);
}

TEST_F(ViewMatchingTest, ParameterizedEqualityGuard) {
  AddView("cust5000", {"cid", "cname"},
          {{"cid", CompareOp::kLe, Value::Int(5000)}});
  auto matches = Match("SELECT cname FROM customer WHERE cid = @p");
  ASSERT_EQ(matches.size(), 1u);
  ASSERT_NE(matches[0].guard, nullptr);
  EXPECT_EQ(BoundToSql(*matches[0].guard), "(@p <= 5000)");
}

TEST_F(ViewMatchingTest, MixedPlanOnlyForRegularMatviews) {
  AddView("cached_v", {"cid", "cname"},
          {{"cid", CompareOp::kLe, Value::Int(5000)}},
          RelationKind::kCachedView);
  auto cached = Match("SELECT cname FROM customer WHERE cid <= @p");
  ASSERT_EQ(cached.size(), 1u);
  EXPECT_EQ(cached[0].mixed, nullptr) << "cached views never mix (§5.1.1)";

  ASSERT_TRUE(catalog_.DropTable("cached_v").ok());
  AddView("regular_v", {"cid", "cname"},
          {{"cid", CompareOp::kLe, Value::Int(5000)}},
          RelationKind::kMaterializedView);
  auto regular = Match("SELECT cname FROM customer WHERE cid <= @p");
  ASSERT_EQ(regular.size(), 1u);
  EXPECT_NE(regular[0].mixed, nullptr);
  EXPECT_EQ(regular[0].mixed->kind, LogicalKind::kUnionAll);
}

TEST_F(ViewMatchingTest, MultiplePredicatesAllMustBeImplied) {
  AddView("east5000", {"cid", "cname", "region"},
          {{"cid", CompareOp::kLe, Value::Int(5000)},
           {"region", CompareOp::kEq, Value::String("east")}});
  auto ok = Match(
      "SELECT cname FROM customer WHERE cid <= 100 AND region = 'east'");
  EXPECT_EQ(ok.size(), 1u);
  auto missing_region = Match("SELECT cname FROM customer WHERE cid <= 100");
  EXPECT_TRUE(missing_region.empty());
}

TEST_F(ViewMatchingTest, FreshnessGateSkipsStaleViews) {
  AddView("cust5000", {"cid", "cname"},
          {{"cid", CompareOp::kLe, Value::Int(5000)}});
  TableDef* view = catalog_.GetTable("cust5000");
  view->freshness_time = 100.0;

  LogicalPtr plan = Bind("SELECT cname FROM customer WHERE cid <= 10");
  LogicalOp* filter = plan->children[0].get();
  const auto* get =
      static_cast<const LogicalGet*>(filter->children[0].get());
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(*static_cast<LogicalFilter*>(filter)->predicate,
                   &conjuncts);
  std::set<int> used = {0, 1};
  // Stale beyond budget: now=200, staleness budget 30 -> 100s behind.
  EXPECT_TRUE(MatchViews(*get, conjuncts, used, catalog_, true, 30.0, 200.0)
                  .empty());
  // Within budget.
  EXPECT_EQ(MatchViews(*get, conjuncts, used, catalog_, true, 150.0, 200.0)
                .size(),
            1u);
  // No budget: always eligible.
  EXPECT_EQ(MatchViews(*get, conjuncts, used, catalog_, true).size(), 1u);
}

// ---------------------------------------------------------------------------
// Unparser round trips (shipped SQL must re-parse and re-bind remotely).
// ---------------------------------------------------------------------------

class UnparseTest : public OptimizerTest {};

TEST_F(UnparseTest, RoundTripsThroughParserAndBinder) {
  const char* kQueries[] = {
      "SELECT cname FROM customer WHERE cid <= 100",
      "SELECT c.cname, o.total FROM customer c, orders o WHERE c.cid = o.ckey "
      "AND o.total > 10",
      "SELECT region, COUNT(*) FROM customer GROUP BY region",
      "SELECT TOP 5 okey FROM orders ORDER BY total DESC",
      "SELECT DISTINCT region FROM customer",
      "SELECT cname FROM customer WHERE cid <= @p AND cname LIKE 'a%'",
      "SELECT CASE WHEN cid > 100 THEN region ELSE cname END FROM customer",
  };
  for (const char* sql : kQueries) {
    LogicalPtr plan = Bind(sql);
    ASSERT_TRUE(IsUnparsable(*plan)) << sql;
    auto text = LogicalToSql(*plan);
    ASSERT_TRUE(text.ok()) << sql << ": " << text.status().ToString();
    // The shipped text must parse and bind on a server with the same
    // catalog (the backend's situation).
    auto reparsed = ParseSql(*text);
    ASSERT_TRUE(reparsed.ok()) << *text;
    Binder binder(&catalog_, "dbo");
    auto rebound =
        binder.BindSelect(static_cast<const SelectStmt&>(**reparsed));
    ASSERT_TRUE(rebound.ok()) << *text << "\n" << rebound.status().ToString();
    // Same output arity.
    EXPECT_EQ((*rebound)->schema.num_columns(), plan->schema.num_columns())
        << sql;
  }
}

TEST_F(UnparseTest, DualScanIsNotShippable) {
  LogicalPtr plan = Bind("SELECT 1 + 1");
  EXPECT_FALSE(IsUnparsable(*plan));
}

// Shipped SQL for one query that uses every bound expression kind: CASE,
// each builtin, LIKE and NOT LIKE, IS NULL and IS NOT NULL, both unary
// operators, the arithmetic, comparison and logical operators, a literal of
// each type and a parameter. The backend parses exactly this text, so it is
// pinned byte for byte.
TEST_F(UnparseTest, EveryExpressionKindRendersPinnedText) {
  LogicalPtr plan = Bind(
      "SELECT CASE WHEN c.cid > 10 THEN c.cname ELSE 'none' END, "
      "ABS(o.total - 5), LEN(c.cname), SUBSTRING(c.cname, 1, 3), "
      "ROUND(o.total * 2, 1), COALESCE(c.region, 'x'), GETDATE(), "
      "-o.total, (c.cid + 1) % 7, o.okey / 2 "
      "FROM customer c JOIN orders o ON c.cid = o.ckey "
      "WHERE c.cname LIKE 'a%' AND c.region NOT LIKE '%x' "
      "AND o.total IS NOT NULL AND (c.region IS NULL OR NOT (o.okey <> @p)) "
      "AND o.total >= 1.5 AND o.total <= 100 AND c.cid < 50");
  ASSERT_NE(plan, nullptr);
  auto text = LogicalToSql(*plan);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text,
            "SELECT CASE WHEN (q5.c0 > 10) THEN q5.c1 ELSE 'none' END AS c0, "
            "ABS((q5.c5 - 5)) AS c1, LEN(q5.c1) AS c2, SUBSTRING(q5.c1, 1, 3) "
            "AS c3, ROUND((q5.c5 * 2), 1) AS c4, COALESCE(q5.c2, 'x') AS c5, "
            "GETDATE() AS c6, -(q5.c5) AS c7, ((q5.c0 + 1) % 7) AS c8, (q5.c3 "
            "/ 2) AS c9 FROM (SELECT q4.c0 AS c0, q4.c1 AS c1, q4.c2 AS c2, "
            "q4.c3 AS c3, q4.c4 AS c4, q4.c5 AS c5 FROM (SELECT q2.c0 AS c0, "
            "q2.c1 AS c1, q2.c2 AS c2, q3.c0 AS c3, q3.c1 AS c4, q3.c2 AS c5 "
            "FROM (SELECT q0.cid AS c0, q0.cname AS c1, q0.region AS c2 FROM "
            "customer q0) q2 JOIN (SELECT q1.okey AS c0, q1.ckey AS c1, "
            "q1.total AS c2 FROM orders q1) q3 ON (q2.c0 = q3.c1)) q4 WHERE "
            "(((((((q4.c1 LIKE 'a%') AND (q4.c2 NOT LIKE '%x')) AND (q4.c5 IS "
            "NOT NULL)) AND ((q4.c2 IS NULL) OR NOT ((q4.c3 <> @p)))) AND "
            "(q4.c5 >= 1.5)) AND (q4.c5 <= 100)) AND (q4.c0 < 50))) q5");
}

// ---------------------------------------------------------------------------
// Normalization shapes via plan text.
// ---------------------------------------------------------------------------

TEST_F(OptimizerTest, PredicateNotPushedPastLimit) {
  // Filtering above TOP must not leak below it (semantics!).
  LogicalPtr inner = Bind(
      "SELECT x.okey FROM (SELECT TOP 10 okey FROM orders ORDER BY total "
      "DESC) x WHERE x.okey > 100");
  Optimizer optimizer(&catalog_, {});
  auto result = optimizer.Optimize(*inner);
  ASSERT_TRUE(result.ok());
  std::string text = PhysicalToString(*result->plan);
  // The okey filter must appear ABOVE (printed before) the Limit.
  size_t filter_pos = text.find("okey > 100");
  size_t limit_pos = text.find("Limit");
  ASSERT_NE(filter_pos, std::string::npos) << text;
  ASSERT_NE(limit_pos, std::string::npos) << text;
  EXPECT_LT(filter_pos, limit_pos) << text;
}

TEST_F(OptimizerTest, OuterJoinPredicateNotPushedToNullSide) {
  OptimizeResult r = Optimize(
      "SELECT c.cname FROM customer c LEFT OUTER JOIN orders o "
      "ON c.cid = o.ckey WHERE o.total IS NULL");
  std::string text = PhysicalToString(*r.plan);
  // The IS NULL test must sit above the join.
  size_t join_pos = text.find("Join");
  size_t null_pos = text.find("IS NULL");
  ASSERT_NE(join_pos, std::string::npos);
  ASSERT_NE(null_pos, std::string::npos);
  EXPECT_LT(null_pos, join_pos) << text;
}


// On an integer column a strict bound selects what the next inclusive bound
// does, so it must estimate the same rows (over unique ids 0..199 with fresh
// statistics, `id < 10` once estimated `id <= 10`'s 11.46 rows against
// `id <= 9`'s 10.42).
TEST(StrictRangeTest, StrictBoundOnAnIntegerColumnIsTheNextInclusiveBound) {
  SimClock clock;
  Server server(ServerOptions{"backend", "dbo", {}}, &clock);
  ASSERT_TRUE(server.ExecuteScript("CREATE TABLE t (id INT PRIMARY KEY, "
                                   "val INT, score FLOAT)")
                  .ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i * 3) + ", " +
              std::to_string(i) + ".0)";
  }
  ASSERT_TRUE(server.Execute(insert).ok());
  server.RecomputeStats();
  auto rows = [&server](const std::string& where) {
    auto plan = server.Explain("SELECT * FROM t WHERE " + where);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan->est_rows : -1;
  };
  EXPECT_DOUBLE_EQ(rows("id < 10"), rows("id <= 9"));
  EXPECT_DOUBLE_EQ(rows("id > 189"), rows("id >= 190"));
  EXPECT_DOUBLE_EQ(rows("10 > id"), rows("id <= 9"));
  EXPECT_DOUBLE_EQ(rows("id < 9.5"), rows("id <= 9"));
  EXPECT_LT(rows("id < 10"), rows("id <= 10"));
  EXPECT_LT(rows("id > 189"), rows("id >= 189"));
  // A FLOAT column keeps the strict bound as written.
  EXPECT_DOUBLE_EQ(rows("score < 10"), rows("score <= 10"));
}

}  // namespace
}  // namespace mtcache
