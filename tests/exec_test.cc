#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/exec.h"

namespace mtcache {
namespace {

/// Direct physical-operator tests: plans are built by hand and run against a
/// small database, checking iterator semantics the SQL-level tests cannot
/// isolate (startup predicates, inclusive/exclusive index bounds, NULL join
/// keys, order preservation).
class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : db_("exec_test_db") {}

  void SetUp() override {
    TableDef def;
    def.name = "nums";
    def.schema = Schema({{"k", TypeId::kInt64, "nums", false},
                         {"v", TypeId::kString, "nums", true},
                         {"grp", TypeId::kInt64, "nums", true}});
    def.primary_key = {0};
    def.indexes.push_back(IndexDef{"nums_pk", {0}, true});
    def.indexes.push_back(IndexDef{"nums_grp", {2}, false});
    ASSERT_TRUE(db_.CreateTable(std::move(def)).ok());
    StoredTable* table = db_.GetStoredTable("nums");
    auto txn = db_.txn_manager().Begin();
    for (int i = 1; i <= 10; ++i) {
      Row row = {Value::Int(i), Value::String("v" + std::to_string(i)),
                 i % 3 == 0 ? Value::Null() : Value::Int(i % 3)};
      ASSERT_TRUE(table->Insert(row, txn.get()).ok());
    }
    db_.txn_manager().Commit(txn.get(), 0.0);
    table->RecomputeStats();
  }

  Schema NumsSchema() { return db_.catalog().GetTable("nums")->schema; }

  PhysicalPtr Scan() {
    auto scan = std::make_unique<PhysSeqScan>();
    scan->def = db_.catalog().GetTable("nums");
    scan->schema = NumsSchema();
    return scan;
  }

  StatusOr<QueryResult> Run(const PhysicalOp& plan, ExecStats* stats = nullptr,
                            const ParamMap& params = {}) {
    ExecContext ctx;
    ctx.storage = &db_;
    ctx.params = &params;
    ctx.stats = stats;
    return ExecutePlan(plan, &ctx);
  }

  Database db_;
};

TEST_F(ExecTest, SeqScanReturnsAllLiveRows) {
  PhysicalPtr scan = Scan();
  auto r = Run(*scan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);
}

TEST_F(ExecTest, StartupFilterTrueRunsChild) {
  auto filter = std::make_unique<PhysFilter>();
  filter->startup = true;
  filter->predicate = std::make_unique<BoundBinary>(
      BinaryOp::kLe, std::make_unique<BoundParam>("@p", TypeId::kNull),
      std::make_unique<BoundLiteral>(Value::Int(100)), TypeId::kBool);
  filter->schema = NumsSchema();
  filter->children.push_back(Scan());
  ParamMap params;
  params["@p"] = Value::Int(50);
  ExecStats stats;
  auto r = Run(*filter, &stats, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);
  EXPECT_GT(stats.local_cost, 5) << "child scan ran";
}

TEST_F(ExecTest, StartupFilterFalseNeverOpensChild) {
  auto filter = std::make_unique<PhysFilter>();
  filter->startup = true;
  filter->predicate = std::make_unique<BoundBinary>(
      BinaryOp::kLe, std::make_unique<BoundParam>("@p", TypeId::kNull),
      std::make_unique<BoundLiteral>(Value::Int(100)), TypeId::kBool);
  filter->schema = NumsSchema();
  filter->children.push_back(Scan());
  ParamMap params;
  params["@p"] = Value::Int(500);
  ExecStats stats;
  auto r = Run(*filter, &stats, params);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  // Only the startup evaluation was charged — no scan rows.
  EXPECT_LT(stats.local_cost, 5) << "child must not be opened (§5.1)";
}

PhysicalPtr MakeSeek(const TableDef* def, int index, BExprPtr lo, bool lo_inc,
                     BExprPtr hi, bool hi_inc) {
  auto seek = std::make_unique<PhysIndexSeek>();
  seek->def = def;
  seek->index_ordinal = index;
  seek->lo = std::move(lo);
  seek->lo_inclusive = lo_inc;
  seek->hi = std::move(hi);
  seek->hi_inclusive = hi_inc;
  seek->schema = def->schema;
  return seek;
}

BExprPtr IntLit(int64_t v) {
  return std::make_unique<BoundLiteral>(Value::Int(v));
}

TEST_F(ExecTest, IndexSeekRangeBoundsInclusiveExclusive) {
  const TableDef* def = db_.catalog().GetTable("nums");
  struct Case {
    bool lo_inc, hi_inc;
    size_t expected;  // k in 3..7 with varying inclusivity
  } cases[] = {{true, true, 5}, {false, true, 4}, {true, false, 4},
               {false, false, 3}};
  for (const Case& c : cases) {
    PhysicalPtr seek =
        MakeSeek(def, 0, IntLit(3), c.lo_inc, IntLit(7), c.hi_inc);
    auto r = Run(*seek);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows.size(), c.expected)
        << "lo_inc=" << c.lo_inc << " hi_inc=" << c.hi_inc;
  }
}

TEST_F(ExecTest, IndexSeekEqualityPrefix) {
  const TableDef* def = db_.catalog().GetTable("nums");
  auto seek = std::make_unique<PhysIndexSeek>();
  seek->def = def;
  seek->index_ordinal = 1;  // nums_grp
  seek->eq_prefix.push_back(IntLit(1));
  seek->schema = def->schema;
  auto r = Run(*seek);
  ASSERT_TRUE(r.ok());
  // grp = 1 for k in {1,4,7,10}.
  EXPECT_EQ(r->rows.size(), 4u);
}

TEST_F(ExecTest, IndexSeekNullKeyMatchesNothing) {
  const TableDef* def = db_.catalog().GetTable("nums");
  auto seek = std::make_unique<PhysIndexSeek>();
  seek->def = def;
  seek->index_ordinal = 1;
  seek->eq_prefix.push_back(
      std::make_unique<BoundLiteral>(Value::TypedNull(TypeId::kInt64)));
  seek->schema = def->schema;
  auto r = Run(*seek);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(ExecTest, HashJoinSkipsNullKeysInner) {
  // Self-join on grp: rows with NULL grp (k = 3,6,9) join nothing.
  auto join = std::make_unique<PhysHashJoin>();
  join->join_kind = JoinKind::kInner;
  join->probe_keys = {2};
  join->build_keys = {2};
  join->schema = Schema::Concat(NumsSchema(), NumsSchema());
  join->children.push_back(Scan());
  join->children.push_back(Scan());
  auto r = Run(*join);
  ASSERT_TRUE(r.ok());
  // grp=1: 4 rows -> 16 pairs; grp=2: 3 rows -> 9 pairs; NULLs: none.
  EXPECT_EQ(r->rows.size(), 25u);
}

TEST_F(ExecTest, HashJoinLeftOuterNullExtendsUnmatchedAndNullKeys) {
  auto join = std::make_unique<PhysHashJoin>();
  join->join_kind = JoinKind::kLeftOuter;
  join->probe_keys = {2};
  join->build_keys = {0};  // grp vs k: grp values 1,2 match k=1,2
  join->schema = Schema::Concat(NumsSchema(), NumsSchema());
  join->children.push_back(Scan());
  join->children.push_back(Scan());
  auto r = Run(*join);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 10u);  // every probe row appears exactly once
  int null_extended = 0;
  for (const Row& row : r->rows) {
    if (row[3].is_null()) ++null_extended;  // right side k is null
  }
  EXPECT_EQ(null_extended, 3) << "the three NULL-grp rows null-extend";
}

TEST_F(ExecTest, NLJoinCrossProduct) {
  auto join = std::make_unique<PhysNLJoin>();
  join->join_kind = JoinKind::kInner;
  join->schema = Schema::Concat(NumsSchema(), NumsSchema());
  join->children.push_back(Scan());
  join->children.push_back(Scan());
  auto r = Run(*join);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 100u);
}

TEST_F(ExecTest, HashAggregateGroupsWithNullGroup) {
  auto agg = std::make_unique<PhysHashAggregate>();
  agg->group_by.push_back(
      std::make_unique<BoundColumnRef>(2, TypeId::kInt64, "grp"));
  AggItem count;
  count.func = AggFunc::kCountStar;
  agg->aggs.push_back(std::move(count));
  AggItem sum;
  sum.func = AggFunc::kSum;
  sum.arg = std::make_unique<BoundColumnRef>(0, TypeId::kInt64, "k");
  agg->aggs.push_back(std::move(sum));
  agg->schema = Schema({{"grp", TypeId::kInt64, "", true},
                        {"cnt", TypeId::kInt64, "", false},
                        {"sum", TypeId::kInt64, "", true}});
  agg->children.push_back(Scan());
  auto r = Run(*agg);
  ASSERT_TRUE(r.ok());
  // Groups: 1, 2, NULL (NULLs group together, SQL GROUP BY semantics).
  EXPECT_EQ(r->rows.size(), 3u);
  int64_t total = 0;
  for (const Row& row : r->rows) total += row[1].AsInt();
  EXPECT_EQ(total, 10);
}

TEST_F(ExecTest, AggregatesIgnoreNullInputs) {
  auto agg = std::make_unique<PhysHashAggregate>();
  AggItem count;
  count.func = AggFunc::kCount;
  count.arg = std::make_unique<BoundColumnRef>(2, TypeId::kInt64, "grp");
  agg->aggs.push_back(std::move(count));
  AggItem min;
  min.func = AggFunc::kMin;
  min.arg = std::make_unique<BoundColumnRef>(2, TypeId::kInt64, "grp");
  agg->aggs.push_back(std::move(min));
  agg->schema = Schema({{"cnt", TypeId::kInt64, "", false},
                        {"mn", TypeId::kInt64, "", true}});
  agg->children.push_back(Scan());
  auto r = Run(*agg);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 7);  // 10 rows - 3 NULLs
  EXPECT_EQ(r->rows[0][1].AsInt(), 1);
}

TEST_F(ExecTest, SortDescThenLimit) {
  auto sort = std::make_unique<PhysSort>();
  SortKey key;
  key.expr = std::make_unique<BoundColumnRef>(0, TypeId::kInt64, "k");
  key.desc = true;
  sort->keys.push_back(std::move(key));
  sort->schema = NumsSchema();
  sort->children.push_back(Scan());

  auto limit = std::make_unique<PhysLimit>();
  limit->limit = 3;
  limit->schema = NumsSchema();
  limit->children.push_back(std::move(sort));

  auto r = Run(*limit);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 10);
  EXPECT_EQ(r->rows[2][0].AsInt(), 8);
}

TEST_F(ExecTest, SortPutsNullsFirst) {
  auto sort = std::make_unique<PhysSort>();
  SortKey key;
  key.expr = std::make_unique<BoundColumnRef>(2, TypeId::kInt64, "grp");
  sort->keys.push_back(std::move(key));
  sort->schema = NumsSchema();
  sort->children.push_back(Scan());
  auto r = Run(*sort);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows[0][2].is_null());
  EXPECT_TRUE(r->rows[2][2].is_null());
  EXPECT_FALSE(r->rows[3][2].is_null());
}

// A Top-N sort returns exactly what a full (stable) sort followed by the
// Limit returns, ties included: grp has duplicates and NULLs, and the
// second key is computed, so both key kinds are compared.
TEST_F(ExecTest, TopNSortEqualsSortThenLimit) {
  auto make_sort = [&](int64_t top) {
    auto sort = std::make_unique<PhysSort>();
    SortKey grp;
    grp.expr = std::make_unique<BoundColumnRef>(2, TypeId::kInt64, "grp");
    grp.desc = true;
    sort->keys.push_back(std::move(grp));
    SortKey parity;  // k % 2: ties within a grp stay in input order
    parity.expr = std::make_unique<BoundBinary>(
        BinaryOp::kMod, std::make_unique<BoundColumnRef>(0, TypeId::kInt64, "k"),
        IntLit(2), TypeId::kInt64);
    sort->keys.push_back(std::move(parity));
    sort->limit = top;
    sort->schema = NumsSchema();
    sort->children.push_back(Scan());
    return sort;
  };
  auto full = Run(*make_sort(0));
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->rows.size(), 10u);
  for (int64_t n = 1; n <= 12; ++n) {
    auto top = Run(*make_sort(n));
    ASSERT_TRUE(top.ok());
    const size_t want = std::min<size_t>(static_cast<size_t>(n), 10);
    ASSERT_EQ(top->rows.size(), want) << "top " << n;
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ(top->rows[i][0].AsInt(), full->rows[i][0].AsInt())
          << "top " << n << ", row " << i;
    }
  }
}

TEST_F(ExecTest, DistinctPreservesArrivalOrder) {
  auto project = std::make_unique<PhysProject>();
  project->exprs.push_back(
      std::make_unique<BoundColumnRef>(2, TypeId::kInt64, "grp"));
  project->schema = Schema({{"grp", TypeId::kInt64, "", true}});
  project->children.push_back(Scan());
  auto distinct = std::make_unique<PhysDistinct>();
  distinct->schema = project->schema;
  distinct->children.push_back(std::move(project));
  auto r = Run(*distinct);
  ASSERT_TRUE(r.ok());
  // Arrival order of first occurrences: grp(k=1)=1, grp(k=2)=2, grp(k=3)=NULL.
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
  EXPECT_EQ(r->rows[1][0].AsInt(), 2);
  EXPECT_TRUE(r->rows[2][0].is_null());
}

TEST_F(ExecTest, UnionAllConcatenatesInChildOrder) {
  auto mk_filtered = [&](int64_t k) {
    auto filter = std::make_unique<PhysFilter>();
    filter->predicate = std::make_unique<BoundBinary>(
        BinaryOp::kEq, std::make_unique<BoundColumnRef>(0, TypeId::kInt64, "k"),
        IntLit(k), TypeId::kBool);
    filter->schema = NumsSchema();
    filter->children.push_back(Scan());
    return filter;
  };
  auto u = std::make_unique<PhysUnionAll>();
  u->schema = NumsSchema();
  u->children.push_back(mk_filtered(9));
  u->children.push_back(mk_filtered(2));
  auto r = Run(*u);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 9);
  EXPECT_EQ(r->rows[1][0].AsInt(), 2);
}

TEST_F(ExecTest, IndexNLJoinProjectionAndResidual) {
  // Join nums with itself through the pk index: outer grp -> inner k,
  // projecting the inner side to (v) only.
  auto join = std::make_unique<PhysIndexNLJoin>();
  join->join_kind = JoinKind::kInner;
  join->inner_def = db_.catalog().GetTable("nums");
  join->index_ordinal = 0;
  join->outer_key = 2;  // grp
  join->inner_projection.push_back(
      std::make_unique<BoundColumnRef>(1, TypeId::kString, "v"));
  Schema inner_schema({{"v", TypeId::kString, "", true}});
  join->schema = Schema::Concat(NumsSchema(), inner_schema);
  join->children.push_back(Scan());
  auto r = Run(*join);
  ASSERT_TRUE(r.ok());
  // 7 outer rows with non-NULL grp, each matching exactly one inner pk row.
  ASSERT_EQ(r->rows.size(), 7u);
  for (const Row& row : r->rows) {
    int64_t grp = row[2].AsInt();
    EXPECT_EQ(row[3].AsString(), "v" + std::to_string(grp));
  }
}

TEST_F(ExecTest, CostAccountingMatchesOperatorConstants) {
  ExecStats stats;
  PhysicalPtr scan = Scan();
  auto r = Run(*scan, &stats);
  ASSERT_TRUE(r.ok());
  // 10 live slots scanned at kSeqRowCost each.
  EXPECT_DOUBLE_EQ(stats.local_cost, 10.0);
}

}  // namespace
}  // namespace mtcache
