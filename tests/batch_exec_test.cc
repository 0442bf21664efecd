// Differential and memory-regression tests for the batch executor.
//
// Every plan runs batch-at-a-time; what may vary is where batch boundaries
// fall. Every query here runs on three servers that differ only in
// ExecContext::batch_capacity (ServerOptions::exec_batch_capacity) and must
// produce identical results:
//   1    one row per batch — row-at-a-time control flow through every
//        operator, the reference the "RowPath" test names refer to;
//   7    a prime that splits almost every input mid-batch, so each operator
//        that carries state across NextBatch calls (hash-join match lists,
//        nested-loop cursors, Limit quotas, aggregate emission) must resume
//        exactly where it stopped;
//   1024 the production default (RowBatch::kMaxRows).
// The corpus is a hand-written set that exercises every operator, then a
// seeded stream of randomly generated queries. More oracles check the
// in-place reads against per-row evaluation: EvalPredicateBatch against
// EvalPredicate over the random corpus's pushed predicates and randomized
// rows of mixed type tags, and HashAggregate's in-place column reads
// against the same aggregate with every argument evaluated per row, through
// SQL and, across a batch of mixed type tags, directly on the executor.
//
// The lifetime cases feed rows owned by a batch arena through Filter, Limit
// and UnionAll into the operators that hold rows across pulls (hash-join
// build, sort, nested-loop inner), locally and across a cache/backend pair;
// under ASan a row held past its lifetime fails them.
//
// The memory tests pin down the copy-free snapshot scan, sort and hash
// join: over a 100k-row table with ~100-byte rows each must report an
// operator memory high-water of O(rows * sizeof(pointer)), not O(table
// payload), through sys.dm_exec_query_profiles.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/server.h"
#include "mtcache/mtcache.h"
#include "expr/bound_expr.h"

// TSan slows execution by an order of magnitude; the bulk-load suites shrink
// their tables under it (GCC defines __SANITIZE_THREAD__, Clang exposes
// __has_feature(thread_sanitizer)).
#if defined(__SANITIZE_THREAD__)
#define MT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MT_TSAN_BUILD 1
#endif
#endif

namespace mtcache {
namespace {

// Stringifies one result row; NULLs render distinctly from empty strings.
std::string RowKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    key += v.is_null() ? "<null>" : v.ToString();
    key += '\x1f';
  }
  return key;
}

// Canonical form of a result: the row-key sequence, sorted unless the query
// guarantees an order. Schema names ride along so a projection mismatch
// fails even when the values happen to collide.
std::vector<std::string> Canon(const QueryResult& r, bool ordered) {
  std::vector<std::string> keys;
  std::string header;
  for (int i = 0; i < r.schema.num_columns(); ++i) {
    header += r.schema.column(i).name + "|";
  }
  keys.push_back(header);
  std::vector<std::string> rows;
  rows.reserve(r.rows.size());
  for (const Row& row : r.rows) rows.push_back(RowKey(row));
  if (!ordered) std::sort(rows.begin(), rows.end());
  keys.insert(keys.end(), rows.begin(), rows.end());
  return keys;
}

// The batch capacities every differential case runs at; the last is the
// production default, which the others are compared against.
constexpr int kCapacities[] = {1, 7, RowBatch::kMaxRows};

std::unique_ptr<Server> MakeServer(int capacity) {
  ServerOptions opts;
  opts.name = "cap" + std::to_string(capacity);
  opts.exec_batch_capacity = capacity;
  return std::make_unique<Server>(opts);
}

// The seeded random corpus: 100 queries over templates that compose
// projection, range and equality predicates (index-seekable and not),
// joins, aggregates, DISTINCT, and ORDER BY ... TOP. Each entry is the SQL
// and whether it pins its output order.
std::vector<std::pair<std::string, bool>> RandomCorpus() {
  std::mt19937 rng(424242);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  static const char* kCmp[] = {"<", "<=", ">", ">=", "="};
  std::vector<std::pair<std::string, bool>> corpus;
  for (int q = 0; q < 100; ++q) {
    std::string sql;
    bool ordered = false;
    switch (pick(0, 5)) {
      case 0: {  // filtered projection over item
        sql = "SELECT i_id, i_cost FROM item WHERE i_cost " +
              std::string(kCmp[pick(0, 4)]) + " " +
              std::to_string(pick(0, 99)) + ".0";
        break;
      }
      case 1: {  // index-seekable range with residual
        int lo = pick(0, 400);
        sql = "SELECT i_id, i_qty FROM item WHERE i_id > " +
              std::to_string(lo) + " AND i_id <= " +
              std::to_string(lo + pick(1, 150)) + " AND i_qty " +
              kCmp[pick(0, 4)] + " " + std::to_string(pick(0, 19));
        break;
      }
      case 2: {  // join with per-side predicates
        sql = "SELECT o.o_id, i.i_subject FROM orders o JOIN item i "
              "ON o.o_item = i.i_id WHERE o.o_total < " +
              std::to_string(pick(1, 62)) + ".0 AND i.i_cost > " +
              std::to_string(pick(0, 80)) + ".0";
        break;
      }
      case 3: {  // grouped aggregate over a filtered scan
        sql = "SELECT i_subject, COUNT(*) c, SUM(i_cost) s FROM item "
              "WHERE i_qty " + std::string(kCmp[pick(0, 4)]) + " " +
              std::to_string(pick(0, 19)) + " GROUP BY i_subject";
        break;
      }
      case 4: {  // distinct projection
        sql = "SELECT DISTINCT i_qty FROM item WHERE i_cost < " +
              std::to_string(pick(1, 99)) + ".0";
        break;
      }
      default: {  // sorted + limited
        sql = "SELECT TOP " + std::to_string(pick(1, 40)) +
              " o_id, o_total FROM orders WHERE o_total > " +
              std::to_string(pick(0, 40)) + ".0 ORDER BY o_total DESC, o_id";
        ordered = true;
        break;
      }
    }
    corpus.emplace_back(std::move(sql), ordered);
  }
  return corpus;
}

// ~500 item rows and ~800 orders rows, loaded through the storage layer
// (the INSERT path would spend the fixture parsing). Deterministic
// contents, including NULLs in nullable columns.
void Load(Server* server) {
  ASSERT_TRUE(server
                  ->ExecuteScript(
                      "CREATE TABLE item (i_id INT PRIMARY KEY, "
                      "i_subject VARCHAR(16), i_cost FLOAT, i_qty INT); "
                      "CREATE INDEX item_qty ON item (i_qty); "
                      "CREATE TABLE orders (o_id INT PRIMARY KEY, "
                      "o_item INT, o_total FLOAT)")
                  .ok());
  static const char* kSubjects[] = {"history", "poetry", "travel", "crime"};
  StoredTable* item = server->db().GetStoredTable("item");
  StoredTable* orders = server->db().GetStoredTable("orders");
  auto txn = server->db().txn_manager().Begin();
  for (int i = 1; i <= 500; ++i) {
    Row r = {Value::Int(i), Value::String(kSubjects[i % 4]),
             i % 11 == 0 ? Value::Null() : Value::Double((i * 7) % 100),
             i % 13 == 0 ? Value::Null() : Value::Int(i % 20)};
    ASSERT_TRUE(item->Insert(r, txn.get()).ok());
  }
  for (int o = 1; o <= 800; ++o) {
    // o_item deliberately overshoots [1, 500] so joins see dangling keys.
    Row r = {Value::Int(o), Value::Int((o * 3) % 600),
             Value::Double((o % 50) * 1.25)};
    ASSERT_TRUE(orders->Insert(r, txn.get()).ok());
  }
  server->db().txn_manager().Commit(txn.get(), 0.0);
  server->RecomputeStats();
}

class BatchDiffTest : public ::testing::Test {
 protected:
  BatchDiffTest() {
    for (int capacity : kCapacities) servers_.push_back(MakeServer(capacity));
  }

  void SetUp() override {
    for (auto& server : servers_) Load(server.get());
  }

  // Runs `sql` at every capacity and requires results identical to the
  // default capacity's. `ordered` = the query pins its output order, so the
  // sequence must match exactly.
  void ExpectSame(const std::string& sql, bool ordered = false) {
    Server& reference = *servers_.back();
    auto want = reference.Execute(sql);
    for (size_t i = 0; i + 1 < servers_.size(); ++i) {
      auto got = servers_[i]->Execute(sql);
      ASSERT_EQ(got.ok(), want.ok())
          << sql << "\n" << servers_[i]->name() << ": "
          << (got.ok() ? "ok" : got.status().ToString()) << "\n"
          << reference.name() << ": "
          << (want.ok() ? "ok" : want.status().ToString());
      if (!want.ok()) continue;  // all failed identically: fine for the
                                 // random corpus
      EXPECT_EQ(Canon(*got, ordered), Canon(*want, ordered))
          << sql << " at capacity " << kCapacities[i];
    }
  }

  std::vector<std::unique_ptr<Server>> servers_;
};

TEST_F(BatchDiffTest, OperatorCorpusMatchesRowPath) {
  // Scans, predicate/projection pushdown, index seeks with residuals.
  ExpectSame("SELECT * FROM item");
  ExpectSame("SELECT i_id, i_cost FROM item WHERE i_cost < 25.0");
  ExpectSame("SELECT i_id FROM item WHERE i_cost >= 90.0 AND i_qty < 10");
  ExpectSame("SELECT i_subject FROM item WHERE i_id = 37");
  ExpectSame("SELECT i_id, i_subject FROM item WHERE i_id > 100 AND "
             "i_id < 120");
  ExpectSame("SELECT i_id FROM item WHERE i_id > 400 AND i_cost < 50.0");
  ExpectSame("SELECT i_id FROM item WHERE i_qty = 7");
  ExpectSame("SELECT i_id FROM item WHERE i_qty = 7 AND i_cost > 30.0");
  ExpectSame("SELECT i_id FROM item WHERE i_cost IS NULL");
  ExpectSame("SELECT i_id FROM item WHERE i_qty IS NOT NULL AND i_qty > 15");
  ExpectSame("SELECT i_id FROM item WHERE i_subject LIKE 'hist%'");
  // Joins (hash, index-nested-loop, outer) across batch boundaries.
  ExpectSame("SELECT o.o_id, i.i_subject FROM orders o JOIN item i "
             "ON o.o_item = i.i_id");
  ExpectSame("SELECT o.o_id, i.i_cost FROM orders o JOIN item i "
             "ON o.o_item = i.i_id WHERE i.i_cost > 50.0 AND o.o_total < 20.0");
  ExpectSame("SELECT i.i_id, o.o_total FROM item i LEFT OUTER JOIN orders o "
             "ON i.i_id = o.o_item WHERE i.i_id < 50");
  // Nested loops (non-equi), inner and left outer; index nested loops with
  // an inner predicate, inner and left outer (unmatched rows NULL-extend).
  ExpectSame("SELECT a.i_id, b.i_id FROM item a JOIN item b "
             "ON a.i_qty < b.i_qty WHERE a.i_id < 20 AND b.i_id < 30");
  ExpectSame("SELECT a.i_id, o.o_id FROM item a LEFT OUTER JOIN orders o "
             "ON a.i_qty > o.o_total AND o.o_id < 40 WHERE a.i_id < 15");
  ExpectSame("SELECT o.o_id, i.i_cost FROM orders o JOIN item i "
             "ON o.o_item = i.i_id WHERE o.o_id < 60 AND i.i_cost > 30.0");
  ExpectSame("SELECT o.o_id, i.i_cost FROM orders o LEFT OUTER JOIN item i "
             "ON o.o_item = i.i_id AND i.i_cost > 50.0 WHERE o.o_id < 10");
  // Aggregation, distinct, sort/limit, unions, subqueries.
  ExpectSame("SELECT i_subject, COUNT(*) cnt, SUM(i_cost) s, AVG(i_qty) a "
             "FROM item GROUP BY i_subject");
  ExpectSame("SELECT COUNT(*), MIN(i_cost), MAX(i_cost) FROM item");
  ExpectSame("SELECT DISTINCT i_subject FROM item");
  ExpectSame("SELECT DISTINCT i_qty FROM item WHERE i_cost > 60.0");
  ExpectSame("SELECT TOP 7 i_id, i_cost FROM item ORDER BY i_cost DESC, i_id",
             /*ordered=*/true);
  ExpectSame("SELECT i_id FROM item ORDER BY i_id", /*ordered=*/true);
  ExpectSame("SELECT i_id FROM item WHERE i_id < 5 UNION ALL "
             "SELECT o_id FROM orders WHERE o_id < 5");
  ExpectSame("SELECT COUNT(*) FROM (SELECT TOP 50 o_id FROM orders "
             "ORDER BY o_total DESC) recent");
  // No FROM clause: a one-row DualScan.
  ExpectSame("SELECT 1 + 2");
  // DMV scan with a pushed-down filter applied at materialization.
  ExpectSame("SELECT name FROM sys.dm_mtcache_views WHERE kind = 'table'");
}

// At the default capacity a 500-row table fits in one batch; force
// multi-batch streams there too, through a many-to-many join and a UNION
// chain longer than 1024 rows.
TEST_F(BatchDiffTest, MultiBatchResultsMatch) {
  ExpectSame("SELECT i.i_id, o.o_id FROM item i JOIN orders o "
             "ON i.i_qty = o.o_item WHERE i.i_qty < 20");
  ExpectSame("SELECT o_id FROM orders UNION ALL SELECT o_id FROM orders "
             "UNION ALL SELECT i_id FROM item");
}

// The 100-query seeded random corpus at every capacity.
TEST_F(BatchDiffTest, RandomQueryCorpusMatchesRowPath) {
  for (const auto& [sql, ordered] : RandomCorpus()) {
    ExpectSame(sql, ordered);
    if (HasFatalFailure()) return;
  }
}

// DML between executions must be visible at every capacity identically
// (each Execute opens a fresh snapshot).
TEST_F(BatchDiffTest, ResultsTrackDmlOnBothPaths) {
  for (auto& s : servers_) {
    ASSERT_TRUE(s->Execute("UPDATE item SET i_cost = 999.0 WHERE i_id <= 3")
                    .ok());
    ASSERT_TRUE(s->Execute("DELETE FROM orders WHERE o_id > 790").ok());
    ASSERT_TRUE(s->Execute("INSERT INTO item VALUES (1001, 'new', 1.0, 1)")
                    .ok());
  }
  ExpectSame("SELECT i_id FROM item WHERE i_cost > 500.0");
  ExpectSame("SELECT COUNT(*) FROM orders");
  ExpectSame("SELECT o.o_id FROM orders o JOIN item i ON o.o_item = i.i_id "
             "WHERE i.i_cost > 500.0");
}

// Pipeline breakers hold their inputs' rows instead of copying them: a
// hash-join build side, a sort input and a nested-loop inner keep
// references (and move arena rows into their own arena) for as long as
// they run. These shapes feed them rows that arrive owned by a batch arena
// (pushed projections, aggregate output) through a Filter, a Limit or a
// UnionAll, each of which must hand arena rows on, not borrow them from a
// batch its child refills. Under ASan a row held past its batch is a
// use-after-free; everywhere, capacity 1 and 7 refill batches mid-stream.
TEST_F(BatchDiffTest, HeldRowsOutliveTheirInputBatches) {
  const char* kUnion =
      "(SELECT i_id + 0 AS x FROM item WHERE i_id < 50 UNION ALL "
      "SELECT o_id + 0 FROM orders WHERE o_id < 50) u";
  // Hash-join build sides: aggregate output through a Filter, pushed
  // projections through a Filter over a Limit, and through a UnionAll.
  ExpectSame("SELECT o.o_id, g.c FROM orders o JOIN (SELECT i_qty, COUNT(*) "
             "c FROM item GROUP BY i_qty) g ON o.o_item = g.i_qty "
             "WHERE g.c > 20");
  ExpectSame("SELECT t.i_id, o.o_id FROM orders o JOIN (SELECT TOP 100 i_id, "
             "i_cost + 1.0 AS c FROM item) t ON o.o_item = t.i_id "
             "WHERE t.c > 20.0");
  ExpectSame(std::string("SELECT o.o_id, u.x FROM orders o JOIN ") + kUnion +
             " ON o.o_item = u.x");
  // Sort inputs: the same three routes, plus a projection of a Top-N sort's
  // output through a Limit into a second Top-N sort.
  ExpectSame("SELECT i_qty, c FROM (SELECT i_qty, COUNT(*) c FROM item "
             "GROUP BY i_qty) g WHERE c > 20 ORDER BY c DESC, i_qty",
             /*ordered=*/true);
  ExpectSame("SELECT i_id, c FROM (SELECT TOP 300 i_id, i_cost + 1.0 AS c "
             "FROM item) t WHERE c > 20.0 ORDER BY c DESC, i_id",
             /*ordered=*/true);
  ExpectSame(std::string("SELECT x FROM ") + kUnion + " ORDER BY x DESC",
             /*ordered=*/true);
  ExpectSame("SELECT TOP 5 * FROM (SELECT TOP 40 i_id, i_cost * 2.0 AS c2 "
             "FROM item ORDER BY i_id) t ORDER BY c2 DESC, i_id",
             /*ordered=*/true);
  // A nested-loop inner of projected rows through a Limit.
  ExpectSame("SELECT a.i_id, t.c FROM item a JOIN (SELECT TOP 30 i_id, "
             "i_cost + 1.0 AS c FROM item) t ON a.i_qty > t.c "
             "WHERE a.i_id < 20");
  // A commuted hash join emits (left, right) order through its output list,
  // narrowed below a sort to the columns the select list reads.
  ExpectSame("SELECT TOP 20 o.o_total, i.i_subject FROM item i JOIN orders o "
             "ON i.i_id = o.o_item WHERE i.i_qty = 3 "
             "ORDER BY o.o_total DESC, o.o_id",
             /*ordered=*/true);
}

// Narrowing join outputs and projections renumbers the operators above
// them, but never renames a result column: Filter, Sort and Limit keep
// their own names (not their input's) for the columns they pass through.
TEST_F(BatchDiffTest, NarrowedPlansKeepResultColumnNames) {
  const char* kGroups =
      "(SELECT i_qty, COUNT(*) c FROM item GROUP BY i_qty) g";
  const std::pair<std::string, std::string> cases[] = {
      {std::string("SELECT i_qty, c FROM ") + kGroups +
           " WHERE c > 20 ORDER BY c DESC, i_qty",
       ".i_qty|.c|"},
      {std::string("SELECT * FROM ") + kGroups + " WHERE c > 20",
       "g.i_qty|g.c|"},
      {"SELECT TOP 5 * FROM (SELECT TOP 40 i_id, i_cost * 2.0 AS c2 FROM "
       "item ORDER BY i_id) t ORDER BY c2 DESC, i_id",
       "t.i_id|t.c2|"},
      {"SELECT x FROM (SELECT i_id + 0 AS x FROM item WHERE i_id < 50 "
       "UNION ALL SELECT o_id + 0 FROM orders WHERE o_id < 50) u "
       "ORDER BY x DESC",
       ".x|"},
      {"SELECT TOP 3 o.o_total, i.i_subject FROM item i JOIN orders o "
       "ON i.i_id = o.o_item WHERE i.i_qty = 3 ORDER BY o.o_total",
       ".o_total|.i_subject|"},
  };
  for (const auto& [sql, want] : cases) {
    auto r = servers_.back()->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    std::string got;
    for (const ColumnInfo& col : r->schema.columns()) {
      got += col.table + "." + col.name + "|";
    }
    EXPECT_EQ(got, want) << sql;
  }
}

// The same lifetimes across the cache/backend boundary: rows a RemoteQuery
// shipped, and a ChoosePlan UnionAll of a cached view and a remote branch,
// feeding a hash-join build side and a sort. ChoosePlan is left where the
// view matched (no pull-up), so the UnionAll sits under the breaker; each
// query runs with a parameter inside the cached range and one outside it.
// Every capacity must agree with the others and with the backend.
TEST(BatchLifetimeCacheTest, RemoteAndChoosePlanRowsOutliveTheirBatches) {
  SimClock clock;
  LinkedServerRegistry backend_links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &backend_links);
  Load(&backend);
  if (::testing::Test::HasFatalFailure()) return;

  const std::vector<std::string> queries = {
      // Sort over the ChoosePlan: projected view rows or remote rows.
      "SELECT i_id, i_cost + 1.0 AS c FROM item WHERE i_id <= @id "
      "ORDER BY c DESC, i_id",
      // Sort over aggregate output over the ChoosePlan.
      "SELECT i_qty, COUNT(*) c FROM item WHERE i_id <= @id "
      "GROUP BY i_qty ORDER BY c DESC, i_qty",
      // Hash join whose inputs are the ChoosePlan and remote orders rows.
      "SELECT o.o_id, i.i_cost FROM orders o JOIN item i "
      "ON o.o_item = i.i_id WHERE i.i_id <= @id AND o.o_total < 30.0",
      // Hash join over aggregate output of the ChoosePlan, sorted.
      "SELECT TOP 25 o.o_id, g.c FROM orders o JOIN (SELECT i_qty, "
      "COUNT(*) c FROM item WHERE i_id <= @id GROUP BY i_qty) g "
      "ON o.o_item = g.i_qty WHERE o.o_id <= 40 "
      "ORDER BY g.c DESC, o.o_id",
  };
  const bool ordered[] = {true, true, false, true};

  // results[capacity][query][param]
  std::vector<std::vector<std::vector<std::vector<std::string>>>> results;
  for (int capacity : kCapacities) {
    SCOPED_TRACE("batch capacity " + std::to_string(capacity));
    LinkedServerRegistry links;
    ServerOptions options{"cache" + std::to_string(capacity), "dbo", {}};
    options.exec_batch_capacity = capacity;
    Server cache(options, &clock, &links);
    ReplicationSystem repl(&clock);
    auto setup = MTCache::Setup(&cache, &backend, &repl);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    std::unique_ptr<MTCache> mtcache = setup.ConsumeValue();
    ASSERT_TRUE(mtcache
                    ->CreateCachedView("item_low",
                                       "SELECT i_id, i_subject, i_cost, i_qty "
                                       "FROM item WHERE i_id <= 250")
                    .ok());
    OptimizerOptions opts = cache.optimizer_options();
    opts.pull_up_chooseplan = false;
    cache.set_optimizer_options(opts);
    auto& per_query = results.emplace_back();
    for (size_t q = 0; q < queries.size(); ++q) {
      auto plan = cache.Explain(queries[q]);
      ASSERT_TRUE(plan.ok()) << queries[q] << ": "
                             << plan.status().ToString();
      EXPECT_TRUE(plan->dynamic_plan) << PhysicalToString(*plan->plan);
      auto& per_param = per_query.emplace_back();
      for (int id : {120, 400}) {
        ParamMap params;
        params["@id"] = Value::Int(id);
        auto got = cache.Execute(queries[q], params, nullptr);
        auto want = backend.Execute(queries[q], params, nullptr);
        ASSERT_TRUE(got.ok()) << queries[q] << ": " << got.status().ToString();
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_GT(got->rows.size(), 0u) << queries[q] << " @id=" << id;
        // The backend agrees on the row multiset and, where the query
        // orders, on the order.
        EXPECT_EQ(Canon(*got, ordered[q]), Canon(*want, ordered[q]))
            << queries[q] << " @id=" << id;
        per_param.push_back(Canon(*got, ordered[q]));
      }
    }
  }
  for (size_t c = 0; c + 1 < results.size(); ++c) {
    EXPECT_EQ(results[c], results.back()) << "capacity " << kCapacities[c];
  }
}

// ---------------------------------------------------------------------------
// Memory regression: copy-free snapshot scans.
// ---------------------------------------------------------------------------

constexpr int64_t kPaddedRows = 100000;

// kPaddedRows rows of ~130 bytes each: (id, id % 10000, a 96-byte pad).
void LoadPadded(Server* server) {
  ASSERT_TRUE(server
                  ->ExecuteScript("CREATE TABLE big (id INT PRIMARY KEY, "
                                  "a INT, pad VARCHAR(100))")
                  .ok());
  StoredTable* big = server->db().GetStoredTable("big");
  const std::string pad(96, 'x');
  auto txn = server->db().txn_manager().Begin();
  for (int64_t i = 0; i < kPaddedRows; ++i) {
    Row row = {Value::Int(i), Value::Int(i % 10000), Value::String(pad)};
    ASSERT_TRUE(big->Insert(row, txn.get()).ok());
  }
  server->db().txn_manager().Commit(txn.get(), 0.0);
  server->RecomputeStats();
}

// Runs `sql` profiled and returns its largest per-operator memory
// high-water, read through the DMV as a monitoring client would.
int64_t ProfiledPeakBytes(Server* server, const std::string& sql,
                          size_t expected_rows) {
  server->metrics().set_profiling_enabled(true);
  auto r = server->Execute(sql);
  server->metrics().set_profiling_enabled(false);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return -1;
  EXPECT_EQ(r->rows.size(), expected_rows) << sql;
  auto peak = server->Execute(
      "SELECT MAX(mem_peak_bytes) FROM sys.dm_exec_query_profiles "
      "WHERE statement = '" + sql + "'");
  EXPECT_TRUE(peak.ok()) << peak.status().ToString();
  if (!peak.ok() || peak->rows.size() != 1) return -1;
  return peak->rows[0][0].AsInt();
}

TEST(BatchScanMemoryTest, SelectiveScanPeaksFarBelowTablePayload) {
  Server server(ServerOptions{});
  LoadPadded(&server);
  if (HasFatalFailure()) return;
  // The scan holds kPaddedRows refcounted row pointers; with the
  // pre-snapshot executor it held kPaddedRows full copies of ~130-byte
  // rows, an order of magnitude more.
  int64_t peak_bytes = ProfiledPeakBytes(
      &server, "SELECT id, a FROM big WHERE a < 100", 1000);  // 1% sel
  int64_t ptr_snapshot_bytes =
      kPaddedRows * static_cast<int64_t>(sizeof(RowPtr));
  int64_t payload_floor = kPaddedRows * 100;  // 96-byte pad, sans overhead
  EXPECT_GT(peak_bytes, 0);
  EXPECT_LE(peak_bytes, 2 * ptr_snapshot_bytes);
  EXPECT_LT(peak_bytes, payload_floor / 2);
}

// Hash joins and sorts hold snapshot rows by reference: their memory is
// their pointer arrays (and any rows they own), not the payload of the rows
// they point at, exactly as for the scan above. A Top-N sort and a hash
// join each over every row of the table: copying the rows, as both once
// did, costs the payload floor many times over.
TEST(BatchScanMemoryTest, PipelineBreakersPeakFarBelowTablePayload) {
  Server server(ServerOptions{});
  LoadPadded(&server);
  if (HasFatalFailure()) return;
  const int64_t ptr_snapshot_bytes =
      kPaddedRows * static_cast<int64_t>(sizeof(RowPtr));
  const int64_t payload_floor = kPaddedRows * 100;
  const std::string sort = "SELECT TOP 10 * FROM big ORDER BY a DESC, id";
  const std::string join =
      "SELECT COUNT(*) FROM big b1 JOIN big b2 ON b1.id = b2.id";
  for (const auto& [sql, rows] : {std::pair{sort, size_t{10}},
                                  std::pair{join, size_t{1}}}) {
    int64_t peak_bytes = ProfiledPeakBytes(&server, sql, rows);
    EXPECT_GT(peak_bytes, 0) << sql;
    EXPECT_LE(peak_bytes, 2 * ptr_snapshot_bytes) << sql;
    EXPECT_LT(peak_bytes, payload_floor / 2) << sql;
  }
}

// ---------------------------------------------------------------------------
// SQL NULL three-valued logic through EvalPredicateBatch, directly against
// the per-row EvalPredicate oracle (no engine in between). These pin the
// in-place col-vs-const path's NULL handling: a NULL cell or a NULL
// constant is "unknown", and a filter rejects unknown.
// ---------------------------------------------------------------------------

BExprPtr ColRef(int ord, TypeId t) {
  return std::make_unique<BoundColumnRef>(ord, t, "c" + std::to_string(ord));
}
BExprPtr Lit(Value v) { return std::make_unique<BoundLiteral>(std::move(v)); }
BExprPtr Bin(BinaryOp op, BExprPtr l, BExprPtr r) {
  return std::make_unique<BoundBinary>(op, std::move(l), std::move(r),
                                       TypeId::kBool);
}

// Runs the batch evaluator and requires keep[i] to equal EvalPredicate on
// every row.
void ExpectBatchMatchesRowOracle(const BoundExpr& pred,
                                 const std::vector<Row>& rows,
                                 int expect_kept = -1) {
  std::vector<const Row*> ptrs;
  ptrs.reserve(rows.size());
  for (const Row& r : rows) ptrs.push_back(&r);
  EvalContext ctx;
  std::vector<char> keep;
  ASSERT_TRUE(
      EvalPredicateBatch(pred, ptrs.data(), ptrs.size(), ctx, &keep).ok());
  ASSERT_EQ(keep.size(), rows.size());
  int kept = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto ref = EvalPredicate(pred, &rows[i], ctx);
    ASSERT_TRUE(ref.ok()) << "row " << i;
    EXPECT_EQ(keep[i] != 0, *ref) << "row " << i;
    kept += keep[i] != 0;
  }
  if (expect_kept >= 0) EXPECT_EQ(kept, expect_kept);
}

TEST(PredicateBatchNullTest, NullCellsRejectOnFastPath) {
  // c0 < 50 over ints with every third cell NULL: NULL rows must be dropped
  // by the kernel exactly as the scalar path drops them.
  std::vector<Row> rows;
  int expect = 0;
  for (int i = 0; i < 200; ++i) {
    bool null = i % 3 == 0;
    rows.push_back({null ? Value::Null() : Value::Int(i)});
    if (!null && i < 50) ++expect;
  }
  auto pred = Bin(BinaryOp::kLt, ColRef(0, TypeId::kInt64),
                  Lit(Value::Int(50)));
  ExpectBatchMatchesRowOracle(*pred, rows, expect);
}

TEST(PredicateBatchNullTest, NullConstantRejectsEveryRow) {
  // c0 < NULL is unknown for every row — including non-NULL cells — so the
  // whole batch is rejected without the kernel touching a single row.
  std::vector<Row> rows;
  for (int i = 0; i < 64; ++i) rows.push_back({Value::Int(i)});
  auto lt = Bin(BinaryOp::kLt, ColRef(0, TypeId::kInt64), Lit(Value::Null()));
  ExpectBatchMatchesRowOracle(*lt, rows, 0);
  // NULL <> anything is unknown too: inequality does not rescue it.
  auto ne = Bin(BinaryOp::kNe, ColRef(0, TypeId::kInt64), Lit(Value::Null()));
  ExpectBatchMatchesRowOracle(*ne, rows, 0);
}

TEST(PredicateBatchNullTest, NullProducingConjunct) {
  // (c0 < 80) AND (c1 > 2.5) with NULLs scattered through both columns:
  // each conjunct runs as its own kernel pass, and unknown from either one
  // must reject the row.
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({i % 5 == 0 ? Value::Null() : Value::Int(i % 100),
                    i % 7 == 0 ? Value::Null() : Value::Double(i % 10 / 2.0)});
  }
  auto pred = Bin(
      BinaryOp::kAnd,
      Bin(BinaryOp::kLt, ColRef(0, TypeId::kInt64), Lit(Value::Int(80))),
      Bin(BinaryOp::kGt, ColRef(1, TypeId::kDouble), Lit(Value::Double(2.5))));
  ExpectBatchMatchesRowOracle(*pred, rows);
}

TEST(PredicateBatchNullTest, AllNullColumn) {
  std::vector<Row> rows(100, Row{Value::Null()});
  auto eq = Bin(BinaryOp::kEq, ColRef(0, TypeId::kInt64), Lit(Value::Int(5)));
  ExpectBatchMatchesRowOracle(*eq, rows, 0);
  auto ne = Bin(BinaryOp::kNe, ColRef(0, TypeId::kInt64), Lit(Value::Int(5)));
  ExpectBatchMatchesRowOracle(*ne, rows, 0);
}

TEST(PredicateBatchNullTest, HeterogeneousColumnFallsBackToRowPath) {
  // A column mixing int and string cells: the cells whose tag differs from
  // the column's type go through Value::Compare inside the same loop and
  // must still match the oracle (including the NULLs).
  std::vector<Row> rows;
  for (int i = 0; i < 120; ++i) {
    if (i % 4 == 0) {
      rows.push_back({Value::String("s" + std::to_string(i))});
    } else if (i % 11 == 0) {
      rows.push_back({Value::Null()});
    } else {
      rows.push_back({Value::Int(i)});
    }
  }
  auto pred = Bin(BinaryOp::kLt, ColRef(0, TypeId::kInt64),
                  Lit(Value::Int(60)));
  ExpectBatchMatchesRowOracle(*pred, rows);
}

TEST(PredicateBatchNullTest, IsNullConjunctsUseComplexFallback) {
  // IS NULL / IS NOT NULL are not comparison kernels; they exercise the
  // complex-conjunct fallback over rows that survived a kernel conjunct.
  std::vector<Row> rows;
  for (int i = 0; i < 150; ++i) {
    rows.push_back({i % 3 == 0 ? Value::Null() : Value::Int(i),
                    i % 4 == 0 ? Value::Null() : Value::Int(i % 8)});
  }
  auto pred = Bin(BinaryOp::kAnd,
                  Bin(BinaryOp::kLt, ColRef(0, TypeId::kInt64),
                      Lit(Value::Int(100))),
                  std::make_unique<BoundIsNull>(ColRef(1, TypeId::kInt64),
                                                /*negated=*/false));
  ExpectBatchMatchesRowOracle(*pred, rows);
}

TEST(PredicateBatchNullTest, LikeShapesMatchRowOracle) {
  // <column> [NOT] LIKE <row-free pattern> runs the batch LIKE kernel over
  // the stored strings in place; a NULL cell or a NULL pattern is unknown,
  // and a non-string column matches on its rendered text.
  static const char* kWords[] = {"ab", "xaby", "a", "", "abc", "cab", "b",
                                 "AB"};
  std::vector<Row> rows;
  for (int i = 0; i < 160; ++i) {
    rows.push_back({i % 9 == 0 ? Value::Null() : Value::String(kWords[i % 8]),
                    i % 13 == 0 ? Value::Null() : Value::Int(i)});
  }
  auto like = [](int ord, TypeId type, Value pattern, bool negated) {
    return std::make_unique<BoundLike>(ColRef(ord, type),
                                       Lit(std::move(pattern)), negated);
  };
  for (const char* pattern : {"%ab%", "ab%", "_", "%", ""}) {
    SCOPED_TRACE(pattern);
    for (bool negated : {false, true}) {
      ExpectBatchMatchesRowOracle(
          *like(0, TypeId::kString, Value::String(pattern), negated), rows);
    }
  }
  for (bool negated : {false, true}) {
    ExpectBatchMatchesRowOracle(
        *like(0, TypeId::kString, Value::Null(), negated), rows, 0);
  }
  // 1, 10..19 and 100..159, less the NULLs at multiples of 13.
  ExpectBatchMatchesRowOracle(
      *like(1, TypeId::kInt64, Value::String("1%"), false), rows, 65);
  // After a compare kernel, on the rows it kept.
  auto both = Bin(BinaryOp::kAnd,
                  Bin(BinaryOp::kLt, ColRef(1, TypeId::kInt64),
                      Lit(Value::Int(80))),
                  like(0, TypeId::kString, Value::String("%b"), true));
  ExpectBatchMatchesRowOracle(*both, rows);
}

// ---------------------------------------------------------------------------
// HashAggregate across a mid-stream type mix, directly on the executor. A
// virtual table feeds the aggregate three batches: int cells, then a batch
// whose aggregated column mixes int and string tags, then int cells again.
// A scalar aggregate's registers are stored at the first string cell and
// the rest of that batch is folded through Value::Compare. Results must
// equal a per-row oracle (the same aggregate with its arguments wrapped in
// COALESCE, evaluated per row instead of read in place).
// ---------------------------------------------------------------------------

class FixedRows : public VirtualTableProvider {
 public:
  explicit FixedRows(std::vector<Row> rows) : rows_(std::move(rows)) {}
  StatusOr<std::vector<Row>> VirtualTableRows(
      const std::string&, const VirtualRowFilter&) override {
    return rows_;
  }

 private:
  std::vector<Row> rows_;
};

// (g, c, x): 3 * capacity rows. Batch 1 holds the strings in c; NULLs are
// scattered through every column.
std::vector<Row> MixedTypeRows(int capacity) {
  std::vector<Row> rows;
  for (int i = 0; i < 3 * capacity; ++i) {
    const bool mixed_batch = i / capacity == 1;
    Value c = Value::Int((i * 37) % 101 - 50);
    if (mixed_batch && i % 2 == 1) c = Value::String("s" + std::to_string(i));
    if (i % 5 == 3) c = Value::Null();
    rows.push_back({i % 6 == 4 ? Value::Null() : Value::Int(i % 3), c,
                    i % 7 == 2 ? Value::Null() : Value::Int(i)});
  }
  return rows;
}

// HashAggregate over a SeqScan of `def`: COUNT(*), COUNT(c), MIN(c),
// MAX(c), SUM(x), AVG(x), grouped on g or scalar. `wrap` puts each argument
// in COALESCE.
PhysicalPtr MixedTypeAggregate(const TableDef* def, bool grouped, bool wrap) {
  auto scan = std::make_unique<PhysSeqScan>();
  scan->def = def;
  scan->schema = def->schema;
  auto agg = std::make_unique<PhysHashAggregate>();
  auto arg = [wrap](int ord) {
    BExprPtr ref = ColRef(ord, TypeId::kInt64);
    if (!wrap) return ref;
    std::vector<BExprPtr> args;
    args.push_back(std::move(ref));
    return BExprPtr(std::make_unique<BoundFunction>(
        BuiltinFn::kCoalesce, std::move(args), TypeId::kInt64));
  };
  std::vector<ColumnInfo> cols;
  if (grouped) {
    agg->group_by.push_back(ColRef(0, TypeId::kInt64));
    cols.push_back({"g", TypeId::kInt64, "", true});
  }
  const std::pair<AggFunc, int> kAggs[] = {
      {AggFunc::kCountStar, -1}, {AggFunc::kCount, 1}, {AggFunc::kMin, 1},
      {AggFunc::kMax, 1},        {AggFunc::kSum, 2},   {AggFunc::kAvg, 2}};
  for (const auto& [func, ord] : kAggs) {
    AggItem item;
    item.func = func;
    if (ord >= 0) item.arg = arg(ord);
    agg->aggs.push_back(std::move(item));
    cols.push_back({"a" + std::to_string(agg->aggs.size()), TypeId::kInt64,
                    "", true});
  }
  agg->schema = Schema(std::move(cols));
  agg->children.push_back(std::move(scan));
  return agg;
}

TEST(AggregateTypeMixTest, MixedBatchFallsBackThenTypedLoopsResume) {
  TableDef def;
  def.name = "mixed";
  def.virtual_table = true;
  def.schema = Schema({{"g", TypeId::kInt64, "mixed", true},
                       {"c", TypeId::kInt64, "mixed", true},
                       {"x", TypeId::kInt64, "mixed", true}});
  for (int capacity : kCapacities) {
    FixedRows provider(MixedTypeRows(capacity));
    for (bool grouped : {false, true}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) +
                   (grouped ? " grouped" : " scalar"));
      auto run = [&](bool wrap) {
        PhysicalPtr plan = MixedTypeAggregate(&def, grouped, wrap);
        ExecContext ctx;
        ctx.virtual_tables = &provider;
        ctx.batch_capacity = capacity;
        auto result = ExecutePlan(*plan, &ctx);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        return result.ok() ? Canon(*result, false)
                           : std::vector<std::string>{};
      };
      EXPECT_EQ(run(false), run(true));
    }
  }
}

// ---------------------------------------------------------------------------
// Sort and Top-N sort against their definition: a stable sort of the whole
// input by Value::Compare on the keys, then the first `limit` rows. Keys
// mix typed-int columns, columns with NULLs, a column of mixed type tags and
// a computed key; one input arrives already ascending under DESC keys (the
// worst case for a heap-based Top-N).
// ---------------------------------------------------------------------------

// (k, n, m, x): k small ints (many ties), n ints with NULLs, m mixed tags
// (int, double, string, NULL), x doubles of either sign; or, when
// `ascending`, k = i and x = i / 2.
std::vector<Row> SortInputRows(bool ascending) {
  std::mt19937 rng(7);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<Row> rows;
  for (int i = 0; i < 600; ++i) {
    if (ascending) {
      rows.push_back({Value::Int(i), Value::Int(i % 7), Value::Int(i),
                      Value::Double(i * 0.5)});
      continue;
    }
    Value m;
    switch (pick(0, 3)) {
      case 0: m = Value::Int(pick(0, 20)); break;
      case 1: m = Value::Double(pick(0, 40) * 0.5); break;
      case 2: m = Value::String("s" + std::to_string(pick(0, 9))); break;
      default: break;  // NULL
    }
    rows.push_back({Value::Int(pick(0, 9)),
                    pick(0, 5) == 0 ? Value::Null() : Value::Int(pick(0, 30)),
                    m, Value::Double((pick(0, 100) - 50) * 0.25)});
  }
  return rows;
}

TEST(BatchDiffTopNTest, SelectionEqualsStableSortPlusLimit) {
  TableDef def;
  def.name = "sortin";
  def.virtual_table = true;
  def.schema = Schema({{"k", TypeId::kInt64, "sortin", true},
                       {"n", TypeId::kInt64, "sortin", true},
                       {"m", TypeId::kInt64, "sortin", true},
                       {"x", TypeId::kDouble, "sortin", true}});
  // Key lists as (ordinal, desc); ordinal -1 is the computed key k + x.
  const std::vector<std::vector<std::pair<int, bool>>> key_lists = {
      {{0, false}},
      {{0, true}, {1, false}},
      {{1, true}, {3, false}},
      {{2, false}},
      {{2, true}, {0, false}},
      {{-1, true}},
      {{3, true}, {2, true}, {1, false}},
  };
  auto key_expr = [](int ord) {
    if (ord >= 0) {
      return ColRef(ord, ord == 3 ? TypeId::kDouble : TypeId::kInt64);
    }
    return Bin(BinaryOp::kAdd, ColRef(0, TypeId::kInt64),
               ColRef(3, TypeId::kDouble));
  };
  auto key_value = [](const Row& row, int ord) {
    if (ord >= 0) return row[ord];
    return Value::Double(static_cast<double>(row[0].AsInt()) +
                         row[3].AsDouble());
  };
  for (bool ascending : {false, true}) {
    const std::vector<Row> input = SortInputRows(ascending);
    FixedRows provider(input);
    for (const auto& keys : key_lists) {
      std::vector<Row> sorted = input;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](const Row& a, const Row& b) {
                         for (const auto& [ord, desc] : keys) {
                           int c = key_value(a, ord).Compare(key_value(b, ord));
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
      for (int64_t limit : {0, 1, 5, 50, 333, 599, 600, 700}) {
        std::vector<std::string> want;
        for (const Row& row : sorted) {
          if (limit > 0 && static_cast<int64_t>(want.size()) == limit) break;
          want.push_back(RowKey(row));
        }
        for (int capacity : kCapacities) {
          SCOPED_TRACE("ascending " + std::to_string(ascending) + ", " +
                       std::to_string(keys.size()) + " keys, limit " +
                       std::to_string(limit) + ", capacity " +
                       std::to_string(capacity));
          auto scan = std::make_unique<PhysSeqScan>();
          scan->def = &def;
          scan->schema = def.schema;
          auto sort = std::make_unique<PhysSort>();
          for (const auto& [ord, desc] : keys) {
            sort->keys.push_back({key_expr(ord), desc});
          }
          sort->limit = limit;
          sort->schema = def.schema;
          sort->children.push_back(std::move(scan));
          ExecContext ctx;
          ctx.virtual_tables = &provider;
          ctx.batch_capacity = capacity;
          auto result = ExecutePlan(*sort, &ctx);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          std::vector<std::string> got;
          for (const Row& row : result->rows) got.push_back(RowKey(row));
          EXPECT_EQ(got, want);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EvalPredicateBatch's in-place column-vs-constant compare against per-row
// EvalPredicate, over randomized rows: columns of every bound type whose
// cells mostly carry that type's tag and, in a third of the trials, any tag
// (int, double, bool, string) or NULL; NaN cells and constants; constants of
// the column's type, of another type (bool against int, incomparable
// pairs) or NULL; either operand order; and lanes already killed by an
// earlier conjunct.
// ---------------------------------------------------------------------------

TEST(PredicateBatchRandomTest, InPlaceCompareMatchesEvalPredicate) {
  std::mt19937 rng(7781);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                                  BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  static const TypeId kTypes[] = {TypeId::kBool, TypeId::kInt64,
                                  TypeId::kDouble, TypeId::kString};
  auto random_value = [&](TypeId type) {
    switch (type) {
      case TypeId::kBool:
        return Value::Bool(pick(0, 1) == 1);
      case TypeId::kInt64:
        return Value::Int(pick(-50, 50));
      case TypeId::kDouble:
        return pick(0, 7) == 0 ? Value::Double(std::nan(""))
                               : Value::Double(pick(-100, 100) / 4.0);
      case TypeId::kString:
        return Value::String("k" + std::to_string(pick(0, 31) * 37));
      case TypeId::kNull:
        break;
    }
    return Value::Null();
  };
  auto any_type = [&]() { return kTypes[pick(0, 3)]; };

  for (int trial = 0; trial < 400; ++trial) {
    const TypeId type = any_type();
    const bool mixed = trial % 3 == 0;
    const int n = pick(1, 300);
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      Value cell = Value::Null();
      if (pick(0, 9) != 0) {
        cell = random_value(mixed && pick(0, 2) == 0 ? any_type() : type);
      }
      rows.push_back({std::move(cell), Value::Int(pick(0, 5))});
    }
    const int r = pick(0, 9);
    const Value rhs = r == 0 ? Value::Null()
                             : random_value(r < 6 ? type : any_type());
    const BinaryOp op = kOps[pick(0, 5)];
    const bool flipped = pick(0, 1) == 1;
    BExprPtr pred = flipped ? Bin(op, Lit(rhs), ColRef(0, type))
                            : Bin(op, ColRef(0, type), Lit(rhs));
    const bool prekilled = pick(0, 1) == 1;
    if (prekilled) {
      // c1 <> 0 kills about a sixth of the lanes before the compare runs.
      pred = Bin(BinaryOp::kAnd,
                 Bin(BinaryOp::kNe, ColRef(1, TypeId::kInt64),
                     Lit(Value::Int(0))),
                 std::move(pred));
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + BoundToSql(*pred) +
                 " over a " + TypeName(type) + " column" +
                 (mixed ? " of mixed tags" : ""));
    ExpectBatchMatchesRowOracle(*pred, rows);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// The random corpus's pushed predicates through EvalPredicateBatch, against
// per-row EvalPredicate over every row of the scanned table: the batch
// evaluator must agree with the scalar evaluator on the predicates the engine
// actually pushes into scans, not only on hand-built ones.
// ---------------------------------------------------------------------------

// Appends every scan predicate in `op` (folded into a SeqScan or IndexSeek,
// so its ordinals address the stored row) with the table it scans.
void CollectScanPredicates(
    const PhysicalOp& op,
    std::vector<std::pair<const BoundExpr*, std::string>>* out) {
  const BoundExpr* pred = nullptr;
  const TableDef* def = nullptr;
  if (op.kind == PhysicalKind::kSeqScan) {
    const auto& scan = static_cast<const PhysSeqScan&>(op);
    pred = scan.pushed_predicate.get();
    def = scan.def;
  } else if (op.kind == PhysicalKind::kIndexSeek) {
    const auto& seek = static_cast<const PhysIndexSeek&>(op);
    pred = seek.pushed_predicate.get();
    def = seek.def;
  }
  if (pred != nullptr && def != nullptr && !def->virtual_table) {
    out->emplace_back(pred, def->name);
  }
  for (const auto& child : op.children) CollectScanPredicates(*child, out);
}

TEST_F(BatchDiffTest, CorpusPredicatesBatchKernelsMatchPerRowEval) {
  Server& server = *servers_.back();
  int compared = 0;
  for (const auto& [sql, ordered] : RandomCorpus()) {
    auto plan = server.Explain(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    std::vector<std::pair<const BoundExpr*, std::string>> preds;
    CollectScanPredicates(*plan->plan, &preds);
    for (const auto& [pred, table] : preds) {
      std::vector<Row> rows;
      for (const RowPtr& row :
           server.db().GetStoredTable(table)->ScanSnapshot()->rows) {
        rows.push_back(*row);
      }
      SCOPED_TRACE(sql);
      ExpectBatchMatchesRowOracle(*pred, rows);
      if (HasFatalFailure()) return;
      ++compared;
    }
  }
  // Cases 0, 1, 3 and 4 of the corpus (~2/3 of it) push a predicate into a
  // scan; a much lower count means the harness stopped finding them.
  EXPECT_GE(compared, 50);
}

// ---------------------------------------------------------------------------
// Aggregate shapes (COUNT/SUM/AVG/MIN/MAX, scalar and grouped, over scans
// and over a join) over NULL-bearing and empty inputs, at every capacity,
// and against the same aggregate with every argument evaluated per row.
// ---------------------------------------------------------------------------

struct AggregateCase {
  const char* select;      // select list
  const char* row_select;  // the same list with every argument wrapped in
                           // COALESCE, so it is evaluated, not read
  const char* from;        // FROM clause
  const char* rest;        // WHERE / GROUP BY text, or ""
};

const AggregateCase kAggregateCases[] = {
    {"COUNT(i_cost), COUNT(*)", "COUNT(COALESCE(i_cost)), COUNT(*)", "item",
     ""},
    {"SUM(i_qty), AVG(i_cost)", "SUM(COALESCE(i_qty)), AVG(COALESCE(i_cost))",
     "item", ""},
    {"MIN(i_cost), MAX(i_cost), MIN(i_subject), MAX(i_subject)",
     "MIN(COALESCE(i_cost)), MAX(COALESCE(i_cost)), "
     "MIN(COALESCE(i_subject)), MAX(COALESCE(i_subject))",
     "item", ""},
    {"MIN(i_qty), MAX(i_qty)", "MIN(COALESCE(i_qty)), MAX(COALESCE(i_qty))",
     "item", "WHERE i_cost > 40.0"},
    // All-NULL aggregate input: COUNT 0, the others NULL.
    {"COUNT(i_cost), SUM(i_cost), MIN(i_cost), MAX(i_cost)",
     "COUNT(COALESCE(i_cost)), SUM(COALESCE(i_cost)), "
     "MIN(COALESCE(i_cost)), MAX(COALESCE(i_cost))",
     "item", "WHERE i_cost IS NULL"},
    // Empty input: scalar aggregates still emit their one row.
    {"COUNT(*), SUM(i_cost), MIN(i_qty)",
     "COUNT(*), SUM(COALESCE(i_cost)), MIN(COALESCE(i_qty))", "item",
     "WHERE i_id > 10000"},
    // Nullable group key: the NULL group must survive identically.
    {"i_qty, COUNT(*) c, SUM(i_cost) s, MIN(i_cost) mn, MAX(i_cost) mx",
     "i_qty, COUNT(*) c, SUM(COALESCE(i_cost)) s, MIN(COALESCE(i_cost)) mn, "
     "MAX(COALESCE(i_cost)) mx",
     "item", "GROUP BY i_qty"},
    {"i_subject, AVG(i_qty)", "i_subject, AVG(COALESCE(i_qty))", "item",
     "WHERE i_cost > 30.0 GROUP BY i_subject"},
    // BestSellers' shape: an aggregate over a join, grouped on a string key
    // (and an int one), fed the join's arena rows.
    {"i.i_subject, i.i_id, SUM(o.o_total) s, COUNT(*) c, MAX(o.o_id) m",
     "i.i_subject, i.i_id, SUM(COALESCE(o.o_total)) s, COUNT(*) c, "
     "MAX(COALESCE(o.o_id)) m",
     "item i JOIN orders o ON o.o_item = i.i_id",
     "WHERE o.o_id < 600 GROUP BY i.i_subject, i.i_id"},
};

std::string AggregateSql(const AggregateCase& c, const char* select) {
  std::string sql = std::string("SELECT ") + select + " FROM " + c.from;
  if (*c.rest != '\0') sql += std::string(" ") + c.rest;
  return sql;
}

TEST_F(BatchDiffTest, AggregateShapesMatchRowPath) {
  for (const AggregateCase& c : kAggregateCases) {
    ExpectSame(AggregateSql(c, c.select));
  }
}

// Each aggregate against its row_select twin, whose COALESCE-wrapped
// arguments are evaluated per row instead of read in place (and, for a
// scalar aggregate, folded row by row instead of one column at a time). The
// column names differ, so only the rows are compared.
TEST_F(BatchDiffTest, ColumnarAggregatesMatchRowAbsorb) {
  auto rows_of = [](const QueryResult& r) {
    std::vector<std::string> canon = Canon(r, false);
    canon.erase(canon.begin());  // the header
    return canon;
  };
  for (auto& server : servers_) {
    for (const AggregateCase& c : kAggregateCases) {
      const std::string direct = AggregateSql(c, c.select);
      const std::string rows = AggregateSql(c, c.row_select);
      auto want = server->Execute(rows);
      auto got = server->Execute(direct);
      ASSERT_TRUE(want.ok()) << rows << ": " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << direct << ": " << got.status().ToString();
      EXPECT_EQ(rows_of(*got), rows_of(*want))
          << direct << " at " << server->name();
    }
  }
}

// ---------------------------------------------------------------------------
// Integer SUM is exact and overflow-checked: 2^53 + 1 survives (a double
// accumulator rounds it to 2^53), and a total past the int64 range fails the
// statement instead of wrapping. Scalar (read by column, and evaluated per
// row through x + 0) and grouped, at every capacity; 20 rows, so capacities
// 1 and 7 spread each sum over several batches.
// ---------------------------------------------------------------------------

TEST(AggregateSumTest, IntegerSumIsExactAndOverflowFails) {
  constexpr int64_t kExact = 9007199254740993;  // 2^53 + 1
  for (int capacity : kCapacities) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    std::unique_ptr<Server> server = MakeServer(capacity);
    ASSERT_TRUE(server
                    ->ExecuteScript("CREATE TABLE s (id INT PRIMARY KEY, "
                                    "g INT, x INT, y INT)")
                    .ok());
    // x: 2^53 + 1 in row 0, else 0. y: INT64_MAX in row 0, else 1, so every
    // sum of y that includes row 0 overflows.
    StoredTable* table = server->db().GetStoredTable("s");
    auto txn = server->db().txn_manager().Begin();
    for (int i = 0; i < 20; ++i) {
      Row r = {Value::Int(i), Value::Int(i % 2),
               Value::Int(i == 0 ? kExact : 0),
               Value::Int(i == 0 ? INT64_MAX : 1)};
      ASSERT_TRUE(table->Insert(r, txn.get()).ok());
    }
    server->db().txn_manager().Commit(txn.get(), 0.0);

    for (const char* sql : {"SELECT SUM(x) FROM s", "SELECT SUM(x + 0) FROM s",
                            "SELECT SUM(x) FROM s WHERE g = 0 GROUP BY g"}) {
      auto r = server->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      ASSERT_EQ(r->rows.size(), 1u) << sql;
      EXPECT_EQ(r->rows[0][0].type(), TypeId::kInt64) << sql;
      EXPECT_EQ(r->rows[0][0].AsInt(), kExact) << sql;
    }
    auto grouped =
        server->Execute("SELECT g, SUM(x) FROM s GROUP BY g ORDER BY g");
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    ASSERT_EQ(grouped->rows.size(), 2u);
    EXPECT_EQ(grouped->rows[0][1].AsInt(), kExact);
    EXPECT_EQ(grouped->rows[1][1].AsInt(), 0);

    for (const char* sql : {"SELECT SUM(y) FROM s", "SELECT SUM(y + 0) FROM s",
                            "SELECT g, SUM(y) FROM s GROUP BY g"}) {
      auto r = server->Execute(sql);
      ASSERT_FALSE(r.ok()) << sql << " returned "
                           << (r->rows.empty() ? "no rows"
                                               : r->rows[0].back().ToString());
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
          << sql << ": " << r.status().ToString();
    }
    // Without row 0 the same sums fit.
    auto fits = server->Execute("SELECT SUM(y) FROM s WHERE id > 0");
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    EXPECT_EQ(fits->rows[0][0].AsInt(), 19);
  }
}

// ---------------------------------------------------------------------------
// Scale: a large table through the same differential harness. Covers
// multi-batch in-place filtering and column-at-a-time aggregation far past
// the default batch size. One server is loaded at a time (each capacity in
// turn), so the peak holds a single copy of the table.
// ---------------------------------------------------------------------------

#ifdef MT_TSAN_BUILD
constexpr int64_t kLargeRows = 100000;
#else
constexpr int64_t kLargeRows = 1000000;
#endif

void LoadLarge(Server* server, int64_t rows) {
  ASSERT_TRUE(server
                  ->ExecuteScript("CREATE TABLE big (id INT PRIMARY KEY, "
                                  "a INT, b FLOAT, g INT)")
                  .ok());
  StoredTable* big = server->db().GetStoredTable("big");
  auto txn = server->db().txn_manager().Begin();
  for (int64_t i = 0; i < rows; ++i) {
    Row row = {Value::Int(i), Value::Int(i % 10000),
               i % 97 == 0 ? Value::Null() : Value::Double((i % 1000) * 0.5),
               Value::Int(i % 16)};
    ASSERT_TRUE(big->Insert(row, txn.get()).ok());
  }
  server->db().txn_manager().Commit(txn.get(), 0.0);
  server->RecomputeStats();
}

TEST(BatchDiffLargeTest, LargeScanAndAggregatesMatchRowPath) {
  const std::vector<std::string> queries = {
      // Scalar + grouped aggregates over the full table.
      "SELECT COUNT(*), COUNT(b), SUM(a), MIN(b), MAX(b) FROM big",
      "SELECT g, COUNT(*) c, SUM(b) s, MIN(a) mn, MAX(a) mx FROM big "
      "GROUP BY g",
      // Kernel-filtered selective projection, compared row for row.
      "SELECT id, a FROM big WHERE a < 10",
      "SELECT COUNT(*), SUM(b) FROM big WHERE a < 5000 AND b > 100.0",
  };
  // Full-selectivity scan: compare cardinality and an order-insensitive
  // checksum instead of sorting a seven-figure row set at every capacity.
  const std::string full = "SELECT id, a FROM big WHERE a >= 0";
  auto checksum = [](const QueryResult& res) {
    uint64_t h = 0;
    for (const Row& row : res.rows) {
      h += std::hash<std::string>()(RowKey(row));
    }
    return h;
  };

  struct Outcome {
    std::vector<std::vector<std::string>> canon;
    size_t full_rows = 0;
    uint64_t full_checksum = 0;
  };
  std::vector<Outcome> outcomes;
  for (int capacity : kCapacities) {
    std::unique_ptr<Server> server = MakeServer(capacity);
    LoadLarge(server.get(), kLargeRows);
    if (HasFatalFailure()) return;
    Outcome out;
    for (const std::string& sql : queries) {
      auto r = server->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      out.canon.push_back(Canon(*r, false));
    }
    auto r = server->Execute(full);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    out.full_rows = r->rows.size();
    out.full_checksum = checksum(*r);
    outcomes.push_back(std::move(out));
  }
  const Outcome& want = outcomes.back();
  ASSERT_EQ(want.full_rows, static_cast<size_t>(kLargeRows));
  for (size_t c = 0; c + 1 < outcomes.size(); ++c) {
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(outcomes[c].canon[q], want.canon[q])
          << queries[q] << " at capacity " << kCapacities[c];
    }
    EXPECT_EQ(outcomes[c].full_rows, want.full_rows)
        << "capacity " << kCapacities[c];
    EXPECT_EQ(outcomes[c].full_checksum, want.full_checksum)
        << "capacity " << kCapacities[c];
  }
}

}  // namespace
}  // namespace mtcache
