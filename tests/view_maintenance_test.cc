#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "check/consistency.h"
#include "common/random.h"
#include "mtcache/mtcache.h"

namespace mtcache {
namespace {

/// One select-project definition kept current two ways: synchronously, as a
/// regular materialized view on the backend, and through replication, as a
/// cached view on a cache. A seeded DML sequence runs against the base
/// table; once the pipeline drains, both views must equal the definition
/// evaluated on the base table. Parameters: (seed, distribution batch size).
class ViewMaintenanceDiffTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {
 protected:
  static constexpr const char* kDefinition =
      "SELECT id, grp, v FROM t WHERE grp <= 2";
  static constexpr int kMaxId = 80;

  ViewMaintenanceDiffTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    Backend("CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT, "
            "note VARCHAR(10))");
    for (int id = 1; id <= 30; ++id) {
      Backend("INSERT INTO t VALUES (" + std::to_string(id) + ", " +
              std::to_string(id % 5) + ", " + std::to_string(id * 10) +
              ", 'n')");
      ids_.insert(id);
    }
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    repl_.set_distribution_batch_size(std::get<1>(GetParam()));
    Backend(std::string("CREATE MATERIALIZED VIEW mv AS ") + kDefinition);
    Status cached = cache_.ExecuteScript(
        std::string("CREATE CACHED MATERIALIZED VIEW cv AS ") + kDefinition);
    ASSERT_TRUE(cached.ok()) << cached.ToString();
  }

  void Backend(const std::string& sql) {
    Status s = backend_.ExecuteScript(sql);
    ASSERT_TRUE(s.ok()) << s.ToString() << "\nSQL: " << sql;
  }

  /// Live rows of a stored table, read off the heap (no optimizer, so view
  /// matching cannot answer from the view under test), keeping the rows
  /// `keep` accepts and the columns `cols` names.
  template <typename Keep>
  std::vector<std::string> HeapRows(Server* server, const std::string& table,
                                    const std::vector<int>& cols, Keep keep) {
    std::vector<std::string> rows;
    StoredTable* stored = server->db().GetStoredTable(table);
    EXPECT_NE(stored, nullptr) << table;
    if (stored == nullptr) return rows;
    for (RowId rid = 0; rid < stored->heap().slot_count(); ++rid) {
      if (!stored->heap().IsLive(rid)) continue;
      const Row& row = stored->heap().Get(rid);
      if (!keep(row)) continue;
      std::string s;
      for (int c : cols) s += row[c].ToSqlLiteral() + "|";
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  int PickId(Random* rng) { return static_cast<int>(rng->Uniform(1, kMaxId)); }
  int PickFreeId(Random* rng, const std::set<int>& ids) {
    for (;;) {
      int id = PickId(rng);
      if (ids.count(id) == 0) return id;
    }
  }
  int PickLiveId(Random* rng, const std::set<int>& ids) {
    auto it = ids.begin();
    std::advance(it, rng->Uniform(0, static_cast<int64_t>(ids.size()) - 1));
    return *it;
  }

  /// One random DML statement; `ids` tracks the keys it leaves live.
  std::string RandomStatement(Random* rng, std::set<int>* ids) {
    std::string k = std::to_string(PickId(rng));
    switch (rng->Uniform(0, 7)) {
      case 0:
      case 1: {
        if (static_cast<int>(ids->size()) >= kMaxId) break;
        int id = PickFreeId(rng, *ids);
        ids->insert(id);
        return "INSERT INTO t VALUES (" + std::to_string(id) + ", " +
               std::to_string(rng->Uniform(0, 4)) + ", " +
               std::to_string(rng->Uniform(0, 999)) + ", 'n')";
      }
      case 2:
        ids->erase(std::stoi(k));
        return "DELETE FROM t WHERE id = " + k;
      case 3:  // moves the row into or out of the predicate
        return "UPDATE t SET grp = " + std::to_string(rng->Uniform(0, 4)) +
               " WHERE id = " + k;
      case 4:
        return "UPDATE t SET v = v + 1 WHERE id = " + k;
      case 5:  // a column the view does not project
        return "UPDATE t SET note = 'm' WHERE id = " + k;
      case 6: {  // primary-key update
        if (ids->empty() || static_cast<int>(ids->size()) >= kMaxId) break;
        int from = PickLiveId(rng, *ids);
        int to = PickFreeId(rng, *ids);
        ids->erase(from);
        ids->insert(to);
        return "UPDATE t SET id = " + std::to_string(to) +
               " WHERE id = " + std::to_string(from);
      }
      default:  // several rows at once, some crossing the predicate
        return "UPDATE t SET grp = 4 - grp WHERE v < " +
               std::to_string(rng->Uniform(0, 999));
    }
    return "UPDATE t SET v = v WHERE id = " + k;
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
  std::set<int> ids_;
};

TEST_P(ViewMaintenanceDiffTest, BothViewsEqualDefinitionAfterSeededDml) {
  Random rng(std::get<0>(GetParam()));
  for (int step = 0; step < 120; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.25) {
      // A multi-statement transaction, committed or rolled back.
      bool commit = rng.Bernoulli(0.7);
      std::set<int> ids = ids_;
      std::string script = "BEGIN TRANSACTION; ";
      int statements = static_cast<int>(rng.Uniform(2, 4));
      for (int i = 0; i < statements; ++i) {
        script += RandomStatement(&rng, &ids) + "; ";
      }
      script += commit ? "COMMIT;" : "ROLLBACK;";
      Backend(script);
      if (commit) ids_ = std::move(ids);
    } else {
      Backend(RandomStatement(&rng, &ids_));
    }
    if (rng.Bernoulli(0.3)) {
      clock_.Advance(0.01);
      ASSERT_TRUE(repl_.RunOnce(nullptr, nullptr).ok());
    }
  }
  ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());

  auto in_definition = [](const Row& row) {
    return !row[1].is_null() && row[1].AsInt() <= 2;
  };
  auto all = [](const Row&) { return true; };
  std::vector<std::string> expected =
      HeapRows(&backend_, "t", {0, 1, 2}, in_definition);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(HeapRows(&backend_, "mv", {0, 1, 2}, all), expected);
  EXPECT_EQ(HeapRows(&cache_, "cv", {0, 1, 2}, all), expected);
  ConsistencyReport report =
      ConsistencyChecker(&repl_, &backend_, &cache_).Check();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBatchSizes, ViewMaintenanceDiffTest,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}),
                       ::testing::Values(1, 8)));

TEST(ViewMaintenanceTest, SubscribeRejectsArticlePredicateOnMissingColumn) {
  SimClock clock;
  LinkedServerRegistry links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
  Server cache(ServerOptions{"cache", "dbo", {}}, &clock, &links);
  ReplicationSystem repl(&clock);
  ASSERT_TRUE(
      backend.ExecuteScript("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(
      cache.ExecuteScript("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  Article article;
  article.name = "a";
  article.def.base_table = "t";
  article.def.columns = {"id", "v"};
  article.def.predicates = {{"missing", CompareOp::kEq, Value::Int(1)}};
  auto sub = repl.Subscribe(&backend, article, &cache, "t");
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument)
      << sub.status().ToString();
}

}  // namespace
}  // namespace mtcache
