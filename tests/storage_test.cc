#include <gtest/gtest.h>

#include "storage/table.h"

namespace mtcache {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : txn_mgr_(&log_) {
    def_.name = "t";
    def_.schema = Schema({{"id", TypeId::kInt64, "t", false},
                          {"name", TypeId::kString, "t", true},
                          {"qty", TypeId::kInt64, "t", true}});
    def_.primary_key = {0};
    def_.indexes.push_back(IndexDef{"t_pk", {0}, true});
    def_.indexes.push_back(IndexDef{"t_name", {1}, false});
    table_ = std::make_unique<StoredTable>(&def_, &log_);
  }

  Row MakeRow(int64_t id, const std::string& name, int64_t qty) {
    return Row{Value::Int(id), Value::String(name), Value::Int(qty)};
  }

  // Updates the row at `rid` to `row` through ModifyIfMatches, with a SET
  // of literals for every column and no WHERE.
  Status Update(RowId rid, const Row& row, Transaction* txn) {
    std::vector<std::pair<int, BExprPtr>> sets;
    for (size_t i = 0; i < row.size(); ++i) {
      sets.emplace_back(static_cast<int>(i),
                        std::make_unique<BoundLiteral>(row[i]));
    }
    auto change = table_->ModifyIfMatches(rid, nullptr, &sets, {}, txn);
    if (!change.ok()) return change.status();
    return change->has_value() ? Status::Ok()
                               : Status::NotFound("row skipped");
  }

  TableDef def_;
  LogManager log_;
  TransactionManager txn_mgr_;
  std::unique_ptr<StoredTable> table_;
};

TEST_F(StorageTest, InsertAndReadBack) {
  auto txn = txn_mgr_.Begin();
  auto rid = table_->Insert(MakeRow(1, "ab", 5), txn.get());
  ASSERT_TRUE(rid.ok());
  txn_mgr_.Commit(txn.get(), 0.0);
  EXPECT_EQ(table_->row_count(), 1);
  EXPECT_EQ(table_->heap().Get(*rid)[1].AsString(), "ab");
}

TEST_F(StorageTest, UniqueConstraintViolationRejected) {
  auto txn = txn_mgr_.Begin();
  ASSERT_TRUE(table_->Insert(MakeRow(1, "a", 1), txn.get()).ok());
  auto dup = table_->Insert(MakeRow(1, "b", 2), txn.get());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  txn_mgr_.Commit(txn.get(), 0.0);
  EXPECT_EQ(table_->row_count(), 1);
}

TEST_F(StorageTest, NonUniqueIndexAllowsDuplicates) {
  auto txn = txn_mgr_.Begin();
  ASSERT_TRUE(table_->Insert(MakeRow(1, "same", 1), txn.get()).ok());
  ASSERT_TRUE(table_->Insert(MakeRow(2, "same", 2), txn.get()).ok());
  txn_mgr_.Commit(txn.get(), 0.0);
  EXPECT_EQ(table_->row_count(), 2);
}

TEST_F(StorageTest, DeleteMaintainsIndexes) {
  auto txn = txn_mgr_.Begin();
  RowId rid = table_->Insert(MakeRow(1, "a", 1), txn.get()).ConsumeValue();
  ASSERT_TRUE(table_->Delete(rid, txn.get()).ok());
  txn_mgr_.Commit(txn.get(), 0.0);
  EXPECT_EQ(table_->row_count(), 0);
  EXPECT_EQ(table_->index(0).size(), 0);
  EXPECT_EQ(table_->index(1).size(), 0);
  // Re-inserting the same key must now succeed.
  auto txn2 = txn_mgr_.Begin();
  EXPECT_TRUE(table_->Insert(MakeRow(1, "a", 1), txn2.get()).ok());
  txn_mgr_.Commit(txn2.get(), 0.0);
}

TEST_F(StorageTest, UpdateMovesIndexEntries) {
  auto txn = txn_mgr_.Begin();
  RowId rid = table_->Insert(MakeRow(1, "old", 1), txn.get()).ConsumeValue();
  ASSERT_TRUE(Update(rid, MakeRow(1, "new", 2), txn.get()).ok());
  txn_mgr_.Commit(txn.get(), 0.0);
  // Name index should find "new", not "old".
  Row key = {Value::String("new")};
  auto it = table_->index(1).SeekGe(key);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.rowid(), rid);
  Row old_key = {Value::String("old")};
  auto it2 = table_->index(1).SeekGe(old_key);
  EXPECT_FALSE(it2.Valid() &&
               BPlusTree::ComparePrefix(it2.key(), old_key) == 0);
}

TEST_F(StorageTest, RollbackUndoesInsert) {
  auto txn = txn_mgr_.Begin();
  ASSERT_TRUE(table_->Insert(MakeRow(1, "a", 1), txn.get()).ok());
  txn_mgr_.Abort(txn.get());
  EXPECT_EQ(table_->row_count(), 0);
  EXPECT_EQ(table_->index(0).size(), 0);
}

TEST_F(StorageTest, RollbackUndoesDeleteAndUpdate) {
  auto setup = txn_mgr_.Begin();
  RowId r1 = table_->Insert(MakeRow(1, "a", 1), setup.get()).ConsumeValue();
  RowId r2 = table_->Insert(MakeRow(2, "b", 2), setup.get()).ConsumeValue();
  txn_mgr_.Commit(setup.get(), 0.0);

  auto txn = txn_mgr_.Begin();
  ASSERT_TRUE(table_->Delete(r1, txn.get()).ok());
  ASSERT_TRUE(Update(r2, MakeRow(2, "bb", 20), txn.get()).ok());
  txn_mgr_.Abort(txn.get());

  EXPECT_EQ(table_->row_count(), 2);
  EXPECT_EQ(table_->heap().Get(r1)[1].AsString(), "a");
  EXPECT_EQ(table_->heap().Get(r2)[1].AsString(), "b");
  EXPECT_EQ(table_->heap().Get(r2)[2].AsInt(), 2);
}

TEST_F(StorageTest, WalRecordsInsertWithAfterImage) {
  auto txn = txn_mgr_.Begin();
  ASSERT_TRUE(table_->Insert(MakeRow(1, "a", 1), txn.get()).ok());
  txn_mgr_.Commit(txn.get(), 3.5);
  std::vector<LogRecord> recs;
  log_.ReadFrom(0, &recs);
  ASSERT_EQ(recs.size(), 3u);  // begin, insert, commit
  EXPECT_EQ(recs[0].type, LogRecordType::kBegin);
  EXPECT_EQ(recs[1].type, LogRecordType::kInsert);
  EXPECT_EQ(recs[1].table, "t");
  EXPECT_EQ(recs[1].after[0].AsInt(), 1);
  EXPECT_EQ(recs[2].type, LogRecordType::kCommit);
  EXPECT_DOUBLE_EQ(recs[2].commit_time, 3.5);
}

TEST_F(StorageTest, WalUpdateCarriesBothImages) {
  auto txn = txn_mgr_.Begin();
  RowId rid = table_->Insert(MakeRow(1, "a", 1), txn.get()).ConsumeValue();
  ASSERT_TRUE(Update(rid, MakeRow(1, "z", 9), txn.get()).ok());
  txn_mgr_.Commit(txn.get(), 0.0);
  std::vector<LogRecord> recs;
  log_.ReadFrom(0, &recs);
  const LogRecord& upd = recs[2];
  ASSERT_EQ(upd.type, LogRecordType::kUpdate);
  EXPECT_EQ(upd.before[1].AsString(), "a");
  EXPECT_EQ(upd.after[1].AsString(), "z");
}

TEST_F(StorageTest, LogTruncation) {
  auto txn = txn_mgr_.Begin();
  ASSERT_TRUE(table_->Insert(MakeRow(1, "a", 1), txn.get()).ok());
  txn_mgr_.Commit(txn.get(), 0.0);
  Lsn end = log_.next_lsn();
  log_.TruncateBefore(end);
  std::vector<LogRecord> recs;
  log_.ReadFrom(0, &recs);
  EXPECT_TRUE(recs.empty());
}

TEST_F(StorageTest, BuildIndexOnExistingData) {
  auto txn = txn_mgr_.Begin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        table_->Insert(MakeRow(i, "n" + std::to_string(i % 5), i), txn.get())
            .ok());
  }
  txn_mgr_.Commit(txn.get(), 0.0);
  def_.indexes.push_back(IndexDef{"t_qty", {2}, false});
  table_->AddIndex();
  EXPECT_EQ(table_->index(2).size(), 50);
  Row key = {Value::Int(25)};
  auto it = table_->index(2).SeekGe(key);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 25);
}

TEST_F(StorageTest, ComputeStatsBasics) {
  auto txn = txn_mgr_.Begin();
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(
        table_->Insert(MakeRow(i, "n" + std::to_string(i % 10), i % 4),
                       txn.get())
            .ok());
  }
  txn_mgr_.Commit(txn.get(), 0.0);
  table_->RecomputeStats();
  const TableStats& stats = def_.stats;
  EXPECT_DOUBLE_EQ(stats.row_count, 100);
  EXPECT_DOUBLE_EQ(stats.columns[0].min, 1);
  EXPECT_DOUBLE_EQ(stats.columns[0].max, 100);
  EXPECT_DOUBLE_EQ(stats.columns[0].ndv, 100);
  EXPECT_DOUBLE_EQ(stats.columns[2].ndv, 4);
  EXPECT_GT(stats.avg_row_bytes, 0);
}

TEST_F(StorageTest, HistogramBuiltAndEquiDepth) {
  auto txn = txn_mgr_.Begin();
  // Skewed distribution: values i*i for i in 1..200 (dense low, sparse high).
  for (int i = 1; i <= 200; ++i) {
    ASSERT_TRUE(
        table_->Insert(MakeRow(i, "n", int64_t(i) * i), txn.get()).ok());
  }
  txn_mgr_.Commit(txn.get(), 0.0);
  table_->RecomputeStats();
  const ColumnStats& qty = def_.stats.columns[2];
  ASSERT_FALSE(qty.hist_bounds.empty());
  EXPECT_TRUE(std::is_sorted(qty.hist_bounds.begin(), qty.hist_bounds.end()));
  // True selectivity of qty <= 10000 is P(i <= 100) = 0.5; the uniform
  // [1,40000] assumption would say 0.25. The histogram must land near truth.
  double est = qty.RangeLeSelectivity(10000);
  EXPECT_NEAR(est, 0.5, 0.06);
  // Tails behave. `>= max+` keeps the boundary-equality mass: the estimate
  // for `qty >= x` includes rows equal to x.
  EXPECT_NEAR(qty.RangeLeSelectivity(50000), 1.0, 1e-9);
  EXPECT_NEAR(qty.RangeGeSelectivity(50000), 0.0, 1e-9);
  // Le and Ge overlap exactly on the equality mass at the boundary:
  // Le(x) + Ge(x) = 1 + P(= x).
  double both =
      qty.RangeLeSelectivity(10000) + qty.RangeGeSelectivity(10000);
  EXPECT_GE(both, 1.0 - 1e-9);
  EXPECT_LE(both, 1.0 + qty.EqSelectivityAt(10000) + 1e-9);
}

TEST_F(StorageTest, HistogramSkippedForTinyTables) {
  auto txn = txn_mgr_.Begin();
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(table_->Insert(MakeRow(i, "n", i), txn.get()).ok());
  }
  txn_mgr_.Commit(txn.get(), 0.0);
  table_->RecomputeStats();
  EXPECT_TRUE(def_.stats.columns[0].hist_bounds.empty());
  // Uniform fallback still works.
  EXPECT_NEAR(def_.stats.columns[0].RangeLeSelectivity(5), 0.44, 0.07);
}

TEST_F(StorageTest, RowIdReuseAfterDelete) {
  auto txn = txn_mgr_.Begin();
  RowId r1 = table_->Insert(MakeRow(1, "a", 1), txn.get()).ConsumeValue();
  ASSERT_TRUE(table_->Delete(r1, txn.get()).ok());
  RowId r2 = table_->Insert(MakeRow(2, "b", 2), txn.get()).ConsumeValue();
  txn_mgr_.Commit(txn.get(), 0.0);
  EXPECT_EQ(r1, r2);  // slot reused
  EXPECT_EQ(table_->row_count(), 1);
}

}  // namespace
}  // namespace mtcache
