#include <gtest/gtest.h>

#include "storage/table.h"
#include "tpcw/datagen.h"

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

// Seeks index `i` for `key` and returns the rowids found under it.
std::vector<RowId> SeekAll(const StoredTable& table, int i, const Row& key) {
  std::vector<RowId> rids;
  for (auto it = table.index(i).SeekGe(key);
       it.Valid() && BPlusTree::ComparePrefix(it.key(), key) == 0;
       it.Next()) {
    rids.push_back(it.rowid());
  }
  return rids;
}

TEST_F(StorageTest, RolledBackNonKeyUpdateLeavesEveryIndexSeekable) {
  auto setup = txn_mgr_.Begin();
  RowId rid = table_->Insert(MakeRow(7, "g", 1), setup.get()).ConsumeValue();
  txn_mgr_.Commit(setup.get(), 0.0);

  auto txn = txn_mgr_.Begin();
  ASSERT_TRUE(Update(rid, MakeRow(7, "g", 2), txn.get()).ok());
  EXPECT_EQ(SeekAll(*table_, 0, {Value::Int(7)}), std::vector<RowId>{rid});
  EXPECT_EQ(SeekAll(*table_, 1, {Value::String("g")}),
            std::vector<RowId>{rid});
  txn_mgr_.Abort(txn.get());

  EXPECT_EQ(table_->heap().Get(rid)[2].AsInt(), 1);
  EXPECT_EQ(SeekAll(*table_, 0, {Value::Int(7)}), std::vector<RowId>{rid});
  EXPECT_EQ(SeekAll(*table_, 1, {Value::String("g")}),
            std::vector<RowId>{rid});
  EXPECT_EQ(table_->index(0).size(), 1);
  EXPECT_EQ(table_->index(1).size(), 1);
}

TEST_F(StorageTest, UpdateOntoATakenUniqueKeyStillFails) {
  auto txn = txn_mgr_.Begin();
  RowId r1 = table_->Insert(MakeRow(1, "a", 1), txn.get()).ConsumeValue();
  RowId r2 = table_->Insert(MakeRow(2, "b", 2), txn.get()).ConsumeValue();
  EXPECT_EQ(Update(r2, MakeRow(1, "b", 2), txn.get()).code(),
            StatusCode::kAlreadyExists);
  // Keeping its own key (only the name changes) passes the unique check.
  ASSERT_TRUE(Update(r2, MakeRow(2, "c", 2), txn.get()).ok());
  txn_mgr_.Commit(txn.get(), 0.0);
  EXPECT_EQ(SeekAll(*table_, 0, {Value::Int(1)}), std::vector<RowId>{r1});
  EXPECT_EQ(SeekAll(*table_, 0, {Value::Int(2)}), std::vector<RowId>{r2});
  EXPECT_TRUE(SeekAll(*table_, 1, {Value::String("b")}).empty());
  EXPECT_EQ(SeekAll(*table_, 1, {Value::String("c")}),
            std::vector<RowId>{r2});
}

TEST_F(StorageTest, UpdateToAnEqualKeyOfAnotherTypeRewritesTheEntry) {
  auto txn = txn_mgr_.Begin();
  RowId rid = table_->Insert(MakeRow(1, "a", 3), txn.get()).ConsumeValue();
  txn_mgr_.Commit(txn.get(), 0.0);
  def_.indexes.push_back(IndexDef{"t_qty", {2}, false});
  table_->AddIndex();
  auto upd = txn_mgr_.Begin();
  Row row = MakeRow(1, "a", 0);
  row[2] = Value::Double(3.0);  // compares equal to the stored Int 3
  ASSERT_TRUE(Update(rid, row, upd.get()).ok());
  txn_mgr_.Commit(upd.get(), 0.0);
  auto it = table_->index(2).Begin();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].type(), TypeId::kDouble);
}

// A composite index whose key columns are reordered and not adjacent in
// the row, (qty, id), holds the cells in key order and follows updates and
// deletes.
TEST_F(StorageTest, ReorderedCompositeIndexFollowsDml) {
  def_.indexes.push_back(IndexDef{"t_qty_id", {2, 0}, false});
  table_->AddIndex();
  auto txn = txn_mgr_.Begin();
  RowId r1 = table_->Insert(MakeRow(1, "a", 5), txn.get()).ConsumeValue();
  RowId r2 = table_->Insert(MakeRow(2, "b", 4), txn.get()).ConsumeValue();
  RowId r3 = table_->Insert(MakeRow(3, "c", 5), txn.get()).ConsumeValue();
  std::vector<std::pair<int64_t, int64_t>> keys;
  for (auto it = table_->index(2).Begin(); it.Valid(); it.Next()) {
    ASSERT_EQ(it.key().size(), 2u);
    keys.emplace_back(it.key()[0].AsInt(), it.key()[1].AsInt());
  }
  EXPECT_EQ(keys, (std::vector<std::pair<int64_t, int64_t>>{
                      {4, 2}, {5, 1}, {5, 3}}));
  EXPECT_EQ(SeekAll(*table_, 2, {Value::Int(5)}),
            (std::vector<RowId>{r1, r3}));

  // A name-only update leaves the entry; a qty update moves it.
  ASSERT_TRUE(Update(r1, MakeRow(1, "z", 5), txn.get()).ok());
  EXPECT_EQ(SeekAll(*table_, 2, {Value::Int(5), Value::Int(1)}),
            std::vector<RowId>{r1});
  ASSERT_TRUE(Update(r3, MakeRow(3, "c", 4), txn.get()).ok());
  EXPECT_EQ(SeekAll(*table_, 2, {Value::Int(4)}),
            (std::vector<RowId>{r2, r3}));
  ASSERT_TRUE(Update(r1, MakeRow(1, "z", 4), txn.get()).ok());
  ASSERT_TRUE(table_->Delete(r2, txn.get()).ok());
  txn_mgr_.Commit(txn.get(), 0.0);
  EXPECT_EQ(SeekAll(*table_, 2, {Value::Int(4)}),
            (std::vector<RowId>{r1, r3}));
  EXPECT_TRUE(SeekAll(*table_, 2, {Value::Int(5)}).empty());
  EXPECT_EQ(table_->index(2).size(), 2);
}

// Every index the TPC-W generator builds stores at most one 16-byte cell
// per key column and 24 bytes besides (the rowid plus node headers and
// spare capacity) per entry, counted from the tree's own nodes.
TEST(StorageFootprintTest, TpcwIndexesFitTheirBytesPerEntryBound) {
  SimClock clock;
  LinkedServerRegistry links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
  tpcw::TpcwConfig config;
  ASSERT_TRUE(tpcw::CreateSchema(&backend).ok());
  ASSERT_TRUE(tpcw::GenerateData(&backend, config).ok());
  int checked = 0;
  for (const std::string& name : backend.db().catalog().TableNames()) {
    StoredTable* table = backend.db().GetStoredTable(name);
    if (table == nullptr) continue;
    for (size_t i = 0; i < table->def().indexes.size(); ++i) {
      const BPlusTree& index = table->index(static_cast<int>(i));
      BPlusTree::Shape shape = index.ComputeShape();
      ASSERT_EQ(shape.entries, table->row_count()) << name;
      if (shape.entries == 0) continue;
      double per_entry = static_cast<double>(shape.bytes) / shape.entries;
      EXPECT_LE(per_entry, 16.0 * index.width() + 24)
          << name << "." << table->def().indexes[i].name << " width "
          << index.width();
      ++checked;
    }
  }
  EXPECT_GE(checked, 10);
}

}  // namespace
}  // namespace mtcache
