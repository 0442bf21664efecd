#include "storage/table.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "catalog/histogram.h"
#include "common/wait_stats.h"

namespace mtcache {

RowId HeapTable::Insert(Row row) {
  RowId rid;
  RowPtr version = std::make_shared<const Row>(std::move(row));
  if (!free_list_.empty()) {
    rid = free_list_.back();
    free_list_.pop_back();
    rows_[rid] = std::move(version);
    live_[rid] = true;
  } else {
    rid = static_cast<RowId>(rows_.size());
    rows_.push_back(std::move(version));
    live_.push_back(true);
  }
  ++live_count_;
  return rid;
}

void HeapTable::RestoreAt(RowId rid, Row row) {
  if (rid >= static_cast<RowId>(rows_.size())) {
    rows_.resize(rid + 1);
    live_.resize(rid + 1, false);
  }
  // The slot may sit on the free list; lazily skip it there (Insert checks
  // liveness are not needed because free slots are only produced by Delete).
  for (size_t i = 0; i < free_list_.size(); ++i) {
    if (free_list_[i] == rid) {
      free_list_[i] = free_list_.back();
      free_list_.pop_back();
      break;
    }
  }
  rows_[rid] = std::make_shared<const Row>(std::move(row));
  live_[rid] = true;
  ++live_count_;
}

bool HeapTable::Delete(RowId rid) {
  if (!IsLive(rid)) return false;
  live_[rid] = false;
  // Drop this slot's reference; in-flight snapshots keep the version alive.
  rows_[rid].reset();
  free_list_.push_back(rid);
  --live_count_;
  return true;
}

bool HeapTable::Update(RowId rid, Row row) {
  if (!IsLive(rid)) return false;
  // Install a new version rather than mutating in place: snapshots taken
  // before this update still point at the old, fully-formed row.
  rows_[rid] = std::make_shared<const Row>(std::move(row));
  return true;
}

StoredTable::StoredTable(TableDef* def, LogManager* log)
    : def_(def), log_(log) {
  indexes_.reserve(def_->indexes.size());
  for (const IndexDef& idx : def_->indexes) {
    indexes_.emplace_back(static_cast<int>(idx.key_columns.size()));
  }
}

HeapSnapshotPtr StoredTable::ScanSnapshot() const {
  {
    std::lock_guard<std::mutex> cache(snapshot_mu_);
    if (snapshot_ != nullptr) return snapshot_;
  }
  // Cold path: assemble the live-row pointer vector under the shared table
  // latch (mutations excluded), then publish while the latch is still held —
  // an invalidating writer has to wait for the latch, so it can never be
  // overtaken by this publish.
  SharedLatchWait latch(latch_, WaitSite::kTableLatchShared);
  auto snap = std::make_shared<HeapSnapshot>();
  snap->rows.reserve(heap_.live_count());
  for (RowId rid = 0; rid < heap_.slot_count(); ++rid) {
    if (heap_.IsLive(rid)) {
      snap->rows.push_back(heap_.GetRef(rid));
    } else {
      ++snap->dead_slots;
    }
  }
  std::lock_guard<std::mutex> cache(snapshot_mu_);
  if (snapshot_ == nullptr) snapshot_ = std::move(snap);
  return snapshot_;
}

void StoredTable::InvalidateSnapshot() {
  std::lock_guard<std::mutex> cache(snapshot_mu_);
  snapshot_.reset();
}

KeyRef StoredTable::IndexKey(int i, const Row& row, Row* scratch) const {
  scratch->clear();
  for (int col : def_->indexes[i].key_columns) scratch->push_back(row[col]);
  return *scratch;
}

std::vector<int> StoredTable::ChangedIndexes(const Row& a,
                                             const Row& b) const {
  std::vector<int> changed;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    for (int col : def_->indexes[i].key_columns) {
      const Value& x = a[col];
      const Value& y = b[col];
      if (x.type() != y.type() || x.is_null() != y.is_null() ||
          x.Compare(y) != 0) {
        changed.push_back(static_cast<int>(i));
        break;
      }
    }
  }
  return changed;
}

Status StoredTable::CheckUnique(int i, const Row& row, RowId ignore_rid) const {
  Row scratch;
  KeyRef key = IndexKey(i, row, &scratch);
  for (auto it = indexes_[i].SeekGe(key);
       it.Valid() && BPlusTree::ComparePrefix(it.key(), key) == 0; it.Next()) {
    if (it.rowid() != ignore_rid) {
      return Status::AlreadyExists("unique constraint violation on index " +
                                   def_->indexes[i].name + " of table " +
                                   def_->name);
    }
  }
  return Status::Ok();
}

void StoredTable::IndexInsert(const Row& row, RowId rid) {
  Row scratch;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    indexes_[i].Insert(IndexKey(static_cast<int>(i), row, &scratch), rid);
  }
}

void StoredTable::IndexErase(const Row& row, RowId rid) {
  Row scratch;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    indexes_[i].Erase(IndexKey(static_cast<int>(i), row, &scratch), rid);
  }
}

void StoredTable::IndexUpdate(const std::vector<int>& changed,
                              const Row& before, const Row& after, RowId rid) {
  Row scratch;
  for (int i : changed) {
    indexes_[i].Erase(IndexKey(i, before, &scratch), rid);
    indexes_[i].Insert(IndexKey(i, after, &scratch), rid);
  }
}

StatusOr<RowId> StoredTable::Insert(const Row& row, Transaction* txn) {
  ExclusiveLatchWait latch(latch_, WaitSite::kTableLatchExclusive);
  return InsertLocked(row, txn);
}

StatusOr<Row> StoredTable::Delete(RowId rid, Transaction* txn) {
  ExclusiveLatchWait latch(latch_, WaitSite::kTableLatchExclusive);
  return DeleteLocked(rid, txn);
}

StatusOr<std::optional<StoredTable::RowChange>> StoredTable::ModifyIfMatches(
    RowId rid, const BoundExpr* where,
    const std::vector<std::pair<int, BExprPtr>>* sets, const EvalContext& eval,
    Transaction* txn) {
  using Result = std::optional<RowChange>;
  ExclusiveLatchWait latch(latch_, WaitSite::kTableLatchExclusive);
  if (!heap_.IsLive(rid)) return Result();
  const Row& current = heap_.Get(rid);
  if (where != nullptr) {
    MT_ASSIGN_OR_RETURN(bool match, EvalPredicate(*where, &current, eval));
    if (!match) return Result();
  }
  RowChange change;
  if (sets == nullptr) {
    MT_ASSIGN_OR_RETURN(change.before, DeleteLocked(rid, txn));
    return Result(std::move(change));
  }
  change.after = current;
  for (const auto& [ord, expr] : *sets) {
    MT_ASSIGN_OR_RETURN(change.after[ord], EvalBound(*expr, &current, eval));
  }
  MT_ASSIGN_OR_RETURN(change.before, UpdateLocked(rid, change.after, txn));
  return Result(std::move(change));
}

Status StoredTable::ApplyByKey(const ViewChange& change, Transaction* txn) {
  ExclusiveLatchWait latch(latch_, WaitSite::kTableLatchExclusive);
  RowId rid = change.op == ViewChange::Op::kInsert
                  ? -1
                  : FindByPrimaryKey(change.before);
  if (rid < 0) {
    return change.op == ViewChange::Op::kDelete
               ? Status::Ok()
               : InsertLocked(change.after, txn).status();
  }
  return change.op == ViewChange::Op::kDelete
             ? DeleteLocked(rid, txn).status()
             : UpdateLocked(rid, change.after, txn).status();
}

RowId StoredTable::FindByPrimaryKey(const Row& row) const {
  for (size_t i = 0; i < def_->indexes.size(); ++i) {
    const IndexDef& idx = def_->indexes[i];
    if (!idx.unique || idx.key_columns != def_->primary_key) continue;
    Row scratch;
    KeyRef key = IndexKey(static_cast<int>(i), row, &scratch);
    for (auto it = indexes_[i].SeekGe(key);
         it.Valid() && BPlusTree::ComparePrefix(it.key(), key) == 0;
         it.Next()) {
      if (heap_.IsLive(it.rowid())) return it.rowid();
    }
    return -1;
  }
  return -1;
}

StatusOr<RowId> StoredTable::InsertLocked(const Row& row, Transaction* txn) {
  if (static_cast<int>(row.size()) != def_->schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   def_->name);
  }
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (!def_->indexes[i].unique) continue;
    MT_RETURN_IF_ERROR(CheckUnique(static_cast<int>(i), row, -1));
  }
  RowId rid = heap_.Insert(row);
  IndexInsert(row, rid);
  InvalidateSnapshot();
  if (log_ != nullptr) {
    LogRecord rec;
    rec.txn = txn->id();
    rec.type = LogRecordType::kInsert;
    rec.table = def_->name;
    rec.after = row;
    log_->Append(std::move(rec));
  }
  txn->AddUndo(UndoEntry{this, LogRecordType::kInsert, rid, {}});
  return rid;
}

StatusOr<Row> StoredTable::DeleteLocked(RowId rid, Transaction* txn) {
  if (!heap_.IsLive(rid)) {
    return Status::NotFound("rowid not live in table " + def_->name);
  }
  Row before = heap_.Get(rid);
  IndexErase(before, rid);
  heap_.Delete(rid);
  InvalidateSnapshot();
  if (log_ != nullptr) {
    LogRecord rec;
    rec.txn = txn->id();
    rec.type = LogRecordType::kDelete;
    rec.table = def_->name;
    rec.before = before;
    log_->Append(std::move(rec));
  }
  txn->AddUndo(UndoEntry{this, LogRecordType::kDelete, rid, before});
  return before;
}

StatusOr<Row> StoredTable::UpdateLocked(RowId rid, const Row& new_row,
                                        Transaction* txn) {
  if (!heap_.IsLive(rid)) {
    return Status::NotFound("rowid not live in table " + def_->name);
  }
  if (static_cast<int>(new_row.size()) != def_->schema.num_columns()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   def_->name);
  }
  // Only an index whose key the update changes is checked and rewritten.
  const Row& current = heap_.Get(rid);
  std::vector<int> changed = ChangedIndexes(current, new_row);
  for (int i : changed) {
    if (def_->indexes[i].unique) {
      MT_RETURN_IF_ERROR(CheckUnique(i, new_row, rid));
    }
  }
  Row before = current;
  IndexUpdate(changed, before, new_row, rid);
  heap_.Update(rid, new_row);
  InvalidateSnapshot();
  if (log_ != nullptr) {
    LogRecord rec;
    rec.txn = txn->id();
    rec.type = LogRecordType::kUpdate;
    rec.table = def_->name;
    rec.before = before;
    rec.after = new_row;
    log_->Append(std::move(rec));
  }
  txn->AddUndo(UndoEntry{this, LogRecordType::kUpdate, rid, before});
  return before;
}

void StoredTable::PhysicalDelete(RowId rid) {
  ExclusiveLatchWait latch(latch_, WaitSite::kTableLatchExclusive);
  if (!heap_.IsLive(rid)) return;
  IndexErase(heap_.Get(rid), rid);
  heap_.Delete(rid);
  InvalidateSnapshot();
}

void StoredTable::PhysicalRestore(RowId rid, const Row& row) {
  ExclusiveLatchWait latch(latch_, WaitSite::kTableLatchExclusive);
  heap_.RestoreAt(rid, row);
  IndexInsert(row, rid);
  InvalidateSnapshot();
}

void StoredTable::PhysicalUpdate(RowId rid, const Row& row) {
  ExclusiveLatchWait latch(latch_, WaitSite::kTableLatchExclusive);
  if (!heap_.IsLive(rid)) return;
  const Row& current = heap_.Get(rid);
  IndexUpdate(ChangedIndexes(current, row), current, row, rid);
  heap_.Update(rid, row);
  InvalidateSnapshot();
}

void StoredTable::AddIndex() {
  indexes_.emplace_back(static_cast<int>(
      def_->indexes[indexes_.size()].key_columns.size()));
  BuildIndex(static_cast<int>(indexes_.size()) - 1);
}

void StoredTable::BuildIndex(int i) {
  indexes_[i] =
      BPlusTree(static_cast<int>(def_->indexes[i].key_columns.size()));
  Row scratch;
  for (RowId rid = 0; rid < heap_.slot_count(); ++rid) {
    if (!heap_.IsLive(rid)) continue;
    indexes_[i].Insert(IndexKey(i, heap_.Get(rid), &scratch), rid);
  }
}

void StoredTable::RecomputeStats() {
  def_->stats = ComputeTableStats(def_->schema, heap_);
}

void Transaction::Rollback() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    switch (it->op) {
      case LogRecordType::kInsert:
        it->table->PhysicalDelete(it->rid);
        break;
      case LogRecordType::kDelete:
        it->table->PhysicalRestore(it->rid, it->before);
        break;
      case LogRecordType::kUpdate:
        it->table->PhysicalUpdate(it->rid, it->before);
        break;
      default:
        break;
    }
  }
  undo_.clear();
  active_ = false;
}

std::unique_ptr<Transaction> TransactionManager::Begin() {
  auto txn = std::make_unique<Transaction>(next_txn_++);
  if (log_ != nullptr) {
    LogRecord rec;
    rec.txn = txn->id();
    rec.type = LogRecordType::kBegin;
    log_->Append(std::move(rec));
  }
  return txn;
}

void TransactionManager::Commit(Transaction* txn, double commit_time) {
  if (log_ != nullptr) {
    LogRecord rec;
    rec.txn = txn->id();
    rec.type = LogRecordType::kCommit;
    rec.commit_time = commit_time;
    log_->Append(std::move(rec));
  }
  txn->MarkCommitted();
}

void TransactionManager::Abort(Transaction* txn) {
  txn->Rollback();
  if (log_ != nullptr) {
    LogRecord rec;
    rec.txn = txn->id();
    rec.type = LogRecordType::kAbort;
    log_->Append(std::move(rec));
  }
}

TableStats ComputeTableStats(const Schema& schema, const HeapTable& heap) {
  constexpr int kHistogramBuckets = kColumnHistogramBuckets;
  constexpr size_t kHistogramSampleCap = 50000;

  TableStats stats;
  stats.row_count = static_cast<double>(heap.live_count());
  stats.columns.resize(schema.num_columns());
  std::vector<std::unordered_set<size_t>> distinct(schema.num_columns());
  std::vector<std::vector<double>> samples(schema.num_columns());
  std::vector<int64_t> nulls(schema.num_columns(), 0);
  std::vector<bool> seen(schema.num_columns(), false);
  // Sample stride keeps the per-column value sample bounded.
  RowId stride = 1;
  if (heap.live_count() > static_cast<int64_t>(kHistogramSampleCap)) {
    stride = heap.live_count() / kHistogramSampleCap + 1;
  }
  double total_bytes = 0;
  int64_t live_seen = 0;
  for (RowId rid = 0; rid < heap.slot_count(); ++rid) {
    if (!heap.IsLive(rid)) continue;
    ++live_seen;
    const Row& row = heap.Get(rid);
    total_bytes += RowSizeBytes(row);
    for (int c = 0; c < schema.num_columns(); ++c) {
      const Value& v = row[c];
      if (v.is_null()) {
        ++nulls[c];
        continue;
      }
      double x = v.AsStatDouble();
      ColumnStats& cs = stats.columns[c];
      if (!seen[c]) {
        cs.min = cs.max = x;
        seen[c] = true;
      } else {
        if (x < cs.min) cs.min = x;
        if (x > cs.max) cs.max = x;
      }
      if (distinct[c].size() < 100000) distinct[c].insert(v.Hash());
      if (live_seen % stride == 0) samples[c].push_back(x);
    }
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    ColumnStats& cs = stats.columns[c];
    cs.ndv = distinct[c].empty() ? 1 : static_cast<double>(distinct[c].size());
    cs.null_frac =
        stats.row_count > 0 ? nulls[c] / stats.row_count : 0.0;
    // Equi-depth histogram from the sampled values (empty if the sample is
    // too small to carry signal — estimators then fall back to uniform).
    cs.hist_bounds = BuildEquiDepthBounds(&samples[c], kHistogramBuckets);
  }
  stats.avg_row_bytes =
      stats.row_count > 0 ? total_bytes / stats.row_count : 64;
  return stats;
}

}  // namespace mtcache
