#ifndef MTCACHE_STORAGE_TABLE_H_
#define MTCACHE_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "expr/bound_expr.h"
#include "storage/bptree.h"
#include "storage/wal.h"
#include "types/value.h"

namespace mtcache {

class Transaction;

/// A heap row version. Rows are immutable once installed: DML installs a new
/// version (a fresh shared_ptr) instead of mutating in place, so a scan
/// snapshot taken before the change keeps the old payload alive and never
/// observes a torn row.
using RowPtr = std::shared_ptr<const Row>;

/// One consistent, immutable view of a table's live rows, shared refcounted
/// between the table's snapshot cache and any number of in-flight scans.
/// `rows` holds the live rows in slot order; `dead_slots` is how many slots
/// were skipped (scans charge the dead remainder for costing parity with a
/// slot-by-slot walk).
struct HeapSnapshot {
  std::vector<RowPtr> rows;
  int64_t dead_slots = 0;
};
using HeapSnapshotPtr = std::shared_ptr<const HeapSnapshot>;

/// Slotted in-memory row store. RowIds are slot numbers; deleted slots go to
/// a free list and may be reused (a reuse bumps nothing — replication
/// identifies rows by key, not RowId, so reuse is safe).
class HeapTable {
 public:
  RowId Insert(Row row);
  /// Re-inserts a row at a specific slot (transaction rollback of a delete).
  void RestoreAt(RowId rid, Row row);
  bool Delete(RowId rid);
  bool Update(RowId rid, Row row);

  bool IsLive(RowId rid) const {
    return rid >= 0 && rid < static_cast<RowId>(rows_.size()) && live_[rid];
  }
  /// Callers must check IsLive first: a dead slot holds no row version.
  const Row& Get(RowId rid) const { return *rows_[rid]; }
  /// The refcounted version at `rid`, for snapshot assembly (no payload
  /// copy). Same liveness contract as Get.
  const RowPtr& GetRef(RowId rid) const { return rows_[rid]; }
  int64_t live_count() const { return live_count_; }
  RowId slot_count() const { return static_cast<RowId>(rows_.size()); }

 private:
  std::vector<RowPtr> rows_;
  std::vector<bool> live_;
  std::vector<RowId> free_list_;
  int64_t live_count_ = 0;
};

/// A stored relation: heap plus the B+-trees for each index in the TableDef.
/// All mutations go through the logged, transactional entry points, which
/// enforce unique constraints, maintain the indexes (an update only those
/// whose key it changes), write WAL records, and register undo actions with
/// the transaction.
///
/// Concurrency: a table-granularity reader/writer latch. Every mutation
/// entry point (logged and physical) takes the latch exclusive internally
/// for the duration of that single row change (ModifyIfMatches re-checks
/// the row under that same hold), so DML against one table
/// serializes while concurrent SELECTs of other tables proceed. Readers take
/// it shared via latch() just long enough to materialize the rows they need
/// (scans copy matching rows at Open; they never hold the latch across
/// Next). Because no code path ever holds two table latches at once — each
/// mutation latches exactly one table, and rollback undoes entries one
/// self-latching call at a time — there is no lock-order cycle to worry
/// about. DDL (AddIndex/BuildIndex/RemoveIndex/RecomputeStats) is
/// setup-only and must not run concurrently with queries.
class StoredTable {
 public:
  /// `def` and `log` must outlive the table. `log` may be null for catalogs
  /// that do not replicate (e.g. scratch databases in tests).
  StoredTable(TableDef* def, LogManager* log);

  const TableDef& def() const { return *def_; }
  TableDef* mutable_def() { return def_; }
  HeapTable& heap() { return heap_; }
  const HeapTable& heap() const { return heap_; }

  /// Number of live rows.
  int64_t row_count() const { return heap_.live_count(); }

  // --- Logged, transactional mutations -------------------------------------

  StatusOr<RowId> Insert(const Row& row, Transaction* txn);
  /// Returns the before image it removed, read under the same exclusive
  /// latch as the change (the image the WAL records).
  StatusOr<Row> Delete(RowId rid, Transaction* txn);

  /// The images of one row an UPDATE or DELETE changed (no `after` for a
  /// delete).
  struct RowChange {
    Row before;
    Row after;
  };
  /// The write half of UPDATE and DELETE, for a row found earlier: under one
  /// exclusive latch, checks that `rid` is live and its current version
  /// satisfies `where` (null: any row), then deletes it (`sets` null) or
  /// updates it with `sets` evaluated over that version. Returns nullopt
  /// ("skipped"), changing nothing, when a racing statement freed, reused or
  /// changed the row so that `where` fails; an error also changes nothing.
  StatusOr<std::optional<RowChange>> ModifyIfMatches(
      RowId rid, const BoundExpr* where,
      const std::vector<std::pair<int, BExprPtr>>* sets,
      const EvalContext& eval, Transaction* txn);

  /// The keyed apply that keeps a view or replication target current:
  /// locates the row by its primary key (the before image's key columns)
  /// through the unique primary-key index and applies `change` under one
  /// exclusive latch. Deleting a missing row does nothing; updating a
  /// missing row inserts it. A table without a primary-key index finds no
  /// row.
  Status ApplyByKey(const ViewChange& change, Transaction* txn);

  // --- Physical (unlogged) mutations, used only by transaction rollback ----

  void PhysicalDelete(RowId rid);
  void PhysicalRestore(RowId rid, const Row& row);
  void PhysicalUpdate(RowId rid, const Row& row);

  // --- Index access ---------------------------------------------------------

  /// The B+-tree for index ordinal `i` (position in def().indexes).
  const BPlusTree& index(int i) const { return indexes_[i]; }
  /// (Re)builds index ordinal `i` from the heap (CREATE INDEX on a table
  /// that already has rows).
  void BuildIndex(int i);
  /// Appends a new index tree; call after pushing the IndexDef into def().
  void AddIndex();
  /// Drops index ordinal `i`'s tree; call after erasing the IndexDef.
  void RemoveIndex(int i) { indexes_.erase(indexes_.begin() + i); }

  /// Recomputes the TableDef's statistics from the stored rows.
  void RecomputeStats();

  /// The table latch. Readers lock it shared while copying rows out of the
  /// heap/indexes; mutations lock it exclusive internally. Exposed so the
  /// executor and engine read paths can take shared guards.
  std::shared_mutex& latch() const { return latch_; }

  /// An immutable snapshot of the live rows, built lazily and cached until
  /// the next mutation. A repeat scan of an unchanged table is O(1): it
  /// bumps one refcount and shares the cached row-pointer vector. A cold
  /// snapshot is built under a briefly-held shared latch in O(slots) pointer
  /// copies — row payloads are never copied. The returned snapshot stays
  /// valid (and its rows torn-free) for as long as the caller holds it, no
  /// matter what DML runs meanwhile.
  HeapSnapshotPtr ScanSnapshot() const;

 private:
  // The logged mutations, called with latch_ held exclusive.
  StatusOr<RowId> InsertLocked(const Row& row, Transaction* txn);
  StatusOr<Row> DeleteLocked(RowId rid, Transaction* txn);
  StatusOr<Row> UpdateLocked(RowId rid, const Row& new_row, Transaction* txn);
  /// The live row whose primary key equals `row`'s, through the unique
  /// primary-key index; -1 when absent or when there is no such index.
  /// Called with latch_ held.
  RowId FindByPrimaryKey(const Row& row) const;
  /// The key columns of `row` for index `i`, copied into *scratch.
  KeyRef IndexKey(int i, const Row& row, Row* scratch) const;
  /// The ordinals of the indexes whose key differs between the rows: a key
  /// cell with a different type tag, null flag or value.
  std::vector<int> ChangedIndexes(const Row& a, const Row& b) const;
  /// Fails if unique index `i` holds `row`'s key under a rowid other than
  /// `ignore_rid`.
  Status CheckUnique(int i, const Row& row, RowId ignore_rid) const;
  void IndexInsert(const Row& row, RowId rid);
  void IndexErase(const Row& row, RowId rid);
  /// Moves `rid`'s entry from `before`'s key to `after`'s in each index of
  /// `changed` (from ChangedIndexes).
  void IndexUpdate(const std::vector<int>& changed, const Row& before,
                   const Row& after, RowId rid);
  /// Drops the cached snapshot. Called by every mutation while it holds the
  /// exclusive latch, so a concurrent ScanSnapshot (shared latch) can never
  /// publish a stale cache over the invalidation.
  void InvalidateSnapshot();

  TableDef* def_;
  LogManager* log_;
  HeapTable heap_;
  std::vector<BPlusTree> indexes_;
  mutable std::shared_mutex latch_;
  /// Guards snapshot_ only (the cache slot, not the snapshot contents —
  /// those are immutable). Separate from latch_ so two concurrent cold
  /// readers, both holding latch_ shared, can still race to publish safely.
  mutable std::mutex snapshot_mu_;
  mutable HeapSnapshotPtr snapshot_;
};

/// Undo entry captured by StoredTable mutations.
struct UndoEntry {
  StoredTable* table = nullptr;
  LogRecordType op = LogRecordType::kInsert;
  RowId rid = 0;
  Row before;  // for delete/update undo
};

/// A transaction: id, state, and the undo chain. Commit/abort are driven by
/// the TransactionManager; statement execution appends undo entries here.
class Transaction {
 public:
  explicit Transaction(TxnId id) : id_(id) {}

  TxnId id() const { return id_; }
  bool active() const { return active_; }

  void AddUndo(UndoEntry entry) { undo_.push_back(std::move(entry)); }

  /// Applies undo entries in reverse and deactivates. Called by Abort.
  void Rollback();
  void MarkCommitted() { active_ = false; }

 private:
  TxnId id_;
  bool active_ = true;
  std::vector<UndoEntry> undo_;
};

/// Hands out transactions and writes Begin/Commit/Abort to the WAL. The
/// commit timestamp comes from the owner (simulated clock) so replication
/// latency can be measured.
class TransactionManager {
 public:
  explicit TransactionManager(LogManager* log) : log_(log) {}

  std::unique_ptr<Transaction> Begin();
  void Commit(Transaction* txn, double commit_time);
  void Abort(Transaction* txn);

 private:
  LogManager* log_;
  std::atomic<TxnId> next_txn_{1};  // sessions begin transactions in parallel
};

/// Recomputes TableStats by scanning the heap.
TableStats ComputeTableStats(const Schema& schema, const HeapTable& heap);

}  // namespace mtcache

#endif  // MTCACHE_STORAGE_TABLE_H_
