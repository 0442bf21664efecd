#include "exec/exec.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/wait_stats.h"
#include "opt/cost_model.h"

namespace mtcache {

namespace {

// Builds a join's output rows straight from its two input rows: the
// ordinals of concat(left, right) in the plan's output list (all of them
// when the list is empty), so no full-width row is built only to be
// projected. A null right row is an outer join's NULL extension.
class JoinRowBuilder {
 public:
  JoinRowBuilder(const std::vector<int>& output, int left_width, int width)
      : output_(output), left_width_(left_width), width_(width) {}

  Row Build(const Row& left, const Row* right) const {
    Row out;
    if (output_.empty()) {
      out.reserve(static_cast<size_t>(width_));
      out.insert(out.end(), left.begin(), left.end());
      if (right != nullptr) {
        out.insert(out.end(), right->begin(), right->end());
      } else {
        out.resize(static_cast<size_t>(width_), Value::Null());
      }
      return out;
    }
    out.reserve(output_.size());
    for (int ord : output_) {
      if (ord < left_width_) {
        out.push_back(left[ord]);
      } else if (right != nullptr) {
        out.push_back((*right)[ord - left_width_]);
      } else {
        out.push_back(Value::Null());
      }
    }
    return out;
  }

  // The full concatenation into *scratch (reusing its capacity), for join
  // conditions, which are bound over concat(left, right).
  static void Concat(const Row& left, const Row& right, Row* scratch) {
    scratch->assign(left.begin(), left.end());
    scratch->insert(scratch->end(), right.begin(), right.end());
  }

  // The output row of a pair whose concatenation is already in *combined;
  // consumes *combined when the output is the whole concatenation.
  Row FromCombined(Row* combined) const {
    if (output_.empty()) return std::move(*combined);
    Row out;
    out.reserve(output_.size());
    for (int ord : output_) out.push_back((*combined)[ord]);
    return out;
  }

 private:
  const std::vector<int>& output_;
  const int left_width_;
  const int width_;  // of the full concatenation
};

template <typename Rows>
int64_t RowsBytes(const Rows& rows) {
  double bytes = 0;
  for (const Row& r : rows) bytes += RowSizeBytes(r);
  return static_cast<int64_t>(bytes);
}

// The rows a pipeline breaker holds across its child's pulls, by the
// RowBatch ownership rule: a referenced row is kept as a pointer (valid
// while the breaker keeps its child open), an arena row is moved into the
// breaker's own arena. No row is copied.
class HeldRows {
 public:
  const Row* Hold(RowBatch* batch, size_t i) {
    if (batch->owned[i] == 0) return batch->rows[i];
    arena_.push_back(std::move(const_cast<Row&>(*batch->rows[i])));
    return &arena_.back();
  }
  void Clear() { arena_.clear(); }
  // Payload of the moved rows; referenced rows belong to the child.
  int64_t OwnedBytes() const { return RowsBytes(arena_); }

 private:
  std::deque<Row> arena_;
};

// Hash of the key columns `keys` of `row`, mixed so that the low bits index
// a power-of-two bucket array.
uint64_t HashKeys(const Row& row, const std::vector<int>& keys) {
  uint64_t h = 1469598103934665603ULL;
  for (int k : keys) {
    h ^= row[k].Hash();
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

bool HasNullKey(const Row& row, const std::vector<int>& keys) {
  for (int k : keys) {
    if (row[k].is_null()) return true;
  }
  return false;
}

struct RowHasher {
  size_t operator()(const Row& row) const { return HashRow(row); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
      // NULL == NULL in hash-key identity terms (group-by semantics).
      if (a[i].is_null() != b[i].is_null()) return false;
    }
    return true;
  }
};

// Drains every row of `child` (already opened) through fn(batch, i), for
// the pipeline breakers: a consumer that keeps row i past the call takes it
// with HeldRows::Hold.
template <typename Fn>
Status DrainRows(ExecNode* child, ExecContext* ctx, const Fn& fn) {
  RowBatch batch;
  while (true) {
    MT_ASSIGN_OR_RETURN(bool more, child->NextBatch(ctx, &batch));
    if (!more) return Status::Ok();
    for (size_t i = 0; i < batch.rows.size(); ++i) {
      MT_RETURN_IF_ERROR(fn(&batch, i));
    }
  }
}

// Pulls rows one at a time over a child's NextBatch stream, for operators
// with inherently row-at-a-time control flow (nested-loops outer sides). The
// returned pointer is valid until the next Pull; nullptr signals end of
// stream.
class BatchRowReader {
 public:
  void Reset(ExecNode* child) {
    child_ = child;
    batch_.Clear();
    pos_ = 0;
    done_ = false;
  }

  StatusOr<const Row*> Pull(ExecContext* ctx) {
    while (pos_ >= batch_.size()) {
      if (done_) return static_cast<const Row*>(nullptr);
      MT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &batch_));
      pos_ = 0;
      if (!more) {
        done_ = true;
        return static_cast<const Row*>(nullptr);
      }
    }
    return batch_.rows[pos_++];
  }

 private:
  ExecNode* child_ = nullptr;
  RowBatch batch_;
  int64_t pos_ = 0;
  bool done_ = false;
};

class DualScanExec : public ExecNode {
 public:
  Status Open(ExecContext*) override {
    done_ = false;
    return Status::Ok();
  }
  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    if (done_) return false;
    done_ = true;
    batch->PushOwned(Row{});
    return true;
  }

 private:
  bool done_ = false;
};

// Emits a scan's pinned rows (a table snapshot's, or an index seek's
// in-range row versions) batch by batch, applying the predicate and
// projection the optimizer folded into the scan: non-qualifying rows never
// leave the scan, and projected rows are built straight into the output
// batch; unprojected rows are handed out by reference. Costing stays
// commensurate with the unfused Filter/Project plan: `read_cost` per slot
// visited, kFilterRowCost per pushed-predicate test, kProjectRowCost per
// projected output row, and the slots that hold no row (dead heap slots,
// dead index entries) charged once at exhaustion.
class PinnedRowEmitter {
 public:
  PinnedRowEmitter(const BoundExpr* predicate,
                   const std::vector<BExprPtr>& projection, double read_cost)
      : predicate_(predicate), projection_(projection), read_cost_(read_cost) {
    // A projection of bare column references is a pure column selection:
    // emitted with direct Value copies, no EvalBound round trip per cell
    // (which at selectivity 1.0 dominated the batch path).
    fast_proj_ = !projection_.empty();
    for (const BExprPtr& e : projection_) {
      if (e->kind != BoundExprKind::kColumnRef) {
        fast_proj_ = false;
        proj_ords_.clear();
        break;
      }
      proj_ords_.push_back(static_cast<const BoundColumnRef&>(*e).ordinal);
    }
  }

  double read_cost() const { return read_cost_; }

  // The full charge of one emitted row: read, predicate test, projection.
  double EmittedRowCost() const {
    double c = read_cost_;
    if (predicate_ != nullptr) c += CostModel::kFilterRowCost;
    if (!projection_.empty()) c += CostModel::kProjectRowCost;
    return c;
  }

  // Back to the first row; called by the scan's Open.
  void Rewind() {
    pos_ = 0;
    charged_tail_ = false;
  }

  // Appends `row` to *batch: its projection (owned), or the row itself (a
  // reference, valid while the scan keeps it pinned).
  Status Push(const Row* row, ExecContext* ctx, RowBatch* batch) const {
    if (projection_.empty()) {
      batch->PushRef(row);
      return Status::Ok();
    }
    if (fast_proj_) {
      batch->PushOwned(Select(*row));
      return Status::Ok();
    }
    Row out;
    out.reserve(projection_.size());
    for (const BExprPtr& e : projection_) {
      MT_ASSIGN_OR_RETURN(Value v, EvalBound(*e, row, ctx->Eval()));
      out.push_back(std::move(v));
    }
    batch->PushOwned(std::move(out));
    return Status::Ok();
  }

  // Fills the empty *batch from rows[pos..], a chunk of ctx->batch_capacity
  // slots at a time, until a row qualifies (a selective predicate may reject
  // whole chunks) or the rows run out, when `empty_slots` are charged.
  // Returns whether *batch holds a row.
  StatusOr<bool> Emit(ExecContext* ctx, const std::vector<RowPtr>& rows,
                      int64_t empty_slots, RowBatch* batch) {
    while (batch->size() == 0 && pos_ < rows.size()) {
      size_t chunk = std::min(static_cast<size_t>(ctx->batch_capacity),
                              rows.size() - pos_);
      ctx->Charge(read_cost_ * static_cast<double>(chunk));
      scratch_.clear();
      scratch_.reserve(chunk);
      for (size_t i = 0; i < chunk; ++i) {
        scratch_.push_back(rows[pos_ + i].get());
      }
      pos_ += chunk;
      if (predicate_ != nullptr) {
        ctx->Charge(CostModel::kFilterRowCost * static_cast<double>(chunk));
        MT_RETURN_IF_ERROR(EvalPredicateBatch(*predicate_, scratch_.data(),
                                              chunk, ctx->Eval(), &keep_));
        size_t out = 0;
        for (size_t i = 0; i < chunk; ++i) {
          if (keep_[i]) scratch_[out++] = scratch_[i];
        }
        scratch_.resize(out);
      }
      if (projection_.empty()) {
        batch->PushRefs(scratch_.data(), scratch_.size());
        continue;
      }
      ctx->Charge(CostModel::kProjectRowCost *
                  static_cast<double>(scratch_.size()));
      if (fast_proj_) {
        for (const Row* r : scratch_) batch->PushOwned(Select(*r));
        continue;
      }
      for (const Row* r : scratch_) MT_RETURN_IF_ERROR(Push(r, ctx, batch));
    }
    if (batch->size() > 0) return true;
    if (!charged_tail_) {
      ctx->Charge(read_cost_ * static_cast<double>(empty_slots));
      charged_tail_ = true;
    }
    return false;
  }

 private:
  // The fast projection of `row`: the selected columns, copied.
  Row Select(const Row& row) const {
    Row out;
    out.reserve(proj_ords_.size());
    for (int ord : proj_ords_) out.push_back(row[ord]);
    return out;
  }

  const BoundExpr* const predicate_;  // may be null
  const std::vector<BExprPtr>& projection_;
  const double read_cost_;  // per slot visited
  bool fast_proj_ = false;
  std::vector<int> proj_ords_;  // valid iff fast_proj_
  std::vector<const Row*> scratch_;
  std::vector<char> keep_;
  size_t pos_ = 0;
  bool charged_tail_ = false;
};

// Sequential scan over an immutable table snapshot. Open pins the table's
// refcounted row-version snapshot (O(1) when cached, one pointer-copy pass
// under a briefly-held shared latch otherwise) and never touches storage
// again: no latch is held across NextBatch, concurrent DML installs fresh
// row versions without disturbing the pinned ones, and no payload is copied —
// batches hand parents pointers straight into the snapshot.
class SeqScanExec : public ExecNode {
 public:
  explicit SeqScanExec(const PhysSeqScan& op)
      : op_(op),
        emitter_(op.pushed_predicate.get(), op.pushed_projection,
                 CostModel::ReadRowCost(CostModel::kSeqRowCost,
                                        op.row_bytes)) {}

  Status Open(ExecContext* ctx) override {
    snapshot_.reset();
    virtual_rows_.clear();
    virtual_pos_ = 0;
    emitter_.Rewind();
    if (op_.def->virtual_table) {
      // Virtual tables (sys.dm_* DMVs) are materialized at Open time so a
      // query sees one consistent snapshot of the counters. The pushed
      // predicate travels into the provider: non-matching rows are dropped
      // while the registry is being rendered, before they are accumulated.
      if (ctx->virtual_tables == nullptr) {
        return Status::Internal("no virtual-table provider for " +
                                op_.def->name);
      }
      int64_t tested = 0;
      VirtualRowFilter filter;
      if (op_.pushed_predicate != nullptr) {
        filter = [this, ctx, &tested](const Row& row) -> StatusOr<bool> {
          ++tested;
          return EvalPredicate(*op_.pushed_predicate, &row, ctx->Eval());
        };
      }
      MT_ASSIGN_OR_RETURN(virtual_rows_, ctx->virtual_tables->VirtualTableRows(
                                             op_.def->name, filter));
      // Rows the pushed predicate rejected were still rendered and tested;
      // charge them now (kept rows are charged as they are emitted).
      int64_t rejected = tested - static_cast<int64_t>(virtual_rows_.size());
      if (rejected > 0) {
        ctx->Charge((emitter_.read_cost() + CostModel::kFilterRowCost) *
                    static_cast<double>(rejected));
      }
      return Status::Ok();
    }
    StoredTable* table = ctx->storage != nullptr
                             ? ctx->storage->GetStoredTable(op_.def->name)
                             : nullptr;
    if (table == nullptr) {
      return Status::Internal("no storage for table " + op_.def->name);
    }
    snapshot_ = table->ScanSnapshot();
    return Status::Ok();
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    if (!op_.def->virtual_table) {
      return emitter_.Emit(ctx, snapshot_->rows, snapshot_->dead_slots, batch);
    }
    while (virtual_pos_ < virtual_rows_.size() && !batch->full()) {
      MT_RETURN_IF_ERROR(
          emitter_.Push(&virtual_rows_[virtual_pos_++], ctx, batch));
    }
    ctx->Charge(emitter_.EmittedRowCost() * static_cast<double>(batch->size()));
    return batch->size() > 0;
  }

  void Close() override {
    snapshot_.reset();  // unpin the row versions
    virtual_rows_.clear();
  }

  int64_t MemoryBytes() const override {
    // The snapshot shares the table's row versions; the scan's private
    // footprint is the pointer vector, not the payloads.
    int64_t bytes = RowsBytes(virtual_rows_);
    if (snapshot_ != nullptr) {
      bytes += static_cast<int64_t>(snapshot_->rows.size() * sizeof(RowPtr));
    }
    return bytes;
  }

 private:
  const PhysSeqScan& op_;
  PinnedRowEmitter emitter_;
  HeapSnapshotPtr snapshot_;
  std::vector<Row> virtual_rows_;  // DMV rows (owned; stored scans share)
  size_t virtual_pos_ = 0;
};

// Walks the entries of `op`'s index range in key order under `table`'s
// shared latch, after charging the seek, and calls visit(rid) for each live
// one; the latch (and so the row at rid) is held across every visit. Counts
// the dead entries it passes in *dead. A NULL bound matches nothing. The one
// range walk behind IndexSeekExec and the row finding of UPDATE and DELETE.
template <typename Visit>
Status WalkIndexRange(const PhysIndexSeek& op, const StoredTable& table,
                      ExecContext* ctx, int64_t* dead, Visit visit) {
  ctx->Charge(CostModel::kIndexSeekCost);
  // The equality prefix, then the low bound when there is one.
  Row seek;
  for (const BExprPtr& e : op.eq_prefix) {
    MT_ASSIGN_OR_RETURN(Value v, EvalBound(*e, nullptr, ctx->Eval()));
    if (v.is_null()) return Status::Ok();  // = NULL matches nothing
    seek.push_back(std::move(v));
  }
  const size_t prefix_len = seek.size();
  Value hi;
  bool has_hi = false;
  if (op.hi != nullptr) {
    MT_ASSIGN_OR_RETURN(Value v, EvalBound(*op.hi, nullptr, ctx->Eval()));
    if (v.is_null()) return Status::Ok();
    hi = std::move(v);
    has_hi = true;
  }
  if (op.lo != nullptr) {
    MT_ASSIGN_OR_RETURN(Value v, EvalBound(*op.lo, nullptr, ctx->Eval()));
    if (v.is_null()) return Status::Ok();
    seek.push_back(std::move(v));
  }
  const KeyRef prefix(seek.data(), prefix_len);

  // The iterator never survives past this latch hold.
  SharedLatchWait latch(table.latch(), WaitSite::kTableLatchShared);
  const BPlusTree& index = table.index(op.index_ordinal);
  BPlusTree::Iterator it;
  if (op.lo != nullptr) {
    it = op.lo_inclusive ? index.SeekGe(seek) : index.SeekGt(seek);
  } else {
    it = prefix_len == 0 ? index.Begin() : index.SeekGe(seek);
  }
  for (; it.Valid(); it.Next()) {
    KeyRef key = it.key();
    // Stop when the equality prefix no longer matches.
    if (prefix_len > 0 && BPlusTree::ComparePrefix(key, prefix) != 0) break;
    if (has_hi) {
      if (prefix_len < key.size()) {
        int c = key[prefix_len].Compare(hi);
        if (c > 0 || (c == 0 && !op.hi_inclusive)) break;
      }
    }
    RowId rid = it.rowid();
    if (!table.heap().IsLive(rid)) {
      ++*dead;
      continue;
    }
    MT_RETURN_IF_ERROR(visit(rid));
  }
  return Status::Ok();
}

// Index seek. The in-range row versions are pinned (refcounted, payload-free)
// under one shared latch at Open and emitted as SeqScanExec emits its
// snapshot.
class IndexSeekExec : public ExecNode {
 public:
  explicit IndexSeekExec(const PhysIndexSeek& op)
      : op_(op),
        emitter_(op.pushed_predicate.get(), op.pushed_projection,
                 CostModel::ReadRowCost(CostModel::kIndexRowCost,
                                        op.row_bytes)) {}

  Status Open(ExecContext* ctx) override {
    StoredTable* table = ctx->storage != nullptr
                             ? ctx->storage->GetStoredTable(op_.def->name)
                             : nullptr;
    if (table == nullptr) {
      return Status::Internal("no storage for table " + op_.def->name);
    }
    rows_.clear();
    dead_entries_ = 0;
    emitter_.Rewind();
    // Pins the live row versions; no payload is copied.
    return WalkIndexRange(op_, *table, ctx, &dead_entries_, [&](RowId rid) {
      rows_.push_back(table->heap().GetRef(rid));
      return Status::Ok();
    });
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    return emitter_.Emit(ctx, rows_, dead_entries_, batch);
  }

  void Close() override { rows_.clear(); }

  int64_t MemoryBytes() const override {
    // Pinned pointers only; payloads belong to the table's version store.
    return static_cast<int64_t>(rows_.size() * sizeof(RowPtr));
  }

 private:
  const PhysIndexSeek& op_;
  PinnedRowEmitter emitter_;
  std::vector<RowPtr> rows_;
  int64_t dead_entries_ = 0;
};

// True if the subtree contains a RemoteQuery: classifies a startup-guarded
// ChoosePlan branch as the local or the remote alternative.
bool SubtreeShipsRemote(const PhysicalOp& op) {
  if (op.kind == PhysicalKind::kRemoteQuery) return true;
  for (const auto& child : op.children) {
    if (SubtreeShipsRemote(*child)) return true;
  }
  return false;
}

class FilterExec : public ExecNode {
 public:
  FilterExec(const PhysFilter& op, std::unique_ptr<ExecNode> child)
      : op_(op), child_(std::move(child)),
        guards_remote_(op.startup && !op.children.empty() &&
                       SubtreeShipsRemote(*op.children[0])) {}

  Status Open(ExecContext* ctx) override {
    if (op_.startup) {
      // Startup predicate: parameters only, evaluated once. If false, the
      // child is never opened (dynamic-plan branch selection, §5.1).
      MT_ASSIGN_OR_RETURN(bool pass,
                          EvalPredicate(*op_.predicate, nullptr, ctx->Eval()));
      ctx->Charge(CostModel::kFilterRowCost);
      if (ctx->branch_stats != nullptr) {
        ++ctx->branch_stats->guards_evaluated;
        if (pass) {
          if (guards_remote_) {
            ++ctx->branch_stats->remote_branches;
          } else {
            ++ctx->branch_stats->local_branches;
          }
        }
      }
      open_ = pass;
      if (!open_) return Status::Ok();
      return child_->Open(ctx);
    }
    open_ = true;
    return child_->Open(ctx);
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    if (!open_) return false;
    if (op_.startup) return child_->NextBatch(ctx, batch);
    // Surviving rows pass through by the ownership rule: references stay
    // references, and input_'s arena rows move into ours, since input_ is
    // refilled on the next pull.
    while (batch->size() == 0) {
      MT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &input_));
      if (!more) return false;
      ctx->Charge(CostModel::kFilterRowCost *
                  static_cast<double>(input_.size()));
      MT_RETURN_IF_ERROR(EvalPredicateBatch(*op_.predicate, input_.rows.data(),
                                            input_.rows.size(), ctx->Eval(),
                                            &keep_));
      for (size_t i = 0; i < input_.rows.size(); ++i) {
        if (keep_[i]) batch->PushFrom(&input_, i);
      }
    }
    return true;
  }

  void Close() override {
    if (open_) child_->Close();
    open_ = false;
    input_.Clear();
  }

 private:
  const PhysFilter& op_;
  std::unique_ptr<ExecNode> child_;
  // True when this startup guard protects a branch that ships work to a
  // remote server (ChoosePlan's "remote" arm); computed once at build time.
  bool guards_remote_;
  bool open_ = false;
  RowBatch input_;
  std::vector<char> keep_;
};

class ProjectExec : public ExecNode {
 public:
  ProjectExec(const PhysProject& op, std::unique_ptr<ExecNode> child)
      : op_(op), child_(std::move(child)) {}

  Status Open(ExecContext* ctx) override { return child_->Open(ctx); }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    MT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &input_));
    if (!more) return false;
    ctx->Charge(CostModel::kProjectRowCost *
                static_cast<double>(input_.size()));
    for (const Row* in : input_.rows) {
      Row out;
      out.reserve(op_.exprs.size());
      for (const BExprPtr& e : op_.exprs) {
        MT_ASSIGN_OR_RETURN(Value v, EvalBound(*e, in, ctx->Eval()));
        out.push_back(std::move(v));
      }
      batch->PushOwned(std::move(out));
    }
    return true;
  }

  void Close() override {
    child_->Close();
    input_.Clear();
  }

 private:
  const PhysProject& op_;
  std::unique_ptr<ExecNode> child_;
  RowBatch input_;
};

// Block nested loops: the inner (right) input is held at Open (referenced
// rows by pointer, with the inner child kept open until Close; arena rows
// moved). The outer side streams through BatchRowReader, so scans below it
// still run copy-free.
class NLJoinExec : public ExecNode {
 public:
  NLJoinExec(const PhysNLJoin& op, std::unique_ptr<ExecNode> left,
             std::unique_ptr<ExecNode> right)
      : op_(op), left_(std::move(left)), right_(std::move(right)),
        rows_(op.output, op.children[0]->schema.num_columns(),
              op.children[0]->schema.num_columns() +
                  op.children[1]->schema.num_columns()) {}

  Status Open(ExecContext* ctx) override {
    MT_RETURN_IF_ERROR(left_->Open(ctx));
    MT_RETURN_IF_ERROR(right_->Open(ctx));
    right_open_ = true;
    inner_.clear();
    held_.Clear();
    MT_RETURN_IF_ERROR(
        DrainRows(right_.get(), ctx, [this](RowBatch* batch, size_t i) {
          inner_.push_back(held_.Hold(batch, i));
          return Status::Ok();
        }));
    reader_.Reset(left_.get());
    outer_ = nullptr;
    inner_pos_ = 0;
    return Status::Ok();
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    while (!batch->full()) {
      if (outer_ == nullptr) {
        MT_ASSIGN_OR_RETURN(outer_, reader_.Pull(ctx));
        if (outer_ == nullptr) break;
        outer_matched_ = false;
        inner_pos_ = 0;
      }
      while (inner_pos_ < inner_.size() && !batch->full()) {
        const Row* inner = inner_[inner_pos_++];
        ctx->Charge(CostModel::kNLInnerRowCost);
        if (op_.condition == nullptr) {
          outer_matched_ = true;
          batch->PushOwned(rows_.Build(*outer_, inner));
          continue;
        }
        JoinRowBuilder::Concat(*outer_, *inner, &combined_);
        MT_ASSIGN_OR_RETURN(
            bool pass, EvalPredicate(*op_.condition, &combined_, ctx->Eval()));
        if (pass) {
          outer_matched_ = true;
          batch->PushOwned(rows_.FromCombined(&combined_));
        }
      }
      if (inner_pos_ < inner_.size()) break;  // batch full; resume here
      // Inner exhausted for this outer row. A full batch here means the
      // last inner row matched, so no NULL-extended row is owed.
      if (op_.join_kind == JoinKind::kLeftOuter && !outer_matched_) {
        batch->PushOwned(rows_.Build(*outer_, nullptr));
      }
      outer_ = nullptr;
    }
    return batch->size() > 0;
  }

  void Close() override {
    left_->Close();
    if (right_open_) right_->Close();
    right_open_ = false;
    inner_.clear();
    held_.Clear();
  }

  int64_t MemoryBytes() const override {
    return held_.OwnedBytes() +
           static_cast<int64_t>(inner_.size() * sizeof(const Row*));
  }

 private:
  const PhysNLJoin& op_;
  std::unique_ptr<ExecNode> left_;
  std::unique_ptr<ExecNode> right_;
  JoinRowBuilder rows_;
  bool right_open_ = false;
  HeldRows held_;
  std::vector<const Row*> inner_;
  Row combined_;  // concat(outer, inner) for the join condition
  BatchRowReader reader_;
  const Row* outer_ = nullptr;  // current outer row, owned by reader_
  bool outer_matched_ = false;
  size_t inner_pos_ = 0;
};

// Index nested loops: seek the inner table's index once per outer row. The
// matching inner row versions are pinned (payload-free) under one shared
// latch per outer row.
class IndexNLJoinExec : public ExecNode {
 public:
  IndexNLJoinExec(const PhysIndexNLJoin& op, std::unique_ptr<ExecNode> outer)
      : op_(op), outer_(std::move(outer)),
        rows_(op.output, op.children[0]->schema.num_columns(),
              op.children[0]->schema.num_columns() + op.InnerWidth()) {}

  Status Open(ExecContext* ctx) override {
    table_ = ctx->storage != nullptr
                 ? ctx->storage->GetStoredTable(op_.inner_def->name)
                 : nullptr;
    if (table_ == nullptr) {
      return Status::Internal("no storage for table " + op_.inner_def->name);
    }
    MT_RETURN_IF_ERROR(outer_->Open(ctx));
    reader_.Reset(outer_.get());
    outer_row_ = nullptr;
    matches_.clear();
    match_pos_ = 0;
    return Status::Ok();
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    while (!batch->full()) {
      if (outer_row_ == nullptr) {
        MT_ASSIGN_OR_RETURN(outer_row_, reader_.Pull(ctx));
        if (outer_row_ == nullptr) break;
        outer_matched_ = false;
        SeekInner(ctx);
      }
      while (match_pos_ < matches_.size() && !batch->full()) {
        const Row& inner = *matches_[match_pos_++];
        if (op_.inner_predicate != nullptr) {
          MT_ASSIGN_OR_RETURN(
              bool pass,
              EvalPredicate(*op_.inner_predicate, &inner, ctx->Eval()));
          if (!pass) continue;
        }
        const Row* inner_out = &inner;
        Row projected;
        if (!op_.inner_projection.empty()) {
          projected.reserve(op_.inner_projection.size());
          for (const BExprPtr& e : op_.inner_projection) {
            MT_ASSIGN_OR_RETURN(Value v, EvalBound(*e, &inner, ctx->Eval()));
            projected.push_back(std::move(v));
          }
          inner_out = &projected;
        }
        if (op_.residual == nullptr) {
          outer_matched_ = true;
          batch->PushOwned(rows_.Build(*outer_row_, inner_out));
          continue;
        }
        JoinRowBuilder::Concat(*outer_row_, *inner_out, &combined_);
        MT_ASSIGN_OR_RETURN(
            bool pass, EvalPredicate(*op_.residual, &combined_, ctx->Eval()));
        if (!pass) continue;
        outer_matched_ = true;
        batch->PushOwned(rows_.FromCombined(&combined_));
      }
      if (match_pos_ < matches_.size()) break;  // batch full; resume here
      // As in NLJoinExec, a full batch here implies a match.
      if (op_.join_kind == JoinKind::kLeftOuter && !outer_matched_) {
        batch->PushOwned(rows_.Build(*outer_row_, nullptr));
      }
      outer_row_ = nullptr;
    }
    return batch->size() > 0;
  }

  void Close() override {
    outer_->Close();
    matches_.clear();
  }

  int64_t MemoryBytes() const override {
    return static_cast<int64_t>(matches_.size() * sizeof(RowPtr));
  }

 private:
  // Pins the current outer row's matching inner row versions under one
  // shared latch; predicates/projections are evaluated by the caller, after
  // the latch is released.
  void SeekInner(ExecContext* ctx) {
    matches_.clear();
    match_pos_ = 0;
    const Value& key = (*outer_row_)[op_.outer_key];
    ctx->Charge(CostModel::kIndexSeekCost);
    if (key.is_null()) return;  // NULL keys never match
    const KeyRef seek_key(&key, 1);
    int64_t entries = 0;
    {
      SharedLatchWait latch(table_->latch(), WaitSite::kTableLatchShared);
      for (auto it = table_->index(op_.index_ordinal).SeekGe(seek_key);
           it.Valid() && BPlusTree::ComparePrefix(it.key(), seek_key) == 0;
           it.Next()) {
        ++entries;
        RowId rid = it.rowid();
        if (!table_->heap().IsLive(rid)) continue;
        matches_.push_back(table_->heap().GetRef(rid));
      }
    }
    ctx->Charge(
        CostModel::ReadRowCost(CostModel::kIndexRowCost, op_.inner_row_bytes) *
        static_cast<double>(entries));
  }

  const PhysIndexNLJoin& op_;
  std::unique_ptr<ExecNode> outer_;
  JoinRowBuilder rows_;
  Row combined_;  // concat(outer, inner) for the residual
  StoredTable* table_ = nullptr;
  BatchRowReader reader_;
  std::vector<RowPtr> matches_;
  size_t match_pos_ = 0;
  const Row* outer_row_ = nullptr;  // current outer row, owned by reader_
  bool outer_matched_ = false;
};

// Hash join. The build (right) side is held, not copied: referenced rows by
// pointer (the build child stays open until Close), arena rows moved into
// the join's own arena. The table is one flat chained table over those row
// pointers: bucket heads plus a next link per row, with each row's key hash
// kept beside it. Key columns are hashed and compared in place, so no key
// row, node or per-key vector is ever built. Chains keep build order, so a
// probe row's matches come out in the order the build side produced them.
class HashJoinExec : public ExecNode {
 public:
  HashJoinExec(const PhysHashJoin& op, std::unique_ptr<ExecNode> probe,
               std::unique_ptr<ExecNode> build)
      : op_(op), probe_(std::move(probe)), build_(std::move(build)),
        rows_(op.output, op.children[0]->schema.num_columns(),
              op.children[0]->schema.num_columns() +
                  op.children[1]->schema.num_columns()) {}

  Status Open(ExecContext* ctx) override {
    MT_RETURN_IF_ERROR(build_->Open(ctx));
    build_open_ = true;
    build_rows_.clear();
    hashes_.clear();
    held_.Clear();
    MT_RETURN_IF_ERROR(DrainRows(
        build_.get(), ctx, [this, ctx](RowBatch* batch, size_t i) {
          ctx->Charge(CostModel::kHashBuildRowCost);
          const Row& row = *batch->rows[i];
          if (HasNullKey(row, op_.build_keys)) {
            return Status::Ok();  // NULL keys never join
          }
          hashes_.push_back(HashKeys(row, op_.build_keys));
          build_rows_.push_back(held_.Hold(batch, i));
          return Status::Ok();
        }));
    // Link each row in front of its bucket's chain, last row first, so every
    // chain runs in build order.
    size_t buckets = 1;
    while (buckets < build_rows_.size()) buckets <<= 1;
    mask_ = buckets - 1;
    heads_.assign(buckets, -1);
    next_.resize(build_rows_.size());
    for (size_t i = build_rows_.size(); i-- > 0;) {
      int32_t& head = heads_[hashes_[i] & mask_];
      next_[i] = head;
      head = static_cast<int32_t>(i);
    }
    MT_RETURN_IF_ERROR(probe_->Open(ctx));
    matching_ = false;
    chain_ = -1;
    probe_batch_.Clear();
    probe_pos_ = 0;
    probe_ptr_ = nullptr;
    return Status::Ok();
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    while (!batch->full()) {
      if (matching_) {
        while (chain_ >= 0 && !batch->full()) {
          const int32_t i = chain_;
          chain_ = next_[i];
          if (hashes_[i] != probe_hash_ || !KeysEqual(*build_rows_[i])) {
            continue;
          }
          const Row* build_row = build_rows_[i];
          if (op_.residual == nullptr) {
            probe_matched_ = true;
            batch->PushOwned(rows_.Build(*probe_ptr_, build_row));
            continue;
          }
          JoinRowBuilder::Concat(*probe_ptr_, *build_row, &combined_);
          MT_ASSIGN_OR_RETURN(
              bool pass,
              EvalPredicate(*op_.residual, &combined_, ctx->Eval()));
          if (pass) {
            probe_matched_ = true;
            batch->PushOwned(rows_.FromCombined(&combined_));
          }
        }
        if (chain_ >= 0) break;  // batch full; resume
        bool emit_null_extended =
            op_.join_kind == JoinKind::kLeftOuter && !probe_matched_;
        if (emit_null_extended && batch->full()) break;  // resume here
        matching_ = false;
        if (emit_null_extended) {
          batch->PushOwned(rows_.Build(*probe_ptr_, nullptr));
        }
        continue;
      }
      if (probe_pos_ >= probe_batch_.size()) {
        MT_ASSIGN_OR_RETURN(bool more, probe_->NextBatch(ctx, &probe_batch_));
        probe_pos_ = 0;
        if (!more) break;  // probe exhausted
      }
      probe_ptr_ = probe_batch_.rows[probe_pos_++];
      ctx->Charge(CostModel::kHashProbeRowCost);
      probe_matched_ = false;
      if (HasNullKey(*probe_ptr_, op_.probe_keys)) {
        if (op_.join_kind == JoinKind::kLeftOuter) {
          batch->PushOwned(rows_.Build(*probe_ptr_, nullptr));
        }
        continue;
      }
      probe_hash_ = HashKeys(*probe_ptr_, op_.probe_keys);
      chain_ = heads_[probe_hash_ & mask_];
      matching_ = true;
    }
    return batch->size() > 0;
  }

  void Close() override {
    probe_->Close();
    if (build_open_) build_->Close();
    build_open_ = false;
    build_rows_.clear();
    hashes_.clear();
    heads_.clear();
    next_.clear();
    held_.Clear();
    probe_batch_.Clear();
  }

  // Moved rows plus the table's arrays; referenced build rows belong to
  // the build child (snapshot rows to their table), as for scans.
  int64_t MemoryBytes() const override {
    return held_.OwnedBytes() +
           static_cast<int64_t>(
               build_rows_.size() * (sizeof(const Row*) + sizeof(uint64_t) +
                                     sizeof(int32_t)) +
               heads_.size() * sizeof(int32_t));
  }

 private:
  bool KeysEqual(const Row& build_row) const {
    for (size_t k = 0; k < op_.build_keys.size(); ++k) {
      if (build_row[op_.build_keys[k]].Compare(
              (*probe_ptr_)[op_.probe_keys[k]]) != 0) {
        return false;
      }
    }
    return true;
  }

  const PhysHashJoin& op_;
  std::unique_ptr<ExecNode> probe_;
  std::unique_ptr<ExecNode> build_;
  JoinRowBuilder rows_;
  bool build_open_ = false;
  HeldRows held_;
  std::vector<const Row*> build_rows_;  // non-NULL-key build rows
  std::vector<uint64_t> hashes_;        // parallel to build_rows_
  std::vector<int32_t> next_;           // chain link per build row; -1 ends
  std::vector<int32_t> heads_;          // first row per bucket; -1 = empty
  uint64_t mask_ = 0;
  Row combined_;                        // concat(probe, build) for residual
  RowBatch probe_batch_;                // probe cursor
  int64_t probe_pos_ = 0;
  const Row* probe_ptr_ = nullptr;      // into probe_batch_
  uint64_t probe_hash_ = 0;
  bool probe_matched_ = false;
  bool matching_ = false;               // walking probe_ptr_'s chain
  int32_t chain_ = -1;                  // next build row to test
};

// Hash aggregation. Open drains the child batch by batch. Group keys and
// aggregate arguments that are bare column references are read from the
// input row where they sit, so a key copy is a refcount bump; anything else
// is evaluated per row. A group's state vector is built only when `find`
// misses. A scalar aggregate whose arguments are all column references
// instead makes one pass down each batch per argument column, holding the
// states of the aggregates over that column (an int64 or double MIN/MAX
// among them) in registers. SUM stays an exact int64 while every value it
// absorbs is an integer (an overflow fails the statement); the first double
// moves it to a double sum.
class HashAggregateExec : public ExecNode {
 public:
  HashAggregateExec(const PhysHashAggregate& op,
                    std::unique_ptr<ExecNode> child)
      : op_(op), child_(std::move(child)), by_column_(op.group_by.empty()) {
    for (const BExprPtr& g : op_.group_by) {
      key_ords_.push_back(ColumnOrdinal(g.get()));
    }
    for (const AggItem& item : op_.aggs) {
      arg_ords_.push_back(ColumnOrdinal(item.arg.get()));
      if (item.func != AggFunc::kCountStar && arg_ords_.back() < 0) {
        by_column_ = false;
      }
    }
    for (size_t a = 0; by_column_ && a < op_.aggs.size(); ++a) {
      if (arg_ords_[a] < 0) continue;
      auto same = [&](const ColumnAggs& c) { return c.ord == arg_ords_[a]; };
      auto col = std::find_if(columns_.begin(), columns_.end(), same);
      if (col == columns_.end()) {
        columns_.push_back({arg_ords_[a], op_.aggs[a].arg->type, {}});
        col = columns_.end() - 1;
      }
      col->aggs.push_back(a);
    }
    for (int ord : key_ords_) {
      if (ord >= 0) {
        touch_ord_ = ord;
        break;
      }
    }
  }

  // The aggregates of a scalar aggregate that read one column.
  struct ColumnAggs {
    int ord;                   // the argument column
    TypeId type;               // its bound type
    std::vector<size_t> aggs;  // indexes into op_.aggs
  };

  struct AggState {
    int64_t count = 0;    // non-null inputs (or all rows for COUNT(*))
    int64_t int_sum = 0;  // SUM while every absorbed value is an integer
    double sum = 0;       // AVG's sum; SUM's once it absorbed a double
    bool sum_is_int = true;
    Value min;
    Value max;
  };

  Status Open(ExecContext* ctx) override {
    MT_RETURN_IF_ERROR(child_->Open(ctx));
    groups_.clear();
    order_.clear();
    RowBatch batch;
    while (true) {
      MT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &batch));
      if (!more) break;
      ctx->Charge(CostModel::kAggRowCost * static_cast<double>(batch.size()));
      MT_RETURN_IF_ERROR(Absorb(batch, ctx));
    }
    child_->Close();
    // Scalar aggregate over an empty input still produces one row.
    if (op_.group_by.empty()) States(Row{});
    emit_pos_ = 0;
    return Status::Ok();
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    while (emit_pos_ < order_.size() && !batch->full()) {
      ctx->Charge(CostModel::kProjectRowCost);
      const auto& [key, states] = *order_[emit_pos_++];
      Row row = key;
      for (size_t i = 0; i < op_.aggs.size(); ++i) {
        row.push_back(Finalize(op_.aggs[i].func, states[i]));
      }
      batch->PushOwned(std::move(row));
    }
    return batch->size() > 0;
  }

  int64_t MemoryBytes() const override {
    double bytes = 0;
    for (const auto& [key, states] : groups_) {
      bytes += RowSizeBytes(key);
      bytes += static_cast<double>(states.size() * sizeof(AggState));
    }
    return static_cast<int64_t>(bytes);
  }

 private:
  static int ColumnOrdinal(const BoundExpr* e) {
    if (e == nullptr || e->kind != BoundExprKind::kColumnRef) return -1;
    return static_cast<const BoundColumnRef&>(*e).ordinal;
  }

  static Status SumOverflow() {
    return Status::OutOfRange(
        "arithmetic overflow: SUM exceeds the int64 range");
  }

  // The states of group `key`, created (in first-seen order) if new.
  std::vector<AggState>& States(const Row& key) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_.emplace(key, std::vector<AggState>(op_.aggs.size())).first;
      order_.push_back(&*it);
    }
    return it->second;
  }

  Status Absorb(const RowBatch& batch, ExecContext* ctx) {
    if (by_column_) {
      // One pass per argument column. Only the first prefetches; the passes
      // after it find the batch's rows in cache.
      std::vector<AggState>& states = States(Row{});
      for (size_t a = 0; a < op_.aggs.size(); ++a) {
        if (op_.aggs[a].func == AggFunc::kCountStar) {
          states[a].count += static_cast<int64_t>(batch.size());
        }
      }
      bool ok = true;
      bool cold = true;
      for (const ColumnAggs& col : columns_) {
        ok &= col.type == TypeId::kDouble
                  ? FoldColumn<double>(batch, col, cold, &states)
                  : FoldColumn<int64_t>(batch, col, cold, &states);
        cold = false;
      }
      return ok ? Status::Ok() : SumOverflow();
    }
    // A tight loop over the key cells first brings the batch's rows into
    // cache, overlapping their misses; the per-row loop (hash probe and
    // updates) left them exposed, prefetch or not.
    if (touch_ord_ >= 0) {
      TouchCells(batch.rows.data(), batch.rows.size(), touch_ord_);
    }
    for (const Row* row : batch.rows) {
      key_.clear();
      for (size_t k = 0; k < key_ords_.size(); ++k) {
        if (key_ords_[k] >= 0) {
          key_.push_back((*row)[key_ords_[k]]);
          continue;
        }
        MT_ASSIGN_OR_RETURN(Value v,
                            EvalBound(*op_.group_by[k], row, ctx->Eval()));
        key_.push_back(std::move(v));
      }
      std::vector<AggState>& states = States(key_);
      for (size_t a = 0; a < op_.aggs.size(); ++a) {
        const AggItem& item = op_.aggs[a];
        bool ok = true;
        if (item.func == AggFunc::kCountStar) {
          ++states[a].count;
        } else if (arg_ords_[a] >= 0) {
          ok = Update(item.func, (*row)[arg_ords_[a]], &states[a]);
        } else {
          MT_ASSIGN_OR_RETURN(Value v, EvalBound(*item.arg, row, ctx->Eval()));
          ok = Update(item.func, v, &states[a]);
        }
        if (!ok) return SumOverflow();
      }
    }
    return Status::Ok();
  }

  // The scalar aggregates over column `col`, in one pass down `batch`
  // (prefetching when `cold`). While the cells are non-NULL Ts, T being
  // the column's bound type, int64 or double, their states stay in
  // registers: one count (each of them counts the same cells), SUM's exact
  // int64 or double sum, AVG's sum, MIN and MAX (strict `<`/`>` is
  // Value::Compare's probe form: a NaN that arrives first sticks). Two
  // aggregates of one kind over one column hold equal states. From the
  // first cell of another tag on (from the start for any other column
  // type, or a MIN/MAX already holding another tag), the registers are
  // stored and Update folds the rest. False when SUM overflows int64.
  template <typename T>
  bool FoldColumn(const RowBatch& batch, const ColumnAggs& col, bool cold,
                  std::vector<AggState>* states) const {
    const TypeId tag = std::is_same_v<T, double> ? TypeId::kDouble
                                                 : TypeId::kInt64;
    auto payload = [](const Value& v) -> T {
      if constexpr (std::is_same_v<T, double>) {
        return v.AsDouble();
      } else {
        return v.AsInt();
      }
    };
    auto make = [](T x) {
      if constexpr (std::is_same_v<T, double>) {
        return Value::Double(x);
      } else {
        return Value::Int(x);
      }
    };
    const AggState& first = (*states)[col.aggs[0]];
    int64_t count = first.count;
    int64_t int_sum = 0;
    double sum = 0;
    bool sum_is_int = true;
    double avg_sum = 0;
    T min{};
    T max{};
    bool has_sum = false, has_avg = false, has_min = false, has_max = false;
    bool in_register = col.type == tag;
    for (size_t a : col.aggs) {
      const AggState& st = (*states)[a];
      switch (op_.aggs[a].func) {
        case AggFunc::kSum:
          has_sum = true;
          int_sum = st.int_sum;
          sum = st.sum;
          sum_is_int = st.sum_is_int;
          break;
        case AggFunc::kAvg:
          has_avg = true;
          avg_sum = st.sum;
          break;
        case AggFunc::kMin:
          has_min = true;
          in_register &= count == 0 || st.min.type() == tag;
          min = payload(st.min);
          break;
        case AggFunc::kMax:
          has_max = true;
          in_register &= count == 0 || st.max.type() == tag;
          max = payload(st.max);
          break;
        default:
          break;
      }
    }
    auto store = [&] {
      for (size_t a : col.aggs) {
        AggState& st = (*states)[a];
        st.count = count;
        switch (op_.aggs[a].func) {
          case AggFunc::kSum:
            st.int_sum = int_sum;
            st.sum = sum;
            st.sum_is_int = sum_is_int;
            break;
          case AggFunc::kAvg:
            st.sum = avg_sum;
            break;
          case AggFunc::kMin:
            if (count > 0) st.min = make(min);
            break;
          case AggFunc::kMax:
            if (count > 0) st.max = make(max);
            break;
          default:
            break;
        }
      }
    };
    bool ok = true;
    auto fold = [&](size_t, const Value& v) {
      if (v.is_null()) return;
      if (in_register && v.type() == tag) {
        const T x = payload(v);
        ++count;
        if (has_sum) {
          if constexpr (std::is_same_v<T, double>) {
            if (sum_is_int) sum = static_cast<double>(int_sum);
            sum_is_int = false;
            sum += x;
          } else if (sum_is_int) {
            ok &= !__builtin_add_overflow(int_sum, x, &int_sum);
          } else {
            sum += static_cast<double>(x);
          }
        }
        if (has_avg) avg_sum += static_cast<double>(x);
        if (has_min && (count == 1 || x < min)) min = x;
        if (has_max && (count == 1 || x > max)) max = x;
        return;
      }
      if (in_register) store();
      in_register = false;
      for (size_t a : col.aggs) {
        ok &= Update(op_.aggs[a].func, v, &(*states)[a]);
      }
    };
    ForEachCell(batch.rows.data(), batch.rows.size(), col.ord, fold, cold);
    if (in_register) store();
    return ok;
  }

  // Folds one input value into `st`. False when SUM overflows int64.
  static bool Update(AggFunc func, const Value& v, AggState* st) {
    if (v.is_null()) return true;
    ++st->count;
    switch (func) {
      case AggFunc::kSum:
        if (st->sum_is_int) {
          if (v.type() != TypeId::kDouble) {
            return !__builtin_add_overflow(st->int_sum, v.AsInt(),
                                           &st->int_sum);
          }
          st->sum = static_cast<double>(st->int_sum);
          st->sum_is_int = false;
        }
        st->sum += v.AsDouble();
        break;
      case AggFunc::kAvg:
        st->sum += v.AsDouble();
        break;
      case AggFunc::kMin:
        if (st->count == 1 || v.Compare(st->min) < 0) st->min = v;
        break;
      case AggFunc::kMax:
        if (st->count == 1 || v.Compare(st->max) > 0) st->max = v;
        break;
      default:
        break;
    }
    return true;
  }

  static Value Finalize(AggFunc func, const AggState& st) {
    switch (func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value::Int(st.count);
      case AggFunc::kSum:
        if (st.count == 0) return Value::Null();
        return st.sum_is_int ? Value::Int(st.int_sum) : Value::Double(st.sum);
      case AggFunc::kAvg:
        return st.count == 0 ? Value::Null() : Value::Double(st.sum / st.count);
      case AggFunc::kMin:
        return st.count == 0 ? Value::Null() : st.min;
      case AggFunc::kMax:
        return st.count == 0 ? Value::Null() : st.max;
    }
    return Value::Null();
  }

  const PhysHashAggregate& op_;
  std::unique_ptr<ExecNode> child_;
  std::vector<int> key_ords_;  // group-by item's input ordinal, or -1
  std::vector<int> arg_ords_;  // aggregate argument's input ordinal, or -1
  bool by_column_;             // scalar, every argument a column reference
  std::vector<ColumnAggs> columns_;  // when by_column_
  int touch_ord_ = -1;         // first column-reference key, or -1
  Row key_;                    // the current row's group key
  std::unordered_map<Row, std::vector<AggState>, RowHasher, RowEq> groups_;
  std::vector<std::pair<const Row, std::vector<AggState>>*> order_;
  size_t emit_pos_ = 0;
};

// Sort over row pointers. The input is held, not copied (as a hash-join
// build is: references kept with the child open until Close, arena rows
// moved). Any key that is not a column reference is evaluated once per row.
// The keys are then extracted into one contiguous array, a row's keys side
// by side: a key column whose every value is a non-NULL int64 (or double)
// is stored as that number, any other as a pointer to its Value. Ties go to
// the earlier input row, so the order is the stable one. A Top-N sort
// (op.limit > 0) keeps only its first `limit` rows by that order: it selects
// them with nth_element and sorts only those.
class SortExec : public ExecNode {
 public:
  SortExec(const PhysSort& op, std::unique_ptr<ExecNode> child)
      : op_(op), child_(std::move(child)) {
    for (const SortKey& k : op_.keys) {
      KeyRef ref;
      ref.desc = k.desc;
      if (k.expr->kind == BoundExprKind::kColumnRef) {
        ref.ordinal = static_cast<const BoundColumnRef&>(*k.expr).ordinal;
      } else {
        ref.computed = num_computed_++;
      }
      keys_.push_back(ref);
    }
  }

  Status Open(ExecContext* ctx) override {
    MT_RETURN_IF_ERROR(child_->Open(ctx));
    child_open_ = true;
    rows_.clear();
    computed_.clear();
    held_.Clear();
    MT_RETURN_IF_ERROR(DrainRows(
        child_.get(), ctx, [this, ctx](RowBatch* batch, size_t i) -> Status {
          const Row* row = held_.Hold(batch, i);
          rows_.push_back(row);
          for (size_t k = 0; k < keys_.size(); ++k) {
            if (keys_[k].computed < 0) continue;
            MT_ASSIGN_OR_RETURN(
                Value v, EvalBound(*op_.keys[k].expr, row, ctx->Eval()));
            computed_.push_back(std::move(v));
          }
          return Status::Ok();
        }));
    const size_t n = rows_.size();
    ctx->Charge(CostModel::SortCost(static_cast<double>(n),
                                    static_cast<double>(op_.limit)));
    ExtractKeys();
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) order_[i] = static_cast<uint32_t>(i);
    const size_t width = keys_.size();
    auto before = [this, width](uint32_t a, uint32_t b) {
      const KeySlot* ka = &slots_[a * width];
      const KeySlot* kb = &slots_[b * width];
      for (size_t k = 0; k < width; ++k) {
        int c;
        switch (keys_[k].kind) {
          case KeyKind::kInt:
            c = (ka[k].i > kb[k].i) - (ka[k].i < kb[k].i);
            break;
          case KeyKind::kDouble:
            c = (ka[k].d > kb[k].d) - (ka[k].d < kb[k].d);
            break;
          default:
            c = ka[k].v->Compare(*kb[k].v);
            break;
        }
        if (c != 0) return keys_[k].desc ? c > 0 : c < 0;
      }
      return a < b;  // input order breaks ties: a stable sort
    };
    if (op_.limit > 0 && static_cast<size_t>(op_.limit) < n) {
      auto top = order_.begin() + op_.limit;
      std::nth_element(order_.begin(), top, order_.end(), before);
      order_.erase(top, order_.end());
    }
    std::sort(order_.begin(), order_.end(), before);
    pos_ = 0;
    return Status::Ok();
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    while (pos_ < order_.size() && !batch->full()) {
      batch->PushRef(rows_[order_[pos_++]]);
    }
    return batch->size() > 0;
  }

  void Close() override {
    if (child_open_) child_->Close();
    child_open_ = false;
    rows_.clear();
    computed_.clear();
    slots_.clear();
    order_.clear();
    held_.Clear();
  }

  // Moved rows, computed keys and the pointer/key/order arrays; referenced
  // input rows belong to the child.
  int64_t MemoryBytes() const override {
    double key_bytes = 0;
    for (const Value& v : computed_) key_bytes += v.SizeBytes();
    return held_.OwnedBytes() + static_cast<int64_t>(key_bytes) +
           static_cast<int64_t>(rows_.size() * sizeof(const Row*) +
                                slots_.size() * sizeof(KeySlot) +
                                order_.size() * sizeof(uint32_t));
  }

 private:
  enum class KeyKind { kInt, kDouble, kValue };
  struct KeyRef {
    int ordinal = -1;   // >= 0: a column of the input row
    int computed = -1;  // >= 0: index among the evaluated keys
    bool desc = false;
    KeyKind kind = KeyKind::kValue;  // how slots_ holds it, per Open
  };
  union KeySlot {
    int64_t i;
    double d;
    const Value* v;
  };

  const Value& Key(const KeyRef& k, size_t row) const {
    if (k.ordinal >= 0) return (*rows_[row])[k.ordinal];
    return computed_[row * static_cast<size_t>(num_computed_) + k.computed];
  }

  // Fills slots_ with every row's keys, each key column typed when all of
  // its values are non-NULL and carry one numeric tag.
  void ExtractKeys() {
    const size_t n = rows_.size();
    const size_t width = keys_.size();
    for (KeyRef& k : keys_) {
      TypeId tag = n > 0 ? Key(k, 0).type() : TypeId::kNull;
      for (size_t r = 0; r < n && tag != TypeId::kNull; ++r) {
        const Value& v = Key(k, r);
        if (v.is_null() || v.type() != tag) tag = TypeId::kNull;
      }
      k.kind = tag == TypeId::kInt64    ? KeyKind::kInt
               : tag == TypeId::kDouble ? KeyKind::kDouble
                                        : KeyKind::kValue;
    }
    slots_.resize(n * width);
    for (size_t r = 0; r < n; ++r) {
      for (size_t k = 0; k < width; ++k) {
        const Value& v = Key(keys_[k], r);
        KeySlot& slot = slots_[r * width + k];
        switch (keys_[k].kind) {
          case KeyKind::kInt:
            slot.i = v.AsInt();
            break;
          case KeyKind::kDouble:
            slot.d = v.AsDouble();
            break;
          case KeyKind::kValue:
            slot.v = &v;
            break;
        }
      }
    }
  }

  const PhysSort& op_;
  std::unique_ptr<ExecNode> child_;
  std::vector<KeyRef> keys_;
  int num_computed_ = 0;
  bool child_open_ = false;
  HeldRows held_;
  std::vector<const Row*> rows_;  // input order
  std::vector<Value> computed_;   // num_computed_ evaluated keys per row
  std::vector<KeySlot> slots_;    // keys_.size() keys per row
  std::vector<uint32_t> order_;   // output order, as indexes into rows_
  size_t pos_ = 0;
};

// Limit clamps its own output and stops pulling the child the moment the
// quota is met. The child may still produce up to batch_capacity-1 rows
// beyond the limit inside the final partial batch (the batch is the unit of
// demand — see ExecNode::NextBatch), but never a whole extra batch.
class LimitExec : public ExecNode {
 public:
  LimitExec(const PhysLimit& op, std::unique_ptr<ExecNode> child)
      : op_(op), child_(std::move(child)) {}

  Status Open(ExecContext* ctx) override {
    emitted_ = 0;
    return child_->Open(ctx);
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    if (emitted_ >= op_.limit) return false;  // child is never pulled again
    MT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &input_));
    if (!more) return false;
    // Pass through by the ownership rule (as in FilterExec), truncated to
    // the remaining quota.
    const int64_t take = std::min(input_.size(), op_.limit - emitted_);
    for (int64_t i = 0; i < take; ++i) {
      batch->PushFrom(&input_, static_cast<size_t>(i));
    }
    emitted_ += take;
    return batch->size() > 0;
  }

  void Close() override {
    child_->Close();
    input_.Clear();
  }

 private:
  const PhysLimit& op_;
  std::unique_ptr<ExecNode> child_;
  RowBatch input_;
  int64_t emitted_ = 0;
};

// Order-preserving duplicate elimination.
class DistinctExec : public ExecNode {
 public:
  explicit DistinctExec(std::unique_ptr<ExecNode> child)
      : child_(std::move(child)) {}

  Status Open(ExecContext* ctx) override {
    seen_.clear();
    return child_->Open(ctx);
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    while (batch->size() == 0) {
      MT_ASSIGN_OR_RETURN(bool more, child_->NextBatch(ctx, &input_));
      if (!more) return false;
      ctx->Charge(CostModel::kDistinctRowCost *
                  static_cast<double>(input_.size()));
      for (const Row* r : input_.rows) {
        auto [it, inserted] = seen_.insert(*r);
        // unordered_set nodes are stable: the reference outlives rehashes
        // and later inserts, so first-seen rows pass through by pointer.
        if (inserted) batch->PushRef(&*it);
      }
    }
    return true;
  }

  void Close() override {
    child_->Close();
    seen_.clear();
    input_.Clear();
  }

  int64_t MemoryBytes() const override {
    double bytes = 0;
    for (const Row& r : seen_) bytes += RowSizeBytes(r);
    return static_cast<int64_t>(bytes);
  }

 private:
  std::unique_ptr<ExecNode> child_;
  std::unordered_set<Row, RowHasher, RowEq> seen_;
  RowBatch input_;
};

// Children are opened one at a time as the stream reaches them and all
// closed in Close, not as each is exhausted: rows a child handed out by
// reference must outlive it for as long as a consumer holds them (a sort or
// hash-join build over a ChoosePlan keeps them until its own Close).
class UnionAllExec : public ExecNode {
 public:
  explicit UnionAllExec(std::vector<std::unique_ptr<ExecNode>> children)
      : children_(std::move(children)) {}

  Status Open(ExecContext* ctx) override {
    (void)ctx;
    current_ = 0;
    opened_ = 0;
    return Status::Ok();
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    while (current_ < children_.size()) {
      if (opened_ == current_) {
        MT_RETURN_IF_ERROR(children_[current_]->Open(ctx));
        ++opened_;
      }
      MT_ASSIGN_OR_RETURN(bool more,
                          children_[current_]->NextBatch(ctx, batch));
      if (more) return true;
      ++current_;
    }
    return false;
  }

  void Close() override {
    for (size_t i = 0; i < opened_; ++i) children_[i]->Close();
    opened_ = 0;
  }

 private:
  std::vector<std::unique_ptr<ExecNode>> children_;
  size_t current_ = 0;
  size_t opened_ = 0;  // children [0, opened_) are open
};

class RemoteQueryExec : public ExecNode {
 public:
  explicit RemoteQueryExec(const PhysRemoteQuery& op) : op_(op) {}

  Status Open(ExecContext* ctx) override {
    if (ctx->remote == nullptr) {
      return Status::Internal("no linked-server registry for remote query");
    }
    static const ParamMap kNoParams;
    const ParamMap& params = ctx->params != nullptr ? *ctx->params : kNoParams;
    MT_ASSIGN_OR_RETURN(
        QueryResult result,
        ctx->remote->ExecuteRemote(op_.server, op_.sql, params, ctx->stats));
    rows_ = std::move(result.rows);
    // Receiving the transferred rows is local work (DataTransfer cost).
    double bytes = 0;
    for (const Row& r : rows_) bytes += RowSizeBytes(r);
    if (ctx->stats != nullptr) {
      ctx->stats->rows_transferred += static_cast<int64_t>(rows_.size());
      ctx->stats->bytes_transferred += bytes;
      ctx->stats->local_cost +=
          CostModel::kTransferStartup + bytes * CostModel::kTransferByteCost;
      ++ctx->stats->remote_queries;
    }
    pos_ = 0;
    return Status::Ok();
  }

  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    batch->Reset(ctx->batch_capacity);
    while (pos_ < rows_.size() && !batch->full()) {
      batch->PushRef(&rows_[pos_++]);
    }
    return batch->size() > 0;
  }

  void Close() override { rows_.clear(); }

  int64_t MemoryBytes() const override { return RowsBytes(rows_); }

 private:
  const PhysRemoteQuery& op_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// Timing/counting decorator around any ExecNode, writing into its mirrored
// OperatorProfile node. Timings and charged cost units are recursive (a
// parent's NextBatch time and units include its children's); EXPLAIN ANALYZE
// renders them as-is, like SQL Server's actual execution plans, so seconds
// over units is the measured price of a unit. Memory is sampled after Open
// (materialize-at-Open operators peak there) and before Close (operators
// that accumulate during NextBatch, e.g. Distinct), which brackets every
// operator's high-water mark without per-row O(n) walks.
class ProfiledNode : public ExecNode {
 public:
  ProfiledNode(std::unique_ptr<ExecNode> inner, OperatorProfile* prof)
      : inner_(std::move(inner)), prof_(prof) {}

  Status Open(ExecContext* ctx) override {
    ++prof_->opens;
    stats_ = ctx->stats;
    const double u0 = Charged();
    auto t0 = std::chrono::steady_clock::now();
    Status s = inner_->Open(ctx);
    prof_->open_seconds += Elapsed(t0);
    prof_->charged_units += Charged() - u0;
    SampleMemory();
    return s;
  }

  // next_calls counts NextBatch pulls; actual_rows the rows they returned.
  StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) override {
    ++prof_->next_calls;
    const double u0 = Charged();
    auto t0 = std::chrono::steady_clock::now();
    StatusOr<bool> more = inner_->NextBatch(ctx, batch);
    prof_->next_seconds += Elapsed(t0);
    prof_->charged_units += Charged() - u0;
    if (more.ok() && more.value()) prof_->actual_rows += batch->size();
    return more;
  }

  void Close() override {
    SampleMemory();
    const double u0 = Charged();
    auto t0 = std::chrono::steady_clock::now();
    inner_->Close();
    prof_->close_seconds += Elapsed(t0);
    prof_->charged_units += Charged() - u0;
  }

  int64_t MemoryBytes() const override { return inner_->MemoryBytes(); }

 private:
  static double Elapsed(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
  void SampleMemory() {
    int64_t bytes = inner_->MemoryBytes();
    if (bytes > prof_->mem_peak_bytes) prof_->mem_peak_bytes = bytes;
  }
  // Units charged so far to the execution's stats (Close has no context, so
  // Open keeps the pointer); 0 when the caller collects none.
  double Charged() const {
    return stats_ == nullptr ? 0 : stats_->local_cost + stats_->remote_cost;
  }

  std::unique_ptr<ExecNode> inner_;
  OperatorProfile* prof_;
  ExecStats* stats_ = nullptr;
};

// Shared builder: compiles children first (wrapped when profiling), then the
// node itself. `profile` mirrors `plan` (same shape) or is null.
StatusOr<std::unique_ptr<ExecNode>> BuildNode(const PhysicalOp& plan,
                                              OperatorProfile* profile) {
  std::vector<std::unique_ptr<ExecNode>> children;
  for (size_t i = 0; i < plan.children.size(); ++i) {
    OperatorProfile* child_prof =
        profile != nullptr ? &profile->children[i] : nullptr;
    MT_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> node,
                        BuildNode(*plan.children[i], child_prof));
    children.push_back(std::move(node));
  }
  std::unique_ptr<ExecNode> node;
  switch (plan.kind) {
    case PhysicalKind::kDualScan:
      node = std::make_unique<DualScanExec>();
      break;
    case PhysicalKind::kSeqScan:
      node = std::make_unique<SeqScanExec>(
          static_cast<const PhysSeqScan&>(plan));
      break;
    case PhysicalKind::kIndexSeek:
      node = std::make_unique<IndexSeekExec>(
          static_cast<const PhysIndexSeek&>(plan));
      break;
    case PhysicalKind::kFilter:
      node = std::make_unique<FilterExec>(static_cast<const PhysFilter&>(plan),
                                          std::move(children[0]));
      break;
    case PhysicalKind::kProject:
      node = std::make_unique<ProjectExec>(
          static_cast<const PhysProject&>(plan), std::move(children[0]));
      break;
    case PhysicalKind::kNLJoin:
      node = std::make_unique<NLJoinExec>(static_cast<const PhysNLJoin&>(plan),
                                          std::move(children[0]),
                                          std::move(children[1]));
      break;
    case PhysicalKind::kIndexNLJoin:
      node = std::make_unique<IndexNLJoinExec>(
          static_cast<const PhysIndexNLJoin&>(plan), std::move(children[0]));
      break;
    case PhysicalKind::kHashJoin:
      node = std::make_unique<HashJoinExec>(
          static_cast<const PhysHashJoin&>(plan), std::move(children[0]),
          std::move(children[1]));
      break;
    case PhysicalKind::kHashAggregate:
      node = std::make_unique<HashAggregateExec>(
          static_cast<const PhysHashAggregate&>(plan), std::move(children[0]));
      break;
    case PhysicalKind::kSort:
      node = std::make_unique<SortExec>(static_cast<const PhysSort&>(plan),
                                        std::move(children[0]));
      break;
    case PhysicalKind::kLimit:
      node = std::make_unique<LimitExec>(static_cast<const PhysLimit&>(plan),
                                         std::move(children[0]));
      break;
    case PhysicalKind::kDistinct:
      node = std::make_unique<DistinctExec>(std::move(children[0]));
      break;
    case PhysicalKind::kUnionAll:
      node = std::make_unique<UnionAllExec>(std::move(children));
      break;
    case PhysicalKind::kRemoteQuery:
      node = std::make_unique<RemoteQueryExec>(
          static_cast<const PhysRemoteQuery&>(plan));
      break;
  }
  if (node == nullptr) return Status::Internal("unhandled physical operator");
  if (profile != nullptr) {
    node = std::make_unique<ProfiledNode>(std::move(node), profile);
  }
  return node;
}

}  // namespace

OperatorProfile MakeProfileTree(const PhysicalOp& plan) {
  OperatorProfile prof;
  prof.op_name = PhysicalOpLabel(plan);
  prof.est_rows = plan.est_rows;
  prof.est_cost = plan.est_cost;
  prof.children.reserve(plan.children.size());
  for (const auto& child : plan.children) {
    prof.children.push_back(MakeProfileTree(*child));
  }
  return prof;
}

StatusOr<std::unique_ptr<ExecNode>> BuildExecutor(const PhysicalOp& plan) {
  return BuildNode(plan, nullptr);
}

StatusOr<std::unique_ptr<ExecNode>> BuildProfiledExecutor(
    const PhysicalOp& plan, OperatorProfile* profile) {
  return BuildNode(plan, profile);
}

StatusOr<QueryResult> ExecutePlan(const PhysicalOp& plan, ExecContext* ctx,
                                  OperatorProfile* profile) {
  MT_ASSIGN_OR_RETURN(std::unique_ptr<ExecNode> root,
                      BuildNode(plan, profile));
  MT_RETURN_IF_ERROR(root->Open(ctx));
  QueryResult result;
  result.schema = plan.schema;
  RowBatch batch;
  while (true) {
    MT_ASSIGN_OR_RETURN(bool more, root->NextBatch(ctx, &batch));
    if (!more) break;
    // Arena-owned rows (projections) move into the result instead of being
    // copied a second time; referenced rows still copy (they are borrowed
    // from storage or operator state).
    batch.MoveInto(&result.rows);
  }
  root->Close();
  return result;
}

StatusOr<std::vector<RowId>> FindRowIds(const PhysicalOp& plan,
                                        ExecContext* ctx) {
  const bool seek = plan.kind == PhysicalKind::kIndexSeek;
  if (!seek && plan.kind != PhysicalKind::kSeqScan) {
    return Status::Internal("not a table access: " + PhysicalOpLabel(plan));
  }
  const auto& access = static_cast<const PhysTableAccess&>(plan);
  StoredTable* table = !access.def->virtual_table && ctx->storage != nullptr
                           ? ctx->storage->GetStoredTable(access.def->name)
                           : nullptr;
  if (table == nullptr) {
    return Status::Internal("no storage for table " + access.def->name);
  }
  const BoundExpr* predicate = access.pushed_predicate.get();
  const double read_cost = CostModel::ReadRowCost(
      seek ? CostModel::kIndexRowCost : CostModel::kSeqRowCost,
      access.row_bytes);
  std::vector<RowId> found;
  int64_t live = 0;
  int64_t dead = 0;
  const EvalContext eval = ctx->Eval();
  // Runs under the table's shared latch; predicates are pure.
  auto visit = [&](RowId rid) -> Status {
    ++live;
    if (predicate != nullptr) {
      MT_ASSIGN_OR_RETURN(bool match, EvalPredicate(*predicate,
                                                    &table->heap().Get(rid),
                                                    eval));
      if (!match) return Status::Ok();
    }
    found.push_back(rid);
    return Status::Ok();
  };
  if (seek) {
    MT_RETURN_IF_ERROR(WalkIndexRange(static_cast<const PhysIndexSeek&>(plan),
                                      *table, ctx, &dead, visit));
  } else {
    SharedLatchWait latch(table->latch(), WaitSite::kTableLatchShared);
    for (RowId rid = 0; rid < table->heap().slot_count(); ++rid) {
      if (table->heap().IsLive(rid)) {
        MT_RETURN_IF_ERROR(visit(rid));
      } else {
        ++dead;
      }
    }
  }
  // Charged as the scan operators charge: a read per slot or index entry,
  // dead ones included, and a predicate test per live row.
  ctx->Charge(read_cost * static_cast<double>(live + dead));
  if (predicate != nullptr) {
    ctx->Charge(CostModel::kFilterRowCost * static_cast<double>(live));
  }
  return found;
}

}  // namespace mtcache
