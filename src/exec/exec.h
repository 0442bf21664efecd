#ifndef MTCACHE_EXEC_EXEC_H_
#define MTCACHE_EXEC_EXEC_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/atomics.h"
#include "common/status.h"
#include "expr/bound_expr.h"
#include "opt/physical.h"
#include "storage/table.h"

namespace mtcache {

/// A query's result rows (or affected-row count for DML).
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  int64_t rows_affected = 0;
};

/// Measured work, in the same cost units as the optimizer's estimates.
/// `local_cost` is work done by the executing server; `remote_cost` is work
/// the call pushed onto other servers (the backend). The multi-server
/// simulation converts these into CPU service demand.
struct ExecStats {
  double local_cost = 0;
  double remote_cost = 0;
  double bytes_transferred = 0;
  int64_t rows_transferred = 0;
  int64_t remote_queries = 0;

  void Add(const ExecStats& other) {
    local_cost += other.local_cost;
    remote_cost += other.remote_cost;
    bytes_transferred += other.bytes_transferred;
    rows_transferred += other.rows_transferred;
    remote_queries += other.remote_queries;
  }
};

/// Supplies stored tables to scans. Implemented by engine::Database.
class StorageProvider {
 public:
  virtual ~StorageProvider() = default;
  virtual StoredTable* GetStoredTable(const std::string& name) = 0;
};

/// Row filter pushed into virtual-table materialization: returns true iff
/// the candidate row should be included. Evaluated against the DMV's output
/// schema while its rows are being rendered, so a selective predicate (e.g.
/// WHERE query_id = ?) stops non-matching registry entries from ever being
/// accumulated or copied. A null function means no pushdown.
using VirtualRowFilter = std::function<StatusOr<bool>(const Row&)>;

/// Materializes rows for virtual tables (TableDef::virtual_table, the
/// sys.dm_* DMVs). Implemented by engine::Server, which renders its
/// MetricsRegistry at scan-open time.
class VirtualTableProvider {
 public:
  virtual ~VirtualTableProvider() = default;
  virtual StatusOr<std::vector<Row>> VirtualTableRows(
      const std::string& name, const VirtualRowFilter& filter) = 0;
};

/// Runtime counters for dynamic-plan branch selection, bumped by FilterExec
/// when a startup guard is evaluated. The engine points ExecContext at the
/// copy inside its MetricsRegistry; relaxed atomics, since every session's
/// executor bumps the same instance.
struct ChoosePlanRuntimeStats {
  RelaxedInt64 guards_evaluated = 0;  // startup predicates evaluated at Open
  RelaxedInt64 local_branches = 0;    // guard passed, branch runs locally
  RelaxedInt64 remote_branches = 0;   // guard passed, branch ships RemoteQuery
};

/// Executes shipped SQL on a linked server. Implemented by engine::Server.
/// Implementations must charge the callee's work to `stats->remote_cost` and
/// account the returned volume in bytes/rows_transferred.
class RemoteExecutor {
 public:
  virtual ~RemoteExecutor() = default;
  virtual StatusOr<QueryResult> ExecuteRemote(const std::string& server,
                                              const std::string& sql,
                                              const ParamMap& params,
                                              ExecStats* stats) = 0;
};

/// A batch of rows flowing between operators through NextBatch. Rows are
/// exposed as `const Row*`, and every row is one of two things:
///   - owned by this batch's `arena` (PushOwned — a deque, so earlier
///     pointers stay stable as rows are appended): a row an operator
///     created (projection, join, aggregation). It lives until the batch is
///     refilled, so a consumer that keeps it past its next pull moves it out
///     (PushFrom, or a pipeline breaker's own arena);
///   - a reference (PushRef): a stored snapshot row, or a row its producer
///     holds. It stays valid until the operator that produced it is closed.
/// So a consumer may keep a referenced row's pointer for as long as it keeps
/// its child open; pipeline breakers (hash-join build, sort, nested-loop
/// inner) do exactly that instead of copying rows.
struct RowBatch {
  static constexpr int kMaxRows = 1024;

  std::vector<const Row*> rows;
  std::deque<Row> arena;
  /// Parallel to `rows`: 1 iff rows[i] points into this batch's arena (and
  /// may therefore be moved out by MoveInto). Byte flags, not vector<bool>,
  /// so PushRef/PushOwned stay branch-free stores.
  std::vector<uint8_t> owned;
  /// Row count at which full() turns true; set by Reset from the producing
  /// operator's ExecContext::batch_capacity.
  size_t capacity = kMaxRows;

  void Clear() {
    rows.clear();
    arena.clear();
    owned.clear();
  }
  /// Clears the batch for a producer that fills it up to `max_rows` rows.
  void Reset(int max_rows) {
    Clear();
    capacity = static_cast<size_t>(max_rows);
  }
  int64_t size() const { return static_cast<int64_t>(rows.size()); }
  bool full() const { return rows.size() >= capacity; }
  void PushRef(const Row* row) {
    rows.push_back(row);
    owned.push_back(0);
  }
  void PushRefs(const Row* const* refs, size_t n) {
    rows.insert(rows.end(), refs, refs + n);
    owned.resize(rows.size(), 0);
  }
  void PushOwned(Row row) {
    arena.push_back(std::move(row));
    rows.push_back(&arena.back());
    owned.push_back(1);
  }
  /// Appends row `i` of `src` by the ownership rule: an arena row of `src`
  /// moves into this batch's arena, a reference stays a reference. `src` is
  /// about to be refilled, so its moved-from row is never read again.
  void PushFrom(RowBatch* src, size_t i) {
    if (src->owned[i] != 0) {
      PushOwned(std::move(const_cast<Row&>(*src->rows[i])));
    } else {
      PushRef(src->rows[i]);
    }
  }
  /// Appends every row to *out, moving arena-owned rows instead of copying
  /// them (the batch is about to be cleared anyway) and copying referenced
  /// ones, which are borrowed from storage or a child. Used by the root
  /// drain in ExecutePlan so projected rows are materialized exactly once.
  /// The batch's contents are unspecified afterwards; call Clear or refill.
  void MoveInto(std::vector<Row>* out) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (owned[i] != 0) {
        out->push_back(std::move(const_cast<Row&>(*rows[i])));
      } else {
        out->push_back(*rows[i]);
      }
    }
  }
};

struct ExecContext {
  const ParamMap* params = nullptr;
  double now = 0;  // GETDATE() on the simulated clock
  StorageProvider* storage = nullptr;
  RemoteExecutor* remote = nullptr;
  ExecStats* stats = nullptr;
  VirtualTableProvider* virtual_tables = nullptr;
  ChoosePlanRuntimeStats* branch_stats = nullptr;  // may be null
  /// Most rows any operator puts in one RowBatch (and rows per scan chunk).
  /// Results do not depend on it; differential tests run the same plans at
  /// 1 (one row per batch), a prime, and the default to prove that.
  int batch_capacity = RowBatch::kMaxRows;

  void Charge(double cost) const {
    if (stats != nullptr) stats->local_cost += cost;
  }
  EvalContext Eval() const {
    EvalContext ctx;
    ctx.params = params;
    ctx.current_time = now;
    return ctx;
  }
};

/// Pull-based operator, driven batch-at-a-time on the calling thread. Open
/// may be called again after Close (nested loops rescan their inner input).
class ExecNode {
 public:
  virtual ~ExecNode() = default;
  virtual Status Open(ExecContext* ctx) = 0;
  /// Resets *batch to ctx->batch_capacity, fills it with up to that many
  /// rows, and returns true iff at least one row was produced (short,
  /// non-empty batches are allowed mid-stream). Arena rows live until
  /// *batch is refilled; referenced rows until this node is closed (see
  /// RowBatch).
  ///
  /// Demand semantics: the unit of demand is a batch, so a consumer that
  /// stops early (Limit, EXISTS-style probes) may cause its child to produce
  /// — and the profile to count — up to batch_capacity-1 rows beyond what
  /// the consumer emits. LimitExec clamps its own output and stops pulling
  /// the child once satisfied, bounding the over-pull to a single partial
  /// batch rather than one extra batch per call.
  virtual StatusOr<bool> NextBatch(ExecContext* ctx, RowBatch* batch) = 0;
  virtual void Close() {}
  /// Current bytes held in operator-private materializations (hash tables,
  /// sort buffers, scan snapshots). Sampled by the profiler after Open and
  /// before Close to compute a memory high-water mark; 0 for streaming ops.
  virtual int64_t MemoryBytes() const { return 0; }
};

/// Per-operator actuals for one query execution (EXPLAIN ANALYZE /
/// SET STATISTICS PROFILE). The tree mirrors the physical plan exactly and
/// is built up front by MakeProfileTree, so node addresses stay stable while
/// the wrapped executor writes into them. Plain fields: each execution owns
/// its private tree; snapshots are taken after the query completes.
struct OperatorProfile {
  std::string op_name;  // PhysicalOpLabel of the mirrored plan node
  double est_rows = 0;
  double est_cost = 0;
  int64_t actual_rows = 0;  // rows in the batches NextBatch returned
  int64_t opens = 0;        // Open calls (inner of a rescanning join > 1)
  int64_t next_calls = 0;   // NextBatch pulls
  double open_seconds = 0;   // real time inside Open (recursive)
  double next_seconds = 0;   // real time inside NextBatch (recursive)
  double close_seconds = 0;  // real time inside Close (recursive)
  /// Cost units (ExecStats local + remote) charged inside Open, NextBatch and
  /// Close (recursive, like the seconds): the executor's side of est_cost.
  double charged_units = 0;
  int64_t mem_peak_bytes = 0;
  std::vector<OperatorProfile> children;
};

/// Builds an empty profile tree mirroring `plan` (labels + estimates filled,
/// actuals zero). Pass its root to BuildProfiledExecutor/ExecutePlan.
OperatorProfile MakeProfileTree(const PhysicalOp& plan);

/// Compiles a physical plan into an executor tree.
StatusOr<std::unique_ptr<ExecNode>> BuildExecutor(const PhysicalOp& plan);

/// As BuildExecutor, but wraps every operator in a timing/counting decorator
/// writing into the matching OperatorProfile node. `profile` must outlive the
/// returned executor and must come from MakeProfileTree(plan).
StatusOr<std::unique_ptr<ExecNode>> BuildProfiledExecutor(
    const PhysicalOp& plan, OperatorProfile* profile);

/// Convenience: build, open, drain, close. When `profile` is non-null the
/// executor tree is profiled (per-operator actuals land in the tree).
StatusOr<QueryResult> ExecutePlan(const PhysicalOp& plan, ExecContext* ctx,
                                  OperatorProfile* profile = nullptr);

/// The rows an UPDATE or DELETE changes, found through its access path:
/// `plan` is the SeqScan or IndexSeek the optimizer chose for the
/// statement's `SELECT * FROM t WHERE ...`, and a row qualifies when the
/// leaf's pushed predicate holds. Charged as that scan operator would be,
/// so the work equals the plan's estimate when the estimate is exact.
StatusOr<std::vector<RowId>> FindRowIds(const PhysicalOp& plan,
                                        ExecContext* ctx);

}  // namespace mtcache

#endif  // MTCACHE_EXEC_EXEC_H_
