#ifndef MTCACHE_ENGINE_SERVER_H_
#define MTCACHE_ENGINE_SERVER_H_

#include <atomic>
#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "binder/binder.h"
#include "common/sim_clock.h"
#include "engine/database.h"
#include "engine/dmv.h"
#include "engine/metrics.h"
#include "engine/session.h"
#include "engine/workload.h"
#include "exec/exec.h"
#include "opt/optimizer.h"
#include "sql/parser.h"

namespace mtcache {

class Server;

/// Name -> server map, the moral equivalent of SQL Server's linked-server
/// registry (§2.1). Remote queries and forwarded DML resolve through it.
///
/// Read-only after setup: every Register call must happen before concurrent
/// execution starts (typically in MTCache::Setup or test fixtures). Freeze()
/// marks the end of setup; a Register after Freeze asserts in debug builds.
/// Lookups are unsynchronized reads, which is safe exactly because the map
/// never changes afterwards.
class LinkedServerRegistry {
 public:
  void Register(const std::string& name, Server* server) {
    assert(!frozen_ && "LinkedServerRegistry is read-only after Freeze()");
    servers_[name] = server;
  }
  Server* Get(const std::string& name) const {
    auto it = servers_.find(name);
    return it == servers_.end() ? nullptr : it->second;
  }
  /// Declares setup finished; further Register calls are programming errors.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

 private:
  std::map<std::string, Server*> servers_;
  bool frozen_ = false;
};

struct ServerOptions {
  std::string name = "server";
  std::string default_user = "dbo";
  OptimizerOptions optimizer;
  /// ExecContext::batch_capacity for every statement this server runs.
  /// Differential tests lower it to prove results do not depend on where
  /// batch boundaries fall; nothing else should change it.
  int exec_batch_capacity = RowBatch::kMaxRows;
};

/// One SQL server instance: a database, an optimizer, an executor, a plan
/// cache, and stored-procedure support. A backend server stands alone; an
/// MTCache server additionally has `optimizer.backend_server` set and its
/// database configured as a shadow (see src/mtcache).
class Server : public RemoteExecutor, public VirtualTableProvider {
 public:
  explicit Server(ServerOptions options, SimClock* clock = nullptr,
                  LinkedServerRegistry* links = nullptr);

  const std::string& name() const { return options_.name; }
  Database& db() { return db_; }
  SimClock* clock() { return clock_; }
  LinkedServerRegistry* links() { return links_; }
  const OptimizerOptions& optimizer_options() const {
    return options_.optimizer;
  }
  /// Changing optimizer options invalidates all cached plans.
  void set_optimizer_options(const OptimizerOptions& opts);

  /// Executes a script (one or more ';'-separated statements). Returns the
  /// last SELECT's result (or rows_affected of the last DML). Each call runs
  /// on a fresh Session; safe to call from any number of threads at once.
  StatusOr<QueryResult> Execute(const std::string& sql);
  StatusOr<QueryResult> Execute(const std::string& sql, const ParamMap& params,
                                ExecStats* stats);

  /// Executes a script on an existing connection's Session, so local
  /// variables and an open explicit transaction persist across calls. The
  /// caller must not use the same Session from two threads at once; distinct
  /// Sessions may execute concurrently. A single-statement text this server
  /// has planned before (a SELECT, UPDATE, DELETE or INSERT ... SELECT) runs
  /// from its cached plan without being parsed.
  StatusOr<QueryResult> ExecuteOnSession(Session* session,
                                         const std::string& sql,
                                         ExecStats* stats);

  /// Runs `statements` through a fixed pool of `num_workers` worker threads
  /// (see SessionPool) and returns their results in submission order.
  std::vector<StatusOr<QueryResult>> ExecuteConcurrent(
      const std::vector<std::string>& statements, int num_workers);

  /// Executes a script, failing on the first error; results are discarded.
  Status ExecuteScript(const std::string& sql);

  /// Calls a stored procedure with positional arguments. If the procedure
  /// does not exist locally and a backend is linked, the call is forwarded
  /// transparently (§5.2).
  StatusOr<QueryResult> CallProcedure(const std::string& name,
                                      const std::vector<Value>& args,
                                      ExecStats* stats);

  /// Parses + binds + optimizes one statement without executing it: a
  /// SELECT's plan, an INSERT's source query's, or the access path an
  /// UPDATE or DELETE finds its rows through (the plan it runs).
  StatusOr<OptimizeResult> Explain(const std::string& sql);

  // RemoteExecutor: runs `sql` on the linked server `server_name`, charging
  // its work to stats->remote_cost.
  StatusOr<QueryResult> ExecuteRemote(const std::string& server_name,
                                      const std::string& sql,
                                      const ParamMap& params,
                                      ExecStats* stats) override;

  /// Hook for CREATE CACHED MATERIALIZED VIEW, installed by the MTCache
  /// layer (creating a cached view also creates a replication subscription,
  /// which the engine itself knows nothing about).
  using CachedViewHandler =
      std::function<Status(Server* server, const CreateViewStmt& stmt)>;
  void set_cached_view_handler(CachedViewHandler handler) {
    cached_view_handler_ = std::move(handler);
  }
  /// Hook for DROP of a cached view (must also drop the subscription).
  using CachedViewDropHandler =
      std::function<Status(Server* server, const std::string& view)>;
  void set_cached_view_drop_handler(CachedViewDropHandler handler) {
    cached_view_drop_handler_ = std::move(handler);
  }

  /// Entries the ad-hoc statement plan cache holds before it evicts by clock.
  static constexpr size_t kStatementPlanCacheCapacity = 4096;

  const PlanCacheStats& plan_cache_stats() const {
    return metrics_.plan_cache;
  }
  void InvalidatePlanCache();

  /// Central counter aggregation: plan cache, optimizer decisions, ChoosePlan
  /// branch selection, per-statement rollups, and the query trace ring. The
  /// sys.dm_* DMVs render from here.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // VirtualTableProvider: materializes sys.dm_* rows at scan-open time,
  // applying the scan's pushed-down predicate while rendering.
  StatusOr<std::vector<Row>> VirtualTableRows(
      const std::string& name, const VirtualRowFilter& filter) override;

  /// The server's DMV catalog (names and schemas of the sys.dm_* views),
  /// e.g. for snapshot helpers that enumerate every DMV.
  const DmvCatalog& dmvs() const { return dmvs_; }

  /// The workload repository: a bounded ring of time-sliced counter deltas
  /// with per-fingerprint and per-cached-view breakdowns, served through
  /// sys.dm_workload_snapshots / dm_workload_query_deltas.
  WorkloadRepository& workload() { return workload_; }
  const WorkloadRepository& workload() const { return workload_; }

  /// Captures one workload slice now (deltas since the previous capture) and
  /// returns it. Thread-safe; may race query execution.
  WorkloadSlice CaptureWorkloadSnapshot();

  /// Arms automatic capture every `sim_seconds` of sim-clock time (measured
  /// by db().Now()), piggybacked on statement execution: the first statement
  /// to observe the deadline captures, everyone else pays one relaxed load.
  /// 0 disarms (manual captures only, the default).
  void set_workload_capture_interval(double sim_seconds);
  double workload_capture_interval() const {
    return workload_capture_interval_.load(std::memory_order_relaxed);
  }

  /// Recomputes statistics on all stored tables (after bulk loads).
  void RecomputeStats();

  /// Test-only seam between the two halves of an UPDATE or DELETE: called
  /// with the table and the RowIds found, after the find released the
  /// latch and before any row changes. Set before concurrent execution.
  using DmlFindHook = std::function<void(const std::string& table,
                                         const std::vector<RowId>& rows)>;
  void set_dml_find_hook(DmlFindHook hook) { dml_find_hook_ = std::move(hook); }

 private:
  struct CachedPlan {
    PhysicalPtr plan;
    // What each execution of the plan is recorded under, built once with it.
    StatementInfoPtr info;
    // The parsed statement of an ad-hoc text plan, of whatever kind, so a
    // later execution of the same text runs without parsing. Null for
    // procedure-body plans, whose AST CompiledProcedure::body owns.
    std::shared_ptr<const Stmt> stmt;
  };
  /// Plans are handed out as shared_ptr-to-const: an executing session keeps
  /// its plan alive even if the cache is invalidated mid-flight (epoch-based
  /// invalidation — the cache drops its reference and bumps the generation;
  /// it never destroys a plan someone is running).
  using CachedPlanPtr = std::shared_ptr<const CachedPlan>;

  /// The ad-hoc statement plan cache: exact SQL text -> plan, at most
  /// kStatementPlanCacheCapacity entries, evicted by clock (second chance).
  /// Find runs under the shared latch and sets the entry's reference bit, a
  /// relaxed atomic; Insert and Clear run under the exclusive latch.
  class StatementPlanCache {
   public:
    CachedPlanPtr Find(const std::string& sql) const;
    /// Insert-or-keep: returns the plan published for `sql`, which is an
    /// earlier session's when one won the race. When full, first evicts the
    /// entry the clock hand stops at and counts it in `*evictions`.
    CachedPlanPtr Insert(const std::string& sql, CachedPlanPtr plan,
                         RelaxedInt64* evictions);
    void Clear();
    size_t size() const { return entries_.size(); }

   private:
    struct Entry {
      explicit Entry(CachedPlanPtr p) : plan(std::move(p)) {}
      CachedPlanPtr plan;
      mutable std::atomic<bool> referenced{false};
    };
    using Map = std::unordered_map<std::string, Entry>;
    Map entries_;
    // The clock ring: every entry once, in slot order. Map nodes never move,
    // so the pointers survive rehashing.
    std::vector<Map::value_type*> clock_;
    size_t hand_ = 0;
  };

  struct CompiledProcedure {
    const ProcedureDef* def = nullptr;
    std::vector<StmtPtr> body;  // read-only after compilation
    // Each body statement's depth-first position, through IF and WHILE
    // branches, which its label `<proc> stmt#<position>` names.
    std::unordered_map<const Stmt*, int> positions;
    // Plans for the body's SELECT, INSERT ... SELECT, UPDATE and DELETE
    // statements, keyed by statement address. This is what makes dynamic
    // plans pay off: parameterized procedure queries are optimized once and
    // the startup predicates pick the branch per call. Guarded by
    // plan_cache_mu_, like the statement cache.
    std::map<const Stmt*, CachedPlanPtr> plans;
  };

  /// Where a statement's plan is cached: a procedure-body statement by its
  /// identity (`proc`), a one-statement script by its `text`, whose AST
  /// `owned` a published plan keeps. `plan` is one found by text already.
  struct PlanKey {
    CompiledProcedure* proc = nullptr;
    const std::string* text = nullptr;
    std::shared_ptr<const Stmt> owned;
    CachedPlanPtr plan;
  };

  Status ExecuteStmtList(const std::vector<StmtPtr>& stmts, Session* session,
                         ExecStats* stats, CompiledProcedure* proc);
  /// Runs one statement; an error aborts the session's open transaction.
  Status ExecuteStmt(const Stmt& stmt, Session* session, ExecStats* stats,
                     const PlanKey& key);
  Status DispatchStmt(const Stmt& stmt, Session* session, ExecStats* stats,
                      const PlanKey& key);

  /// What a statement reports for its record: its plan's info (null when it
  /// ran no plan here, as INSERT ... VALUES and forwarded writes do), the
  /// rows it returned or changed, and its operator profile if profiled.
  struct PlannedRun {
    StatementInfoPtr info;
    int64_t rows = 0;
    std::optional<OperatorProfile> profile;
  };

  /// Runs a SELECT, INSERT, UPDATE or DELETE and records it if it ran a
  /// plan: the one place every planned statement is recorded.
  Status ExecPlanned(const Stmt& stmt, Session* session, ExecStats* stats,
                     const PlanKey& key);
  Status ExecSelect(const SelectStmt& stmt, Session* session, ExecStats* stats,
                    const PlanKey& key, PlannedRun* run);
  Status ExecInsert(const InsertStmt& stmt, Session* session, ExecStats* stats,
                    const PlanKey& key, PlannedRun* run);
  Status ExecUpdate(const UpdateStmt& stmt, Session* session, ExecStats* stats,
                    const PlanKey& key, PlannedRun* run);
  Status ExecDelete(const DeleteStmt& stmt, Session* session, ExecStats* stats,
                    const PlanKey& key, PlannedRun* run);
  Status ExecCreateTable(const CreateTableStmt& stmt);
  Status ExecCreateIndex(const CreateIndexStmt& stmt);
  Status ExecCreateView(const CreateViewStmt& stmt, Session* session,
                        ExecStats* stats);
  Status ExecCreateProcedure(const CreateProcedureStmt& stmt);
  Status ExecDrop(const DropStmt& stmt);
  Status ExecGrant(const GrantStmt& stmt);
  Status ExecExplain(const ExplainStmt& stmt, Session* session);
  Status ExecExec(const ExecStmt& stmt, Session* session, ExecStats* stats);
  Status ExecIf(const IfStmt& stmt, Session* session, ExecStats* stats,
                CompiledProcedure* proc);

  /// Forwards an INSERT, UPDATE or DELETE to the server that owns its
  /// target, if not this one: `server`, a linked-server qualifier, else a
  /// shadow table's home backend (§5: "all insert, delete and update
  /// requests against a shadow table are immediately converted to remote
  /// inserts, deletes and updates"). Returns whether it forwarded.
  StatusOr<bool> ForwardDml(const Stmt& stmt, const std::string& server,
                            const std::string& table, Session* session,
                            ExecStats* stats);

  /// Applies one local write plus synchronous maintenance of regular
  /// materialized views defined over the table.
  StatusOr<RowId> InsertRow(StoredTable* table, const Row& row,
                            Transaction* txn, ExecStats* stats);

  /// Runs an UPDATE (`sets` non-null) or DELETE: finds the rows through the
  /// statement's cached access-path plan, then changes each that still
  /// matches `where` (StoredTable::ModifyIfMatches).
  Status ExecModify(const Stmt& stmt, const TableDef& def,
                    const BoundExpr* where,
                    const std::vector<std::pair<int, BExprPtr>>* sets,
                    Session* session, ExecStats* stats, const PlanKey& key,
                    PlannedRun* run);

  /// Keeps the regular materialized views over `base` current after one
  /// base-row change: `before`/`after` are the row's images, null where the
  /// change has none.
  Status MaintainViews(const TableDef& base, const Row* before,
                       const Row* after, Transaction* txn, ExecStats* stats);

  /// Probes the statement plan cache by exact SQL text, before any parsing:
  /// one shared-latch lookup, counted as a hit when it finds a plan.
  CachedPlanPtr FindStatementPlan(const std::string& sql);

  /// The one bind/optimize path: binds the SELECT `stmt` reads (itself, an
  /// INSERT's source, an UPDATE's or DELETE's access path, which plans with
  /// view matching off: its RowIds must come from the base heap), applies
  /// its freshness bound and optimizes it, counting into `decisions`.
  StatusOr<OptimizeResult> OptimizeStatement(const Stmt& stmt,
                                             OptimizerDecisionStats* decisions);

  /// Returns the plan for `stmt`: `key.plan`, a procedure-plan hit under a
  /// shared lock, or OptimizeStatement's, run outside any lock. Reaching
  /// this with a `key.text` is a miss (ExecuteOnSession probed first).
  /// Cacheable plans are inserted under the exclusive lock with
  /// insert-or-discard semantics — if another session optimized the same
  /// statement first, or the cache generation changed (an invalidation ran
  /// while we optimized), this session simply executes its own plan without
  /// caching it. Uncacheable (freshness-constrained) plans are never cached.
  StatusOr<CachedPlanPtr> PlanStatement(const Stmt& stmt, const PlanKey& key);

  /// Builds the info a plan's executions are recorded under.
  StatementInfoPtr MakeStatementInfo(const OptimizeResult& optimized,
                                     std::string label,
                                     const std::string& sample_text);

  StatusOr<CompiledProcedure*> CompileProcedure(const std::string& name);

  /// Copy of the optimizer options taken under the plan-cache lock, so a
  /// concurrent set_optimizer_options never tears the struct mid-read.
  OptimizerOptions SnapshotOptimizerOptions() const;

  // Transaction helpers: returns the session transaction or a fresh
  // auto-commit transaction (committed/aborted by the caller via the guard).
  struct TxnScope {
    Transaction* txn = nullptr;
    std::unique_ptr<Transaction> auto_txn;
    bool auto_commit = false;
  };
  TxnScope BeginScope(Session* session);
  Status EndScope(TxnScope* scope, Status status);

  Binder MakeBinder();
  ExecContext MakeContext(Session* session, ExecStats* stats);

  ServerOptions options_;
  SimClock* clock_;
  LinkedServerRegistry* links_;
  Database db_;
  CachedViewHandler cached_view_handler_;
  CachedViewDropHandler cached_view_drop_handler_;
  DmlFindHook dml_find_hook_;

  /// Guards the two plan caches, the cache generation, and options_.optimizer
  /// (which the optimizer reads per statement and set_optimizer_options may
  /// replace concurrently). Shared on the hit path, exclusive on
  /// insert/invalidate; never held during optimization.
  mutable std::shared_mutex plan_cache_mu_;
  StatementPlanCache statement_plan_cache_;
  std::map<std::string, CompiledProcedure> procedure_cache_;
  /// Bumped by every invalidation. A session that optimized against an older
  /// generation discards its insert (its view of statistics/options may be
  /// stale), but still executes the plan it holds.
  int64_t plan_cache_generation_ = 0;
  MetricsRegistry metrics_;
  DmvCatalog dmvs_;
  WorkloadRepository workload_;
  /// Cadence capture state: interval 0 = disarmed. `workload_next_capture_`
  /// is the sim-clock deadline; the statement that CAS-claims it performs the
  /// capture, so concurrent sessions never capture the same slice twice.
  std::atomic<double> workload_capture_interval_{0};
  std::atomic<double> workload_next_capture_{0};
};

}  // namespace mtcache

#endif  // MTCACHE_ENGINE_SERVER_H_
