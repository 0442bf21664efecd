#include "engine/server.h"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <shared_mutex>

#include "common/string_util.h"
#include "common/trace.h"
#include "common/wait_stats.h"
#include "engine/view_util.h"
#include "opt/cost_model.h"

namespace mtcache {

Server::Server(ServerOptions options, SimClock* clock,
               LinkedServerRegistry* links)
    : options_(std::move(options)), clock_(clock), links_(links),
      db_(options_.name + "_db", clock) {
  // A capacity below 1 would leave scans unable to advance.
  assert(options_.exec_batch_capacity >= 1);
}

void Server::set_optimizer_options(const OptimizerOptions& opts) {
  {
    ExclusiveLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheExclusive);
    options_.optimizer = opts;
    // Epoch-based invalidation: drop the cache's references and bump the
    // generation. Sessions executing a dropped plan hold their own
    // shared_ptr, so nothing is destroyed out from under them, and a session
    // that is mid-optimization against the old options discards its insert
    // when it sees the generation moved.
    statement_plan_cache_.Clear();
    for (auto& [name, proc] : procedure_cache_) proc.plans.clear();
    ++plan_cache_generation_;
  }
  ++metrics_.plan_cache.invalidations;
}

Server::CachedPlanPtr Server::StatementPlanCache::Find(
    const std::string& sql) const {
  auto it = entries_.find(sql);
  if (it == entries_.end()) return nullptr;
  it->second.referenced.store(true, std::memory_order_relaxed);
  return it->second.plan;
}

Server::CachedPlanPtr Server::StatementPlanCache::Insert(
    const std::string& sql, CachedPlanPtr plan, RelaxedInt64* evictions) {
  auto found = entries_.find(sql);
  if (found != entries_.end()) return found->second.plan;
  if (clock_.size() < kStatementPlanCacheCapacity) {
    auto [it, inserted] = entries_.try_emplace(sql, std::move(plan));
    clock_.push_back(&*it);
    return it->second.plan;
  }
  // Second chance: clear reference bits until the hand reaches an entry no
  // hit has touched since the hand last passed it, and reuse its slot.
  while (clock_[hand_]->second.referenced.exchange(
      false, std::memory_order_relaxed)) {
    hand_ = (hand_ + 1) % clock_.size();
  }
  entries_.erase(entries_.find(clock_[hand_]->first));
  ++*evictions;
  auto [it, inserted] = entries_.try_emplace(sql, std::move(plan));
  clock_[hand_] = &*it;
  hand_ = (hand_ + 1) % clock_.size();
  return it->second.plan;
}

void Server::StatementPlanCache::Clear() {
  entries_.clear();
  clock_.clear();
  hand_ = 0;
}

void Server::InvalidatePlanCache() {
  {
    ExclusiveLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheExclusive);
    statement_plan_cache_.Clear();
    for (auto& [name, proc] : procedure_cache_) proc.plans.clear();
    ++plan_cache_generation_;
  }
  ++metrics_.plan_cache.invalidations;
}

OptimizerOptions Server::SnapshotOptimizerOptions() const {
  SharedLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheShared);
  return options_.optimizer;
}

void Server::RecomputeStats() {
  db_.RecomputeAllStats();
  InvalidatePlanCache();
}

Binder Server::MakeBinder() {
  Binder::LinkedCatalogResolver resolver;
  if (links_ != nullptr) {
    LinkedServerRegistry* links = links_;
    resolver = [links](const std::string& name) -> Catalog* {
      Server* server = links->Get(name);
      return server != nullptr ? &server->db().catalog() : nullptr;
    };
  }
  const DmvCatalog* dmvs = &dmvs_;
  return Binder(&db_.catalog(), options_.default_user, std::move(resolver),
                [dmvs](const std::string& name) { return dmvs->Find(name); });
}

ExecContext Server::MakeContext(Session* session, ExecStats* stats) {
  ExecContext ctx;
  ctx.params = &session->vars;
  ctx.now = db_.Now();
  ctx.storage = &db_;
  ctx.remote = this;
  ctx.stats = stats;
  ctx.virtual_tables = this;
  ctx.branch_stats = &metrics_.chooseplan;
  ctx.batch_capacity = options_.exec_batch_capacity;
  return ctx;
}

WorkloadSlice Server::CaptureWorkloadSnapshot() {
  return workload_.Capture(metrics_, db_.Now());
}

void Server::set_workload_capture_interval(double sim_seconds) {
  workload_next_capture_.store(db_.Now() + sim_seconds,
                               std::memory_order_relaxed);
  workload_capture_interval_.store(sim_seconds, std::memory_order_relaxed);
}

StatusOr<std::vector<Row>> Server::VirtualTableRows(
    const std::string& name, const VirtualRowFilter& filter) {
  DmvSource src;
  src.metrics = &metrics_;
  src.catalog = &db_.catalog();
  src.storage = &db_;
  src.workload = &workload_;
  src.now = db_.Now();
  {
    SharedLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheShared);
    src.cached_statements = static_cast<int64_t>(statement_plan_cache_.size());
    for (const auto& [proc_name, proc] : procedure_cache_) {
      src.cached_procedure_plans += static_cast<int64_t>(proc.plans.size());
    }
  }
  return DmvRows(name, src, filter);
}

Server::TxnScope Server::BeginScope(Session* session) {
  TxnScope scope;
  if (session->txn != nullptr && session->txn->active()) {
    scope.txn = session->txn.get();
    scope.auto_commit = false;
  } else {
    scope.auto_txn = db_.txn_manager().Begin();
    scope.txn = scope.auto_txn.get();
    scope.auto_commit = true;
  }
  return scope;
}

Status Server::EndScope(TxnScope* scope, Status status) {
  if (scope->auto_commit) {
    if (status.ok()) {
      db_.txn_manager().Commit(scope->txn, db_.Now());
    } else {
      db_.txn_manager().Abort(scope->txn);
    }
  }
  return status;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

StatusOr<QueryResult> Server::Execute(const std::string& sql) {
  ExecStats stats;
  return Execute(sql, {}, &stats);
}

StatusOr<QueryResult> Server::Execute(const std::string& sql,
                                      const ParamMap& params,
                                      ExecStats* stats) {
  Session session;
  session.vars = params;
  return ExecuteOnSession(&session, sql, stats);
}

StatusOr<QueryResult> Server::ExecuteOnSession(Session* session,
                                               const std::string& sql,
                                               ExecStats* stats) {
  // A single-statement script plans under the statement cache, keyed by its
  // text and probed before parsing: a hit runs the statement its plan owns.
  PlanKey key;
  key.text = &sql;
  key.plan = FindStatementPlan(sql);
  std::vector<StmtPtr> stmts;
  if (key.plan == nullptr) {
    MT_ASSIGN_OR_RETURN(stmts, ParseSqlScript(sql));
    if (stmts.size() == 1) key.owned = std::move(stmts[0]);
  }
  session->ResetForBatch();
  // `key.owned` stays referenced here: when another session published this
  // text first, the plan in use owns that session's AST, not ours.
  Status status =
      key.plan != nullptr || key.owned != nullptr
          ? ExecuteStmt(key.plan != nullptr ? *key.plan->stmt : *key.owned,
                        session, stats, key)
          : ExecuteStmtList(stmts, session, stats, nullptr);
  if (!status.ok()) return status;
  if (session->has_result) return std::move(session->result);
  QueryResult result;
  result.rows_affected = session->result.rows_affected;
  return result;
}

Status Server::ExecuteScript(const std::string& sql) {
  ExecStats stats;
  auto result = Execute(sql, {}, &stats);
  return result.status();
}

StatusOr<QueryResult> Server::CallProcedure(const std::string& name,
                                            const std::vector<Value>& args,
                                            ExecStats* stats) {
  ExecStmt stmt;
  stmt.procedure = ToLower(name);
  for (const Value& v : args) {
    stmt.args.push_back(std::make_unique<LiteralExpr>(v));
  }
  Session session;
  if (stats != nullptr) stats->local_cost += CostModel::kStatementOverhead;
  MT_RETURN_IF_ERROR(ExecExec(stmt, &session, stats));
  if (session.has_result) return std::move(session.result);
  QueryResult result;
  result.rows_affected = session.result.rows_affected;
  return result;
}

namespace {

// Maps a DML statement onto the SELECT that finds its rows (the read side of
// the write): `SELECT * FROM t [WHERE ...]`. The returned StmtPtr owns the
// synthesized AST; callers downcast it to SelectStmt.
StatusOr<StmtPtr> SynthesizeAccessPath(const std::string& table,
                                       const Expr* where) {
  std::string sql = "SELECT * FROM " + table;
  if (where != nullptr) sql += " WHERE " + ExprToSql(*where);
  return ParseSql(sql);
}

// The SELECT a statement reads through: a SELECT itself, an INSERT's source
// query, or the access path an UPDATE or DELETE finds its rows through
// (synthesized, owned by `*synthesized`). INSERT ... VALUES reads nothing
// (`select` = null).
StatusOr<const SelectStmt*> ReadSide(const Stmt& stmt, StmtPtr* synthesized) {
  switch (stmt.kind) {
    case StmtKind::kSelect:
      return static_cast<const SelectStmt*>(&stmt);
    case StmtKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(stmt);
      if (ins.select != nullptr) return ins.select.get();
      return static_cast<const SelectStmt*>(nullptr);
    }
    case StmtKind::kUpdate: {
      const auto& upd = static_cast<const UpdateStmt&>(stmt);
      MT_ASSIGN_OR_RETURN(*synthesized,
                          SynthesizeAccessPath(upd.table, upd.where.get()));
      return static_cast<const SelectStmt*>(synthesized->get());
    }
    case StmtKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(stmt);
      MT_ASSIGN_OR_RETURN(*synthesized,
                          SynthesizeAccessPath(del.table, del.where.get()));
      return static_cast<const SelectStmt*>(synthesized->get());
    }
    default:
      return Status::InvalidArgument(
          "EXPLAIN supports SELECT, INSERT, UPDATE, and DELETE");
  }
}

}  // namespace

StatusOr<OptimizeResult> Server::Explain(const std::string& sql) {
  MT_ASSIGN_OR_RETURN(StmtPtr stmt, ParseSql(sql));
  return OptimizeStatement(*stmt, nullptr);
}

StatusOr<QueryResult> Server::ExecuteRemote(const std::string& server_name,
                                            const std::string& sql,
                                            const ParamMap& params,
                                            ExecStats* stats) {
  if (links_ == nullptr) {
    return Status::InvalidArgument("no linked servers configured");
  }
  Server* target = links_->Get(server_name);
  if (target == nullptr) {
    return Status::NotFound("unknown linked server: " + server_name);
  }
  // One span per backend hop: the gap between this span and its parent's
  // local work is exactly the mid-tier round-trip the paper's §6 measures.
  SpanScope span("remote_roundtrip",
                 TraceRecorder::Global().enabled() ? server_name + ": " + sql
                                                   : std::string());
  ExecStats callee;
  MT_ASSIGN_OR_RETURN(QueryResult result,
                      target->Execute(sql, params, &callee));
  if (stats != nullptr) {
    stats->remote_cost += callee.local_cost + callee.remote_cost;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Statement dispatch
// ---------------------------------------------------------------------------

Status Server::ExecuteStmtList(const std::vector<StmtPtr>& stmts,
                               Session* session, ExecStats* stats,
                               CompiledProcedure* proc) {
  PlanKey key;
  key.proc = proc;
  for (const StmtPtr& stmt : stmts) {
    MT_RETURN_IF_ERROR(ExecuteStmt(*stmt, session, stats, key));
    if (session->return_requested) break;
  }
  return Status::Ok();
}

Status Server::ExecuteStmt(const Stmt& stmt, Session* session,
                           ExecStats* stats, const PlanKey& key) {
  Status status = DispatchStmt(stmt, session, stats, key);
  if (!status.ok() && session->txn != nullptr && session->txn->active()) {
    // An error aborts any open explicit transaction (T-SQL-ish).
    db_.txn_manager().Abort(session->txn.get());
    session->txn.reset();
  }
  return status;
}

Status Server::DispatchStmt(const Stmt& stmt, Session* session,
                            ExecStats* stats, const PlanKey& key) {
  // Per-statement engine overhead: parsing/binding/plan-cache lookup and
  // connection protocol work.
  if (stats != nullptr) stats->local_cost += CostModel::kStatementOverhead;
  CompiledProcedure* proc = key.proc;
  switch (stmt.kind) {
    case StmtKind::kSelect:
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete:
      return ExecPlanned(stmt, session, stats, key);
    case StmtKind::kCreateTable:
      return ExecCreateTable(static_cast<const CreateTableStmt&>(stmt));
    case StmtKind::kCreateIndex:
      return ExecCreateIndex(static_cast<const CreateIndexStmt&>(stmt));
    case StmtKind::kCreateView:
      return ExecCreateView(static_cast<const CreateViewStmt&>(stmt), session,
                            stats);
    case StmtKind::kCreateProcedure:
      return ExecCreateProcedure(
          static_cast<const CreateProcedureStmt&>(stmt));
    case StmtKind::kDrop:
      return ExecDrop(static_cast<const DropStmt&>(stmt));
    case StmtKind::kGrant:
      return ExecGrant(static_cast<const GrantStmt&>(stmt));
    case StmtKind::kExplain:
      return ExecExplain(static_cast<const ExplainStmt&>(stmt), session);
    case StmtKind::kExec:
      return ExecExec(static_cast<const ExecStmt&>(stmt), session, stats);
    case StmtKind::kDeclare: {
      const auto& declare = static_cast<const DeclareStmt&>(stmt);
      Value init = Value::TypedNull(declare.type);
      if (declare.init != nullptr) {
        Binder binder = MakeBinder();
        MT_ASSIGN_OR_RETURN(BExprPtr bound, binder.BindScalar(*declare.init));
        ExecContext ctx = MakeContext(session, stats);
        MT_ASSIGN_OR_RETURN(init, EvalBound(*bound, nullptr, ctx.Eval()));
      }
      session->vars[declare.var] = std::move(init);
      return Status::Ok();
    }
    case StmtKind::kSetVar: {
      const auto& set = static_cast<const SetVarStmt&>(stmt);
      Binder binder = MakeBinder();
      MT_ASSIGN_OR_RETURN(BExprPtr bound, binder.BindScalar(*set.value));
      ExecContext ctx = MakeContext(session, stats);
      MT_ASSIGN_OR_RETURN(Value v, EvalBound(*bound, nullptr, ctx.Eval()));
      session->vars[set.var] = std::move(v);
      return Status::Ok();
    }
    case StmtKind::kSetOption: {
      const auto& set = static_cast<const SetOptionStmt&>(stmt);
      if (set.option == "statistics profile") {
        session->stats_profile = set.on;
        return Status::Ok();
      }
      return Status::InvalidArgument("unknown SET option: " + set.option);
    }
    case StmtKind::kIf:
      return ExecIf(static_cast<const IfStmt&>(stmt), session, stats, proc);
    case StmtKind::kWhile: {
      const auto& loop = static_cast<const WhileStmt&>(stmt);
      Binder binder = MakeBinder();
      MT_ASSIGN_OR_RETURN(BExprPtr cond, binder.BindScalar(*loop.condition));
      constexpr int kMaxIterations = 1000000;  // runaway-loop backstop
      for (int i = 0; ; ++i) {
        if (i >= kMaxIterations) {
          return Status::Aborted("WHILE exceeded the iteration limit");
        }
        ExecContext ctx = MakeContext(session, stats);
        MT_ASSIGN_OR_RETURN(bool pass,
                            EvalPredicate(*cond, nullptr, ctx.Eval()));
        if (!pass) break;
        MT_RETURN_IF_ERROR(ExecuteStmtList(loop.body, session, stats, proc));
        if (session->return_requested) break;
      }
      return Status::Ok();
    }
    case StmtKind::kReturn:
      session->return_requested = true;
      return Status::Ok();
    case StmtKind::kBeginTxn:
      if (session->txn != nullptr && session->txn->active()) {
        return Status::InvalidArgument("transaction already open");
      }
      session->txn = db_.txn_manager().Begin();
      return Status::Ok();
    case StmtKind::kCommitTxn:
      if (session->txn == nullptr || !session->txn->active()) {
        return Status::InvalidArgument("no open transaction to commit");
      }
      db_.txn_manager().Commit(session->txn.get(), db_.Now());
      session->txn.reset();
      return Status::Ok();
    case StmtKind::kRollbackTxn:
      if (session->txn == nullptr || !session->txn->active()) {
        return Status::InvalidArgument("no open transaction to roll back");
      }
      db_.txn_manager().Abort(session->txn.get());
      session->txn.reset();
      return Status::Ok();
  }
  return Status::Internal("unhandled statement kind");
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

Server::CachedPlanPtr Server::FindStatementPlan(const std::string& sql) {
  SpanScope lookup_span("plan_cache_lookup");
  SharedLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheShared);
  CachedPlanPtr plan = statement_plan_cache_.Find(sql);
  if (plan != nullptr) ++metrics_.plan_cache.hits;
  return plan;
}

StatusOr<OptimizeResult> Server::OptimizeStatement(
    const Stmt& stmt, OptimizerDecisionStats* decisions) {
  StmtPtr synthesized;
  MT_ASSIGN_OR_RETURN(const SelectStmt* select, ReadSide(stmt, &synthesized));
  if (select == nullptr) {
    return Status::InvalidArgument("INSERT ... VALUES has no plan");
  }
  Binder binder = MakeBinder();
  MT_ASSIGN_OR_RETURN(LogicalPtr logical, binder.BindSelect(*select));
  OptimizerOptions opts = SnapshotOptimizerOptions();
  opts.decision_stats = decisions;
  if (select->max_staleness >= 0) {
    opts.max_staleness = select->max_staleness;
    opts.current_time = db_.Now();
  }
  // An UPDATE or DELETE changes the rows its access path finds, so the path
  // reads the base heap, never a view that matches it.
  if (synthesized != nullptr) opts.enable_view_matching = false;
  Optimizer optimizer(&db_.catalog(), opts);
  return optimizer.Optimize(*logical);
}

StatusOr<Server::CachedPlanPtr> Server::PlanStatement(const Stmt& stmt,
                                                      const PlanKey& key) {
  if (key.plan != nullptr) return key.plan;
  // Queries with a freshness requirement (§7 extension) are not cacheable:
  // whether a cached view qualifies depends on its staleness *now*.
  const SelectStmt* select =
      stmt.kind == StmtKind::kSelect ? static_cast<const SelectStmt*>(&stmt)
      : stmt.kind == StmtKind::kInsert
          ? static_cast<const InsertStmt&>(stmt).select.get()
          : nullptr;
  const bool cacheable = select == nullptr || select->max_staleness < 0;
  CompiledProcedure* proc = key.proc;
  static const std::string kNoText;
  const std::string& cache_key = key.text != nullptr ? *key.text : kNoText;
  // Procedure-body statements cache by statement identity, looked up here
  // under the shared lock; many sessions hit the cache in parallel. Ad-hoc
  // statements cache by SQL text, which FindStatementPlan already probed.
  int64_t generation_at_lookup = 0;
  {
    SpanScope lookup_span("plan_cache_lookup");
    SharedLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheShared);
    generation_at_lookup = plan_cache_generation_;
    if (cacheable && proc != nullptr) {
      auto it = proc->plans.find(&stmt);
      if (it != proc->plans.end()) {
        ++metrics_.plan_cache.hits;
        return it->second;
      }
    }
  }
  // A statement that was never eligible for the cache is not a miss — count
  // it separately so sys.dm_plan_cache's hit-rate stays meaningful.
  if (cacheable) {
    ++metrics_.plan_cache.misses;
  } else {
    ++metrics_.plan_cache.uncacheable;
  }
  // Optimize with no lock held: optimization is the expensive part, and
  // serializing it behind the cache lock would defeat concurrent sessions.
  // The span covers bind+optimize (and the cheap publish below).
  SpanScope optimize_span(
      "optimize", TraceRecorder::Global().enabled() ? cache_key : std::string());
  MT_ASSIGN_OR_RETURN(OptimizeResult optimized,
                      OptimizeStatement(stmt, &metrics_.optimizer));
  CachedPlan cached;
  if (!cache_key.empty()) {
    cached.info = MakeStatementInfo(optimized, cache_key, cache_key);
  } else if (proc != nullptr) {
    cached.info = MakeStatementInfo(
        optimized,
        proc->def->name + " stmt#" + std::to_string(proc->positions.at(&stmt)),
        StmtToSql(stmt));
  } else {
    cached.info = MakeStatementInfo(optimized, "(ad-hoc)", "(ad-hoc)");
  }
  cached.plan = std::move(optimized.plan);
  cached.stmt = key.owned;
  CachedPlanPtr plan = std::make_shared<const CachedPlan>(std::move(cached));
  if (cacheable && (proc != nullptr || !cache_key.empty())) {
    ExclusiveLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheExclusive);
    if (plan_cache_generation_ != generation_at_lookup) {
      // An invalidation ran while we were optimizing: our plan may reflect
      // pre-invalidation statistics or options. Execute it this once, but
      // do not publish it.
      return plan;
    }
    if (proc != nullptr) {
      // Insert-or-discard: if a concurrent session published first, use its
      // plan and drop ours.
      auto [it, inserted] = proc->plans.emplace(&stmt, plan);
      return it->second;
    }
    return statement_plan_cache_.Insert(cache_key, std::move(plan),
                                        &metrics_.plan_cache.evictions);
  }
  // Freshness-constrained, or no stable key (multi-statement ad-hoc script):
  // the plan belongs to this execution alone and is never published.
  return plan;
}

StatementInfoPtr Server::MakeStatementInfo(const OptimizeResult& optimized,
                                           std::string label,
                                           const std::string& sample_text) {
  // Fingerprinted once per plan, so literal variants of one shape roll up
  // into one dm_exec_query_stats row at no per-execution cost.
  StatementInfo info;
  info.fingerprint = NormalizeStatement(label);
  info.query_hash = FingerprintHash(info.fingerprint);
  info.label = std::move(label);
  info.plan_text = PhysicalToString(*optimized.plan);
  info.routing = optimized.dynamic_plan  ? "dynamic"
                 : optimized.uses_remote ? "remote"
                                         : "local";
  info.est_cost = optimized.est_cost;
  info.est_saved_units = optimized.est_saved_units;
  return metrics_.BindCounters(std::move(info), sample_text,
                               optimized.matched_views);
}

Status Server::ExecPlanned(const Stmt& stmt, Session* session,
                           ExecStats* stats, const PlanKey& key) {
  const auto wall_start = std::chrono::steady_clock::now();
  // Private stats, so the record holds exactly this statement's cost.
  ExecStats own;
  PlannedRun run;
  Status status = [&]() -> Status {
    switch (stmt.kind) {
      case StmtKind::kSelect:
        return ExecSelect(static_cast<const SelectStmt&>(stmt), session, &own,
                          key, &run);
      case StmtKind::kInsert:
        return ExecInsert(static_cast<const InsertStmt&>(stmt), session, &own,
                          key, &run);
      case StmtKind::kUpdate:
        return ExecUpdate(static_cast<const UpdateStmt&>(stmt), session, &own,
                          key, &run);
      default:
        return ExecDelete(static_cast<const DeleteStmt&>(stmt), session, &own,
                          key, &run);
    }
  }();
  if (stats != nullptr) stats->Add(own);
  if (!status.ok() || run.info == nullptr) return status;
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  // The ring takes this execution's reference unless the profile needs it.
  const int64_t query_id = metrics_.RecordStatement(
      run.profile.has_value() ? run.info : std::move(run.info), own, run.rows,
      elapsed);
  // Cadence-armed workload capture: one relaxed load when disarmed (~always).
  // The CAS winner captures; racers see the advanced deadline and move on.
  const double capture_interval =
      workload_capture_interval_.load(std::memory_order_relaxed);
  if (capture_interval > 0) {
    double due = workload_next_capture_.load(std::memory_order_relaxed);
    const double sim_now = db_.Now();
    if (sim_now >= due &&
        workload_next_capture_.compare_exchange_strong(
            due, sim_now + capture_interval, std::memory_order_relaxed)) {
      workload_.Capture(metrics_, sim_now);
    }
  }
  if (run.profile.has_value()) {
    metrics_.RecordProfile(QueryProfileRecord{query_id, std::move(run.info),
                                              elapsed,
                                              std::move(*run.profile)});
  }
  return Status::Ok();
}

Status Server::ExecSelect(const SelectStmt& stmt, Session* session,
                          ExecStats* stats, const PlanKey& key,
                          PlannedRun* run) {
  // Root span for the whole statement; children (plan_cache_lookup, optimize,
  // execute, remote_roundtrip) attach through the thread-local span stack.
  // The ternaries avoid building detail strings when tracing is off.
  TraceRecorder& tracer = TraceRecorder::Global();
  SpanScope query_span("query", tracer.enabled() && key.text != nullptr
                                    ? *key.text
                                    : std::string());
  // The shared_ptr keeps the plan alive for the whole execution even if the
  // cache is invalidated (and cleared) concurrently.
  MT_ASSIGN_OR_RETURN(CachedPlanPtr cached, PlanStatement(stmt, key));
  ExecContext ctx = MakeContext(session, stats);
  // Profiled when the session asked (SET STATISTICS PROFILE ON) or the
  // server-wide switch is up; off = one relaxed load, no decorators built.
  if (session->stats_profile || metrics_.profiling_enabled()) {
    run->profile = MakeProfileTree(*cached->plan);
  }
  auto result_or = [&]() -> StatusOr<QueryResult> {
    SpanScope exec_span(
        "execute", tracer.enabled() ? cached->info->label : std::string());
    return ExecutePlan(*cached->plan, &ctx,
                       run->profile.has_value() ? &*run->profile : nullptr);
  }();
  MT_ASSIGN_OR_RETURN(QueryResult result, std::move(result_or));
  run->info = cached->info;
  run->rows = static_cast<int64_t>(result.rows.size());
  if (!stmt.into_vars.empty()) {
    // Scalar assignment: bind the first row's values to the variables. With
    // no rows the variables keep their previous values (T-SQL semantics).
    if (!result.rows.empty()) {
      for (size_t i = 0; i < stmt.into_vars.size(); ++i) {
        if (stmt.into_vars[i].empty()) continue;
        session->vars[stmt.into_vars[i]] = result.rows[0][i];
      }
    }
    return Status::Ok();
  }
  session->result = std::move(result);
  session->has_result = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

StatusOr<RowId> Server::InsertRow(StoredTable* table, const Row& row,
                                  Transaction* txn, ExecStats* stats) {
  MT_ASSIGN_OR_RETURN(RowId rid, table->Insert(row, txn));
  if (stats != nullptr) {
    stats->local_cost +=
        CostModel::kInsertRowCost +
        table->def().indexes.size() * CostModel::kIndexMaintRowCost;
  }
  MT_RETURN_IF_ERROR(MaintainViews(table->def(), nullptr, &row, txn, stats));
  return rid;
}

Status Server::MaintainViews(const TableDef& base, const Row* before,
                             const Row* after, Transaction* txn,
                             ExecStats* stats) {
  for (const TableDef* view_def : db_.catalog().ViewsOver(base.name)) {
    // Only regular materialized views are maintained synchronously; cached
    // views are maintained asynchronously by replication (§3).
    if (view_def->kind != RelationKind::kMaterializedView) continue;
    StoredTable* view = db_.GetStoredTable(view_def->name);
    if (view == nullptr) continue;
    if (stats != nullptr) stats->local_cost += CostModel::kApplyRecordCost;
    std::optional<ViewChange> change =
        view_def->view_mapping->Classify(before, after);
    if (change.has_value()) MT_RETURN_IF_ERROR(view->ApplyByKey(*change, txn));
  }
  return Status::Ok();
}

StatusOr<bool> Server::ForwardDml(const Stmt& stmt, const std::string& server,
                                  const std::string& table, Session* session,
                                  ExecStats* stats) {
  std::string target = server;
  if (target.empty()) {
    const TableDef* def = db_.catalog().GetTable(table);
    if (def == nullptr || !def->shadow) return false;
    target = !def->home_server.empty()
                 ? def->home_server
                 : SnapshotOptimizerOptions().backend_server;
    if (target.empty() || links_ == nullptr) {
      return Status::InvalidArgument(
          "cannot forward DML: no backend server linked");
    }
  }
  MT_ASSIGN_OR_RETURN(
      QueryResult result,
      ExecuteRemote(target, StmtToSql(stmt), session->vars, stats));
  session->result.rows_affected = result.rows_affected;
  return true;
}

Status Server::ExecInsert(const InsertStmt& stmt, Session* session,
                          ExecStats* stats, const PlanKey& key,
                          PlannedRun* run) {
  MT_ASSIGN_OR_RETURN(
      bool forwarded,
      ForwardDml(stmt, stmt.server, stmt.table, session, stats));
  if (forwarded) return Status::Ok();
  Binder binder = MakeBinder();
  MT_ASSIGN_OR_RETURN(BoundInsert bound, binder.BindInsert(stmt));
  const TableDef* def = bound.table;
  StoredTable* table = db_.GetStoredTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("no storage for table " + stmt.table);
  }

  TxnScope scope = BeginScope(session);
  int64_t inserted = 0;
  ExecContext ctx = MakeContext(session, stats);

  auto insert_values_row = [&](const std::vector<Value>& values) -> Status {
    Row row(def->schema.num_columns(), Value::Null());
    for (int i = 0; i < def->schema.num_columns(); ++i) {
      row[i] = Value::TypedNull(def->schema.column(i).type);
    }
    for (size_t i = 0; i < bound.column_ordinals.size(); ++i) {
      row[bound.column_ordinals[i]] = values[i];
    }
    for (int i = 0; i < def->schema.num_columns(); ++i) {
      if (!def->schema.column(i).nullable && row[i].is_null()) {
        return Status::InvalidArgument("NULL in NOT NULL column " +
                                       def->schema.column(i).name);
      }
    }
    MT_RETURN_IF_ERROR(InsertRow(table, row, scope.txn, stats).status());
    ++inserted;
    return Status::Ok();
  };

  Status status = [&]() -> Status {
    if (bound.select != nullptr) {
      MT_ASSIGN_OR_RETURN(CachedPlanPtr plan, PlanStatement(stmt, key));
      run->info = plan->info;
      MT_ASSIGN_OR_RETURN(QueryResult result, ExecutePlan(*plan->plan, &ctx));
      for (const Row& row : result.rows) {
        MT_RETURN_IF_ERROR(insert_values_row(row));
      }
      return Status::Ok();
    }
    for (const auto& expr_row : bound.rows) {
      std::vector<Value> values;
      for (const BExprPtr& e : expr_row) {
        MT_ASSIGN_OR_RETURN(Value v, EvalBound(*e, nullptr, ctx.Eval()));
        values.push_back(std::move(v));
      }
      MT_RETURN_IF_ERROR(insert_values_row(values));
    }
    return Status::Ok();
  }();
  MT_RETURN_IF_ERROR(EndScope(&scope, status));
  session->result.rows_affected = inserted;
  run->rows = inserted;
  return Status::Ok();
}

Status Server::ExecModify(const Stmt& stmt, const TableDef& def,
                          const BoundExpr* where,
                          const std::vector<std::pair<int, BExprPtr>>* sets,
                          Session* session, ExecStats* stats,
                          const PlanKey& key, PlannedRun* run) {
  StoredTable* table = db_.GetStoredTable(def.name);
  if (table == nullptr) {
    return Status::NotFound("no storage for table " + def.name);
  }
  MT_ASSIGN_OR_RETURN(CachedPlanPtr plan, PlanStatement(stmt, key));
  run->info = plan->info;
  ExecContext ctx = MakeContext(session, stats);
  const EvalContext eval = ctx.Eval();
  const double write_cost =
      (sets != nullptr ? CostModel::kUpdateRowCost
                       : CostModel::kDeleteRowCost) +
      def.indexes.size() * CostModel::kIndexMaintRowCost;
  TxnScope scope = BeginScope(session);
  int64_t changed = 0;
  Status status = [&]() -> Status {
    MT_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                        FindRowIds(*plan->plan, &ctx));
    if (dml_find_hook_ != nullptr) dml_find_hook_(def.name, rows);
    for (RowId rid : rows) {
      MT_ASSIGN_OR_RETURN(
          std::optional<StoredTable::RowChange> change,
          table->ModifyIfMatches(rid, where, sets, eval, scope.txn));
      // Skipped: since the find, a racing statement freed the slot, reused
      // it, or changed the row so that WHERE no longer holds.
      if (!change.has_value()) continue;
      ctx.Charge(write_cost);
      MT_RETURN_IF_ERROR(MaintainViews(
          def, &change->before, sets != nullptr ? &change->after : nullptr,
          scope.txn, stats));
      ++changed;
    }
    return Status::Ok();
  }();
  MT_RETURN_IF_ERROR(EndScope(&scope, status));
  session->result.rows_affected = changed;
  run->rows = changed;
  return Status::Ok();
}

Status Server::ExecUpdate(const UpdateStmt& stmt, Session* session,
                          ExecStats* stats, const PlanKey& key,
                          PlannedRun* run) {
  MT_ASSIGN_OR_RETURN(
      bool forwarded,
      ForwardDml(stmt, stmt.server, stmt.table, session, stats));
  if (forwarded) return Status::Ok();
  Binder binder = MakeBinder();
  MT_ASSIGN_OR_RETURN(BoundUpdate bound, binder.BindUpdate(stmt));
  return ExecModify(stmt, *bound.table, bound.where.get(), &bound.sets,
                    session, stats, key, run);
}

Status Server::ExecDelete(const DeleteStmt& stmt, Session* session,
                          ExecStats* stats, const PlanKey& key,
                          PlannedRun* run) {
  MT_ASSIGN_OR_RETURN(
      bool forwarded,
      ForwardDml(stmt, stmt.server, stmt.table, session, stats));
  if (forwarded) return Status::Ok();
  Binder binder = MakeBinder();
  MT_ASSIGN_OR_RETURN(BoundDelete bound, binder.BindDelete(stmt));
  return ExecModify(stmt, *bound.table, bound.where.get(), nullptr, session,
                    stats, key, run);
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Status Server::ExecCreateTable(const CreateTableStmt& stmt) {
  TableDef def;
  def.name = stmt.table;
  std::vector<std::string> pk = stmt.primary_key;
  for (const ColumnDefAst& col : stmt.columns) {
    ColumnInfo info;
    info.name = col.name;
    info.type = col.type;
    info.table = stmt.table;
    info.nullable = !col.not_null;
    def.schema.AddColumn(std::move(info));
    if (col.primary_key) pk.push_back(col.name);
  }
  for (const std::string& col : pk) {
    int ord = -1;
    for (int i = 0; i < def.schema.num_columns(); ++i) {
      if (def.schema.column(i).name == col) {
        ord = i;
        break;
      }
    }
    if (ord < 0) {
      return Status::InvalidArgument("unknown primary key column: " + col);
    }
    def.primary_key.push_back(ord);
  }
  if (!def.primary_key.empty()) {
    def.indexes.push_back(IndexDef{stmt.table + "_pk", def.primary_key, true});
  }
  MT_RETURN_IF_ERROR(db_.CreateTable(std::move(def)));
  InvalidatePlanCache();
  return Status::Ok();
}

Status Server::ExecCreateIndex(const CreateIndexStmt& stmt) {
  TableDef* def = db_.catalog().GetTable(stmt.table);
  if (def == nullptr) {
    return Status::NotFound("table not found: " + stmt.table);
  }
  if (def->FindIndex(stmt.index) >= 0) {
    return Status::AlreadyExists("index already exists: " + stmt.index);
  }
  IndexDef index;
  index.name = stmt.index;
  index.unique = stmt.unique;
  for (const std::string& col : stmt.columns) {
    int ord = def->ColumnOrdinal(col);
    if (ord < 0) {
      return Status::InvalidArgument("unknown column: " + col);
    }
    index.key_columns.push_back(ord);
  }
  def->indexes.push_back(std::move(index));
  StoredTable* table = db_.GetStoredTable(stmt.table);
  if (table != nullptr) table->AddIndex();
  InvalidatePlanCache();
  return Status::Ok();
}

Status Server::ExecCreateView(const CreateViewStmt& stmt, Session* session,
                              ExecStats* stats) {
  if (stmt.cached) {
    if (cached_view_handler_ == nullptr) {
      return Status::InvalidArgument(
          "CREATE CACHED MATERIALIZED VIEW requires an MTCache configuration");
    }
    Status status = cached_view_handler_(this, stmt);
    if (status.ok()) InvalidatePlanCache();
    return status;
  }
  // Regular (synchronously maintained) materialized view.
  if (stmt.select->from.empty()) {
    return Status::InvalidArgument("view must select from a table");
  }
  TableDef* base = db_.catalog().GetTable(stmt.select->from[0].name);
  if (base == nullptr) {
    return Status::NotFound("base table not found: " +
                            stmt.select->from[0].name);
  }
  MT_ASSIGN_OR_RETURN(SelectProjectDef def,
                      BuildSelectProjectDef(*stmt.select, *base));
  MT_ASSIGN_OR_RETURN(
      TableDef view_def,
      MakeViewTableDef(stmt.view, *base, def, RelationKind::kMaterializedView));
  MT_RETURN_IF_ERROR(db_.CreateTable(std::move(view_def)));
  // Populate from the base table.
  StoredTable* base_table = db_.GetStoredTable(base->name);
  StoredTable* view_table = db_.GetStoredTable(stmt.view);
  if (base_table != nullptr && view_table != nullptr) {
    const ViewMapping& mapping = *view_table->def().view_mapping;
    TxnScope scope = BeginScope(session);
    Status status = Status::Ok();
    // Copy the matching base rows under the base table's shared latch first,
    // so we never hold it while taking the view table's exclusive latch.
    std::vector<Row> projected_rows;
    {
      SharedLatchWait latch(base_table->latch(), WaitSite::kTableLatchShared);
      for (RowId rid = 0; rid < base_table->heap().slot_count(); ++rid) {
        if (!base_table->heap().IsLive(rid)) continue;
        const Row& row = base_table->heap().Get(rid);
        if (stats != nullptr) stats->local_cost += CostModel::kSeqRowCost;
        if (!mapping.Matches(row)) continue;
        projected_rows.push_back(mapping.Project(row));
      }
    }
    for (const Row& projected : projected_rows) {
      auto inserted = view_table->Insert(projected, scope.txn);
      if (!inserted.ok()) {
        status = inserted.status();
        break;
      }
    }
    MT_RETURN_IF_ERROR(EndScope(&scope, status));
    view_table->RecomputeStats();
  }
  InvalidatePlanCache();
  return Status::Ok();
}

Status Server::ExecCreateProcedure(const CreateProcedureStmt& stmt) {
  // Validate the body parses now, so errors surface at CREATE time.
  MT_ASSIGN_OR_RETURN(std::vector<StmtPtr> body,
                      ParseSqlScript(stmt.body_source));
  (void)body;
  ProcedureDef def;
  def.name = stmt.name;
  def.params = stmt.params;
  def.body_source = stmt.body_source;
  MT_RETURN_IF_ERROR(db_.catalog().CreateProcedure(std::move(def)));
  {
    ExclusiveLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheExclusive);
    procedure_cache_.erase(stmt.name);
  }
  return Status::Ok();
}

Status Server::ExecDrop(const DropStmt& stmt) {
  switch (stmt.what) {
    case DropKind::kTable: {
      TableDef* def = db_.catalog().GetTable(stmt.name);
      if (def == nullptr) {
        return Status::NotFound("table not found: " + stmt.name);
      }
      if (def->view_def.has_value()) {
        return Status::InvalidArgument(
            stmt.name + " is a view; use DROP MATERIALIZED VIEW");
      }
      if (!db_.catalog().ViewsOver(stmt.name).empty()) {
        return Status::InvalidArgument(
            "cannot drop " + stmt.name + ": materialized views depend on it");
      }
      MT_RETURN_IF_ERROR(db_.DropTable(stmt.name));
      break;
    }
    case DropKind::kView: {
      TableDef* def = db_.catalog().GetTable(stmt.name);
      if (def == nullptr || !def->view_def.has_value()) {
        return Status::NotFound("view not found: " + stmt.name);
      }
      if (def->kind == RelationKind::kCachedView) {
        if (cached_view_drop_handler_ == nullptr) {
          return Status::InvalidArgument(
              "dropping a cached view requires an MTCache configuration");
        }
        MT_RETURN_IF_ERROR(cached_view_drop_handler_(this, stmt.name));
      } else {
        MT_RETURN_IF_ERROR(db_.DropTable(stmt.name));
      }
      break;
    }
    case DropKind::kIndex: {
      TableDef* def = db_.catalog().GetTable(stmt.table);
      if (def == nullptr) {
        return Status::NotFound("table not found: " + stmt.table);
      }
      int ordinal = def->FindIndex(stmt.name);
      if (ordinal < 0) {
        return Status::NotFound("index not found: " + stmt.name);
      }
      def->indexes.erase(def->indexes.begin() + ordinal);
      StoredTable* table = db_.GetStoredTable(stmt.table);
      if (table != nullptr) table->RemoveIndex(ordinal);
      break;
    }
    case DropKind::kProcedure: {
      MT_RETURN_IF_ERROR(db_.catalog().DropProcedure(stmt.name));
      {
        ExclusiveLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheExclusive);
        procedure_cache_.erase(stmt.name);
      }
      break;
    }
  }
  InvalidatePlanCache();
  return Status::Ok();
}

Status Server::ExecGrant(const GrantStmt& stmt) {
  TableDef* def = db_.catalog().GetTable(stmt.table);
  if (def == nullptr) {
    return Status::NotFound("table not found: " + stmt.table);
  }
  std::set<Privilege> privs;
  for (const std::string& p : stmt.privileges) {
    if (p == "select") {
      privs.insert(Privilege::kSelect);
    } else if (p == "insert") {
      privs.insert(Privilege::kInsert);
    } else if (p == "update") {
      privs.insert(Privilege::kUpdate);
    } else if (p == "delete") {
      privs.insert(Privilege::kDelete);
    } else if (p == "execute") {
      privs.insert(Privilege::kExecute);
    } else if (p == "all") {
      privs = {Privilege::kSelect, Privilege::kInsert, Privilege::kUpdate,
               Privilege::kDelete, Privilege::kExecute};
    } else {
      return Status::InvalidArgument("unknown privilege: " + p);
    }
  }
  if (stmt.grant) {
    def->grants[stmt.user].insert(privs.begin(), privs.end());
  } else {
    auto it = def->grants.find(stmt.user);
    if (it != def->grants.end()) {
      for (Privilege p : privs) it->second.erase(p);
      if (it->second.empty()) def->grants.erase(it);
    }
  }
  InvalidatePlanCache();
  return Status::Ok();
}

namespace {

// Renders one profile node per output row: two-space indent per plan depth,
// actual row counts, charged cost units, per-phase timings (ms), and the
// memory high-water mark.
void AppendProfileLines(const OperatorProfile& prof, int depth,
                        std::vector<Row>* rows) {
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += prof.op_name;
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                " [est_rows=%.0f actual_rows=%lld units=%.2f opens=%lld"
                " next=%lld open=%.3fms next=%.3fms close=%.3fms mem=%lldB]",
                prof.est_rows, static_cast<long long>(prof.actual_rows),
                prof.charged_units, static_cast<long long>(prof.opens),
                static_cast<long long>(prof.next_calls),
                prof.open_seconds * 1e3, prof.next_seconds * 1e3,
                prof.close_seconds * 1e3,
                static_cast<long long>(prof.mem_peak_bytes));
  line += buf;
  rows->push_back({Value::String(std::move(line))});
  for (const OperatorProfile& child : prof.children) {
    AppendProfileLines(child, depth + 1, rows);
  }
}

}  // namespace

Status Server::ExecExplain(const ExplainStmt& stmt, Session* session) {
  QueryResult result;
  ColumnInfo col;
  col.name = "plan";
  col.type = TypeId::kString;
  result.schema.AddColumn(std::move(col));

  // Write-side annotation rows for DML targets: forwarding for shadow
  // tables, index maintenance, and view maintenance (synchronous for
  // materialized views, asynchronous via replication for cached views).
  std::vector<std::string> annotations;
  auto annotate_target = [&](const std::string& table) {
    TableDef* def = db_.catalog().GetTable(table);
    if (def == nullptr) return;
    if (def->shadow) {
      annotations.push_back("forwarded to backend as: " +
                            StmtToSql(*stmt.target));
      return;
    }
    if (!def->indexes.empty()) {
      annotations.push_back("index maintenance: " +
                            std::to_string(def->indexes.size()) +
                            " index(es)");
    }
    for (const TableDef* view : db_.catalog().ViewsOver(table)) {
      annotations.push_back(
          view->kind == RelationKind::kMaterializedView
              ? "maintains view: " + view->name + " (synchronous)"
              : "maintains view: " + view->name + " (via replication)");
    }
  };
  bool reads = true;
  switch (stmt.target->kind) {
    case StmtKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(*stmt.target);
      reads = ins.select != nullptr;
      if (ins.select == nullptr) {
        annotations.push_back("Insert(" + ins.table + ") VALUES: " +
                              std::to_string(ins.rows.size()) + " row(s)");
      } else {
        annotations.push_back("write: Insert(" + ins.table + ") from SELECT");
      }
      annotate_target(ins.table);
      break;
    }
    case StmtKind::kUpdate: {
      const auto& upd = static_cast<const UpdateStmt&>(*stmt.target);
      annotations.push_back("write: Update(" + upd.table + ", " +
                            std::to_string(upd.sets.size()) + " column(s))");
      annotate_target(upd.table);
      break;
    }
    case StmtKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(*stmt.target);
      annotations.push_back("write: Delete(" + del.table + ")");
      annotate_target(del.table);
      break;
    }
    default:
      break;
  }

  // INSERT ... VALUES reads nothing: its annotations are the whole plan.
  if (reads) {
    // The plan the statement runs: for DML, the access path to its rows.
    MT_ASSIGN_OR_RETURN(OptimizeResult optimized,
                        OptimizeStatement(*stmt.target, nullptr));
    if (stmt.analyze) {
      // EXPLAIN ANALYZE: run the plan for real under the profiler and render
      // per-operator actuals. The parser guarantees the target is a SELECT.
      OperatorProfile profile = MakeProfileTree(*optimized.plan);
      ExecStats exec_stats;
      ExecContext ctx = MakeContext(session, &exec_stats);
      SpanScope span("explain_analyze");
      const auto start = std::chrono::steady_clock::now();
      MT_ASSIGN_OR_RETURN(QueryResult executed,
                          ExecutePlan(*optimized.plan, &ctx, &profile));
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      AppendProfileLines(profile, 0, &result.rows);
      const double units = profile.charged_units;
      char summary[224];
      std::snprintf(summary, sizeof(summary),
                    "actual: %lld rows in %.3f ms, estimated cost: %.2f, "
                    "charged: %.2f units, %.4f us/unit, dynamic: %s, "
                    "remote: %s",
                    static_cast<long long>(executed.rows.size()), elapsed * 1e3,
                    optimized.est_cost, units,
                    units > 0 ? elapsed * 1e6 / units : 0.0,
                    optimized.dynamic_plan ? "yes" : "no",
                    optimized.uses_remote ? "yes" : "no");
      result.rows.push_back({Value::String(summary)});
      QueryProfileRecord rec;
      const std::string text = StmtToSql(*stmt.target);
      rec.info = MakeStatementInfo(optimized, text, text);
      rec.total_seconds = elapsed;
      rec.root = std::move(profile);
      metrics_.RecordProfile(std::move(rec));
    } else {
      // One row per plan line, plus a summary row.
      std::string text = PhysicalToString(*optimized.plan);
      size_t start = 0;
      while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos) end = text.size();
        result.rows.push_back({Value::String(text.substr(start, end - start))});
        start = end + 1;
      }
      result.rows.push_back({Value::String(
          "estimated cost: " + std::to_string(optimized.est_cost) +
          ", dynamic: " + (optimized.dynamic_plan ? "yes" : "no") +
          ", remote: " + (optimized.uses_remote ? "yes" : "no"))});
    }
  }
  for (const std::string& note : annotations) {
    result.rows.push_back({Value::String(note)});
  }
  session->result = std::move(result);
  session->has_result = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Stored procedures
// ---------------------------------------------------------------------------

namespace {

// Numbers `stmts` and the statements nested in them depth-first, in body
// order, continuing from the positions already taken.
void NumberStatements(const std::vector<StmtPtr>& stmts,
                      std::unordered_map<const Stmt*, int>* positions) {
  for (const StmtPtr& stmt : stmts) {
    positions->emplace(stmt.get(), static_cast<int>(positions->size()));
    if (stmt->kind == StmtKind::kIf) {
      const auto& branch = static_cast<const IfStmt&>(*stmt);
      NumberStatements(branch.then_branch, positions);
      NumberStatements(branch.else_branch, positions);
    } else if (stmt->kind == StmtKind::kWhile) {
      NumberStatements(static_cast<const WhileStmt&>(*stmt).body, positions);
    }
  }
}

}  // namespace

StatusOr<Server::CompiledProcedure*> Server::CompileProcedure(
    const std::string& name) {
  // std::map nodes are stable, so the returned pointer survives concurrent
  // insertions of other procedures; entries are only erased by DDL, which is
  // setup-only.
  {
    SharedLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheShared);
    auto it = procedure_cache_.find(name);
    if (it != procedure_cache_.end()) return &it->second;
  }
  const ProcedureDef* def = db_.catalog().GetProcedure(name);
  if (def == nullptr) {
    return Status::NotFound("procedure not found: " + name);
  }
  // Parse outside the lock; insert-or-discard on a compile race.
  CompiledProcedure proc;
  proc.def = def;
  MT_ASSIGN_OR_RETURN(proc.body, ParseSqlScript(def->body_source));
  NumberStatements(proc.body, &proc.positions);
  ExclusiveLatchWait lock(plan_cache_mu_, WaitSite::kPlanCacheExclusive);
  auto [inserted_it, ok] = procedure_cache_.emplace(name, std::move(proc));
  return &inserted_it->second;
}

Status Server::ExecExec(const ExecStmt& stmt, Session* session,
                        ExecStats* stats) {
  ExecContext ctx = MakeContext(session, stats);
  const ProcedureDef* def = db_.catalog().GetProcedure(stmt.procedure);
  if (def == nullptr) {
    // Transparent forwarding to the backend (§5.2).
    const std::string backend = SnapshotOptimizerOptions().backend_server;
    if (backend.empty() || links_ == nullptr) {
      return Status::NotFound("procedure not found: " + stmt.procedure);
    }
    std::string sql = "EXEC " + stmt.procedure;
    Binder binder = MakeBinder();
    for (size_t i = 0; i < stmt.args.size(); ++i) {
      MT_ASSIGN_OR_RETURN(BExprPtr bound, binder.BindScalar(*stmt.args[i]));
      MT_ASSIGN_OR_RETURN(Value v, EvalBound(*bound, nullptr, ctx.Eval()));
      sql += i == 0 ? " " : ", ";
      sql += v.ToSqlLiteral();
    }
    MT_ASSIGN_OR_RETURN(QueryResult result,
                        ExecuteRemote(backend, sql, {}, stats));
    session->result = std::move(result);
    session->has_result = true;
    return Status::Ok();
  }

  MT_ASSIGN_OR_RETURN(CompiledProcedure* proc,
                      CompileProcedure(stmt.procedure));
  if (stmt.args.size() > def->params.size()) {
    return Status::InvalidArgument("too many arguments for procedure " +
                                   stmt.procedure);
  }
  Session proc_session;
  Binder binder = MakeBinder();
  for (size_t i = 0; i < def->params.size(); ++i) {
    Value v = Value::TypedNull(def->params[i].second);
    if (i < stmt.args.size()) {
      MT_ASSIGN_OR_RETURN(BExprPtr bound, binder.BindScalar(*stmt.args[i]));
      MT_ASSIGN_OR_RETURN(v, EvalBound(*bound, nullptr, ctx.Eval()));
    }
    proc_session.vars[def->params[i].first] = std::move(v);
  }
  MT_RETURN_IF_ERROR(ExecuteStmtList(proc->body, &proc_session, stats, proc));
  if (proc_session.txn != nullptr && proc_session.txn->active()) {
    // A procedure must not leak an open transaction.
    db_.txn_manager().Abort(proc_session.txn.get());
    return Status::Aborted("procedure " + stmt.procedure +
                           " left a transaction open");
  }
  if (proc_session.has_result) {
    session->result = std::move(proc_session.result);
    session->has_result = true;
  } else {
    session->result.rows_affected = proc_session.result.rows_affected;
  }
  return Status::Ok();
}

Status Server::ExecIf(const IfStmt& stmt, Session* session, ExecStats* stats,
                      CompiledProcedure* proc) {
  Binder binder = MakeBinder();
  MT_ASSIGN_OR_RETURN(BExprPtr cond, binder.BindScalar(*stmt.condition));
  ExecContext ctx = MakeContext(session, stats);
  MT_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*cond, nullptr, ctx.Eval()));
  const std::vector<StmtPtr>& branch =
      pass ? stmt.then_branch : stmt.else_branch;
  return ExecuteStmtList(branch, session, stats, proc);
}

}  // namespace mtcache
