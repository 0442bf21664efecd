#ifndef MTCACHE_SQL_AST_H_
#define MTCACHE_SQL_AST_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "types/value.h"

namespace mtcache {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kParam,
  kUnary,
  kBinary,
  kLike,
  kIn,
  kBetween,
  kIsNull,
  kFunction,
  kAggregate,
  kCase,
};

/// Unbound expression node. Dispatch is by `kind` + static_cast (the style
/// guide discourages RTTI; kind tags are the usual database-engine idiom).
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  const ExprKind kind;
};

using ExprPtr = std::unique_ptr<Expr>;

struct LiteralExpr : Expr {
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  Value value;
};

struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string t, std::string c)
      : Expr(ExprKind::kColumnRef), table(std::move(t)), column(std::move(c)) {}
  std::string table;   // optional qualifier (lower-cased), may be empty
  std::string column;  // lower-cased
};

/// Run-time parameter or procedure-local variable; name includes '@'.
struct ParamExpr : Expr {
  explicit ParamExpr(std::string n) : Expr(ExprKind::kParam), name(std::move(n)) {}
  std::string name;
};

enum class UnaryOp { kNot, kNeg };

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp o, ExprPtr e)
      : Expr(ExprKind::kUnary), op(o), operand(std::move(e)) {}
  UnaryOp op;
  ExprPtr operand;
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kBinary), op(o), left(std::move(l)), right(std::move(r)) {}
  BinaryOp op;
  ExprPtr left;
  ExprPtr right;
};

struct LikeExpr : Expr {
  LikeExpr(ExprPtr in, ExprPtr pat, bool neg)
      : Expr(ExprKind::kLike), input(std::move(in)), pattern(std::move(pat)),
        negated(neg) {}
  ExprPtr input;
  ExprPtr pattern;
  bool negated;
};

struct InExpr : Expr {
  InExpr(ExprPtr in, std::vector<ExprPtr> l, bool neg)
      : Expr(ExprKind::kIn), input(std::move(in)), list(std::move(l)),
        negated(neg) {}
  ExprPtr input;
  std::vector<ExprPtr> list;
  bool negated;
};

struct BetweenExpr : Expr {
  BetweenExpr(ExprPtr in, ExprPtr l, ExprPtr h)
      : Expr(ExprKind::kBetween), input(std::move(in)), lo(std::move(l)),
        hi(std::move(h)) {}
  ExprPtr input;
  ExprPtr lo;
  ExprPtr hi;
};

struct IsNullExpr : Expr {
  IsNullExpr(ExprPtr in, bool neg)
      : Expr(ExprKind::kIsNull), input(std::move(in)), negated(neg) {}
  ExprPtr input;
  bool negated;
};

/// Scalar function call (GETDATE, ABS, LEN, ...). Names lower-cased.
struct FunctionExpr : Expr {
  FunctionExpr(std::string n, std::vector<ExprPtr> a)
      : Expr(ExprKind::kFunction), name(std::move(n)), args(std::move(a)) {}
  std::string name;
  std::vector<ExprPtr> args;
};

enum class AggFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax };

struct AggregateExpr : Expr {
  AggregateExpr(AggFunc f, ExprPtr a)
      : Expr(ExprKind::kAggregate), func(f), arg(std::move(a)) {}
  AggFunc func;
  ExprPtr arg;  // null for COUNT(*)
};

/// CASE expression: searched (`CASE WHEN cond THEN x ... END`) when
/// `operand` is null, simple (`CASE input WHEN v THEN x ... END`) otherwise.
struct CaseExpr : Expr {
  CaseExpr() : Expr(ExprKind::kCase) {}
  ExprPtr operand;  // may be null
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;  // (when, then)
  ExprPtr else_expr;  // may be null -> NULL
};

/// Deep copy (expressions are trees of unique_ptr).
ExprPtr CloneExpr(const Expr& expr);

/// Renders back to SQL text (used by the remote-subquery unparser and by
/// EXPLAIN-style output).
std::string ExprToSql(const Expr& expr);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kSelect,
  kInsert,
  kUpdate,
  kDelete,
  kCreateTable,
  kCreateIndex,
  kCreateView,
  kCreateProcedure,
  kDrop,
  kGrant,
  kExplain,
  kExec,
  kDeclare,
  kSetVar,
  kSetOption,
  kIf,
  kWhile,
  kReturn,
  kBeginTxn,
  kCommitTxn,
  kRollbackTxn,
};

struct Stmt {
  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
  const StmtKind kind;
};

using StmtPtr = std::unique_ptr<Stmt>;

struct SelectStmt;

/// An entry in the FROM clause: a base table (optionally linked-server
/// qualified, `server.table`) or a derived table `(SELECT ...) alias`.
struct TableRef {
  std::string server;  // linked-server name; empty = local
  std::string name;    // base table name; empty for derived tables
  std::unique_ptr<SelectStmt> derived;
  std::string alias;   // empty = use `name`
};

enum class JoinKind { kInner, kLeftOuter };

struct JoinClause {
  JoinKind kind = JoinKind::kInner;
  TableRef table;
  ExprPtr on;
};

struct SelectItem {
  ExprPtr expr;        // null when star
  std::string alias;   // output name; empty = derived from expr
  bool star = false;
  std::string star_qualifier;  // t.* ; empty for bare *
};

struct OrderByItem {
  ExprPtr expr;
  bool desc = false;
};

struct SelectStmt : Stmt {
  SelectStmt() : Stmt(StmtKind::kSelect) {}
  bool distinct = false;
  int64_t top = -1;  // TOP n; -1 = none
  std::vector<SelectItem> items;
  /// T-SQL scalar assignment form `SELECT @v = expr, ...`: parallel to
  /// `items`; empty strings for non-assigned items. When any entry is set the
  /// statement assigns instead of returning rows.
  std::vector<std::string> into_vars;
  std::vector<TableRef> from;       // comma-list (implicit cross join)
  std::vector<JoinClause> joins;    // explicit JOIN ... ON, left-deep
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderByItem> order_by;
  /// `WITH MAXSTALENESS n` (seconds): the query accepts results up to n
  /// seconds old, so the optimizer may use cached views no staler than that.
  /// -1 = no requirement (any staleness acceptable — the paper's default).
  /// This implements the SQL extension the paper's §7 calls for.
  double max_staleness = -1;
  /// `... UNION ALL SELECT ...` continuation; arities must match.
  std::unique_ptr<SelectStmt> union_next;
};

struct InsertStmt : Stmt {
  InsertStmt() : Stmt(StmtKind::kInsert) {}
  std::string server;  // linked-server qualifier; empty = local
  std::string table;
  std::vector<std::string> columns;  // empty = all, in schema order
  std::vector<std::vector<ExprPtr>> rows;  // VALUES rows
  std::unique_ptr<SelectStmt> select;      // INSERT ... SELECT form
};

struct UpdateStmt : Stmt {
  UpdateStmt() : Stmt(StmtKind::kUpdate) {}
  std::string server;
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> sets;
  ExprPtr where;
};

struct DeleteStmt : Stmt {
  DeleteStmt() : Stmt(StmtKind::kDelete) {}
  std::string server;
  std::string table;
  ExprPtr where;
};

struct ColumnDefAst {
  std::string name;
  TypeId type = TypeId::kInt64;
  bool not_null = false;
  bool primary_key = false;
};

struct CreateTableStmt : Stmt {
  CreateTableStmt() : Stmt(StmtKind::kCreateTable) {}
  std::string table;
  std::vector<ColumnDefAst> columns;
  std::vector<std::string> primary_key;  // table-level PRIMARY KEY (...)
};

struct CreateIndexStmt : Stmt {
  CreateIndexStmt() : Stmt(StmtKind::kCreateIndex) {}
  std::string index;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
};

/// CREATE [CACHED] MATERIALIZED VIEW v AS SELECT <cols> FROM t [WHERE ...].
/// The select is validated (select-project, conjunctive simple predicates)
/// when the statement executes.
struct CreateViewStmt : Stmt {
  CreateViewStmt() : Stmt(StmtKind::kCreateView) {}
  std::string view;
  bool cached = false;
  std::unique_ptr<SelectStmt> select;
};

struct CreateProcedureStmt : Stmt {
  CreateProcedureStmt() : Stmt(StmtKind::kCreateProcedure) {}
  std::string name;
  std::vector<std::pair<std::string, TypeId>> params;
  std::string body_source;  // raw text between BEGIN and matching END
};

enum class DropKind { kTable, kIndex, kView, kProcedure };

/// DROP TABLE t / DROP INDEX i ON t / DROP MATERIALIZED VIEW v /
/// DROP PROCEDURE p.
struct DropStmt : Stmt {
  DropStmt() : Stmt(StmtKind::kDrop) {}
  DropKind what = DropKind::kTable;
  std::string name;
  std::string table;  // for DROP INDEX ... ON table
};

/// GRANT SELECT, INSERT ON t TO user  /  REVOKE ... ON t FROM user.
struct GrantStmt : Stmt {
  GrantStmt() : Stmt(StmtKind::kGrant) {}
  bool grant = true;  // false = REVOKE
  std::vector<std::string> privileges;  // lower-cased keywords
  std::string table;
  std::string user;
};

/// EXPLAIN [ANALYZE] <statement>: returns the optimized physical plan as
/// text. Targets SELECT, INSERT, UPDATE, or DELETE (write-path plans show
/// the access path plus forwarding/maintenance annotations). With ANALYZE
/// the target SELECT is executed and per-operator actuals are reported.
struct ExplainStmt : Stmt {
  ExplainStmt() : Stmt(StmtKind::kExplain) {}
  bool analyze = false;
  StmtPtr target;  // kSelect, kInsert, kUpdate, or kDelete
};

struct ExecStmt : Stmt {
  ExecStmt() : Stmt(StmtKind::kExec) {}
  std::string procedure;
  std::vector<ExprPtr> args;  // positional
};

struct DeclareStmt : Stmt {
  DeclareStmt() : Stmt(StmtKind::kDeclare) {}
  std::string var;  // includes '@'
  TypeId type = TypeId::kInt64;
  ExprPtr init;  // optional
};

struct SetVarStmt : Stmt {
  SetVarStmt() : Stmt(StmtKind::kSetVar) {}
  std::string var;
  ExprPtr value;
};

/// Session option toggle, T-SQL style: `SET STATISTICS PROFILE ON|OFF`.
/// `option` is the lower-cased option name ("statistics profile").
struct SetOptionStmt : Stmt {
  SetOptionStmt() : Stmt(StmtKind::kSetOption) {}
  std::string option;
  bool on = false;
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(StmtKind::kIf) {}
  ExprPtr condition;
  std::vector<StmtPtr> then_branch;
  std::vector<StmtPtr> else_branch;
};

struct WhileStmt : Stmt {
  WhileStmt() : Stmt(StmtKind::kWhile) {}
  ExprPtr condition;
  std::vector<StmtPtr> body;
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(StmtKind::kReturn) {}
};

struct BeginTxnStmt : Stmt {
  BeginTxnStmt() : Stmt(StmtKind::kBeginTxn) {}
};
struct CommitTxnStmt : Stmt {
  CommitTxnStmt() : Stmt(StmtKind::kCommitTxn) {}
};
struct RollbackTxnStmt : Stmt {
  RollbackTxnStmt() : Stmt(StmtKind::kRollbackTxn) {}
};

/// Deep copy of a SELECT statement (used when a view definition is reused).
std::unique_ptr<SelectStmt> CloneSelect(const SelectStmt& stmt);

/// Renders a SELECT back to SQL text that parses to the same statement (the
/// source query of a forwarded INSERT ... SELECT).
std::string SelectToSql(const SelectStmt& stmt);

/// Renders a SELECT, INSERT, UPDATE or DELETE back to SQL text that parses
/// to the same statement: the text a cache forwards a write as, EXPLAIN's
/// note of it, and a procedure statement's sample text. A write's target is
/// rendered without its linked-server qualifier, because the text runs on
/// the server that owns the target. Other kinds render as empty.
std::string StmtToSql(const Stmt& stmt);

}  // namespace mtcache

#endif  // MTCACHE_SQL_AST_H_
