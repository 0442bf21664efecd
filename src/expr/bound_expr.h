#ifndef MTCACHE_EXPR_BOUND_EXPR_H_
#define MTCACHE_EXPR_BOUND_EXPR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "types/value.h"

namespace mtcache {

/// Map of run-time parameter/variable name (with '@') to value.
using ParamMap = std::map<std::string, Value>;

enum class BoundExprKind {
  kLiteral,
  kColumnRef,
  kParam,
  kUnary,
  kBinary,
  kLike,
  kIsNull,
  kFunction,
  kCase,
};

/// Built-in scalar functions.
enum class BuiltinFn { kGetDate, kAbs, kLen, kSubstring, kRound, kCoalesce };

/// A type-checked expression over an input row shape. Column references are
/// resolved to ordinals (the name is kept for unparsing remote SQL). IN and
/// BETWEEN are lowered to OR/AND chains during binding, so they do not appear
/// here. Aggregates never appear in bound scalar expressions either: the
/// binder replaces them with column references into the Aggregate operator's
/// output.
struct BoundExpr {
  BoundExpr(BoundExprKind k, TypeId t) : kind(k), type(t) {}
  virtual ~BoundExpr() = default;
  const BoundExprKind kind;
  TypeId type;
};

using BExprPtr = std::unique_ptr<BoundExpr>;

struct BoundLiteral : BoundExpr {
  explicit BoundLiteral(Value v)
      : BoundExpr(BoundExprKind::kLiteral, v.type()), value(std::move(v)) {}
  Value value;
};

struct BoundColumnRef : BoundExpr {
  BoundColumnRef(int ord, TypeId t, std::string n)
      : BoundExpr(BoundExprKind::kColumnRef, t), ordinal(ord),
        name(std::move(n)) {}
  int ordinal;
  std::string name;  // output name for unparsing; may be qualified
};

struct BoundParam : BoundExpr {
  BoundParam(std::string n, TypeId t)
      : BoundExpr(BoundExprKind::kParam, t), name(std::move(n)) {}
  std::string name;
};

struct BoundUnary : BoundExpr {
  BoundUnary(UnaryOp o, BExprPtr e, TypeId t)
      : BoundExpr(BoundExprKind::kUnary, t), op(o), operand(std::move(e)) {}
  UnaryOp op;
  BExprPtr operand;
};

struct BoundBinary : BoundExpr {
  BoundBinary(BinaryOp o, BExprPtr l, BExprPtr r, TypeId t)
      : BoundExpr(BoundExprKind::kBinary, t), op(o), left(std::move(l)),
        right(std::move(r)) {}
  BinaryOp op;
  BExprPtr left;
  BExprPtr right;
};

struct BoundLike : BoundExpr {
  BoundLike(BExprPtr in, BExprPtr pat, bool neg)
      : BoundExpr(BoundExprKind::kLike, TypeId::kBool), input(std::move(in)),
        pattern(std::move(pat)), negated(neg) {}
  BExprPtr input;
  BExprPtr pattern;
  bool negated;
};

struct BoundIsNull : BoundExpr {
  BoundIsNull(BExprPtr in, bool neg)
      : BoundExpr(BoundExprKind::kIsNull, TypeId::kBool), input(std::move(in)),
        negated(neg) {}
  BExprPtr input;
  bool negated;
};

struct BoundFunction : BoundExpr {
  BoundFunction(BuiltinFn f, std::vector<BExprPtr> a, TypeId t)
      : BoundExpr(BoundExprKind::kFunction, t), fn(f), args(std::move(a)) {}
  BuiltinFn fn;
  std::vector<BExprPtr> args;
};

/// Searched CASE after binding: simple CASE is lowered to comparisons by the
/// binder, so `whens` are boolean conditions here.
struct BoundCase : BoundExpr {
  BoundCase(std::vector<std::pair<BExprPtr, BExprPtr>> b, BExprPtr e, TypeId t)
      : BoundExpr(BoundExprKind::kCase, t), branches(std::move(b)),
        else_expr(std::move(e)) {}
  std::vector<std::pair<BExprPtr, BExprPtr>> branches;
  BExprPtr else_expr;  // null -> NULL
};

/// Deep copy.
BExprPtr CloneBound(const BoundExpr& expr);

/// Evaluation context: parameter values plus the engine's notion of now
/// (GETDATE on a simulated clock).
struct EvalContext {
  const ParamMap* params = nullptr;
  double current_time = 0;
};

/// Evaluates against an input row (may be null for row-free expressions).
/// SQL three-valued logic: unknown is represented as a NULL value.
StatusOr<Value> EvalBound(const BoundExpr& expr, const Row* row,
                          const EvalContext& ctx);

/// True iff the expression evaluated to non-NULL TRUE (filter semantics).
StatusOr<bool> EvalPredicate(const BoundExpr& expr, const Row* row,
                             const EvalContext& ctx);

/// Batch filter evaluation: sets (*keep)[i] to 1 iff `expr` evaluates to
/// non-NULL TRUE on *rows[i], exactly as EvalPredicate would. The predicate
/// is split into conjuncts once per batch. A <column> cmp <row-free expr>
/// conjunct evaluates its row-free side once and then tests each row's cell
/// where it sits, in one loop chosen per batch by (column type, constant
/// type, operator): int64 against int64 as integers, any other numeric pair
/// in Value::Compare's double probe form (NaN compares equal), strings as
/// string_views. A cell whose type tag differs from the column's goes
/// through Value::Compare in the same loop. A NULL cell is unknown, and a
/// NULL row-free side rejects the whole batch without touching a row.
/// <column> [NOT] LIKE <row-free pattern> matches each stored string in
/// place; any other conjunct runs EvalPredicate on the rows still alive.
Status EvalPredicateBatch(const BoundExpr& expr, const Row* const* rows,
                          size_t n, const EvalContext& ctx,
                          std::vector<char>* keep);

// ---------------------------------------------------------------------------
// Analysis utilities (used by the optimizer)
// ---------------------------------------------------------------------------

/// Splits an AND tree into conjuncts (pointers into the expression).
void CollectConjuncts(const BoundExpr& expr,
                      std::vector<const BoundExpr*>* out);

/// Rebuilds an AND tree from cloned conjuncts; returns null for empty input.
BExprPtr AndTogether(std::vector<BExprPtr> conjuncts);

/// Records every column ordinal referenced.
void CollectColumnRefs(const BoundExpr& expr, std::vector<int>* ordinals);

/// True if no column references appear (literals/params/functions only);
/// such predicates can serve as ChoosePlan guards / startup predicates.
bool IsRowFree(const BoundExpr& expr);

/// True if any run-time parameter appears.
bool HasParam(const BoundExpr& expr);

/// Adds `delta` to every column ordinal (join input re-rooting).
void ShiftColumnRefs(BoundExpr* expr, int delta);

/// Remaps column ordinals through `mapping` (old ordinal -> new ordinal);
/// returns false if an ordinal has no mapping (mapping[i] < 0).
bool RemapColumnRefs(BoundExpr* expr, const std::vector<int>& mapping);

/// Names the column at an input ordinal when rendering SQL.
using ColumnNamer = std::function<std::string(int ordinal)>;

/// Renders bound expressions back to SQL (remote shipping / EXPLAIN). Column
/// references print `namer(ordinal)` when a namer is given (the unparser's
/// derived-table aliases), else their stored (possibly qualified) name.
std::string BoundToSql(const BoundExpr& expr,
                       const ColumnNamer& namer = nullptr);

/// Structural equality (used to match GROUP BY items and aggregates).
bool BoundEquals(const BoundExpr& a, const BoundExpr& b);

}  // namespace mtcache

#endif  // MTCACHE_EXPR_BOUND_EXPR_H_
