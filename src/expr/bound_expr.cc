#include "expr/bound_expr.h"

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/string_util.h"
#include "expr/vector_kernels.h"

namespace mtcache {

BExprPtr CloneBound(const BoundExpr& expr) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral: {
      const auto& e = static_cast<const BoundLiteral&>(expr);
      return std::make_unique<BoundLiteral>(e.value);
    }
    case BoundExprKind::kColumnRef: {
      const auto& e = static_cast<const BoundColumnRef&>(expr);
      return std::make_unique<BoundColumnRef>(e.ordinal, e.type, e.name);
    }
    case BoundExprKind::kParam: {
      const auto& e = static_cast<const BoundParam&>(expr);
      return std::make_unique<BoundParam>(e.name, e.type);
    }
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(expr);
      return std::make_unique<BoundUnary>(e.op, CloneBound(*e.operand), e.type);
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      return std::make_unique<BoundBinary>(e.op, CloneBound(*e.left),
                                           CloneBound(*e.right), e.type);
    }
    case BoundExprKind::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      return std::make_unique<BoundLike>(CloneBound(*e.input),
                                         CloneBound(*e.pattern), e.negated);
    }
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(expr);
      return std::make_unique<BoundIsNull>(CloneBound(*e.input), e.negated);
    }
    case BoundExprKind::kFunction: {
      const auto& e = static_cast<const BoundFunction&>(expr);
      std::vector<BExprPtr> args;
      for (const auto& a : e.args) args.push_back(CloneBound(*a));
      return std::make_unique<BoundFunction>(e.fn, std::move(args), e.type);
    }
    case BoundExprKind::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      std::vector<std::pair<BExprPtr, BExprPtr>> branches;
      for (const auto& [when, then] : e.branches) {
        branches.emplace_back(CloneBound(*when), CloneBound(*then));
      }
      return std::make_unique<BoundCase>(
          std::move(branches),
          e.else_expr ? CloneBound(*e.else_expr) : nullptr, e.type);
    }
  }
  return nullptr;
}

namespace {

Status IntOverflow() {
  return Status::OutOfRange(
      "arithmetic overflow: result exceeds the int64 range");
}

// Arithmetic with numeric promotion; NULL-in -> NULL-out.
StatusOr<Value> EvalArith(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  bool use_double =
      l.type() == TypeId::kDouble || r.type() == TypeId::kDouble;
  if (use_double) {
    double a = l.AsDouble();
    double b = r.AsDouble();
    switch (op) {
      case BinaryOp::kAdd: return Value::Double(a + b);
      case BinaryOp::kSub: return Value::Double(a - b);
      case BinaryOp::kMul: return Value::Double(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Double(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("division by zero");
        return Value::Double(std::fmod(a, b));
      default:
        break;
    }
  } else {
    // Checked: a result outside int64 fails the statement, as SUM does.
    int64_t a = l.AsInt();
    int64_t b = r.AsInt();
    int64_t out = 0;
    bool overflow = false;
    switch (op) {
      case BinaryOp::kAdd: overflow = __builtin_add_overflow(a, b, &out); break;
      case BinaryOp::kSub: overflow = __builtin_sub_overflow(a, b, &out); break;
      case BinaryOp::kMul: overflow = __builtin_mul_overflow(a, b, &out); break;
      case BinaryOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        // INT64_MIN / -1 is the one quotient int64 cannot hold.
        overflow = b == -1 && a == INT64_MIN;
        if (!overflow) out = a / b;
        break;
      case BinaryOp::kMod:
        if (b == 0) return Status::InvalidArgument("division by zero");
        // Any remainder of division by -1 is 0; INT64_MIN % -1 would trap.
        out = b == -1 ? 0 : a % b;
        break;
      default:
        return Status::Internal("non-arithmetic op in EvalArith");
    }
    if (overflow) return IntOverflow();
    return Value::Int(out);
  }
  return Status::Internal("non-arithmetic op in EvalArith");
}

// Comparison with SQL NULL semantics (NULL compare -> NULL).
Value EvalCompare(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::TypedNull(TypeId::kBool);
  return Value::Bool(ComparePasses(op, l.Compare(r)));
}

// Three-valued AND/OR.
Value EvalLogic(BinaryOp op, const Value& l, const Value& r) {
  auto truth = [](const Value& v) -> int {
    if (v.is_null()) return -1;  // unknown
    return v.AsBool() ? 1 : 0;
  };
  int a = truth(l);
  int b = truth(r);
  if (op == BinaryOp::kAnd) {
    if (a == 0 || b == 0) return Value::Bool(false);
    if (a == 1 && b == 1) return Value::Bool(true);
    return Value::TypedNull(TypeId::kBool);
  }
  // OR
  if (a == 1 || b == 1) return Value::Bool(true);
  if (a == 0 && b == 0) return Value::Bool(false);
  return Value::TypedNull(TypeId::kBool);
}

// Evaluates `expr` like EvalBound, but a column ref, literal or parameter
// yields a pointer to the stored value instead of a copy; anything else is
// evaluated into `*storage`. The result lives as long as `row`, `expr`,
// `ctx.params` and `storage`.
StatusOr<const Value*> EvalRef(const BoundExpr& expr, const Row* row,
                               const EvalContext& ctx, Value* storage) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return &static_cast<const BoundLiteral&>(expr).value;
    case BoundExprKind::kColumnRef: {
      int ordinal = static_cast<const BoundColumnRef&>(expr).ordinal;
      if (row != nullptr && ordinal >= 0 &&
          ordinal < static_cast<int>(row->size())) {
        return &(*row)[ordinal];
      }
      break;  // EvalBound reports the error
    }
    case BoundExprKind::kParam:
      if (ctx.params != nullptr) {
        auto it = ctx.params->find(static_cast<const BoundParam&>(expr).name);
        if (it != ctx.params->end()) return &it->second;
      }
      break;
    default:
      break;
  }
  MT_ASSIGN_OR_RETURN(*storage, EvalBound(expr, row, ctx));
  return storage;
}

// LIKE operand text: a string's own bytes; any other value rendered into
// `*storage`.
std::string_view LikeText(const Value& v, std::string* storage) {
  if (v.type() == TypeId::kString) return v.AsString();
  *storage = v.ToString();
  return *storage;
}

}  // namespace

StatusOr<Value> EvalBound(const BoundExpr& expr, const Row* row,
                          const EvalContext& ctx) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return static_cast<const BoundLiteral&>(expr).value;
    case BoundExprKind::kColumnRef: {
      const auto& e = static_cast<const BoundColumnRef&>(expr);
      if (row == nullptr || e.ordinal >= static_cast<int>(row->size())) {
        return Status::Internal("column reference without a row (ordinal " +
                                std::to_string(e.ordinal) + ")");
      }
      return (*row)[e.ordinal];
    }
    case BoundExprKind::kParam: {
      const auto& e = static_cast<const BoundParam&>(expr);
      if (ctx.params == nullptr) {
        return Status::InvalidArgument("no parameters supplied for " + e.name);
      }
      auto it = ctx.params->find(e.name);
      if (it == ctx.params->end()) {
        return Status::InvalidArgument("missing parameter " + e.name);
      }
      return it->second;
    }
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(expr);
      MT_ASSIGN_OR_RETURN(Value v, EvalBound(*e.operand, row, ctx));
      if (e.op == UnaryOp::kNeg) {
        if (v.is_null()) return Value::Null();
        if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
        if (v.AsInt() == INT64_MIN) return IntOverflow();
        return Value::Int(-v.AsInt());
      }
      // NOT with three-valued logic.
      if (v.is_null()) return Value::TypedNull(TypeId::kBool);
      return Value::Bool(!v.AsBool());
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      MT_ASSIGN_OR_RETURN(Value l, EvalBound(*e.left, row, ctx));
      MT_ASSIGN_OR_RETURN(Value r, EvalBound(*e.right, row, ctx));
      switch (e.op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod: {
          // String concatenation via '+'.
          if (e.op == BinaryOp::kAdd && (l.type() == TypeId::kString ||
                                         r.type() == TypeId::kString)) {
            if (l.is_null() || r.is_null()) return Value::Null();
            return Value::String(l.ToString() + r.ToString());
          }
          return EvalArith(e.op, l, r);
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return EvalCompare(e.op, l, r);
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          return EvalLogic(e.op, l, r);
      }
      return Status::Internal("unhandled binary op");
    }
    case BoundExprKind::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      Value v_storage;
      Value p_storage;
      MT_ASSIGN_OR_RETURN(const Value* v,
                          EvalRef(*e.input, row, ctx, &v_storage));
      MT_ASSIGN_OR_RETURN(const Value* p,
                          EvalRef(*e.pattern, row, ctx, &p_storage));
      if (v->is_null() || p->is_null()) {
        return Value::TypedNull(TypeId::kBool);
      }
      std::string v_text;
      std::string p_text;
      bool match = LikeMatch(LikeText(*v, &v_text), LikeText(*p, &p_text));
      return Value::Bool(e.negated ? !match : match);
    }
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(expr);
      MT_ASSIGN_OR_RETURN(Value v, EvalBound(*e.input, row, ctx));
      bool isnull = v.is_null();
      return Value::Bool(e.negated ? !isnull : isnull);
    }
    case BoundExprKind::kFunction: {
      const auto& e = static_cast<const BoundFunction&>(expr);
      std::vector<Value> args;
      for (const auto& a : e.args) {
        MT_ASSIGN_OR_RETURN(Value v, EvalBound(*a, row, ctx));
        args.push_back(std::move(v));
      }
      switch (e.fn) {
        case BuiltinFn::kGetDate:
          return Value::Int(static_cast<int64_t>(ctx.current_time));
        case BuiltinFn::kAbs:
          if (args[0].is_null()) return Value::Null();
          if (args[0].type() == TypeId::kDouble) {
            return Value::Double(std::fabs(args[0].AsDouble()));
          }
          if (args[0].AsInt() == INT64_MIN) return IntOverflow();
          return Value::Int(std::llabs(args[0].AsInt()));
        case BuiltinFn::kLen:
          if (args[0].is_null()) return Value::Null();
          return Value::Int(static_cast<int64_t>(args[0].ToString().size()));
        case BuiltinFn::kSubstring: {
          if (args[0].is_null()) return Value::Null();
          std::string s = args[0].ToString();
          int64_t start = args[1].AsInt();  // 1-based, per T-SQL
          int64_t len = args[2].AsInt();
          if (start < 1) start = 1;
          if (start > static_cast<int64_t>(s.size())) return Value::String("");
          return Value::String(s.substr(start - 1, len));
        }
        case BuiltinFn::kRound: {
          if (args[0].is_null()) return Value::Null();
          double scale = args.size() > 1 ? std::pow(10, args[1].AsInt()) : 1;
          return Value::Double(std::round(args[0].AsDouble() * scale) / scale);
        }
        case BuiltinFn::kCoalesce: {
          for (const Value& v : args) {
            if (!v.is_null()) return v;
          }
          return Value::Null();
        }
      }
      return Status::Internal("unhandled builtin");
    }
    case BoundExprKind::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      for (const auto& [when, then] : e.branches) {
        MT_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*when, row, ctx));
        if (pass) return EvalBound(*then, row, ctx);
      }
      if (e.else_expr != nullptr) return EvalBound(*e.else_expr, row, ctx);
      return Value::TypedNull(e.type);
    }
  }
  return Status::Internal("unhandled bound expr kind");
}

StatusOr<bool> EvalPredicate(const BoundExpr& expr, const Row* row,
                             const EvalContext& ctx) {
  MT_ASSIGN_OR_RETURN(Value v, EvalBound(expr, row, ctx));
  return !v.is_null() && v.AsBool();
}

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt64 || t == TypeId::kDouble;
}

// Value::Compare's verdict for a cell off the typed path, kept out of line
// so the per-row loop stays small. A NULL cell is unknown and fails.
[[gnu::noinline]] bool ComparesTrue(const Value& v, BinaryOp op,
                                    const Value& rhs) {
  return !v.is_null() && ComparePasses(op, v.Compare(rhs));
}

// keep[i] &= (cell i cmp rhs) over the cells at `ordinal`, read in place. A
// non-NULL cell tagged `tag` is tested by `holds` on its payload as `read`
// gives it, any other cell by ComparesTrue. `rhs` is non-NULL.
template <typename Read, typename Holds>
void FilterCells(const Row* const* rows, size_t n, int ordinal, TypeId tag,
                 BinaryOp op, const Value& rhs, char* keep, Read read,
                 Holds holds) {
  ForEachCell(rows, n, ordinal, [&](size_t i, const Value& v) {
    const bool pass = v.type() == tag && !v.is_null()
                          ? holds(read(v))
                          : ComparesTrue(v, op, rhs);
    keep[i] = static_cast<char>(keep[i] & pass);
  });
}

// FilterCells with the comparison for `op` against `r`. Doubles compare in
// Value::Compare's probe form (`<`, then `>`, else equal), so a NaN on
// either side compares equal to everything.
template <typename T, typename Read>
void FilterByOp(const Row* const* rows, size_t n, int ordinal, TypeId tag,
                BinaryOp op, const Value& rhs, char* keep, Read read, T r) {
  constexpr bool kProbe = std::is_floating_point_v<T>;
  auto run = [&](auto holds) {
    FilterCells(rows, n, ordinal, tag, op, rhs, keep, read, holds);
  };
  switch (op) {
    case BinaryOp::kEq:
      if constexpr (kProbe) {
        run([r](T x) { return !(x < r) & !(x > r); });
      } else {
        run([r](T x) { return x == r; });
      }
      break;
    case BinaryOp::kNe:
      if constexpr (kProbe) {
        run([r](T x) { return (x < r) | (x > r); });
      } else {
        run([r](T x) { return x != r; });
      }
      break;
    case BinaryOp::kLt:
      run([r](T x) { return x < r; });
      break;
    case BinaryOp::kLe:
      run([r](T x) { return !(x > r); });
      break;
    case BinaryOp::kGt:
      run([r](T x) { return x > r; });
      break;
    case BinaryOp::kGe:
      run([r](T x) { return !(x < r); });
      break;
    default:
      break;
  }
}

// keep[i] &= (cell cmp rhs) for the column at `ordinal` bound as `type`,
// with the loop chosen once by (type, rhs type, op).
void FilterCompare(const Row* const* rows, size_t n, int ordinal, TypeId type,
                   BinaryOp op, const Value& rhs, char* keep) {
  if (type == TypeId::kInt64 && rhs.type() == TypeId::kInt64) {
    FilterByOp(rows, n, ordinal, type, op, rhs, keep,
               [](const Value& v) { return v.AsInt(); }, rhs.AsInt());
  } else if (IsNumeric(type) && IsNumeric(rhs.type())) {
    FilterByOp(rows, n, ordinal, type, op, rhs, keep,
               [](const Value& v) { return v.AsDouble(); }, rhs.AsDouble());
  } else if (type == TypeId::kString && rhs.type() == TypeId::kString) {
    FilterByOp(rows, n, ordinal, type, op, rhs, keep,
               [](const Value& v) { return v.AsString(); }, rhs.AsString());
  } else {
    // An incomparable pairing: no non-NULL cell is tagged kNull, so every
    // cell goes through Value::Compare.
    FilterCells(rows, n, ordinal, TypeId::kNull, op, rhs, keep,
                [](const Value&) { return 0; }, [](int) { return false; });
  }
}

}  // namespace

Status EvalPredicateBatch(const BoundExpr& expr, const Row* const* rows,
                          size_t n, const EvalContext& ctx,
                          std::vector<char>* keep) {
  keep->assign(n, 1);
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(expr, &conjuncts);
  for (const BoundExpr* conjunct : conjuncts) {
    // Fast shape: <column> cmp <row-free expr> (either operand order).
    // SQL NULL semantics are preserved explicitly: a NULL on either side
    // makes the comparison unknown, which a filter treats as rejection
    // (Value::Compare alone would call NULL == NULL a match).
    if (conjunct->kind == BoundExprKind::kBinary) {
      const auto& bin = static_cast<const BoundBinary&>(*conjunct);
      if (IsCompareOp(bin.op)) {
        const BoundExpr* col = nullptr;
        const BoundExpr* free_side = nullptr;
        BinaryOp op = bin.op;
        if (bin.left->kind == BoundExprKind::kColumnRef &&
            IsRowFree(*bin.right)) {
          col = bin.left.get();
          free_side = bin.right.get();
        } else if (bin.right->kind == BoundExprKind::kColumnRef &&
                   IsRowFree(*bin.left)) {
          col = bin.right.get();
          free_side = bin.left.get();
          op = FlipCompare(op);
        }
        if (col != nullptr) {
          MT_ASSIGN_OR_RETURN(Value rhs, EvalBound(*free_side, nullptr, ctx));
          if (rhs.is_null()) {
            // cmp NULL is unknown for every row: nothing in the batch passes.
            keep->assign(n, 0);
            return Status::Ok();
          }
          const auto& col_ref = static_cast<const BoundColumnRef&>(*col);
          FilterCompare(rows, n, col_ref.ordinal, col_ref.type, op, rhs,
                        keep->data());
          continue;
        }
      }
    }
    // Fast shape: <column> [NOT] LIKE <row-free pattern>. The pattern is
    // evaluated and classified once per batch and matched against each
    // row's stored string in place; a NULL on either side is unknown, which
    // rejects the row.
    if (conjunct->kind == BoundExprKind::kLike) {
      const auto& like = static_cast<const BoundLike&>(*conjunct);
      if (like.input->kind == BoundExprKind::kColumnRef &&
          IsRowFree(*like.pattern)) {
        MT_ASSIGN_OR_RETURN(Value p, EvalBound(*like.pattern, nullptr, ctx));
        if (p.is_null()) {
          keep->assign(n, 0);
          return Status::Ok();
        }
        std::string p_text;
        const LikePattern pattern(LikeText(p, &p_text));
        const int ordinal =
            static_cast<const BoundColumnRef&>(*like.input).ordinal;
        std::string v_text;
        for (size_t i = 0; i < n; ++i) {
          if (!(*keep)[i]) continue;
          if (ordinal < 0 || ordinal >= static_cast<int>(rows[i]->size())) {
            return Status::Internal("column reference without a row (ordinal " +
                                    std::to_string(ordinal) + ")");
          }
          const Value& v = (*rows[i])[ordinal];
          if (v.is_null() ||
              pattern.Matches(LikeText(v, &v_text)) == like.negated) {
            (*keep)[i] = 0;
          }
        }
        continue;
      }
    }
    // General conjunct: per-row evaluation on the rows still alive. AND of
    // conjuncts is TRUE iff every conjunct is TRUE, so conjunct-wise
    // filtering matches EvalPredicate over the whole tree.
    for (size_t i = 0; i < n; ++i) {
      if (!(*keep)[i]) continue;
      MT_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*conjunct, rows[i], ctx));
      if (!pass) (*keep)[i] = 0;
    }
  }
  return Status::Ok();
}

void CollectConjuncts(const BoundExpr& expr,
                      std::vector<const BoundExpr*>* out) {
  if (expr.kind == BoundExprKind::kBinary) {
    const auto& e = static_cast<const BoundBinary&>(expr);
    if (e.op == BinaryOp::kAnd) {
      CollectConjuncts(*e.left, out);
      CollectConjuncts(*e.right, out);
      return;
    }
  }
  out->push_back(&expr);
}

BExprPtr AndTogether(std::vector<BExprPtr> conjuncts) {
  BExprPtr result;
  for (auto& c : conjuncts) {
    if (!result) {
      result = std::move(c);
    } else {
      result = std::make_unique<BoundBinary>(BinaryOp::kAnd, std::move(result),
                                             std::move(c), TypeId::kBool);
    }
  }
  return result;
}

namespace {

template <typename Fn>
void VisitBound(const BoundExpr& expr, Fn&& fn) {
  fn(expr);
  switch (expr.kind) {
    case BoundExprKind::kUnary:
      VisitBound(*static_cast<const BoundUnary&>(expr).operand, fn);
      break;
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      VisitBound(*e.left, fn);
      VisitBound(*e.right, fn);
      break;
    }
    case BoundExprKind::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      VisitBound(*e.input, fn);
      VisitBound(*e.pattern, fn);
      break;
    }
    case BoundExprKind::kIsNull:
      VisitBound(*static_cast<const BoundIsNull&>(expr).input, fn);
      break;
    case BoundExprKind::kFunction:
      for (const auto& a : static_cast<const BoundFunction&>(expr).args) {
        VisitBound(*a, fn);
      }
      break;
    case BoundExprKind::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      for (const auto& [when, then] : e.branches) {
        VisitBound(*when, fn);
        VisitBound(*then, fn);
      }
      if (e.else_expr != nullptr) VisitBound(*e.else_expr, fn);
      break;
    }
    default:
      break;
  }
}

template <typename Fn>
void VisitBoundMutable(BoundExpr* expr, Fn&& fn) {
  fn(expr);
  switch (expr->kind) {
    case BoundExprKind::kUnary:
      VisitBoundMutable(static_cast<BoundUnary*>(expr)->operand.get(), fn);
      break;
    case BoundExprKind::kBinary: {
      auto* e = static_cast<BoundBinary*>(expr);
      VisitBoundMutable(e->left.get(), fn);
      VisitBoundMutable(e->right.get(), fn);
      break;
    }
    case BoundExprKind::kLike: {
      auto* e = static_cast<BoundLike*>(expr);
      VisitBoundMutable(e->input.get(), fn);
      VisitBoundMutable(e->pattern.get(), fn);
      break;
    }
    case BoundExprKind::kIsNull:
      VisitBoundMutable(static_cast<BoundIsNull*>(expr)->input.get(), fn);
      break;
    case BoundExprKind::kFunction:
      for (auto& a : static_cast<BoundFunction*>(expr)->args) {
        VisitBoundMutable(a.get(), fn);
      }
      break;
    case BoundExprKind::kCase: {
      auto* e = static_cast<BoundCase*>(expr);
      for (auto& [when, then] : e->branches) {
        VisitBoundMutable(when.get(), fn);
        VisitBoundMutable(then.get(), fn);
      }
      if (e->else_expr != nullptr) VisitBoundMutable(e->else_expr.get(), fn);
      break;
    }
    default:
      break;
  }
}

}  // namespace

void CollectColumnRefs(const BoundExpr& expr, std::vector<int>* ordinals) {
  VisitBound(expr, [&](const BoundExpr& e) {
    if (e.kind == BoundExprKind::kColumnRef) {
      ordinals->push_back(static_cast<const BoundColumnRef&>(e).ordinal);
    }
  });
}

bool IsRowFree(const BoundExpr& expr) {
  std::vector<int> refs;
  CollectColumnRefs(expr, &refs);
  return refs.empty();
}

bool HasParam(const BoundExpr& expr) {
  bool found = false;
  VisitBound(expr, [&](const BoundExpr& e) {
    if (e.kind == BoundExprKind::kParam) found = true;
  });
  return found;
}

void ShiftColumnRefs(BoundExpr* expr, int delta) {
  VisitBoundMutable(expr, [&](BoundExpr* e) {
    if (e->kind == BoundExprKind::kColumnRef) {
      static_cast<BoundColumnRef*>(e)->ordinal += delta;
    }
  });
}

bool RemapColumnRefs(BoundExpr* expr, const std::vector<int>& mapping) {
  bool ok = true;
  VisitBoundMutable(expr, [&](BoundExpr* e) {
    if (e->kind == BoundExprKind::kColumnRef) {
      auto* ref = static_cast<BoundColumnRef*>(e);
      if (ref->ordinal < 0 || ref->ordinal >= static_cast<int>(mapping.size()) ||
          mapping[ref->ordinal] < 0) {
        ok = false;
      } else {
        ref->ordinal = mapping[ref->ordinal];
      }
    }
  });
  return ok;
}

std::string BoundToSql(const BoundExpr& expr, const ColumnNamer& namer) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return static_cast<const BoundLiteral&>(expr).value.ToSqlLiteral();
    case BoundExprKind::kColumnRef: {
      const auto& e = static_cast<const BoundColumnRef&>(expr);
      return namer ? namer(e.ordinal) : e.name;
    }
    case BoundExprKind::kParam:
      return static_cast<const BoundParam&>(expr).name;
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(expr);
      return (e.op == UnaryOp::kNot ? "NOT (" : "-(") +
             BoundToSql(*e.operand, namer) + ")";
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      const char* sym = "?";
      switch (e.op) {
        case BinaryOp::kAdd: sym = "+"; break;
        case BinaryOp::kSub: sym = "-"; break;
        case BinaryOp::kMul: sym = "*"; break;
        case BinaryOp::kDiv: sym = "/"; break;
        case BinaryOp::kMod: sym = "%"; break;
        case BinaryOp::kEq: sym = "="; break;
        case BinaryOp::kNe: sym = "<>"; break;
        case BinaryOp::kLt: sym = "<"; break;
        case BinaryOp::kLe: sym = "<="; break;
        case BinaryOp::kGt: sym = ">"; break;
        case BinaryOp::kGe: sym = ">="; break;
        case BinaryOp::kAnd: sym = "AND"; break;
        case BinaryOp::kOr: sym = "OR"; break;
      }
      return "(" + BoundToSql(*e.left, namer) + " " + sym + " " +
             BoundToSql(*e.right, namer) + ")";
    }
    case BoundExprKind::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      return "(" + BoundToSql(*e.input, namer) +
             (e.negated ? " NOT LIKE " : " LIKE ") +
             BoundToSql(*e.pattern, namer) + ")";
    }
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(expr);
      return "(" + BoundToSql(*e.input, namer) +
             (e.negated ? " IS NOT NULL)" : " IS NULL)");
    }
    case BoundExprKind::kFunction: {
      const auto& e = static_cast<const BoundFunction&>(expr);
      const char* name = "?";
      switch (e.fn) {
        case BuiltinFn::kGetDate: name = "GETDATE"; break;
        case BuiltinFn::kAbs: name = "ABS"; break;
        case BuiltinFn::kLen: name = "LEN"; break;
        case BuiltinFn::kSubstring: name = "SUBSTRING"; break;
        case BuiltinFn::kRound: name = "ROUND"; break;
        case BuiltinFn::kCoalesce: name = "COALESCE"; break;
      }
      std::string out = std::string(name) + "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += BoundToSql(*e.args[i], namer);
      }
      out += ")";
      return out;
    }
    case BoundExprKind::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      std::string out = "CASE";
      for (const auto& [when, then] : e.branches) {
        out += " WHEN " + BoundToSql(*when, namer) + " THEN " +
               BoundToSql(*then, namer);
      }
      if (e.else_expr != nullptr) {
        out += " ELSE " + BoundToSql(*e.else_expr, namer);
      }
      out += " END";
      return out;
    }
  }
  return "?";
}

bool BoundEquals(const BoundExpr& a, const BoundExpr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case BoundExprKind::kLiteral:
      return static_cast<const BoundLiteral&>(a).value ==
             static_cast<const BoundLiteral&>(b).value;
    case BoundExprKind::kColumnRef:
      return static_cast<const BoundColumnRef&>(a).ordinal ==
             static_cast<const BoundColumnRef&>(b).ordinal;
    case BoundExprKind::kParam:
      return static_cast<const BoundParam&>(a).name ==
             static_cast<const BoundParam&>(b).name;
    case BoundExprKind::kUnary: {
      const auto& ea = static_cast<const BoundUnary&>(a);
      const auto& eb = static_cast<const BoundUnary&>(b);
      return ea.op == eb.op && BoundEquals(*ea.operand, *eb.operand);
    }
    case BoundExprKind::kBinary: {
      const auto& ea = static_cast<const BoundBinary&>(a);
      const auto& eb = static_cast<const BoundBinary&>(b);
      return ea.op == eb.op && BoundEquals(*ea.left, *eb.left) &&
             BoundEquals(*ea.right, *eb.right);
    }
    case BoundExprKind::kLike: {
      const auto& ea = static_cast<const BoundLike&>(a);
      const auto& eb = static_cast<const BoundLike&>(b);
      return ea.negated == eb.negated && BoundEquals(*ea.input, *eb.input) &&
             BoundEquals(*ea.pattern, *eb.pattern);
    }
    case BoundExprKind::kIsNull: {
      const auto& ea = static_cast<const BoundIsNull&>(a);
      const auto& eb = static_cast<const BoundIsNull&>(b);
      return ea.negated == eb.negated && BoundEquals(*ea.input, *eb.input);
    }
    case BoundExprKind::kFunction: {
      const auto& ea = static_cast<const BoundFunction&>(a);
      const auto& eb = static_cast<const BoundFunction&>(b);
      if (ea.fn != eb.fn || ea.args.size() != eb.args.size()) return false;
      for (size_t i = 0; i < ea.args.size(); ++i) {
        if (!BoundEquals(*ea.args[i], *eb.args[i])) return false;
      }
      return true;
    }
    case BoundExprKind::kCase: {
      const auto& ea = static_cast<const BoundCase&>(a);
      const auto& eb = static_cast<const BoundCase&>(b);
      if (ea.branches.size() != eb.branches.size()) return false;
      for (size_t i = 0; i < ea.branches.size(); ++i) {
        if (!BoundEquals(*ea.branches[i].first, *eb.branches[i].first) ||
            !BoundEquals(*ea.branches[i].second, *eb.branches[i].second)) {
          return false;
        }
      }
      if ((ea.else_expr == nullptr) != (eb.else_expr == nullptr)) return false;
      return ea.else_expr == nullptr ||
             BoundEquals(*ea.else_expr, *eb.else_expr);
    }
  }
  return false;
}

}  // namespace mtcache
