#include "opt/view_matching.h"

#include <map>
#include <optional>

#include "common/trace.h"
#include "opt/cardinality.h"

namespace mtcache {

bool ExtractSimpleConjunct(const BoundExpr& conjunct, SimpleConjunct* out) {
  if (conjunct.kind != BoundExprKind::kBinary) return false;
  const auto& e = static_cast<const BoundBinary&>(conjunct);
  CompareOp op;
  switch (e.op) {
    case BinaryOp::kEq: op = CompareOp::kEq; break;
    case BinaryOp::kNe: op = CompareOp::kNe; break;
    case BinaryOp::kLt: op = CompareOp::kLt; break;
    case BinaryOp::kLe: op = CompareOp::kLe; break;
    case BinaryOp::kGt: op = CompareOp::kGt; break;
    case BinaryOp::kGe: op = CompareOp::kGe; break;
    default:
      return false;
  }
  const BoundExpr* l = e.left.get();
  const BoundExpr* r = e.right.get();
  if (l->kind != BoundExprKind::kColumnRef &&
      r->kind == BoundExprKind::kColumnRef) {
    std::swap(l, r);
    op = FlipCompareOp(op);
  }
  if (l->kind != BoundExprKind::kColumnRef) return false;
  out->column = static_cast<const BoundColumnRef&>(*l).ordinal;
  out->op = op;
  out->source = &conjunct;
  if (r->kind == BoundExprKind::kLiteral) {
    out->rhs_is_param = false;
    out->literal = static_cast<const BoundLiteral&>(*r).value;
    return true;
  }
  if (r->kind == BoundExprKind::kParam) {
    out->rhs_is_param = true;
    out->param_name = static_cast<const BoundParam&>(*r).name;
    return true;
  }
  return false;
}

namespace {

bool IsUpper(CompareOp op) { return op == CompareOp::kLt || op == CompareOp::kLe; }
bool IsLower(CompareOp op) { return op == CompareOp::kGt || op == CompareOp::kGe; }

// Does `col qc_op a` imply `col vp_op b`?
bool LiteralImplies(CompareOp qc_op, const Value& a, CompareOp vp_op,
                    const Value& b) {
  if (qc_op == CompareOp::kEq) {
    SimplePredicate vp{"", vp_op, b};
    return vp.Matches(a);
  }
  int c = a.Compare(b);
  if (IsUpper(qc_op) && IsUpper(vp_op)) {
    return c < 0 || (c == 0 && (qc_op == CompareOp::kLt || vp_op == CompareOp::kLe));
  }
  if (IsLower(qc_op) && IsLower(vp_op)) {
    return c > 0 || (c == 0 && (qc_op == CompareOp::kGt || vp_op == CompareOp::kGe));
  }
  if (vp_op == CompareOp::kNe) {
    // The query region must exclude b.
    if (IsUpper(qc_op)) return c < 0 ? false : (c > 0 || qc_op == CompareOp::kLt);
    if (IsLower(qc_op)) return c > 0 ? false : (c < 0 || qc_op == CompareOp::kGt);
  }
  return false;
}

// For `col qc_op @p` to imply `col vp_op b`, which predicate must @p satisfy?
// Returns the comparison op for `@p guard_op b`, or nullopt.
std::optional<CompareOp> GuardOpFor(CompareOp qc_op, CompareOp vp_op) {
  if (qc_op == CompareOp::kEq) return vp_op;  // @p must itself satisfy vp
  if (IsUpper(qc_op) && IsUpper(vp_op)) {
    // (-inf, @p] subset of (-inf, b] <=> @p <= b (strictness conservative).
    return (qc_op == CompareOp::kLe && vp_op == CompareOp::kLt) ? CompareOp::kLt
                                                                : CompareOp::kLe;
  }
  if (IsLower(qc_op) && IsLower(vp_op)) {
    return (qc_op == CompareOp::kGe && vp_op == CompareOp::kGt) ? CompareOp::kGt
                                                                : CompareOp::kGe;
  }
  return std::nullopt;
}

BinaryOp ToBinaryOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return BinaryOp::kEq;
    case CompareOp::kNe: return BinaryOp::kNe;
    case CompareOp::kLt: return BinaryOp::kLt;
    case CompareOp::kLe: return BinaryOp::kLe;
    case CompareOp::kGt: return BinaryOp::kGt;
    case CompareOp::kGe: return BinaryOp::kGe;
  }
  return BinaryOp::kEq;
}

CompareOp NegateCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return CompareOp::kNe;
    case CompareOp::kNe: return CompareOp::kEq;
    case CompareOp::kLt: return CompareOp::kGe;
    case CompareOp::kLe: return CompareOp::kGt;
    case CompareOp::kGt: return CompareOp::kLe;
    case CompareOp::kGe: return CompareOp::kLt;
  }
  return op;
}

// Builds Get(view) -> Filter(residual) -> Project(back to base width).
// `base_to_view` maps base ordinal -> view ordinal (-1 if absent).
LogicalPtr BuildSubstitute(const LogicalGet& get, const TableDef& view,
                           const std::vector<const BoundExpr*>& conjuncts,
                           const std::vector<int>& base_to_view) {
  auto vget = std::make_unique<LogicalGet>();
  vget->table = view.name;
  vget->alias = view.name;
  vget->def = &view;
  for (const ColumnInfo& col : view.schema.columns()) {
    ColumnInfo copy = col;
    copy.table = view.name;
    vget->schema.AddColumn(std::move(copy));
  }
  Schema view_schema = vget->schema;
  LogicalPtr plan = std::move(vget);

  // Residual: re-apply every query conjunct against the view.
  std::vector<BExprPtr> residual;
  for (const BoundExpr* c : conjuncts) {
    BExprPtr copy = CloneBound(*c);
    RemapColumnRefs(copy.get(), base_to_view);
    residual.push_back(std::move(copy));
  }
  if (!residual.empty()) {
    auto filter = std::make_unique<LogicalFilter>();
    filter->predicate = AndTogether(std::move(residual));
    filter->schema = view_schema;
    filter->children.push_back(std::move(plan));
    plan = std::move(filter);
  }

  // Null-padded projection back to the base table's width.
  auto project = std::make_unique<LogicalProject>();
  for (int i = 0; i < get.schema.num_columns(); ++i) {
    const ColumnInfo& col = get.schema.column(i);
    if (base_to_view[i] >= 0) {
      project->exprs.push_back(std::make_unique<BoundColumnRef>(
          base_to_view[i], col.type,
          view.name + "." + view_schema.column(base_to_view[i]).name));
    } else {
      project->exprs.push_back(
          std::make_unique<BoundLiteral>(Value::TypedNull(col.type)));
    }
  }
  project->schema = get.schema;
  project->children.push_back(std::move(plan));
  return project;
}

}  // namespace

std::vector<ViewMatch> MatchViews(
    const LogicalGet& get, const std::vector<const BoundExpr*>& conjuncts,
    const std::set<int>& used_columns, const Catalog& catalog,
    bool allow_mixed_results, double max_staleness, double now,
    OptimizerDecisionStats* stats) {
  std::vector<ViewMatch> matches;
  if (get.def == nullptr || !get.server.empty()) return matches;

  // Reduce the query conjuncts to simple form where possible.
  std::vector<SimpleConjunct> simple;
  for (const BoundExpr* c : conjuncts) {
    SimpleConjunct sc;
    if (ExtractSimpleConjunct(*c, &sc)) simple.push_back(sc);
  }

  // Required base columns: referenced by ancestors or by any conjunct.
  std::set<int> required = used_columns;
  for (const BoundExpr* c : conjuncts) {
    std::vector<int> refs;
    CollectColumnRefs(*c, &refs);
    required.insert(refs.begin(), refs.end());
  }
  // Ordinals come from the caller; one outside the table matches no view.
  const int num_columns = get.schema.num_columns();
  if (!required.empty() &&
      (*required.begin() < 0 || *required.rbegin() >= num_columns)) {
    return matches;
  }

  const RelStats base_stats = EstimateLogical(get);

  for (const TableDef* view : catalog.ViewsOver(get.table)) {
    // Freshness gate (§7 extension): an asynchronously maintained cached
    // view must be recent enough for the query's staleness budget.
    if (max_staleness >= 0 && view->kind == RelationKind::kCachedView) {
      SpanScope currency_span("currency_check",
                              TraceRecorder::Global().enabled()
                                  ? view->name
                                  : std::string());
      if (view->freshness_time < 0 ||
          now - view->freshness_time > max_staleness) {
        if (stats != nullptr) ++stats->currency_fallbacks;
        continue;
      }
      if (stats != nullptr) ++stats->currency_checks_passed;
    }
    const SelectProjectDef& def = *view->view_def;

    // Column coverage: map base ordinal -> view ordinal.
    std::vector<int> base_to_view(get.schema.num_columns(), -1);
    bool cover_ok = true;
    for (size_t j = 0; j < def.columns.size(); ++j) {
      int base_ord = get.def->ColumnOrdinal(def.columns[j]);
      if (base_ord < 0) {
        cover_ok = false;
        break;
      }
      base_to_view[base_ord] = static_cast<int>(j);
    }
    if (!cover_ok) continue;
    for (int col : required) {
      if (base_to_view[col] < 0) {
        cover_ok = false;
        break;
      }
    }
    if (!cover_ok) continue;

    // Predicate containment: every view predicate must be implied by some
    // query conjunct, possibly conditionally on a parameter.
    std::vector<BExprPtr> guards;
    double guard_prob = 1.0;
    int conditional_range_guards = 0;
    bool contained = true;
    for (const SimplePredicate& vp : def.predicates) {
      int vp_col = get.def->ColumnOrdinal(vp.column);
      bool this_ok = false;
      for (const SimpleConjunct& qc : simple) {
        if (qc.column != vp_col) continue;
        if (!qc.rhs_is_param) {
          if (LiteralImplies(qc.op, qc.literal, vp.op, vp.constant)) {
            this_ok = true;
            break;
          }
        } else {
          std::optional<CompareOp> guard_op = GuardOpFor(qc.op, vp.op);
          if (guard_op.has_value()) {
            auto guard = std::make_unique<BoundBinary>(
                ToBinaryOp(*guard_op),
                std::make_unique<BoundParam>(qc.param_name, TypeId::kNull),
                std::make_unique<BoundLiteral>(vp.constant), TypeId::kBool);
            // P(guard) from the base column's distribution (§5.1).
            if (vp_col >= 0 && vp_col < static_cast<int>(base_stats.cols.size())) {
              guard_prob *= EstimateGuardProbability(
                  *guard_op, vp.constant.AsStatDouble(),
                  base_stats.cols[vp_col]);
            } else {
              guard_prob *= 0.5;
            }
            guards.push_back(std::move(guard));
            if (IsUpper(*guard_op) || IsLower(*guard_op)) {
              ++conditional_range_guards;
            }
            this_ok = true;
            break;
          }
        }
      }
      if (!this_ok) {
        contained = false;
        break;
      }
    }
    if (!contained) continue;

    ViewMatch match;
    match.view = view;
    match.guard_prob = guards.empty() ? 1.0 : guard_prob;
    size_t num_guards = guards.size();
    match.guard = AndTogether(std::move(guards));
    match.substitute = BuildSubstitute(get, *view, conjuncts, base_to_view);

    // Mixed-result plan (Figure 3): regular matviews only, single-predicate
    // view with a single conditional range guard.
    if (allow_mixed_results && view->kind == RelationKind::kMaterializedView &&
        match.guard != nullptr && num_guards == 1 &&
        conditional_range_guards == 1 && def.predicates.size() == 1) {
      const SimplePredicate& vp = def.predicates[0];
      int vp_col = get.def->ColumnOrdinal(vp.column);
      auto union_all = std::make_unique<LogicalUnionAll>();
      union_all->schema = get.schema;
      // Branch A: rows from the view satisfying the query predicates.
      union_all->children.push_back(CloneLogical(*match.substitute));
      union_all->startup_preds.push_back(nullptr);
      union_all->startup_probs.push_back(1.0);
      // Branch B: top-up rows from the base table outside the view region,
      // guarded so it only opens when the parameter exceeds the view bound.
      {
        auto bget = std::make_unique<LogicalGet>();
        bget->table = get.table;
        bget->alias = get.alias;
        bget->server = get.server;
        bget->def = get.def;
        bget->schema = get.schema;
        std::vector<BExprPtr> preds;
        preds.push_back(std::make_unique<BoundBinary>(
            ToBinaryOp(NegateCompareOp(vp.op)),
            std::make_unique<BoundColumnRef>(
                vp_col, get.schema.column(vp_col).type,
                get.alias + "." + vp.column),
            std::make_unique<BoundLiteral>(vp.constant), TypeId::kBool));
        for (const BoundExpr* c : conjuncts) preds.push_back(CloneBound(*c));
        auto filter = std::make_unique<LogicalFilter>();
        filter->predicate = AndTogether(std::move(preds));
        filter->schema = get.schema;
        filter->children.push_back(std::move(bget));
        union_all->children.push_back(std::move(filter));
        union_all->startup_preds.push_back(std::make_unique<BoundUnary>(
            UnaryOp::kNot, CloneBound(*match.guard), TypeId::kBool));
        union_all->startup_probs.push_back(1.0 - match.guard_prob);
      }
      match.mixed = std::move(union_all);
    }

    matches.push_back(std::move(match));
  }
  return matches;
}

}  // namespace mtcache
