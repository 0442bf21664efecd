#include "engine/view_util.h"

namespace mtcache {

namespace {

StatusOr<SimplePredicate> LowerPredicate(const Expr& expr) {
  if (expr.kind != ExprKind::kBinary) {
    return Status::InvalidArgument(
        "view predicates must be simple comparisons");
  }
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  CompareOp op;
  switch (bin.op) {
    case BinaryOp::kEq: op = CompareOp::kEq; break;
    case BinaryOp::kNe: op = CompareOp::kNe; break;
    case BinaryOp::kLt: op = CompareOp::kLt; break;
    case BinaryOp::kLe: op = CompareOp::kLe; break;
    case BinaryOp::kGt: op = CompareOp::kGt; break;
    case BinaryOp::kGe: op = CompareOp::kGe; break;
    default:
      return Status::InvalidArgument(
          "view predicates must be comparisons of a column with a literal");
  }
  const Expr* l = bin.left.get();
  const Expr* r = bin.right.get();
  if (l->kind != ExprKind::kColumnRef && r->kind == ExprKind::kColumnRef) {
    std::swap(l, r);
    op = FlipCompareOp(op);
  }
  if (l->kind != ExprKind::kColumnRef || r->kind != ExprKind::kLiteral) {
    return Status::InvalidArgument(
        "view predicates must compare a column with a literal");
  }
  SimplePredicate pred;
  pred.column = static_cast<const ColumnRefExpr&>(*l).column;
  pred.op = op;
  pred.constant = static_cast<const LiteralExpr&>(*r).value;
  return pred;
}

Status CollectPredicates(const Expr& expr, SelectProjectDef* def) {
  if (expr.kind == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(expr);
    if (bin.op == BinaryOp::kAnd) {
      MT_RETURN_IF_ERROR(CollectPredicates(*bin.left, def));
      MT_RETURN_IF_ERROR(CollectPredicates(*bin.right, def));
      return Status::Ok();
    }
  }
  MT_ASSIGN_OR_RETURN(SimplePredicate pred, LowerPredicate(expr));
  def->predicates.push_back(std::move(pred));
  return Status::Ok();
}

}  // namespace

StatusOr<SelectProjectDef> BuildSelectProjectDef(const SelectStmt& select,
                                                 const TableDef& base) {
  if (select.from.size() != 1 || !select.joins.empty() ||
      select.from[0].derived != nullptr || !select.from[0].server.empty()) {
    return Status::InvalidArgument(
        "materialized views must select from a single base table");
  }
  if (select.distinct || select.top >= 0 || !select.group_by.empty() ||
      select.having != nullptr || !select.order_by.empty()) {
    return Status::InvalidArgument(
        "materialized views must be plain select-project expressions");
  }
  SelectProjectDef def;
  def.base_table = select.from[0].name;
  for (const SelectItem& item : select.items) {
    if (item.star) {
      for (const ColumnInfo& col : base.schema.columns()) {
        def.columns.push_back(col.name);
      }
      continue;
    }
    if (item.expr->kind != ExprKind::kColumnRef) {
      return Status::InvalidArgument(
          "materialized view select lists may contain only plain columns");
    }
    def.columns.push_back(
        static_cast<const ColumnRefExpr&>(*item.expr).column);
  }
  if (select.where != nullptr) {
    MT_RETURN_IF_ERROR(CollectPredicates(*select.where, &def));
  }
  MT_RETURN_IF_ERROR(ViewMapping::Resolve(def, base).status());
  return def;
}

StatusOr<TableDef> MakeViewTableDef(const std::string& view_name,
                                    const TableDef& base,
                                    const SelectProjectDef& def,
                                    RelationKind kind) {
  // Change application (synchronous maintenance or replication) locates
  // view rows by the base primary key, so the base table must have one and
  // the view must project all of it.
  if (base.primary_key.empty()) {
    return Status::InvalidArgument("view base table " + base.name +
                                   " has no primary key");
  }
  MT_ASSIGN_OR_RETURN(ViewMapping mapping, ViewMapping::Resolve(def, base));
  TableDef view;
  view.name = view_name;
  view.kind = kind;
  view.view_def = def;
  for (int ord : mapping.projected_ordinals()) {
    ColumnInfo info = base.schema.column(ord);
    info.table = view_name;
    view.schema.AddColumn(std::move(info));
  }
  for (size_t i = 0; i < base.primary_key.size(); ++i) {
    int in_view = mapping.key_ordinals()[i];
    if (in_view < 0) {
      return Status::InvalidArgument(
          "view must include the base table's primary key column " +
          base.schema.column(base.primary_key[i]).name);
    }
    view.primary_key.push_back(in_view);
  }
  view.indexes.push_back(IndexDef{view_name + "_pk", view.primary_key, true});
  view.stats = DeriveViewStats(base, def);
  view.view_mapping = std::move(mapping);
  return view;
}

TableStats DeriveViewStats(const TableDef& base, const SelectProjectDef& def) {
  TableStats stats;
  // Selectivity of the view predicate, from the base column statistics.
  double sel = 1.0;
  for (const SimplePredicate& pred : def.predicates) {
    int ord = base.ColumnOrdinal(pred.column);
    if (ord < 0 || ord >= static_cast<int>(base.stats.columns.size())) {
      sel *= 0.3;
      continue;
    }
    const ColumnStats& cs = base.stats.columns[ord];
    double x = pred.constant.AsStatDouble();
    switch (pred.op) {
      case CompareOp::kEq:
        sel *= cs.EqSelectivity();
        break;
      case CompareOp::kNe:
        sel *= 1.0 - cs.EqSelectivity();
        break;
      case CompareOp::kLt:
      case CompareOp::kLe:
        sel *= cs.RangeLeSelectivity(x);
        break;
      case CompareOp::kGt:
      case CompareOp::kGe:
        sel *= cs.RangeGeSelectivity(x);
        break;
    }
  }
  stats.row_count = std::max(base.stats.row_count * sel, 0.0);
  double bytes = 4;
  for (const std::string& col : def.columns) {
    int ord = base.ColumnOrdinal(col);
    if (ord >= 0 && ord < static_cast<int>(base.stats.columns.size())) {
      ColumnStats cs = base.stats.columns[ord];
      cs.ndv = std::min(cs.ndv, std::max(stats.row_count, 1.0));
      stats.columns.push_back(cs);
    } else {
      stats.columns.push_back(ColumnStats{});
    }
    bytes += base.schema.column(ord).type == TypeId::kString ? 24 : 8;
  }
  stats.avg_row_bytes = bytes;
  return stats;
}

}  // namespace mtcache
