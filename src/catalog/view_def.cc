#include "catalog/view_def.h"

#include <algorithm>

#include "catalog/catalog.h"
#include "common/string_util.h"

namespace mtcache {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

bool SimplePredicate::Matches(const Value& v) const {
  if (v.is_null()) return false;  // SQL: NULL op x is not true
  int c = v.Compare(constant);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

std::string SimplePredicate::ToString() const {
  return column + " " + CompareOpSymbol(op) + " " + constant.ToSqlLiteral();
}

bool SelectProjectDef::RowMatches(const std::vector<int>& pred_col_ordinals,
                                  const Row& row) const {
  for (size_t i = 0; i < predicates.size(); ++i) {
    int ord = pred_col_ordinals[i];
    if (ord < 0 || ord >= static_cast<int>(row.size())) return false;
    if (!predicates[i].Matches(row[ord])) return false;
  }
  return true;
}

std::string SelectProjectDef::ToSelectSql() const {
  std::string sql = "SELECT " + Join(columns, ", ") + " FROM " + base_table;
  if (!predicates.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += predicates[i].ToString();
    }
  }
  return sql;
}

StatusOr<ViewMapping> ViewMapping::Resolve(const SelectProjectDef& def,
                                           const TableDef& base) {
  ViewMapping mapping;
  mapping.def_ = def;
  for (const SimplePredicate& pred : def.predicates) {
    int ord = base.ColumnOrdinal(pred.column);
    if (ord < 0) {
      return Status::InvalidArgument("predicate column not in table " +
                                     base.name + ": " + pred.column);
    }
    mapping.predicate_ordinals_.push_back(ord);
  }
  for (const std::string& col : def.columns) {
    int ord = base.ColumnOrdinal(col);
    if (ord < 0) {
      return Status::InvalidArgument("projected column not in table " +
                                     base.name + ": " + col);
    }
    mapping.projected_ordinals_.push_back(ord);
  }
  const std::vector<int>& projected = mapping.projected_ordinals_;
  for (int pk_col : base.primary_key) {
    auto it = std::find(projected.begin(), projected.end(), pk_col);
    mapping.key_ordinals_.push_back(
        it == projected.end() ? -1 : static_cast<int>(it - projected.begin()));
  }
  return mapping;
}

Row ViewMapping::Project(const Row& base_row) const {
  Row out;
  out.reserve(projected_ordinals_.size());
  for (int ord : projected_ordinals_) out.push_back(base_row[ord]);
  return out;
}

std::optional<ViewChange> ViewMapping::Classify(const Row* before,
                                                const Row* after) const {
  bool before_in = before != nullptr && Matches(*before);
  bool after_in = after != nullptr && Matches(*after);
  ViewChange change;
  if (before_in && after_in) {
    change.op = ViewChange::Op::kUpdate;
  } else if (before_in) {
    change.op = ViewChange::Op::kDelete;
  } else if (after_in) {
    change.op = ViewChange::Op::kInsert;
  } else {
    return std::nullopt;
  }
  if (before_in) change.before = Project(*before);
  if (after_in) change.after = Project(*after);
  return change;
}

}  // namespace mtcache
