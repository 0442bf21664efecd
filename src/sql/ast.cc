#include "sql/ast.h"

namespace mtcache {

namespace {

const char* BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "?";
}

}  // namespace

ExprPtr CloneExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      const auto& e = static_cast<const LiteralExpr&>(expr);
      return std::make_unique<LiteralExpr>(e.value);
    }
    case ExprKind::kColumnRef: {
      const auto& e = static_cast<const ColumnRefExpr&>(expr);
      return std::make_unique<ColumnRefExpr>(e.table, e.column);
    }
    case ExprKind::kParam: {
      const auto& e = static_cast<const ParamExpr&>(expr);
      return std::make_unique<ParamExpr>(e.name);
    }
    case ExprKind::kUnary: {
      const auto& e = static_cast<const UnaryExpr&>(expr);
      return std::make_unique<UnaryExpr>(e.op, CloneExpr(*e.operand));
    }
    case ExprKind::kBinary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      return std::make_unique<BinaryExpr>(e.op, CloneExpr(*e.left),
                                          CloneExpr(*e.right));
    }
    case ExprKind::kLike: {
      const auto& e = static_cast<const LikeExpr&>(expr);
      return std::make_unique<LikeExpr>(CloneExpr(*e.input),
                                        CloneExpr(*e.pattern), e.negated);
    }
    case ExprKind::kIn: {
      const auto& e = static_cast<const InExpr&>(expr);
      std::vector<ExprPtr> list;
      for (const auto& item : e.list) list.push_back(CloneExpr(*item));
      return std::make_unique<InExpr>(CloneExpr(*e.input), std::move(list),
                                      e.negated);
    }
    case ExprKind::kBetween: {
      const auto& e = static_cast<const BetweenExpr&>(expr);
      return std::make_unique<BetweenExpr>(
          CloneExpr(*e.input), CloneExpr(*e.lo), CloneExpr(*e.hi));
    }
    case ExprKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpr&>(expr);
      return std::make_unique<IsNullExpr>(CloneExpr(*e.input), e.negated);
    }
    case ExprKind::kFunction: {
      const auto& e = static_cast<const FunctionExpr&>(expr);
      std::vector<ExprPtr> args;
      for (const auto& a : e.args) args.push_back(CloneExpr(*a));
      return std::make_unique<FunctionExpr>(e.name, std::move(args));
    }
    case ExprKind::kAggregate: {
      const auto& e = static_cast<const AggregateExpr&>(expr);
      return std::make_unique<AggregateExpr>(
          e.func, e.arg ? CloneExpr(*e.arg) : nullptr);
    }
    case ExprKind::kCase: {
      const auto& e = static_cast<const CaseExpr&>(expr);
      auto copy = std::make_unique<CaseExpr>();
      copy->operand = e.operand ? CloneExpr(*e.operand) : nullptr;
      for (const auto& [when, then] : e.branches) {
        copy->branches.emplace_back(CloneExpr(*when), CloneExpr(*then));
      }
      copy->else_expr = e.else_expr ? CloneExpr(*e.else_expr) : nullptr;
      return copy;
    }
  }
  return nullptr;
}

std::string ExprToSql(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value.ToSqlLiteral();
    case ExprKind::kColumnRef: {
      const auto& e = static_cast<const ColumnRefExpr&>(expr);
      return e.table.empty() ? e.column : e.table + "." + e.column;
    }
    case ExprKind::kParam:
      return static_cast<const ParamExpr&>(expr).name;
    case ExprKind::kUnary: {
      const auto& e = static_cast<const UnaryExpr&>(expr);
      if (e.op == UnaryOp::kNot) return "NOT (" + ExprToSql(*e.operand) + ")";
      return "-(" + ExprToSql(*e.operand) + ")";
    }
    case ExprKind::kBinary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      return "(" + ExprToSql(*e.left) + " " + BinaryOpSymbol(e.op) + " " +
             ExprToSql(*e.right) + ")";
    }
    case ExprKind::kLike: {
      const auto& e = static_cast<const LikeExpr&>(expr);
      return "(" + ExprToSql(*e.input) + (e.negated ? " NOT LIKE " : " LIKE ") +
             ExprToSql(*e.pattern) + ")";
    }
    case ExprKind::kIn: {
      const auto& e = static_cast<const InExpr&>(expr);
      std::string out = "(" + ExprToSql(*e.input) +
                        (e.negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < e.list.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprToSql(*e.list[i]);
      }
      out += "))";
      return out;
    }
    case ExprKind::kBetween: {
      const auto& e = static_cast<const BetweenExpr&>(expr);
      return "(" + ExprToSql(*e.input) + " BETWEEN " + ExprToSql(*e.lo) +
             " AND " + ExprToSql(*e.hi) + ")";
    }
    case ExprKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpr&>(expr);
      return "(" + ExprToSql(*e.input) +
             (e.negated ? " IS NOT NULL)" : " IS NULL)");
    }
    case ExprKind::kFunction: {
      const auto& e = static_cast<const FunctionExpr&>(expr);
      std::string out = e.name + "(";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprToSql(*e.args[i]);
      }
      out += ")";
      return out;
    }
    case ExprKind::kAggregate: {
      const auto& e = static_cast<const AggregateExpr&>(expr);
      std::string out = AggFuncName(e.func);
      out += "(";
      out += e.func == AggFunc::kCountStar ? "*" : ExprToSql(*e.arg);
      out += ")";
      return out;
    }
    case ExprKind::kCase: {
      const auto& e = static_cast<const CaseExpr&>(expr);
      std::string out = "CASE";
      if (e.operand != nullptr) out += " " + ExprToSql(*e.operand);
      for (const auto& [when, then] : e.branches) {
        out += " WHEN " + ExprToSql(*when) + " THEN " + ExprToSql(*then);
      }
      if (e.else_expr != nullptr) out += " ELSE " + ExprToSql(*e.else_expr);
      out += " END";
      return out;
    }
  }
  return "?";
}

namespace {

std::string TableRefToSql(const TableRef& ref) {
  std::string out = ref.derived != nullptr
                        ? "(" + SelectToSql(*ref.derived) + ")"
                        : (ref.server.empty() ? "" : ref.server + ".") +
                              ref.name;
  return ref.alias.empty() ? out : out + " " + ref.alias;
}

}  // namespace

std::string SelectToSql(const SelectStmt& stmt) {
  std::string sql = "SELECT ";
  if (stmt.distinct) sql += "DISTINCT ";
  if (stmt.top >= 0) sql += "TOP " + std::to_string(stmt.top) + " ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (i > 0) sql += ", ";
    if (i < stmt.into_vars.size() && !stmt.into_vars[i].empty()) {
      sql += stmt.into_vars[i] + " = ";
    }
    if (item.star) {
      sql += item.star_qualifier.empty() ? "*" : item.star_qualifier + ".*";
      continue;
    }
    sql += ExprToSql(*item.expr);
    if (!item.alias.empty()) sql += " AS " + item.alias;
  }
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    sql += (i == 0 ? " FROM " : ", ") + TableRefToSql(stmt.from[i]);
  }
  for (const JoinClause& join : stmt.joins) {
    sql += join.kind == JoinKind::kLeftOuter ? " LEFT OUTER JOIN " : " JOIN ";
    sql += TableRefToSql(join.table) + " ON " + ExprToSql(*join.on);
  }
  if (stmt.where != nullptr) sql += " WHERE " + ExprToSql(*stmt.where);
  for (size_t i = 0; i < stmt.group_by.size(); ++i) {
    sql += (i == 0 ? " GROUP BY " : ", ") + ExprToSql(*stmt.group_by[i]);
  }
  if (stmt.having != nullptr) sql += " HAVING " + ExprToSql(*stmt.having);
  for (size_t i = 0; i < stmt.order_by.size(); ++i) {
    sql += (i == 0 ? " ORDER BY " : ", ") + ExprToSql(*stmt.order_by[i].expr);
    if (stmt.order_by[i].desc) sql += " DESC";
  }
  if (stmt.union_next != nullptr) {
    sql += " UNION ALL " + SelectToSql(*stmt.union_next);
  }
  if (stmt.max_staleness >= 0) {
    sql += " WITH MAXSTALENESS " +
           Value::Double(stmt.max_staleness).ToSqlLiteral();
  }
  return sql;
}

std::string StmtToSql(const Stmt& stmt) {
  auto where = [](const ExprPtr& e) {
    return e != nullptr ? " WHERE " + ExprToSql(*e) : std::string();
  };
  switch (stmt.kind) {
    case StmtKind::kSelect:
      return SelectToSql(static_cast<const SelectStmt&>(stmt));
    case StmtKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(stmt);
      std::string sql = "INSERT INTO " + ins.table;
      for (size_t i = 0; i < ins.columns.size(); ++i) {
        sql += (i == 0 ? " (" : ", ") + ins.columns[i];
      }
      if (!ins.columns.empty()) sql += ")";
      if (ins.select != nullptr) return sql + " " + SelectToSql(*ins.select);
      sql += " VALUES ";
      for (size_t r = 0; r < ins.rows.size(); ++r) {
        sql += r == 0 ? "(" : ", (";
        for (size_t i = 0; i < ins.rows[r].size(); ++i) {
          sql += (i == 0 ? "" : ", ") + ExprToSql(*ins.rows[r][i]);
        }
        sql += ")";
      }
      return sql;
    }
    case StmtKind::kUpdate: {
      const auto& upd = static_cast<const UpdateStmt&>(stmt);
      std::string sql = "UPDATE " + upd.table;
      for (size_t i = 0; i < upd.sets.size(); ++i) {
        sql += (i == 0 ? " SET " : ", ") + upd.sets[i].first + " = " +
               ExprToSql(*upd.sets[i].second);
      }
      return sql + where(upd.where);
    }
    case StmtKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(stmt);
      return "DELETE FROM " + del.table + where(del.where);
    }
    default:
      return std::string();
  }
}

std::unique_ptr<SelectStmt> CloneSelect(const SelectStmt& stmt) {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = stmt.distinct;
  out->top = stmt.top;
  out->max_staleness = stmt.max_staleness;
  for (const SelectItem& item : stmt.items) {
    SelectItem copy;
    copy.expr = item.expr ? CloneExpr(*item.expr) : nullptr;
    copy.alias = item.alias;
    copy.star = item.star;
    copy.star_qualifier = item.star_qualifier;
    out->items.push_back(std::move(copy));
  }
  out->into_vars = stmt.into_vars;
  for (const TableRef& ref : stmt.from) {
    TableRef copy;
    copy.server = ref.server;
    copy.name = ref.name;
    copy.alias = ref.alias;
    if (ref.derived) copy.derived = CloneSelect(*ref.derived);
    out->from.push_back(std::move(copy));
  }
  for (const JoinClause& join : stmt.joins) {
    JoinClause copy;
    copy.kind = join.kind;
    copy.table.server = join.table.server;
    copy.table.name = join.table.name;
    copy.table.alias = join.table.alias;
    if (join.table.derived) copy.table.derived = CloneSelect(*join.table.derived);
    copy.on = join.on ? CloneExpr(*join.on) : nullptr;
    out->joins.push_back(std::move(copy));
  }
  out->where = stmt.where ? CloneExpr(*stmt.where) : nullptr;
  for (const auto& g : stmt.group_by) out->group_by.push_back(CloneExpr(*g));
  out->having = stmt.having ? CloneExpr(*stmt.having) : nullptr;
  for (const auto& o : stmt.order_by) {
    OrderByItem copy;
    copy.expr = CloneExpr(*o.expr);
    copy.desc = o.desc;
    out->order_by.push_back(std::move(copy));
  }
  if (stmt.union_next != nullptr) {
    out->union_next = CloneSelect(*stmt.union_next);
  }
  return out;
}

}  // namespace mtcache
