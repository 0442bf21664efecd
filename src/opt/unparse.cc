#include "opt/unparse.h"

namespace mtcache {

namespace {

const char* AggName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "COUNT";
}

class Unparser {
 public:
  // Produces a SELECT whose output columns are aliased c0..cN-1.
  StatusOr<std::string> Render(const LogicalOp& op) {
    switch (op.kind) {
      case LogicalKind::kGet: {
        const auto& o = static_cast<const LogicalGet&>(op);
        if (o.table.empty()) {
          return Status::NotImplemented("cannot ship a dual scan");
        }
        std::string alias = NextAlias();
        std::string sql = "SELECT ";
        for (int i = 0; i < op.schema.num_columns(); ++i) {
          if (i > 0) sql += ", ";
          sql += alias + "." + op.schema.column(i).name + " AS c" +
                 std::to_string(i);
        }
        sql += " FROM " + o.table + " " + alias;
        return sql;
      }
      case LogicalKind::kFilter: {
        const auto& o = static_cast<const LogicalFilter&>(op);
        MT_ASSIGN_OR_RETURN(std::string child, Render(*op.children[0]));
        std::string alias = NextAlias();
        ColumnNamer namer = [&](int i) {
          return alias + ".c" + std::to_string(i);
        };
        std::string sql = "SELECT ";
        for (int i = 0; i < op.schema.num_columns(); ++i) {
          if (i > 0) sql += ", ";
          sql += alias + ".c" + std::to_string(i) + " AS c" + std::to_string(i);
        }
        sql += " FROM (" + child + ") " + alias + " WHERE " +
               BoundToSql(*o.predicate, namer);
        return sql;
      }
      case LogicalKind::kProject: {
        const auto& o = static_cast<const LogicalProject&>(op);
        MT_ASSIGN_OR_RETURN(std::string child, Render(*op.children[0]));
        std::string alias = NextAlias();
        ColumnNamer namer = [&](int i) {
          return alias + ".c" + std::to_string(i);
        };
        std::string sql = "SELECT ";
        for (size_t i = 0; i < o.exprs.size(); ++i) {
          if (i > 0) sql += ", ";
          sql += BoundToSql(*o.exprs[i], namer) + " AS c" + std::to_string(i);
        }
        sql += " FROM (" + child + ") " + alias;
        return sql;
      }
      case LogicalKind::kJoin: {
        const auto& o = static_cast<const LogicalJoin&>(op);
        MT_ASSIGN_OR_RETURN(std::string left, Render(*op.children[0]));
        MT_ASSIGN_OR_RETURN(std::string right, Render(*op.children[1]));
        std::string la = NextAlias();
        std::string ra = NextAlias();
        int lw = op.children[0]->schema.num_columns();
        ColumnNamer namer = [&](int i) {
          if (i < lw) return la + ".c" + std::to_string(i);
          return ra + ".c" + std::to_string(i - lw);
        };
        std::string sql = "SELECT ";
        for (int i = 0; i < op.schema.num_columns(); ++i) {
          if (i > 0) sql += ", ";
          sql += namer(i) + " AS c" + std::to_string(i);
        }
        sql += " FROM (" + left + ") " + la;
        sql += o.join_kind == JoinKind::kInner ? " JOIN (" : " LEFT OUTER JOIN (";
        sql += right + ") " + ra + " ON ";
        sql += o.condition != nullptr ? BoundToSql(*o.condition, namer)
                                      : std::string("1 = 1");
        return sql;
      }
      case LogicalKind::kAggregate: {
        const auto& o = static_cast<const LogicalAggregate&>(op);
        MT_ASSIGN_OR_RETURN(std::string child, Render(*op.children[0]));
        std::string alias = NextAlias();
        ColumnNamer namer = [&](int i) {
          return alias + ".c" + std::to_string(i);
        };
        std::string sql = "SELECT ";
        int out = 0;
        std::string group_clause;
        for (const auto& g : o.group_by) {
          if (out > 0) sql += ", ";
          std::string rendered = BoundToSql(*g, namer);
          sql += rendered + " AS c" + std::to_string(out++);
          if (!group_clause.empty()) group_clause += ", ";
          group_clause += rendered;
        }
        for (const auto& a : o.aggs) {
          if (out > 0) sql += ", ";
          sql += std::string(AggName(a.func)) + "(";
          sql += a.func == AggFunc::kCountStar ? "*"
                                               : BoundToSql(*a.arg, namer);
          sql += ") AS c" + std::to_string(out++);
        }
        sql += " FROM (" + child + ") " + alias;
        if (!group_clause.empty()) sql += " GROUP BY " + group_clause;
        return sql;
      }
      case LogicalKind::kSort: {
        const auto& o = static_cast<const LogicalSort&>(op);
        MT_ASSIGN_OR_RETURN(std::string child, Render(*op.children[0]));
        std::string alias = NextAlias();
        ColumnNamer namer = [&](int i) {
          return alias + ".c" + std::to_string(i);
        };
        std::string sql = "SELECT ";
        for (int i = 0; i < op.schema.num_columns(); ++i) {
          if (i > 0) sql += ", ";
          sql += namer(i) + " AS c" + std::to_string(i);
        }
        sql += " FROM (" + child + ") " + alias + " ORDER BY ";
        for (size_t i = 0; i < o.keys.size(); ++i) {
          if (i > 0) sql += ", ";
          sql += BoundToSql(*o.keys[i].expr, namer);
          if (o.keys[i].desc) sql += " DESC";
        }
        return sql;
      }
      case LogicalKind::kLimit: {
        const auto& o = static_cast<const LogicalLimit&>(op);
        // TOP binds tighter than ORDER BY in our dialect: merge with a Sort
        // child so "SELECT TOP n ... ORDER BY" round-trips.
        const LogicalOp* child = op.children[0].get();
        if (child->kind == LogicalKind::kSort) {
          const auto& sort = static_cast<const LogicalSort&>(*child);
          MT_ASSIGN_OR_RETURN(std::string inner, Render(*child->children[0]));
          std::string alias = NextAlias();
          ColumnNamer namer = [&](int i) {
            return alias + ".c" + std::to_string(i);
          };
          std::string sql = "SELECT TOP " + std::to_string(o.limit) + " ";
          for (int i = 0; i < op.schema.num_columns(); ++i) {
            if (i > 0) sql += ", ";
            sql += namer(i) + " AS c" + std::to_string(i);
          }
          sql += " FROM (" + inner + ") " + alias + " ORDER BY ";
          for (size_t i = 0; i < sort.keys.size(); ++i) {
            if (i > 0) sql += ", ";
            sql += BoundToSql(*sort.keys[i].expr, namer);
            if (sort.keys[i].desc) sql += " DESC";
          }
          return sql;
        }
        MT_ASSIGN_OR_RETURN(std::string inner, Render(*child));
        std::string alias = NextAlias();
        std::string sql = "SELECT TOP " + std::to_string(o.limit) + " ";
        for (int i = 0; i < op.schema.num_columns(); ++i) {
          if (i > 0) sql += ", ";
          sql += alias + ".c" + std::to_string(i) + " AS c" + std::to_string(i);
        }
        sql += " FROM (" + inner + ") " + alias;
        return sql;
      }
      case LogicalKind::kDistinct: {
        MT_ASSIGN_OR_RETURN(std::string child, Render(*op.children[0]));
        std::string alias = NextAlias();
        std::string sql = "SELECT DISTINCT ";
        for (int i = 0; i < op.schema.num_columns(); ++i) {
          if (i > 0) sql += ", ";
          sql += alias + ".c" + std::to_string(i) + " AS c" + std::to_string(i);
        }
        sql += " FROM (" + child + ") " + alias;
        return sql;
      }
      default:
        return Status::NotImplemented("operator cannot be shipped as SQL");
    }
  }

 private:
  std::string NextAlias() { return "q" + std::to_string(counter_++); }
  int counter_ = 0;
};

}  // namespace

StatusOr<std::string> LogicalToSql(const LogicalOp& op) {
  Unparser unparser;
  return unparser.Render(op);
}

bool IsUnparsable(const LogicalOp& op) {
  switch (op.kind) {
    case LogicalKind::kGet:
      if (static_cast<const LogicalGet&>(op).table.empty()) return false;
      break;
    case LogicalKind::kFilter:
    case LogicalKind::kProject:
    case LogicalKind::kJoin:
    case LogicalKind::kAggregate:
    case LogicalKind::kSort:
    case LogicalKind::kLimit:
    case LogicalKind::kDistinct:
      break;
    default:
      return false;
  }
  for (const auto& child : op.children) {
    if (!IsUnparsable(*child)) return false;
  }
  return true;
}

}  // namespace mtcache
