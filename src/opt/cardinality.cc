#include "opt/cardinality.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "catalog/histogram.h"

namespace mtcache {

namespace {

constexpr double kDefaultEqSel = 0.05;
constexpr double kDefaultRangeSel = 1.0 / 3.0;
constexpr double kDefaultLikeSel = 0.08;
constexpr double kDefaultSel = 0.25;

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

const ColumnStats* StatsFor(const RelStats& stats, int ordinal) {
  if (ordinal < 0 || ordinal >= static_cast<int>(stats.cols.size())) {
    return nullptr;
  }
  return &stats.cols[ordinal];
}

// Selectivity of `colref op rhs` where rhs is a literal (params handled by
// the caller with defaults).
double CompareSelectivity(BinaryOp op, const ColumnStats& cs, double x) {
  switch (op) {
    case BinaryOp::kEq:
      // Histogram-aware: heavy hitters (degenerate buckets) estimate far
      // above 1/ndv, rare values cap at one bucket's share.
      return Clamp01(cs.EqSelectivityAt(x));
    case BinaryOp::kNe:
      return Clamp01(1.0 - cs.EqSelectivityAt(x));
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      return Clamp01(cs.RangeLeSelectivity(x));
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return Clamp01(cs.RangeGeSelectivity(x));
    default:
      return kDefaultSel;
  }
}

bool IsRange(BinaryOp op) {
  return op == BinaryOp::kLt || op == BinaryOp::kLe || op == BinaryOp::kGt ||
         op == BinaryOp::kGe;
}

}  // namespace

double EstimateSelectivity(const BoundExpr& pred, const RelStats& stats) {
  switch (pred.kind) {
    case BoundExprKind::kLiteral: {
      const auto& e = static_cast<const BoundLiteral&>(pred);
      if (e.value.is_null()) return 0.0;
      if (e.value.type() == TypeId::kBool) return e.value.AsBool() ? 1.0 : 0.0;
      return 1.0;
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(pred);
      if (e.op == BinaryOp::kAnd) {
        return Clamp01(EstimateSelectivity(*e.left, stats) *
                       EstimateSelectivity(*e.right, stats));
      }
      if (e.op == BinaryOp::kOr) {
        double a = EstimateSelectivity(*e.left, stats);
        double b = EstimateSelectivity(*e.right, stats);
        return Clamp01(a + b - a * b);
      }
      // Comparison: normalize to colref-op-other.
      const BoundExpr* l = e.left.get();
      const BoundExpr* r = e.right.get();
      BinaryOp op = e.op;
      if (l->kind != BoundExprKind::kColumnRef &&
          r->kind == BoundExprKind::kColumnRef) {
        std::swap(l, r);
        switch (op) {
          case BinaryOp::kLt: op = BinaryOp::kGt; break;
          case BinaryOp::kLe: op = BinaryOp::kGe; break;
          case BinaryOp::kGt: op = BinaryOp::kLt; break;
          case BinaryOp::kGe: op = BinaryOp::kLe; break;
          default: break;
        }
      }
      if (l->kind == BoundExprKind::kColumnRef) {
        const auto& ref = static_cast<const BoundColumnRef&>(*l);
        const ColumnStats* cs = StatsFor(stats, ref.ordinal);
        if (r->kind == BoundExprKind::kColumnRef) {
          // Join predicate col = col.
          const auto& rref = static_cast<const BoundColumnRef&>(*r);
          const ColumnStats* rcs = StatsFor(stats, rref.ordinal);
          if (op == BinaryOp::kEq && cs != nullptr && rcs != nullptr) {
            double ndv = std::max({cs->ndv, rcs->ndv, 1.0});
            return Clamp01(1.0 / ndv);
          }
          return kDefaultSel;
        }
        if (r->kind == BoundExprKind::kLiteral && cs != nullptr) {
          const auto& lit = static_cast<const BoundLiteral&>(*r);
          if (lit.value.is_null()) return 0.0;
          double x = lit.value.AsStatDouble();
          // On an integer column a strict bound is the next inclusive one:
          // x < c is x <= ceil(c) - 1, x > c is x >= floor(c) + 1.
          bool numeric = lit.value.type() == TypeId::kInt64 ||
                         lit.value.type() == TypeId::kDouble;
          if (ref.type == TypeId::kInt64 && numeric) {
            if (op == BinaryOp::kLt) {
              op = BinaryOp::kLe;
              x = std::ceil(x) - 1;
            } else if (op == BinaryOp::kGt) {
              op = BinaryOp::kGe;
              x = std::floor(x) + 1;
            }
          }
          return CompareSelectivity(op, *cs, x);
        }
        // Parameter or computed rhs: defaults.
        if (op == BinaryOp::kEq && cs != nullptr) {
          return Clamp01(cs->EqSelectivity());
        }
        if (op == BinaryOp::kEq) return kDefaultEqSel;
        if (IsRange(op)) return kDefaultRangeSel;
        return kDefaultSel;
      }
      return kDefaultSel;
    }
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(pred);
      if (e.op == UnaryOp::kNot) {
        return Clamp01(1.0 - EstimateSelectivity(*e.operand, stats));
      }
      return kDefaultSel;
    }
    case BoundExprKind::kLike:
      return kDefaultLikeSel;
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(pred);
      if (e.input->kind == BoundExprKind::kColumnRef) {
        const auto& ref = static_cast<const BoundColumnRef&>(*e.input);
        const ColumnStats* cs = StatsFor(stats, ref.ordinal);
        if (cs != nullptr) {
          return Clamp01(e.negated ? 1.0 - cs->null_frac : cs->null_frac);
        }
      }
      return e.negated ? 0.95 : 0.05;
    }
    default:
      return kDefaultSel;
  }
}

namespace {

ColumnStats DefaultColStats(double rows) {
  ColumnStats cs;
  cs.min = 0;
  cs.max = std::max(rows, 1.0);
  cs.ndv = std::max(rows * 0.1, 1.0);
  cs.null_frac = 0;
  return cs;
}

void ScaleNdv(RelStats* stats) {
  for (ColumnStats& cs : stats->cols) {
    cs.ndv = std::max(1.0, std::min(cs.ndv, stats->rows));
  }
}

}  // namespace

RelStats EstimateLogical(const LogicalOp& op) {
  RelStats out;
  switch (op.kind) {
    case LogicalKind::kGet: {
      const auto& o = static_cast<const LogicalGet&>(op);
      if (o.def == nullptr) {
        // Dual or unresolved remote table.
        out.rows = o.table.empty() ? 1 : 1000;
        for (int i = 0; i < op.schema.num_columns(); ++i) {
          out.cols.push_back(DefaultColStats(out.rows));
        }
        return out;
      }
      out.rows = std::max(o.def->stats.row_count, 1.0);
      if (static_cast<int>(o.def->stats.columns.size()) ==
          op.schema.num_columns()) {
        out.cols = o.def->stats.columns;
      } else {
        for (int i = 0; i < op.schema.num_columns(); ++i) {
          out.cols.push_back(DefaultColStats(out.rows));
        }
      }
      return out;
    }
    case LogicalKind::kFilter: {
      const auto& o = static_cast<const LogicalFilter&>(op);
      RelStats child = EstimateLogical(*op.children[0]);
      double sel = o.predicate != nullptr
                       ? EstimateSelectivity(*o.predicate, child)
                       : 1.0;
      out = child;
      out.rows = std::max(child.rows * sel, 0.5);
      ScaleNdv(&out);
      return out;
    }
    case LogicalKind::kProject: {
      const auto& o = static_cast<const LogicalProject&>(op);
      RelStats child = EstimateLogical(*op.children[0]);
      out.rows = child.rows;
      for (const auto& e : o.exprs) {
        if (e->kind == BoundExprKind::kColumnRef) {
          int ord = static_cast<const BoundColumnRef&>(*e).ordinal;
          if (ord >= 0 && ord < static_cast<int>(child.cols.size())) {
            out.cols.push_back(child.cols[ord]);
            continue;
          }
        }
        out.cols.push_back(DefaultColStats(child.rows));
      }
      return out;
    }
    case LogicalKind::kJoin: {
      const auto& o = static_cast<const LogicalJoin&>(op);
      if (o.join_kind == JoinKind::kInner) {
        // Estimated over the flattened chain, so that the estimate does not
        // depend on the order the FROM list wrote the tables in.
        InnerJoinChain chain = FlattenInnerJoins(op);
        std::vector<double> factors = chain.selectivity;
        std::vector<ColumnStats> chain_cols;
        for (const RelStats& leaf : chain.leaf_stats) {
          factors.push_back(leaf.rows);
          chain_cols.insert(chain_cols.end(), leaf.cols.begin(),
                            leaf.cols.end());
        }
        for (int c : chain.columns) out.cols.push_back(chain_cols[c]);
        out.rows = InnerJoinRows(std::move(factors));
        ScaleNdv(&out);
        return out;
      }
      RelStats left = EstimateLogical(*op.children[0]);
      RelStats right = EstimateLogical(*op.children[1]);
      out.cols = left.cols;
      out.cols.insert(out.cols.end(), right.cols.begin(), right.cols.end());
      double cross = left.rows * right.rows;
      double sel = 1.0;
      if (o.condition != nullptr) {
        RelStats combined;
        combined.rows = cross;
        combined.cols = out.cols;
        sel = EstimateSelectivity(*o.condition, combined);
      }
      out.rows = std::max(cross * sel, 0.5);
      if (o.join_kind == JoinKind::kLeftOuter) {
        out.rows = std::max(out.rows, left.rows);
      }
      ScaleNdv(&out);
      return out;
    }
    case LogicalKind::kAggregate: {
      const auto& o = static_cast<const LogicalAggregate&>(op);
      RelStats child = EstimateLogical(*op.children[0]);
      double groups = 1;
      for (const auto& g : o.group_by) {
        double ndv = 10;
        if (g->kind == BoundExprKind::kColumnRef) {
          int ord = static_cast<const BoundColumnRef&>(*g).ordinal;
          if (ord >= 0 && ord < static_cast<int>(child.cols.size())) {
            ndv = child.cols[ord].ndv;
            out.cols.push_back(child.cols[ord]);
          } else {
            out.cols.push_back(DefaultColStats(child.rows));
          }
        } else {
          out.cols.push_back(DefaultColStats(child.rows));
        }
        groups *= std::max(ndv, 1.0);
      }
      out.rows = o.group_by.empty() ? 1 : std::min(groups, child.rows);
      for (size_t i = 0; i < o.aggs.size(); ++i) {
        out.cols.push_back(DefaultColStats(out.rows));
      }
      ScaleNdv(&out);
      return out;
    }
    case LogicalKind::kSort:
      return EstimateLogical(*op.children[0]);
    case LogicalKind::kLimit: {
      const auto& o = static_cast<const LogicalLimit&>(op);
      out = EstimateLogical(*op.children[0]);
      out.rows = std::min(out.rows, static_cast<double>(o.limit));
      ScaleNdv(&out);
      return out;
    }
    case LogicalKind::kDistinct: {
      RelStats child = EstimateLogical(*op.children[0]);
      double distinct = 1;
      for (const ColumnStats& cs : child.cols) distinct *= std::max(cs.ndv, 1.0);
      out = child;
      out.rows = std::min(child.rows, std::max(distinct, 1.0));
      ScaleNdv(&out);
      return out;
    }
    case LogicalKind::kChoosePlan: {
      // Either branch produces the same logical result; use the first.
      return EstimateLogical(*op.children[0]);
    }
    case LogicalKind::kUnionAll: {
      // Bag union: rows add; per-column stats merge so predicates above the
      // union (the probe/fallback pattern in dynamic plans) still estimate
      // off the combined distribution instead of just the first branch's.
      out = EstimateLogical(*op.children[0]);
      for (size_t i = 1; i < op.children.size(); ++i) {
        RelStats branch = EstimateLogical(*op.children[i]);
        size_t ncols = std::min(out.cols.size(), branch.cols.size());
        for (size_t c = 0; c < ncols; ++c) {
          ColumnStats& dst = out.cols[c];
          const ColumnStats& src = branch.cols[c];
          dst.hist_bounds = MergeEquiDepthBounds(
              dst.hist_bounds, dst.min, dst.max, out.rows, src.hist_bounds,
              src.min, src.max, branch.rows, kColumnHistogramBuckets);
          dst.min = std::min(dst.min, src.min);
          dst.max = std::max(dst.max, src.max);
          // Distinct values can overlap across branches; summing is the
          // conservative upper bound, ScaleNdv caps at the row count.
          dst.ndv += src.ndv;
          double total = out.rows + branch.rows;
          if (total > 0) {
            dst.null_frac = (dst.null_frac * out.rows +
                             src.null_frac * branch.rows) /
                            total;
          }
        }
        out.rows += branch.rows;
      }
      ScaleNdv(&out);
      return out;
    }
  }
  return out;
}

namespace {

bool IsInnerJoin(const LogicalOp& op) {
  return op.kind == LogicalKind::kJoin &&
         static_cast<const LogicalJoin&>(op).join_kind == JoinKind::kInner;
}

// A projection that only selects and renames columns of an inner join: the
// chain flattens through it.
bool IsJoinSelection(const LogicalOp& op) {
  if (op.kind != LogicalKind::kProject || !IsInnerJoin(*op.children[0])) {
    return false;
  }
  for (const auto& e : static_cast<const LogicalProject&>(op).exprs) {
    if (e->kind != BoundExprKind::kColumnRef) return false;
  }
  return true;
}

// Appends the leaves and conjuncts of the inner-join chain under `op`;
// returns the chain column of each of `op`'s output columns.
std::vector<int> Flatten(const LogicalOp& op, InnerJoinChain* chain) {
  if (IsJoinSelection(op)) {
    const std::vector<int> input = Flatten(*op.children[0], chain);
    std::vector<int> out;
    for (const auto& e : static_cast<const LogicalProject&>(op).exprs) {
      out.push_back(input[static_cast<const BoundColumnRef&>(*e).ordinal]);
    }
    return out;
  }
  if (!IsInnerJoin(op)) {
    const int base = chain->offsets.empty()
                         ? 0
                         : chain->offsets.back() +
                               chain->leaves.back()->schema.num_columns();
    chain->leaves.push_back(&op);
    chain->leaf_stats.push_back(EstimateLogical(op));
    chain->offsets.push_back(base);
    std::vector<int> out(op.schema.num_columns());
    std::iota(out.begin(), out.end(), base);
    return out;
  }
  std::vector<int> columns = Flatten(*op.children[0], chain);
  const std::vector<int> right = Flatten(*op.children[1], chain);
  columns.insert(columns.end(), right.begin(), right.end());
  const BoundExpr* condition =
      static_cast<const LogicalJoin&>(op).condition.get();
  if (condition != nullptr) {
    std::vector<const BoundExpr*> parts;
    CollectConjuncts(*condition, &parts);
    for (const BoundExpr* part : parts) {
      BExprPtr conjunct = CloneBound(*part);
      RemapColumnRefs(conjunct.get(), columns);
      chain->conjuncts.push_back(std::move(conjunct));
    }
  }
  return columns;
}

}  // namespace

InnerJoinChain FlattenInnerJoins(const LogicalOp& join) {
  InnerJoinChain chain;
  chain.columns = Flatten(join, &chain);
  RelStats all;
  for (const RelStats& leaf : chain.leaf_stats) {
    all.cols.insert(all.cols.end(), leaf.cols.begin(), leaf.cols.end());
  }
  for (const BExprPtr& c : chain.conjuncts) {
    chain.selectivity.push_back(EstimateSelectivity(*c, all));
  }
  return chain;
}

double InnerJoinRows(std::vector<double> factors) {
  std::sort(factors.begin(), factors.end());
  double rows = 1;
  for (double f : factors) rows *= f;
  return std::max(rows, 0.5);
}

double EstimateGuardProbability(CompareOp op, double bound,
                                const ColumnStats& col) {
  if (col.hist_bounds.empty() && col.max <= col.min) return 0.5;
  // The guard parameter is assumed to be drawn from the column's own value
  // distribution (a lookup key is as frequent as the data it looks up): with
  // a histogram, P(@p <= bound) is the equi-depth CDF at the bound rather
  // than the uniform-position fallback.
  double f = col.RangeLeSelectivity(bound);
  switch (op) {
    case CompareOp::kLe:
    case CompareOp::kLt:
      return f;  // P(@p <= bound)
    case CompareOp::kGe:
    case CompareOp::kGt:
      return 1.0 - f;
    case CompareOp::kEq:
      return f;  // P(@p falls inside the view's range)
    case CompareOp::kNe:
      return 1.0 - f;
  }
  return 0.5;
}

}  // namespace mtcache
