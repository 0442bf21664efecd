#ifndef MTCACHE_OPT_CARDINALITY_H_
#define MTCACHE_OPT_CARDINALITY_H_

#include <vector>

#include "catalog/statistics.h"
#include "expr/bound_expr.h"
#include "opt/logical.h"

namespace mtcache {

/// Derived statistics for a (sub)relation: estimated row count and
/// per-output-column statistics. On an MTCache server these derive from the
/// *shadowed* statistics, which is what makes fully local cost-based
/// optimization possible (§5).
struct RelStats {
  double rows = 1;
  std::vector<ColumnStats> cols;
};

/// Estimates the selectivity of `pred` against a relation whose column
/// statistics are `stats` (parallel to the predicate's input schema).
/// Standard System-R style: 1/ndv for equality, linear interpolation on
/// [min,max] for ranges, independence across conjuncts. Predicates on
/// run-time parameters fall back to fixed default fractions.
double EstimateSelectivity(const BoundExpr& pred, const RelStats& stats);

/// Bottom-up row-count and column-stat derivation for a logical tree.
RelStats EstimateLogical(const LogicalOp& op);

/// A maximal chain of inner joins, flattened: its leaves in FROM order (the
/// first operator down each side that is neither an inner join nor a column
/// selection over one, such as a derived table's or shipped SQL's renaming)
/// and every join conjunct, rebound over the concatenation of the leaves'
/// columns ("chain columns").
struct InnerJoinChain {
  std::vector<const LogicalOp*> leaves;
  std::vector<RelStats> leaf_stats;  // EstimateLogical of each leaf
  std::vector<int> offsets;          // first chain column of each leaf
  std::vector<BExprPtr> conjuncts;   // over the chain columns
  std::vector<double> selectivity;   // of each conjunct over the leaves
  std::vector<int> columns;          // chain column of each output column
};

/// Flattens the inner-join chain rooted at `join` (an inner LogicalJoin).
InnerJoinChain FlattenInnerJoins(const LogicalOp& join);

/// Rows of an inner join: the product of its leaves' rows and the
/// selectivities of the conjuncts it applies, multiplied in ascending order
/// so that every join order of the same leaves gets the same estimate; at
/// least 0.5.
double InnerJoinRows(std::vector<double> factors);

/// Probability that a comparison `param op bound` is true, assuming the
/// parameter is uniformly distributed over the column's [min, max] (§5.1:
/// "we currently estimate Fl under the assumption [the parameter] is
/// uniformly distributed between the min and max values of the column").
double EstimateGuardProbability(CompareOp op, double bound,
                                const ColumnStats& col);

}  // namespace mtcache

#endif  // MTCACHE_OPT_CARDINALITY_H_
