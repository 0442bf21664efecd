#ifndef MTCACHE_OPT_PHYSICAL_H_
#define MTCACHE_OPT_PHYSICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/bound_expr.h"
#include "opt/logical.h"  // AggItem, SortKey
#include "types/schema.h"

namespace mtcache {

/// The DataLocation physical property (§5): where a subexpression's result
/// is produced. Cached views and local tables are Local; shadow tables and
/// linked-server tables are Remote. The DataTransfer enforcer moves a result
/// from Remote to Local, costed per byte plus a startup charge.
enum class DataLocation { kLocal, kRemote };

enum class PhysicalKind {
  kDualScan,     // one empty row (SELECT without FROM)
  kSeqScan,
  kIndexSeek,
  kFilter,       // optionally a startup predicate (evaluated once at Open)
  kProject,
  kNLJoin,
  kIndexNLJoin,
  kHashJoin,
  kHashAggregate,
  kSort,
  kLimit,
  kDistinct,
  kUnionAll,     // concatenates children; implements ChoosePlan (Fig. 2(b))
  kRemoteQuery,  // DataTransfer boundary: ships SQL text to a linked server
};

/// Physical operator tree. Expressions reference child output ordinals; for
/// joins, the left child's columns come first.
struct PhysicalOp {
  explicit PhysicalOp(PhysicalKind k) : kind(k) {}
  virtual ~PhysicalOp() = default;
  const PhysicalKind kind;
  Schema schema;
  std::vector<std::unique_ptr<PhysicalOp>> children;
  double est_rows = 0;   // estimated output cardinality
  double est_cost = 0;   // estimated cumulative cost (this op + children)
};

using PhysicalPtr = std::unique_ptr<PhysicalOp>;

struct PhysDualScan : PhysicalOp {
  PhysDualScan() : PhysicalOp(PhysicalKind::kDualScan) {}
};

/// A read of a stored relation (PhysSeqScan or PhysIndexSeek) with the
/// filter and projection the optimizer folded into it.
struct PhysTableAccess : PhysicalOp {
  using PhysicalOp::PhysicalOp;
  const TableDef* def = nullptr;
  /// Filter folded into the read (over the table schema): non-qualifying
  /// rows are never materialized or emitted. Null = emit every live row.
  BExprPtr pushed_predicate;
  /// Projection folded into the read (over the table schema): qualifying
  /// rows are rewritten to these expressions. Empty = emit stored rows
  /// unchanged. When set, `schema` is the projected schema.
  std::vector<BExprPtr> pushed_projection;
  /// Bytes per stored row the plan was priced with (the table's
  /// avg_row_bytes; 0 without statistics). Each row read is charged
  /// CostModel::ReadRowCost(kSeqRowCost, row_bytes) by a scan and
  /// ReadRowCost(kIndexRowCost, row_bytes) by a seek.
  double row_bytes = 0;
};

struct PhysSeqScan : PhysTableAccess {
  PhysSeqScan() : PhysTableAccess(PhysicalKind::kSeqScan) {}
};

/// B+-tree range access: equality on a key prefix, then an optional range on
/// the next key column. Bounds are row-free expressions (literals/params).
struct PhysIndexSeek : PhysTableAccess {
  PhysIndexSeek() : PhysTableAccess(PhysicalKind::kIndexSeek) {}
  int index_ordinal = 0;
  std::vector<BExprPtr> eq_prefix;  // values for leading key columns
  BExprPtr lo;                      // optional lower bound on next column
  bool lo_inclusive = true;
  BExprPtr hi;                      // optional upper bound on next column
  bool hi_inclusive = true;
};

struct PhysFilter : PhysicalOp {
  PhysFilter() : PhysicalOp(PhysicalKind::kFilter) {}
  BExprPtr predicate;
  /// Startup predicates reference no columns; evaluated once at Open, and if
  /// false the child is never opened (the paper's ChoosePlan branches).
  bool startup = false;
};

struct PhysProject : PhysicalOp {
  PhysProject() : PhysicalOp(PhysicalKind::kProject) {}
  std::vector<BExprPtr> exprs;
};

struct PhysNLJoin : PhysicalOp {
  PhysNLJoin() : PhysicalOp(PhysicalKind::kNLJoin) {}
  JoinKind join_kind = JoinKind::kInner;
  BExprPtr condition;  // over concat(left, right); null = cross
  /// The ordinals of concat(left, right) the join emits, in order; empty =
  /// the whole concatenation. The same for every join kind: the planner
  /// composes a column selection above a join into it, and
  /// NarrowJoinOutputs trims it to the columns the plan above consumes.
  std::vector<int> output;
};

/// Index nested-loop join: children[0] is the outer input; the inner side is
/// a direct (optionally filtered) index access on a stored table, sought once
/// per outer row with the outer's join-key value.
struct PhysIndexNLJoin : PhysicalOp {
  PhysIndexNLJoin() : PhysicalOp(PhysicalKind::kIndexNLJoin) {}
  JoinKind join_kind = JoinKind::kInner;
  const TableDef* inner_def = nullptr;
  int index_ordinal = 0;
  int outer_key = 0;          // ordinal in the outer (left) output
  BExprPtr inner_predicate;   // residual over the inner table schema
  /// Projection applied to fetched inner rows before concatenation (view
  /// substitution wraps a narrower view in a column-remap/null-pad Project;
  /// the join sees through it). Empty = inner rows used as-is, which is how
  /// an identity compensation plans.
  std::vector<BExprPtr> inner_projection;
  /// As PhysIndexSeek::row_bytes, for the inner rows each seek fetches.
  double inner_row_bytes = 0;
  BExprPtr residual;          // over concat(left, projected inner)
  std::vector<int> output;    // as PhysNLJoin::output

  /// Width of the (projected) inner rows the join concatenates.
  int InnerWidth() const {
    return inner_projection.empty()
               ? inner_def->schema.num_columns()
               : static_cast<int>(inner_projection.size());
  }
};

struct PhysHashJoin : PhysicalOp {
  PhysHashJoin() : PhysicalOp(PhysicalKind::kHashJoin) {}
  JoinKind join_kind = JoinKind::kInner;
  // children[0] = probe (left), children[1] = build (right).
  std::vector<int> probe_keys;  // ordinals in left output
  std::vector<int> build_keys;  // ordinals in right output
  BExprPtr residual;            // over concat(left, right); may be null
  std::vector<int> output;      // as PhysNLJoin::output
};

struct PhysHashAggregate : PhysicalOp {
  PhysHashAggregate() : PhysicalOp(PhysicalKind::kHashAggregate) {}
  std::vector<BExprPtr> group_by;
  std::vector<AggItem> aggs;
};

struct PhysSort : PhysicalOp {
  PhysSort() : PhysicalOp(PhysicalKind::kSort) {}
  std::vector<SortKey> keys;
  /// > 0: a Top-N sort, set by the planner under a Limit (seeing through a
  /// projection): only the first `limit` rows by (keys, input position) are
  /// kept, which is what a stable sort followed by the Limit returns.
  int64_t limit = 0;
};

struct PhysLimit : PhysicalOp {
  PhysLimit() : PhysicalOp(PhysicalKind::kLimit) {}
  int64_t limit = 0;
};

struct PhysDistinct : PhysicalOp {
  PhysDistinct() : PhysicalOp(PhysicalKind::kDistinct) {}
};

struct PhysUnionAll : PhysicalOp {
  PhysUnionAll() : PhysicalOp(PhysicalKind::kUnionAll) {}
};

/// The physical realization of DataTransfer (§5): the subexpression below
/// the transfer is unparsed to SQL text and shipped to `server`, which
/// parses and re-optimizes it ("queries can only be shipped as textual SQL").
struct PhysRemoteQuery : PhysicalOp {
  PhysRemoteQuery() : PhysicalOp(PhysicalKind::kRemoteQuery) {}
  std::string server;
  std::string sql;
};

/// The output list of a join operator (PhysNLJoin / PhysIndexNLJoin /
/// PhysHashJoin::output); null for every other kind.
std::vector<int>* JoinOutput(PhysicalOp* op);

/// Single-node label ("SeqScan(item)", "RemoteQuery[backend](...)"), shared
/// by EXPLAIN rendering and the per-operator profile tree.
std::string PhysicalOpLabel(const PhysicalOp& op);

/// Multi-line rendering with per-node estimates, for tests and EXPLAIN.
std::string PhysicalToString(const PhysicalOp& op, int indent = 0);

/// Total number of operators (plan size; §5.1.2 discusses plan-size growth).
int PhysicalPlanSize(const PhysicalOp& op);

}  // namespace mtcache

#endif  // MTCACHE_OPT_PHYSICAL_H_
