#ifndef MTCACHE_CATALOG_VIEW_DEF_H_
#define MTCACHE_CATALOG_VIEW_DEF_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace mtcache {

struct TableDef;

/// Comparison operators appearing in simple predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSymbol(CompareOp op);
/// Flips the operand order: a < b  <->  b > a.
CompareOp FlipCompareOp(CompareOp op);

/// One conjunct of a select-project definition: `column op constant`.
/// Materialized-view and replication-article predicates are restricted to
/// conjunctions of these (the paper's cached views are "selections and
/// projections of tables or materialized views", §1/§4), which is what makes
/// view matching and log-change filtering tractable.
struct SimplePredicate {
  std::string column;  // base-table column name, lower-cased
  CompareOp op = CompareOp::kEq;
  Value constant;

  /// Evaluates against a value of the named column.
  bool Matches(const Value& v) const;

  std::string ToString() const;
};

/// A select-project expression over a single base table (or matview): the
/// shape shared by cached materialized views (§4) and replication articles
/// (§2.2: "an article is defined by a select-project expression over a table
/// or a materialized view").
struct SelectProjectDef {
  std::string base_table;            // lower-cased
  std::vector<std::string> columns;  // projected base columns, in view order
  std::vector<SimplePredicate> predicates;  // conjunction; empty = all rows

  /// True if `row_columns/row` (full base-table row) satisfies all
  /// predicates. `col_of` maps column name -> ordinal in the base row.
  bool RowMatches(const std::vector<int>& pred_col_ordinals,
                  const Row& row) const;

  /// Renders as SQL text (SELECT c1, c2 FROM t WHERE ...), used when the
  /// subscription snapshot runs through the normal query path.
  std::string ToSelectSql() const;
};

/// One change to a select-project view's rows, in view column order: what a
/// base-row change becomes once the view's predicate and projection apply.
struct ViewChange {
  enum class Op { kInsert, kDelete, kUpdate };
  Op op = Op::kInsert;
  Row before;  // kDelete, kUpdate
  Row after;   // kInsert, kUpdate
};

/// A SelectProjectDef resolved against its base table once, when the view or
/// replication subscription is created. Every path that keeps a
/// select-project view current (synchronous materialized-view maintenance,
/// the populate of a new view, the distributor) filters and projects base
/// rows through one of these, so none searches column names per row.
class ViewMapping {
 public:
  /// Fails with InvalidArgument when a projected or predicate column is not
  /// a column of `base`.
  static StatusOr<ViewMapping> Resolve(const SelectProjectDef& def,
                                       const TableDef& base);

  /// True when the full base row satisfies the view predicate.
  bool Matches(const Row& base_row) const {
    return def_.RowMatches(predicate_ordinals_, base_row);
  }
  /// The view row of a full base row.
  Row Project(const Row& base_row) const;
  /// The view change one base-row change makes. `before` and `after` are the
  /// base row's images, null where the change has none (an insert has no
  /// before image, a delete no after image). Empty when the row is outside
  /// the view both before and after.
  std::optional<ViewChange> Classify(const Row* before,
                                     const Row* after) const;

  /// Base ordinal of each view column.
  const std::vector<int>& projected_ordinals() const {
    return projected_ordinals_;
  }
  /// View ordinal of each base primary-key column, -1 where the view does
  /// not project it.
  const std::vector<int>& key_ordinals() const { return key_ordinals_; }

 private:
  SelectProjectDef def_;
  std::vector<int> predicate_ordinals_;
  std::vector<int> projected_ordinals_;
  std::vector<int> key_ordinals_;
};

}  // namespace mtcache

#endif  // MTCACHE_CATALOG_VIEW_DEF_H_
