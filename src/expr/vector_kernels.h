#ifndef MTCACHE_EXPR_VECTOR_KERNELS_H_
#define MTCACHE_EXPR_VECTOR_KERNELS_H_

#include "sql/ast.h"

namespace mtcache {

// Comparison helpers shared by EvalBound's comparisons and
// EvalPredicateBatch's column-vs-constant conjuncts, so the two cannot
// drift.

/// True for the comparison operators.
inline bool IsCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Filter outcome for comparison result `c` (Value::Compare order of
/// (column, rhs)); both sides known non-NULL.
inline bool ComparePasses(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

/// Mirror of kLt etc. for the flipped operand order (rhs cmp column).
inline BinaryOp FlipCompare(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // Eq/Ne are symmetric
  }
}

}  // namespace mtcache

#endif  // MTCACHE_EXPR_VECTOR_KERNELS_H_
