#include "expr/vector_kernels.h"

namespace mtcache {

namespace {

// One pass per (payload type, operator) instantiation. The null mask is ANDed
// in unconditionally; callers that extracted a null-free column pass
// has_nulls=false and get the pure compare loop.
template <typename T, typename Cmp>
void CmpLoop(const T* v, const uint8_t* nulls, bool has_nulls, size_t n,
             char* keep, Cmp cmp) {
  if (has_nulls) {
    for (size_t i = 0; i < n; ++i) {
      keep[i] = static_cast<char>(keep[i] & (nulls[i] == 0) & cmp(v[i]));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      keep[i] = static_cast<char>(keep[i] & cmp(v[i]));
    }
  }
}

template <typename T>
void DispatchOp(const T* v, const uint8_t* nulls, bool has_nulls, size_t n,
                char* keep, BinaryOp op, T rhs) {
  switch (op) {
    case BinaryOp::kEq:
      CmpLoop(v, nulls, has_nulls, n, keep, [rhs](T x) { return x == rhs; });
      break;
    case BinaryOp::kNe:
      CmpLoop(v, nulls, has_nulls, n, keep, [rhs](T x) { return x != rhs; });
      break;
    case BinaryOp::kLt:
      CmpLoop(v, nulls, has_nulls, n, keep, [rhs](T x) { return x < rhs; });
      break;
    case BinaryOp::kLe:
      CmpLoop(v, nulls, has_nulls, n, keep, [rhs](T x) { return x <= rhs; });
      break;
    case BinaryOp::kGt:
      CmpLoop(v, nulls, has_nulls, n, keep, [rhs](T x) { return x > rhs; });
      break;
    case BinaryOp::kGe:
      CmpLoop(v, nulls, has_nulls, n, keep, [rhs](T x) { return x >= rhs; });
      break;
    default:
      break;
  }
}

bool IsNumeric(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt64 || t == TypeId::kDouble;
}

// Double-precision comparisons in "probe form": Value::Compare decides via
// `a < b` then `a > b`, returning 0 when both probes fail — which makes NaN
// compare as equal to everything. The lambdas below encode exactly those
// probe outcomes (e.g. kEq as !(x<r) && !(x>r)), so NaN payloads behave bit
// for bit like the scalar path while the loops stay vectorizable.
template <typename T>
void ProbeLoops(const T* v, const uint8_t* nulls, bool has_nulls, size_t n,
                char* keep, BinaryOp op, double rhs) {
  const double r = rhs;
  switch (op) {
    case BinaryOp::kEq:
      CmpLoop(v, nulls, has_nulls, n, keep, [r](T x) {
        double d = static_cast<double>(x);
        return !(d < r) && !(d > r);
      });
      break;
    case BinaryOp::kNe:
      CmpLoop(v, nulls, has_nulls, n, keep, [r](T x) {
        double d = static_cast<double>(x);
        return (d < r) || (d > r);
      });
      break;
    case BinaryOp::kLt:
      CmpLoop(v, nulls, has_nulls, n, keep,
              [r](T x) { return static_cast<double>(x) < r; });
      break;
    case BinaryOp::kLe:
      CmpLoop(v, nulls, has_nulls, n, keep,
              [r](T x) { return !(static_cast<double>(x) > r); });
      break;
    case BinaryOp::kGt:
      CmpLoop(v, nulls, has_nulls, n, keep,
              [r](T x) { return static_cast<double>(x) > r; });
      break;
    case BinaryOp::kGe:
      CmpLoop(v, nulls, has_nulls, n, keep,
              [r](T x) { return !(static_cast<double>(x) < r); });
      break;
    default:
      break;
  }
}

void NumericAsDouble(const ColumnVector& col, BinaryOp op, double rhs,
                     char* keep) {
  const uint8_t* nulls = col.nulls.data();
  const size_t n = col.size;
  if (col.type == TypeId::kDouble) {
    ProbeLoops<double>(col.dbls.data(), nulls, col.has_nulls, n, keep, op,
                       rhs);
  } else {
    ProbeLoops<int64_t>(col.ints.data(), nulls, col.has_nulls, n, keep, op,
                        rhs);
  }
}

}  // namespace

void FilterCompareColumn(const ColumnVector& col, BinaryOp op,
                         const Value& rhs, char* keep) {
  const size_t n = col.size;
  const uint8_t* nulls = col.nulls.data();
  if (col.type == TypeId::kInt64 && rhs.type() == TypeId::kInt64) {
    DispatchOp<int64_t>(col.ints.data(), nulls, col.has_nulls, n, keep, op,
                        rhs.AsInt());
    return;
  }
  if (IsNumeric(col.type) && IsNumeric(rhs.type())) {
    NumericAsDouble(col, op, rhs.AsDouble(), keep);
    return;
  }
  if (col.type == TypeId::kString && rhs.type() == TypeId::kString) {
    // A NULL lane holds an empty view, so it is compared like any other
    // lane and masked out by `nulls`.
    const std::string_view r = rhs.AsString();
    const std::string_view* v = col.strs.data();
    switch (op) {
      case BinaryOp::kEq:
        CmpLoop(v, nulls, col.has_nulls, n, keep,
                [r](std::string_view s) { return s == r; });
        break;
      case BinaryOp::kNe:
        CmpLoop(v, nulls, col.has_nulls, n, keep,
                [r](std::string_view s) { return s != r; });
        break;
      case BinaryOp::kLt:
        CmpLoop(v, nulls, col.has_nulls, n, keep,
                [r](std::string_view s) { return s < r; });
        break;
      case BinaryOp::kLe:
        CmpLoop(v, nulls, col.has_nulls, n, keep,
                [r](std::string_view s) { return s <= r; });
        break;
      case BinaryOp::kGt:
        CmpLoop(v, nulls, col.has_nulls, n, keep,
                [r](std::string_view s) { return s > r; });
        break;
      case BinaryOp::kGe:
        CmpLoop(v, nulls, col.has_nulls, n, keep,
                [r](std::string_view s) { return s >= r; });
        break;
      default:
        break;
    }
    return;
  }
  // Incomparable type mix: Value::Compare orders by type id, so every
  // non-NULL row gets the same verdict.
  int c = static_cast<int>(col.type) < static_cast<int>(rhs.type())   ? -1
          : static_cast<int>(col.type) > static_cast<int>(rhs.type()) ? 1
                                                                      : 0;
  bool pass = ComparePasses(op, c);
  for (size_t i = 0; i < n; ++i) {
    keep[i] = static_cast<char>(keep[i] & (nulls[i] == 0) & pass);
  }
}

}  // namespace mtcache
