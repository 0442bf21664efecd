#include "types/column.h"

namespace mtcache {

void ColumnVector::Reset(TypeId t, size_t n) {
  type = t;
  size = n;
  has_nulls = false;
  nulls.assign(n, 0);
  ints.clear();
  dbls.clear();
  strs.clear();
  switch (t) {
    case TypeId::kBool:
    case TypeId::kInt64:
      ints.resize(n);
      break;
    case TypeId::kDouble:
      dbls.resize(n);
      break;
    case TypeId::kString:
      strs.assign(n, std::string_view());
      break;
    case TypeId::kNull:
      break;
  }
}

Value ColumnVector::GetValue(size_t i) const {
  if (nulls[i]) return Value::TypedNull(type);
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(ints[i] != 0);
    case TypeId::kInt64:
      return Value::Int(ints[i]);
    case TypeId::kDouble:
      return Value::Double(dbls[i]);
    case TypeId::kString:
      return Value::String(strs[i]);
    case TypeId::kNull:
      break;
  }
  return Value::Null();
}

bool ExtractColumn(const Row* const* rows, size_t n, int ordinal,
                   TypeId expected, ColumnVector* out) {
  if (expected == TypeId::kNull) return false;
  out->Reset(expected, n);
  // Same two-stage prefetch pipeline as the row-path predicate loop: this is
  // the first touch of each row's memory on a cold scan, so overlap the Row
  // header miss and the Value miss across iterations.
  constexpr size_t kAhead = 16;
  switch (expected) {
    case TypeId::kBool:
    case TypeId::kInt64: {
      int64_t* dst = out->ints.data();
      for (size_t i = 0; i < n; ++i) {
        if (i + kAhead < n) __builtin_prefetch(rows[i + kAhead]);
        if (i + kAhead / 2 < n) {
          __builtin_prefetch(rows[i + kAhead / 2]->data() + ordinal);
        }
        const Value& v = (*rows[i])[ordinal];
        if (v.is_null()) {
          out->nulls[i] = 1;
          out->has_nulls = true;
          continue;
        }
        if (v.type() != expected) return false;
        dst[i] = v.AsInt();
      }
      return true;
    }
    case TypeId::kDouble: {
      double* dst = out->dbls.data();
      for (size_t i = 0; i < n; ++i) {
        if (i + kAhead < n) __builtin_prefetch(rows[i + kAhead]);
        if (i + kAhead / 2 < n) {
          __builtin_prefetch(rows[i + kAhead / 2]->data() + ordinal);
        }
        const Value& v = (*rows[i])[ordinal];
        if (v.is_null()) {
          out->nulls[i] = 1;
          out->has_nulls = true;
          continue;
        }
        if (v.type() != expected) return false;
        dst[i] = v.AsDouble();
      }
      return true;
    }
    case TypeId::kString: {
      std::string_view* dst = out->strs.data();
      for (size_t i = 0; i < n; ++i) {
        if (i + kAhead < n) __builtin_prefetch(rows[i + kAhead]);
        const Value& v = (*rows[i])[ordinal];
        if (v.is_null()) {
          out->nulls[i] = 1;
          out->has_nulls = true;
          continue;
        }
        if (v.type() != expected) return false;
        dst[i] = v.AsString();
      }
      return true;
    }
    case TypeId::kNull:
      break;
  }
  return false;
}

}  // namespace mtcache
