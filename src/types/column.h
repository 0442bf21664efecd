#ifndef MTCACHE_TYPES_COLUMN_H_
#define MTCACHE_TYPES_COLUMN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "types/value.h"

namespace mtcache {

/// A typed, flat view of one column across a run of rows, extracted from the
/// rows' pointers by the code that reads them (EvalPredicateBatch's compare
/// kernels, HashAggregate's typed absorb). It is a kernel input, not a
/// representation operators exchange. Payloads are split by
/// type into contiguous arrays so predicate/aggregate kernels run tight
/// branch-free loops the compiler can vectorize, instead of per-row
/// Value::Compare calls through the tagged union.
///
/// Strings are borrowed: each `std::string_view` points into the immutable
/// buffer of a source row's Value, so a ColumnVector is only valid while the
/// rows it was extracted from (or other Values sharing those buffers) stay
/// alive. Nothing is refcounted here. A NULL lane holds an empty view.
///
/// NULLs use a byte-per-row mask rather than a packed bitmap: kernels read
/// `nulls[i]` with no shift/mask dependency chain, it widens to a SIMD lane
/// the same way the payload does, and batches are ≤1024 rows so the extra
/// 7 bits/row are noise.
struct ColumnVector {
  /// Type of every non-NULL value in the vector. Extraction is strict: a row
  /// whose value has a different type tag aborts extraction (the caller
  /// falls back to the row-at-a-time path), so kernels never re-dispatch.
  TypeId type = TypeId::kNull;
  size_t size = 0;
  bool has_nulls = false;
  std::vector<uint8_t> nulls;  // 1 = SQL NULL; payload slot is meaningless

  // Exactly one payload array is populated, selected by `type`:
  std::vector<int64_t> ints;             // kBool / kInt64
  std::vector<double> dbls;              // kDouble
  std::vector<std::string_view> strs;    // kString (borrowed)

  void Reset(TypeId t, size_t n);

  /// Reconstructs the i-th value. NULLs come back as TypedNull(type): the
  /// original NULL's type tag is not preserved, which is observationally
  /// equivalent everywhere (Compare/Hash/rendering ignore a NULL's tag).
  Value GetValue(size_t i) const;
};

/// Extracts column `ordinal` of `rows[0..n)` into `*out` as type `expected`.
/// Returns false — leaving *out unspecified and the caller on the row path —
/// if any non-NULL value's type tag differs from `expected` (heterogeneous
/// data the typed kernels cannot represent). Never fails on NULLs.
bool ExtractColumn(const Row* const* rows, size_t n, int ordinal,
                   TypeId expected, ColumnVector* out);

}  // namespace mtcache

#endif  // MTCACHE_TYPES_COLUMN_H_
