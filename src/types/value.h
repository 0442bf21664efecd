#ifndef MTCACHE_TYPES_VALUE_H_
#define MTCACHE_TYPES_VALUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mtcache {

/// SQL data types supported by the engine. Dates/timestamps are stored as
/// kInt64 (seconds since epoch); TPC-W needs no finer granularity.
enum class TypeId : uint8_t {
  kNull = 0,   // only used for untyped NULL literals
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Name of a type for error messages and SHOW-style output.
const char* TypeName(TypeId type);

/// A single SQL value: a tagged union over the supported types plus NULL.
/// Values are small, copyable, and totally ordered within a type (NULL sorts
/// first, as in an index key). Cross numeric-type comparison (int vs double)
/// is supported; other cross-type comparison is a caller bug guarded by the
/// binder's type checking.
///
/// Layout: a type tag, a null flag and one 8-byte payload (int64, double, or
/// a pointer to an immutable, atomically refcounted string buffer), 16 bytes
/// in all. Copying a string Value shares its buffer (one atomic increment,
/// no allocation); the bytes never change after Value::String builds them,
/// so rows shared across sessions and threads read them without a latch.
/// The empty string has no buffer. A moved-from string Value reads as "".
class Value {
 public:
  /// Constructs SQL NULL (of unknown type).
  Value() noexcept : type_(TypeId::kNull), is_null_(true), i_(0) {}
  Value(const Value& other) noexcept
      : type_(other.type_), is_null_(other.is_null_), i_(other.i_) {
    Retain();
  }
  Value(Value&& other) noexcept
      : type_(other.type_), is_null_(other.is_null_), i_(other.i_) {
    if (other.type_ == TypeId::kString) other.s_ = nullptr;
  }
  Value& operator=(const Value& other) noexcept {
    other.Retain();  // first: `other` may be *this, or share our buffer
    Release();
    type_ = other.type_;
    is_null_ = other.is_null_;
    i_ = other.i_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      type_ = other.type_;
      is_null_ = other.is_null_;
      i_ = other.i_;
      if (other.type_ == TypeId::kString) other.s_ = nullptr;
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }
  static Value TypedNull(TypeId type) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.is_null_ = false;
    v.i_ = b ? 1 : 0;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.is_null_ = false;
    v.i_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.is_null_ = false;
    v.d_ = d;
    return v;
  }
  /// Copies `s` into a new shared buffer (none for the empty string).
  static Value String(std::string_view s);

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  // Mismatched-tag reads are defined: AsInt/AsBool read 0/false on a double
  // or string, AsDouble reads 0 on a string, AsString reads "" on a
  // non-string. A NULL reads as its type's zero.
  bool AsBool() const { return AsInt() != 0; }
  int64_t AsInt() const { return HasIntPayload() ? i_ : 0; }
  double AsDouble() const {
    if (type_ == TypeId::kDouble) return d_;
    return HasIntPayload() ? static_cast<double>(i_) : 0;
  }
  /// The string's bytes, borrowed: the view is valid while some Value holding
  /// this buffer (this one or a copy of it) lives.
  std::string_view AsString() const {
    if (type_ != TypeId::kString || s_ == nullptr) return {};
    return {s_->data(), s_->size};
  }

  /// Three-way comparison: -1, 0, +1. NULL compares equal to NULL and less
  /// than any non-NULL (index-key ordering; SQL ternary logic is handled in
  /// expression evaluation, not here).
  int Compare(const Value& other) const {
    if (is_null_ && other.is_null_) return 0;
    if (is_null_) return -1;
    if (other.is_null_) return 1;
    // Numeric types compare by value across int/double.
    bool numeric_a = type_ == TypeId::kInt64 || type_ == TypeId::kDouble ||
                     type_ == TypeId::kBool;
    bool numeric_b = other.type_ == TypeId::kInt64 ||
                     other.type_ == TypeId::kDouble ||
                     other.type_ == TypeId::kBool;
    if (numeric_a && numeric_b) {
      if (type_ == TypeId::kInt64 && other.type_ == TypeId::kInt64) {
        if (i_ < other.i_) return -1;
        if (i_ > other.i_) return 1;
        return 0;
      }
      double a = AsDouble();
      double b = other.AsDouble();
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    if (type_ == TypeId::kString && other.type_ == TypeId::kString) {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    // Mixed incomparable types: order by type id to keep a total order.
    return type_ < other.type_ ? -1 : (type_ > other.type_ ? 1 : 0);
  }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Approximate in-memory/wire size in bytes, used by the DataTransfer cost
  /// model (§5: transfer cost is proportional to data volume). This is the
  /// logical size of the value, not sizeof(Value).
  double SizeBytes() const;

  /// Numeric interpretation for statistics (histogram buckets). Strings hash
  /// to a stable small double; NULL returns 0.
  double AsStatDouble() const;

  /// Human/SQL rendering; strings come back quoted so the output can be
  /// re-parsed (used by the remote-SQL unparser).
  std::string ToSqlLiteral() const;
  /// Unquoted rendering for result tables.
  std::string ToString() const;

  /// Stable hash for hash joins / aggregation / DISTINCT.
  size_t Hash() const;

 private:
  // Header of an immutable string buffer; the bytes follow it.
  struct StringBuf {
    std::atomic<uint32_t> refs;
    size_t size;
    const char* data() const {
      return reinterpret_cast<const char*>(this + 1);
    }
  };

  bool HasIntPayload() const {
    return type_ == TypeId::kInt64 || type_ == TypeId::kBool;
  }
  void Retain() const {
    if (type_ == TypeId::kString && s_ != nullptr) {
      s_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Release() {
    if (type_ == TypeId::kString && s_ != nullptr &&
        s_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FreeString(s_);
    }
  }
  static void FreeString(StringBuf* buf);

  TypeId type_;
  bool is_null_;
  union {
    int64_t i_;
    double d_;
    StringBuf* s_;
  };
};

static_assert(sizeof(Value) == 16, "Value is a tag, a null flag and 8 bytes");

/// A tuple of values. Rows flow between operators by value; copying one
/// shares its strings' buffers.
using Row = std::vector<Value>;

/// Calls fn(i, cell) with the Value at `ordinal` of each *rows[i], i < n,
/// read where it sits. Unless the rows are known to be in cache already
/// (`prefetch` false), prefetches in two stages: row headers 16 rows ahead,
/// the cell itself 8 ahead, so a cold scan overlaps its two dependent
/// misses per row across iterations.
template <typename Fn>
inline void ForEachCell(const Row* const* rows, size_t n, int ordinal, Fn fn,
                        bool prefetch = true) {
  constexpr size_t kAhead = 16;
  for (size_t i = 0; i < n; ++i) {
    if (prefetch) {
      if (i + kAhead < n) __builtin_prefetch(rows[i + kAhead]);
      if (i + kAhead / 2 < n) {
        __builtin_prefetch(rows[i + kAhead / 2]->data() + ordinal);
      }
    }
    fn(i, (*rows[i])[ordinal]);
  }
}

/// Reads the cell at `ordinal` of each *rows[i], i < n, in a tight
/// prefetching loop, so that a heavier per-row loop over the same rows that
/// follows runs from cache.
inline void TouchCells(const Row* const* rows, size_t n, int ordinal) {
  uint8_t seen = 0;
  ForEachCell(rows, n, ordinal, [&seen](size_t, const Value& v) {
    seen |= static_cast<uint8_t>(v.type());
  });
  asm volatile("" : : "r"(seen));  // keep the loads
}

/// Hash of a full key (composite). Used by hash-based operators.
size_t HashRow(const Row& row);

/// Approximate byte size of a row for transfer costing.
double RowSizeBytes(const Row& row);

}  // namespace mtcache

#endif  // MTCACHE_TYPES_VALUE_H_
