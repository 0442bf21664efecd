#include "types/value.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>

#include "common/string_util.h"

namespace mtcache {

const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kNull:
      return "null";
    case TypeId::kBool:
      return "bool";
    case TypeId::kInt64:
      return "bigint";
    case TypeId::kDouble:
      return "float";
    case TypeId::kString:
      return "varchar";
  }
  return "unknown";
}

Value Value::String(std::string_view s) {
  Value v;
  v.type_ = TypeId::kString;
  v.is_null_ = false;
  v.s_ = nullptr;
  if (!s.empty()) {
    char* mem =
        static_cast<char*>(::operator new(sizeof(StringBuf) + s.size()));
    auto* buf = new (mem) StringBuf;
    buf->refs.store(1, std::memory_order_relaxed);
    buf->size = s.size();
    std::memcpy(mem + sizeof(StringBuf), s.data(), s.size());
    v.s_ = buf;
  }
  return v;
}

void Value::FreeString(StringBuf* buf) {
  buf->~StringBuf();
  ::operator delete(buf);
}

double Value::SizeBytes() const {
  if (is_null_) return 1;
  switch (type_) {
    case TypeId::kNull:
      return 1;
    case TypeId::kBool:
      return 1;
    case TypeId::kInt64:
      return 8;
    case TypeId::kDouble:
      return 8;
    case TypeId::kString:
      return 4 + static_cast<double>(AsString().size());
  }
  return 8;
}

double Value::AsStatDouble() const {
  if (is_null_) return 0;
  switch (type_) {
    case TypeId::kNull:
      return 0;
    case TypeId::kBool:
    case TypeId::kInt64:
      return static_cast<double>(i_);
    case TypeId::kDouble:
      return d_;
    case TypeId::kString: {
      // Order-preserving-ish projection of the first few characters, so range
      // selectivity on strings is at least monotone.
      const std::string_view s = AsString();
      double x = 0;
      double scale = 1.0;
      for (size_t i = 0; i < s.size() && i < 8; ++i) {
        scale /= 256.0;
        x += static_cast<unsigned char>(s[i]) * scale;
      }
      return x;
    }
  }
  return 0;
}

std::string Value::ToSqlLiteral() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return i_ ? "TRUE" : "FALSE";
    case TypeId::kInt64:
      return std::to_string(i_);
    case TypeId::kDouble: {
      // Shortest decimal rendering that parses back to exactly this double.
      // std::to_string's fixed 6 digits truncates (0.1234567891 -> 0.123457),
      // which corrupts literals round-tripped through unparse -> parse for
      // remote forwarding. %.17g always round-trips; prefer fewer digits
      // when they already do.
      char buf[40];
      for (int precision = 15; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, d_);
        if (std::strtod(buf, nullptr) == d_) break;
      }
      std::string s = buf;
      // Keep the literal float-typed on re-parse: "1e+30" and "0.5" lex as
      // floats, a bare "4" would lex as an int.
      if (s.find_first_of(".eE") == std::string::npos &&
          s.find_first_of("0123456789") != std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case TypeId::kString:
      return SqlQuote(AsString());
  }
  return "NULL";
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  if (type_ == TypeId::kString) return std::string(AsString());
  return ToSqlLiteral();
}

size_t Value::Hash() const {
  if (is_null_) return 0x9e3779b9;
  switch (type_) {
    case TypeId::kNull:
      return 0x9e3779b9;
    case TypeId::kBool:
    case TypeId::kInt64:
      return std::hash<int64_t>()(i_);
    case TypeId::kDouble: {
      // Hash doubles that are whole numbers like the equal int (joins may
      // compare int columns to double expressions).
      // The range check comes first: casting a double outside int64 (1e300,
      // +-inf, NaN) is undefined behaviour. -2^63 is exact; 2^63 is not.
      double d = d_;
      if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
        int64_t i = static_cast<int64_t>(d);
        if (static_cast<double>(i) == d) return std::hash<int64_t>()(i);
      }
      return std::hash<double>()(d);
    }
    case TypeId::kString:
      return std::hash<std::string_view>()(AsString());
  }
  return 0;
}

size_t HashRow(const Row& row) {
  size_t h = 1469598103934665603ULL;
  for (const Value& v : row) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

double RowSizeBytes(const Row& row) {
  double total = 4;  // per-row header
  for (const Value& v : row) total += v.SizeBytes();
  return total;
}

}  // namespace mtcache
