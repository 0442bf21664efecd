#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "sql/lexer.h"
#include "types/schema.h"
#include "types/value.h"

namespace mtcache {
namespace {

TEST(ValueTest, NullProperties) {
  Value v = Value::Null();
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToSqlLiteral(), "NULL");
}

TEST(ValueTest, IntRoundTrip) {
  Value v = Value::Int(42);
  EXPECT_FALSE(v.is_null());
  EXPECT_EQ(v.type(), TypeId::kInt64);
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_EQ(v.ToSqlLiteral(), "42");
}

TEST(ValueTest, StringQuotingInLiteral) {
  Value v = Value::String("it's");
  EXPECT_EQ(v.ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(v.ToString(), "it's");
}

TEST(ValueTest, DoubleLiteralRoundTripsExactly) {
  // std::to_string's fixed 6 fractional digits used to truncate these, so a
  // literal forwarded through unparse -> parse changed value.
  const double cases[] = {0.1234567891,      1e-7,    0.1, 1.0 / 3.0, 1e30,
                          123456.789012345, -2.5e-9, 4.0, -0.0078125};
  for (double d : cases) {
    std::string lit = Value::Double(d).ToSqlLiteral();
    EXPECT_EQ(std::strtod(lit.c_str(), nullptr), d) << lit;
  }
}

TEST(ValueTest, DoubleLiteralStaysFloatTyped) {
  // A whole-number double must keep a '.' or exponent, or re-parsing the
  // literal silently turns it into an int.
  EXPECT_EQ(Value::Double(4).ToSqlLiteral(), "4.0");
  EXPECT_EQ(Value::Double(-4).ToSqlLiteral(), "-4.0");
}

TEST(ValueTest, DoubleLiteralPrefersShortestExactForm) {
  EXPECT_EQ(Value::Double(0.1).ToSqlLiteral(), "0.1");
  EXPECT_EQ(Value::Double(2.5).ToSqlLiteral(), "2.5");
}

TEST(ValueTest, CompareInts) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Int(3).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, CompareMixedNumeric) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-1000)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_GT(Value::Int(0).Compare(Value::Null()), 0);
}

TEST(ValueTest, HashEqualForEqualValues) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::String("a").Hash(), Value::String("a").Hash());
  // Whole doubles hash like equal ints (join compatibility).
  EXPECT_EQ(Value::Double(7.0).Hash(), Value::Int(7).Hash());
}

TEST(ValueTest, SizeBytes) {
  EXPECT_DOUBLE_EQ(Value::Int(1).SizeBytes(), 8);
  EXPECT_DOUBLE_EQ(Value::String("abcd").SizeBytes(), 8);  // 4 + len
}

TEST(ValueTest, AsStatDoubleMonotoneOnStrings) {
  double a = Value::String("apple").AsStatDouble();
  double b = Value::String("banana").AsStatDouble();
  EXPECT_LT(a, b);
}

// Long enough that a std::string copy of it would allocate.
const char kLong[] = "a string well past the small-string buffer";

TEST(ValueTest, StringCopiesShareOneBuffer) {
  Value a = Value::String(kLong);
  Value b = a;
  EXPECT_EQ(a.AsString(), kLong);
  EXPECT_EQ(b.AsString(), kLong);
  EXPECT_EQ(a.AsString().data(), b.AsString().data());
  Value c;
  c = a;
  EXPECT_EQ(c.AsString().data(), a.AsString().data());
  // Dropping the original leaves the copies intact.
  a = Value::Int(1);
  EXPECT_EQ(b.AsString(), kLong);
  EXPECT_EQ(c.AsString(), kLong);
  EXPECT_EQ(a.AsInt(), 1);
}

TEST(ValueTest, StringMoveLeavesEmptyString) {
  Value a = Value::String(kLong);
  const char* bytes = a.AsString().data();
  Value b = std::move(a);
  EXPECT_EQ(b.AsString().data(), bytes);
  EXPECT_EQ(b.AsString(), kLong);
  // A moved-from string Value is a non-NULL empty string.
  EXPECT_EQ(a.type(), TypeId::kString);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(a.is_null());
  EXPECT_EQ(a.AsString(), "");
  EXPECT_EQ(a.ToSqlLiteral(), "''");
  Value c = Value::String("x");
  c = std::move(b);
  EXPECT_EQ(c.AsString(), kLong);
  EXPECT_EQ(b.AsString(), "");  // NOLINT(bugprone-use-after-move)
  // A moved-from Value can be assigned again.
  b = c;
  EXPECT_EQ(b.AsString(), kLong);
}

TEST(ValueTest, StringSelfAssignKeepsValue) {
  Value a = Value::String(kLong);
  Value& alias = a;
  a = alias;
  EXPECT_EQ(a.AsString(), kLong);
  a = std::move(alias);
  EXPECT_EQ(a.AsString(), kLong);
  Value b = a;
  b = a;  // assigning the buffer it already holds
  EXPECT_EQ(b.AsString(), kLong);
  EXPECT_EQ(a.AsString(), kLong);
}

TEST(ValueTest, EmptyStringIsNotNull) {
  Value e = Value::String("");
  EXPECT_FALSE(e.is_null());
  EXPECT_EQ(e.type(), TypeId::kString);
  EXPECT_EQ(e.AsString(), "");
  Value copy = e;
  EXPECT_EQ(copy.AsString(), "");
}

TEST(ValueTest, MismatchedTagAccessorsReadZero) {
  const Value d = Value::Double(2.5);
  EXPECT_EQ(d.AsInt(), 0);
  EXPECT_FALSE(d.AsBool());
  EXPECT_EQ(d.AsString(), "");
  EXPECT_FALSE(Value::Double(1.0).AsBool());
  const Value s = Value::String(kLong);
  EXPECT_EQ(s.AsInt(), 0);
  EXPECT_FALSE(s.AsBool());
  EXPECT_EQ(s.AsDouble(), 0.0);
  EXPECT_EQ(Value::Int(7).AsString(), "");
  EXPECT_EQ(Value::Int(7).AsDouble(), 7.0);
  EXPECT_EQ(Value::Bool(true).AsInt(), 1);
  EXPECT_EQ(Value::Bool(true).AsDouble(), 1.0);
  EXPECT_EQ(Value::Null().AsInt(), 0);
  EXPECT_EQ(Value::TypedNull(TypeId::kString).AsString(), "");
  EXPECT_EQ(Value::TypedNull(TypeId::kDouble).AsDouble(), 0.0);
}

TEST(ValueTest, CompareAndHashParity) {
  // Int vs whole double: equal, and hashed alike.
  EXPECT_EQ(Value::Int(-3).Compare(Value::Double(-3.0)), 0);
  EXPECT_EQ(Value::Int(-3).Hash(), Value::Double(-3.0).Hash());
  EXPECT_EQ(Value::Int(1LL << 40).Hash(), Value::Double(0x1p40).Hash());
  // Bytes >= 0x80 order after ASCII (unsigned byte order, as std::string).
  const std::string high = "caf\xc3\xa9";
  const std::string low = "cafe";
  EXPECT_GT(Value::String(high).Compare(Value::String(low)), 0);
  EXPECT_LT(Value::String(low).Compare(Value::String(high)), 0);
  EXPECT_GT(Value::String("\x80").Compare(Value::String("\x7f")), 0);
  EXPECT_EQ(high.compare(low) > 0,
            Value::String(high).Compare(Value::String(low)) > 0);
  // String hashes are std::hash<std::string>, so hash-join and aggregate
  // order do not depend on the representation.
  for (const std::string& str : {high, low, std::string(kLong), std::string()}) {
    EXPECT_EQ(Value::String(str).Hash(), std::hash<std::string>()(str));
  }
  // The empty string is a value; NULL sorts before it and hashes apart.
  const Value empty = Value::String("");
  EXPECT_LT(Value::Null().Compare(empty), 0);
  EXPECT_GT(empty.Compare(Value::Null()), 0);
  EXPECT_EQ(Value::TypedNull(TypeId::kString).Compare(Value::Null()), 0);
  EXPECT_NE(empty.Hash(), Value::Null().Hash());
  EXPECT_EQ(Value::TypedNull(TypeId::kString).Hash(), Value::Null().Hash());
}

TEST(ValueTest, HashOfDoublesOutsideInt64Range) {
  // A double int64 cannot hold hashes as a double; casting it to int64 to
  // test for wholeness was undefined behaviour (this suite runs under UBSan).
  for (double d : {1e300, -1e300, 0x1p63, -0x1p64,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(Value::Double(d).Hash(), std::hash<double>()(d)) << d;
  }
  // Whole doubles inside the range still hash like the equal int, at both
  // ends of it: -2^63 exactly, and the largest double below 2^63.
  EXPECT_EQ(Value::Double(-0x1p63).Hash(), Value::Int(INT64_MIN).Hash());
  EXPECT_EQ(Value::Double(0x1.fffffffffffffp62).Hash(),
            Value::Int(9223372036854774784LL).Hash());
  EXPECT_EQ(Value::Double(0.5).Hash(), std::hash<double>()(0.5));
}

TEST(ValueTest, StringLiteralRoundTripsThroughLexer) {
  const std::string cases[] = {"it's", "''", "'", "a''b'c", "", kLong,
                               "O'Reilly's \"book\"", "caf\xc3\xa9"};
  for (const std::string& text : cases) {
    const std::string literal = Value::String(text).ToSqlLiteral();
    auto tokens = Tokenize(literal);
    ASSERT_TRUE(tokens.ok()) << literal;
    ASSERT_EQ((*tokens)[0].type, TokenType::kString) << literal;
    EXPECT_EQ((*tokens)[0].text, text) << literal;
    EXPECT_EQ((*tokens)[1].type, TokenType::kEnd) << literal;
  }
}

TEST(RowTest, HashRowDiffersOnContent) {
  Row a = {Value::Int(1), Value::String("x")};
  Row b = {Value::Int(1), Value::String("y")};
  EXPECT_NE(HashRow(a), HashRow(b));
  Row c = {Value::Int(1), Value::String("x")};
  EXPECT_EQ(HashRow(a), HashRow(c));
}

TEST(SchemaTest, FindColumnUnqualified) {
  Schema s({{"id", TypeId::kInt64, "t", false},
            {"name", TypeId::kString, "t", true}});
  EXPECT_EQ(s.FindColumn("name", ""), 1);
  EXPECT_EQ(s.FindColumn("missing", ""), -1);
}

TEST(SchemaTest, FindColumnQualified) {
  Schema s({{"id", TypeId::kInt64, "a", false},
            {"id", TypeId::kInt64, "b", false}});
  EXPECT_EQ(s.FindColumn("id", "a"), 0);
  EXPECT_EQ(s.FindColumn("id", "b"), 1);
  EXPECT_EQ(s.FindColumn("id", ""), -2);  // ambiguous
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", TypeId::kInt64, "l", false}});
  Schema b({{"y", TypeId::kString, "r", true}});
  Schema c = Schema::Concat(a, b);
  ASSERT_EQ(c.num_columns(), 2);
  EXPECT_EQ(c.column(0).name, "x");
  EXPECT_EQ(c.column(1).name, "y");
}

}  // namespace
}  // namespace mtcache
