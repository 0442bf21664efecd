#include <gtest/gtest.h>

#include "binder/binder.h"
#include "expr/bound_expr.h"
#include "sql/parser.h"

namespace mtcache {
namespace {

/// Parses and binds a scalar expression (params allowed, no columns), then
/// evaluates it with the given parameter map.
StatusOr<Value> Eval(const std::string& expr_text,
                     const ParamMap& params = {}) {
  auto stmt = ParseSql("SELECT " + expr_text);
  if (!stmt.ok()) return stmt.status();
  const auto& select = static_cast<const SelectStmt&>(**stmt);
  Catalog catalog;
  Binder binder(&catalog, "dbo");
  auto bound = binder.BindScalar(*select.items[0].expr);
  if (!bound.ok()) return bound.status();
  EvalContext ctx;
  ctx.params = &params;
  ctx.current_time = 777;
  return EvalBound(**bound, nullptr, ctx);
}

Value MustEval(const std::string& expr_text, const ParamMap& params = {}) {
  auto v = Eval(expr_text, params);
  EXPECT_TRUE(v.ok()) << expr_text << ": " << v.status().ToString();
  return v.ok() ? *v : Value::Null();
}

TEST(ExprEvalTest, IntegerArithmetic) {
  EXPECT_EQ(MustEval("1 + 2 * 3").AsInt(), 7);
  EXPECT_EQ(MustEval("10 % 3").AsInt(), 1);
  EXPECT_EQ(MustEval("-(5 - 8)").AsInt(), 3);
}

TEST(ExprEvalTest, IntegerDivisionTruncatesLikeTsql) {
  Value v = MustEval("7 / 2");
  EXPECT_EQ(v.type(), TypeId::kInt64);
  EXPECT_EQ(v.AsInt(), 3);
  Value d = MustEval("7.0 / 2");
  EXPECT_EQ(d.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);
}

TEST(ExprEvalTest, DivisionByZeroIsError) {
  EXPECT_FALSE(Eval("1 / 0").ok());
  EXPECT_FALSE(Eval("1 % 0").ok());
}

TEST(ExprEvalTest, IntegerOverflowIsOutOfRange) {
  // Checked like SUM: a result outside int64 fails, never wraps (signed
  // overflow is undefined behaviour) or traps (INT64_MIN / -1 raised SIGFPE).
  const std::string kMin = "(-9223372036854775807 - 1)";
  for (const std::string& expr :
       {std::string("9223372036854775807 + 1"), kMin + " - 1",
        std::string("4611686018427387904 * 2"), "-" + kMin, kMin + " / -1",
        kMin + " * -1", "ABS(" + kMin + ")"}) {
    auto v = Eval(expr);
    ASSERT_FALSE(v.ok()) << expr << " = " << v->ToString();
    EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange) << expr;
  }
  EXPECT_EQ(MustEval(kMin).AsInt(), INT64_MIN);
  EXPECT_EQ(MustEval("9223372036854775806 + 1").AsInt(), INT64_MAX);
  EXPECT_EQ(MustEval("-9223372036854775807").AsInt(), -INT64_MAX);
  EXPECT_EQ(MustEval(kMin + " / 1").AsInt(), INT64_MIN);
  // Every remainder of division by -1 is 0, INT64_MIN's included.
  EXPECT_EQ(MustEval(kMin + " % -1").AsInt(), 0);
  EXPECT_EQ(MustEval("7 % -1").AsInt(), 0);
  EXPECT_EQ(MustEval("-7 % 2").AsInt(), -1);
}

TEST(ExprEvalTest, StringConcatenationViaPlus) {
  EXPECT_EQ(MustEval("'ab' + 'cd'").AsString(), "abcd");
}

TEST(ExprEvalTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(MustEval("1 + NULL").is_null());
  EXPECT_TRUE(MustEval("NULL * 3").is_null());
}

TEST(ExprEvalTest, ThreeValuedComparison) {
  EXPECT_TRUE(MustEval("NULL = NULL").is_null());
  EXPECT_TRUE(MustEval("1 < NULL").is_null());
  EXPECT_TRUE(MustEval("1 < 2").AsBool());
}

TEST(ExprEvalTest, ThreeValuedAndOr) {
  // FALSE AND UNKNOWN = FALSE; TRUE OR UNKNOWN = TRUE.
  EXPECT_FALSE(MustEval("1 = 2 AND NULL = 1").AsBool());
  EXPECT_FALSE(MustEval("1 = 2 AND NULL = 1").is_null());
  EXPECT_TRUE(MustEval("1 = 1 OR NULL = 1").AsBool());
  // TRUE AND UNKNOWN = UNKNOWN; FALSE OR UNKNOWN = UNKNOWN.
  EXPECT_TRUE(MustEval("1 = 1 AND NULL = 1").is_null());
  EXPECT_TRUE(MustEval("1 = 2 OR NULL = 1").is_null());
}

TEST(ExprEvalTest, NotWithUnknown) {
  EXPECT_TRUE(MustEval("NOT (NULL = 1)").is_null());
  EXPECT_FALSE(MustEval("NOT (1 = 1)").AsBool());
}

TEST(ExprEvalTest, IsNullOperators) {
  EXPECT_TRUE(MustEval("NULL IS NULL").AsBool());
  EXPECT_FALSE(MustEval("5 IS NULL").AsBool());
  EXPECT_TRUE(MustEval("5 IS NOT NULL").AsBool());
}

TEST(ExprEvalTest, LikeWithNullInput) {
  EXPECT_TRUE(MustEval("NULL LIKE 'a%'").is_null());
  EXPECT_TRUE(MustEval("'alpha' LIKE 'a%'").AsBool());
  EXPECT_TRUE(MustEval("'alpha' NOT LIKE 'b%'").AsBool());
}

TEST(ExprEvalTest, InListLowering) {
  EXPECT_TRUE(MustEval("2 IN (1, 2, 3)").AsBool());
  EXPECT_FALSE(MustEval("9 IN (1, 2, 3)").AsBool());
  EXPECT_TRUE(MustEval("9 NOT IN (1, 2, 3)").AsBool());
}

TEST(ExprEvalTest, BetweenLowering) {
  EXPECT_TRUE(MustEval("5 BETWEEN 1 AND 9").AsBool());
  EXPECT_TRUE(MustEval("1 BETWEEN 1 AND 9").AsBool());
  EXPECT_FALSE(MustEval("0 BETWEEN 1 AND 9").AsBool());
  EXPECT_TRUE(MustEval("0 NOT BETWEEN 1 AND 9").AsBool());
}

TEST(ExprEvalTest, BuiltinFunctions) {
  EXPECT_EQ(MustEval("GETDATE()").AsInt(), 777);
  EXPECT_EQ(MustEval("ABS(-4)").AsInt(), 4);
  EXPECT_DOUBLE_EQ(MustEval("ABS(-4.5)").AsDouble(), 4.5);
  EXPECT_EQ(MustEval("LEN('hello')").AsInt(), 5);
  EXPECT_EQ(MustEval("SUBSTRING('hello', 2, 3)").AsString(), "ell");
  EXPECT_DOUBLE_EQ(MustEval("ROUND(3.456, 1)").AsDouble(), 3.5);
  EXPECT_EQ(MustEval("COALESCE(NULL, NULL, 7)").AsInt(), 7);
  EXPECT_TRUE(MustEval("COALESCE(NULL, NULL)").is_null());
}

TEST(ExprEvalTest, ParamsResolveFromMap) {
  ParamMap params;
  params["@x"] = Value::Int(40);
  EXPECT_EQ(MustEval("@x + 2", params).AsInt(), 42);
}

TEST(ExprEvalTest, MissingParamIsError) {
  EXPECT_FALSE(Eval("@nope + 1").ok());
}

// ---------------------------------------------------------------------------
// Analysis utilities
// ---------------------------------------------------------------------------

BExprPtr Col(int ord) {
  return std::make_unique<BoundColumnRef>(ord, TypeId::kInt64,
                                          "c" + std::to_string(ord));
}
BExprPtr Lit(int64_t v) {
  return std::make_unique<BoundLiteral>(Value::Int(v));
}
BExprPtr Cmp(BinaryOp op, BExprPtr l, BExprPtr r) {
  return std::make_unique<BoundBinary>(op, std::move(l), std::move(r),
                                       TypeId::kBool);
}

TEST(ExprUtilTest, CollectConjunctsFlattensAndTree) {
  BExprPtr a = Cmp(BinaryOp::kEq, Col(0), Lit(1));
  BExprPtr b = Cmp(BinaryOp::kLt, Col(1), Lit(2));
  BExprPtr c = Cmp(BinaryOp::kGt, Col(2), Lit(3));
  BExprPtr tree = AndTogether({});
  std::vector<BExprPtr> parts;
  parts.push_back(std::move(a));
  parts.push_back(std::move(b));
  parts.push_back(std::move(c));
  tree = AndTogether(std::move(parts));
  std::vector<const BoundExpr*> out;
  CollectConjuncts(*tree, &out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(ExprUtilTest, AndTogetherEmptyIsNull) {
  EXPECT_EQ(AndTogether({}), nullptr);
}

TEST(ExprUtilTest, ShiftAndRemapColumnRefs) {
  BExprPtr e = Cmp(BinaryOp::kEq, Col(2), Col(5));
  ShiftColumnRefs(e.get(), -2);
  std::vector<int> refs;
  CollectColumnRefs(*e, &refs);
  EXPECT_EQ(refs, (std::vector<int>{0, 3}));

  std::vector<int> mapping = {7, -1, -1, 9};
  EXPECT_TRUE(RemapColumnRefs(e.get(), mapping));
  refs.clear();
  CollectColumnRefs(*e, &refs);
  EXPECT_EQ(refs, (std::vector<int>{7, 9}));
}

TEST(ExprUtilTest, RemapFailsOnUnmappedColumn) {
  BExprPtr e = Cmp(BinaryOp::kEq, Col(1), Lit(0));
  std::vector<int> mapping = {0, -1};
  EXPECT_FALSE(RemapColumnRefs(e.get(), mapping));
}

TEST(ExprUtilTest, IsRowFreeAndHasParam) {
  BExprPtr with_col = Cmp(BinaryOp::kEq, Col(0), Lit(1));
  EXPECT_FALSE(IsRowFree(*with_col));
  BExprPtr param_only = Cmp(
      BinaryOp::kLe, std::make_unique<BoundParam>("@p", TypeId::kNull),
      Lit(1000));
  EXPECT_TRUE(IsRowFree(*param_only));
  EXPECT_TRUE(HasParam(*param_only));
  EXPECT_FALSE(HasParam(*with_col));
}

TEST(ExprUtilTest, CloneIsDeepAndEqual) {
  BExprPtr e = Cmp(BinaryOp::kLe, Col(3), Lit(42));
  BExprPtr copy = CloneBound(*e);
  EXPECT_TRUE(BoundEquals(*e, *copy));
  // Mutate the copy: originals diverge.
  ShiftColumnRefs(copy.get(), 1);
  EXPECT_FALSE(BoundEquals(*e, *copy));
}

TEST(ExprUtilTest, BoundToSqlReparsable) {
  BExprPtr e = Cmp(BinaryOp::kLe, Col(0), Lit(42));
  std::string sql = BoundToSql(*e);
  EXPECT_EQ(sql, "(c0 <= 42)");
}

}  // namespace
}  // namespace mtcache
