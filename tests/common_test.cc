#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/string_util.h"

namespace mtcache {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table t");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: table t");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::PermissionDenied("x").code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

StatusOr<int> ReturnsValue() { return 42; }
StatusOr<int> ReturnsError() { return Status::Internal("boom"); }

Status UsesAssignOrReturn(int* out) {
  MT_ASSIGN_OR_RETURN(int v, ReturnsValue());
  *out = v;
  return Status::Ok();
}

Status PropagatesError(int* out) {
  MT_ASSIGN_OR_RETURN(int v, ReturnsError());
  *out = v;
  return Status::Ok();
}

TEST(StatusOrTest, MacroAssignsValue) {
  int out = 0;
  ASSERT_TRUE(UsesAssignOrReturn(&out).ok());
  EXPECT_EQ(out, 42);
}

TEST(StatusOrTest, MacroPropagatesError) {
  int out = 0;
  Status s = PropagatesError(&out);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(out, 0);
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7);
  Random b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RandomTest, UniformStaysInRange) {
  Random r(123);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RandomTest, ExponentialMeanApproximately) {
  Random r(99);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += r.Exponential(2.0);
  EXPECT_NEAR(total / n, 2.0, 0.1);
}

TEST(RandomTest, AlphaStringRespectsLengthBounds) {
  Random r(5);
  for (int i = 0; i < 100; ++i) {
    std::string s = r.AlphaString(3, 8);
    EXPECT_GE(s.size(), 3u);
    EXPECT_LE(s.size(), 8u);
    for (char c : s) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "were"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, LikeMatchPercent) {
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%lo wo%"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_FALSE(LikeMatch("abc", "abd%"));
}

TEST(StringUtilTest, LikeMatchUnderscore) {
  EXPECT_TRUE(LikeMatch("cat", "c_t"));
  EXPECT_FALSE(LikeMatch("caat", "c_t"));
  EXPECT_TRUE(LikeMatch("caat", "c__t"));
}

TEST(StringUtilTest, LikeMatchExact) {
  EXPECT_TRUE(LikeMatch("abc", "abc"));
  EXPECT_FALSE(LikeMatch("abc", "ab"));
  EXPECT_FALSE(LikeMatch("ab", "abc"));
}

// LikeMatch answers plain patterns (no '_', '%' only at the ends) without
// backtracking; every pattern must agree with the general matcher. Values
// and patterns draw from a 3-letter alphabet so matches are frequent.
TEST(StringUtilTest, LikeMatchAgreesWithBacktrackingOracle) {
  const char* fixed[][2] = {
      {"", ""},    {"a", ""},    {"", "%"},    {"", "%%"},   {"abc", "%%"},
      {"", "a"},   {"ab", "abc"}, {"ab", "%abc"}, {"ab", "abc%"},
      {"ab", "%abc%"}, {"abab", "%ab%ab%"}, {"aba", "%a"}, {"aba", "a%"},
      {"aba", "%%b%%"}, {"a", "%a%"}, {"ba", "%a_"}};
  for (const auto& [value, pattern] : fixed) {
    EXPECT_EQ(LikeMatch(value, pattern), LikeMatchBacktracking(value, pattern))
        << "'" << value << "' LIKE '" << pattern << "'";
  }
  Random rng(20031);
  auto draw = [&rng](const char* alphabet, int max_len) {
    std::string s;
    const int len = static_cast<int>(rng.Uniform(0, max_len));
    const int n = static_cast<int>(std::strlen(alphabet));
    for (int i = 0; i < len; ++i) s += alphabet[rng.Uniform(0, n - 1)];
    return s;
  };
  int matches = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string value = draw("abc", 8);
    // Plain patterns (wildcards only at the ends) most of the time, so the
    // fast paths see as many cases as the general one.
    std::string pattern = i % 4 == 0 ? draw("ab%_", 6)
                                     : draw("%", 2) + draw("abc", 4) +
                                           draw("%", 2);
    const bool want = LikeMatchBacktracking(value, pattern);
    matches += want ? 1 : 0;
    ASSERT_EQ(LikeMatch(value, pattern), want)
        << "'" << value << "' LIKE '" << pattern << "'";
  }
  EXPECT_GT(matches, 1000);
}

TEST(StringUtilTest, SqlQuoteEscapesQuotes) {
  EXPECT_EQ(SqlQuote("o'brien"), "'o''brien'");
  EXPECT_EQ(SqlQuote("plain"), "'plain'");
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
  clock.Advance(1.5);
  EXPECT_DOUBLE_EQ(clock.Now(), 1.5);
  clock.AdvanceTo(1.0);  // backwards move ignored
  EXPECT_DOUBLE_EQ(clock.Now(), 1.5);
  clock.AdvanceTo(3.0);
  EXPECT_DOUBLE_EQ(clock.Now(), 3.0);
}

}  // namespace
}  // namespace mtcache
