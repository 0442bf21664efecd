#ifndef MTCACHE_COMMON_STRING_UTIL_H_
#define MTCACHE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace mtcache {

/// ASCII lower-casing; SQL identifiers are case-insensitive and normalized to
/// lower case everywhere in the catalog.
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII equality, used for keyword matching in the lexer.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Joins the pieces with the separator: Join({"a","b"}, ", ") == "a, b".
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// SQL LIKE pattern matching with '%' (any run) and '_' (any single char).
bool LikeMatch(std::string_view value, std::string_view pattern);

/// A LIKE pattern classified once for matching many values: a pattern with
/// no '_' and '%' only in a leading and a trailing run is a substring,
/// prefix, suffix or equality test; any other pattern backtracks. The
/// pattern is borrowed and must outlive this object.
class LikePattern {
 public:
  explicit LikePattern(std::string_view pattern);
  /// Same answer as LikeMatch(value, pattern).
  bool Matches(std::string_view value) const;

 private:
  enum class Kind { kAny, kEquals, kPrefix, kSuffix, kContains, kBacktrack };
  Kind kind_;
  std::string_view pattern_;
  std::string_view core_;  // the pattern without its leading/trailing '%'
};

/// The general backtracking matcher LikeMatch uses for patterns with '_' or
/// an inner '%'; exposed as the oracle for LikeMatch's plain-pattern paths.
bool LikeMatchBacktracking(std::string_view value, std::string_view pattern);

/// Quotes a string as a SQL literal: abc -> 'abc', with '' doubling.
std::string SqlQuote(std::string_view s);

}  // namespace mtcache

#endif  // MTCACHE_COMMON_STRING_UTIL_H_
