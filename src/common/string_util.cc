#include "common/string_util.h"

#include <cctype>

namespace mtcache {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

namespace {

// Recursive matcher over (value position, pattern position); the general
// case, for patterns with '_' or an inner '%'.
bool LikeMatchAt(std::string_view value, size_t vi, std::string_view pattern,
                 size_t pi) {
  while (pi < pattern.size()) {
    char pc = pattern[pi];
    if (pc == '%') {
      // Collapse consecutive '%'.
      while (pi < pattern.size() && pattern[pi] == '%') ++pi;
      if (pi == pattern.size()) return true;
      for (size_t k = vi; k <= value.size(); ++k) {
        if (LikeMatchAt(value, k, pattern, pi)) return true;
      }
      return false;
    }
    if (vi >= value.size()) return false;
    if (pc != '_' && pc != value[vi]) return false;
    ++vi;
    ++pi;
  }
  return vi == value.size();
}

}  // namespace

bool LikeMatch(std::string_view value, std::string_view pattern) {
  // A pattern with no '_' and '%' only in a leading and a trailing run is a
  // substring, prefix, suffix or equality test: no backtracking.
  const size_t lead = pattern.find_first_not_of('%');
  if (lead == std::string_view::npos) {
    return !pattern.empty() || value.empty();  // all '%', or empty pattern
  }
  const size_t last = pattern.find_last_not_of('%');
  std::string_view core = pattern.substr(lead, last + 1 - lead);
  if (core.find_first_of("%_") != std::string_view::npos) {
    return LikeMatchAt(value, 0, pattern, 0);
  }
  const bool any_prefix = lead > 0;
  const bool any_suffix = last + 1 < pattern.size();
  if (any_prefix && any_suffix) {
    return value.find(core) != std::string_view::npos;
  }
  if (any_prefix) return value.ends_with(core);
  if (any_suffix) return value.starts_with(core);
  return value == core;
}

bool LikeMatchBacktracking(std::string_view value, std::string_view pattern) {
  return LikeMatchAt(value, 0, pattern, 0);
}

std::string SqlQuote(std::string_view s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

}  // namespace mtcache
