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

LikePattern::LikePattern(std::string_view pattern) : pattern_(pattern) {
  const size_t lead = pattern.find_first_not_of('%');
  if (lead == std::string_view::npos) {
    // All '%' matches anything; the empty pattern only the empty string.
    kind_ = pattern.empty() ? Kind::kEquals : Kind::kAny;
    return;
  }
  const size_t last = pattern.find_last_not_of('%');
  core_ = pattern.substr(lead, last + 1 - lead);
  const bool any_prefix = lead > 0;
  const bool any_suffix = last + 1 < pattern.size();
  if (core_.find_first_of("%_") != std::string_view::npos) {
    kind_ = Kind::kBacktrack;
  } else if (any_prefix && any_suffix) {
    kind_ = Kind::kContains;
  } else if (any_prefix) {
    kind_ = Kind::kSuffix;
  } else if (any_suffix) {
    kind_ = Kind::kPrefix;
  } else {
    kind_ = Kind::kEquals;
  }
}

bool LikePattern::Matches(std::string_view value) const {
  switch (kind_) {
    case Kind::kAny:
      return true;
    case Kind::kEquals:
      return value == core_;
    case Kind::kPrefix:
      return value.starts_with(core_);
    case Kind::kSuffix:
      return value.ends_with(core_);
    case Kind::kContains:
      return value.find(core_) != std::string_view::npos;
    case Kind::kBacktrack:
      return LikeMatchAt(value, 0, pattern_, 0);
  }
  return false;
}

bool LikeMatch(std::string_view value, std::string_view pattern) {
  return LikePattern(pattern).Matches(value);
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
