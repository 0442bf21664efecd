#include "sql/lexer.h"

#include <cctype>
#include <charconv>

#include "common/string_util.h"

namespace mtcache {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(sql[i])) ++i;
      tok.type = TokenType::kIdent;
      tok.text = ToLower(sql.substr(start, i - start));
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '@') {
      size_t start = i;
      ++i;
      if (i >= n || !IsIdentStart(sql[i])) {
        return Status::InvalidArgument("lone '@' at offset " +
                                       std::to_string(start));
      }
      while (i < n && IsIdentChar(sql[i])) ++i;
      tok.type = TokenType::kParam;
      tok.text = ToLower(sql.substr(start, i - start));  // includes '@'
      tokens.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      // Scientific notation: [eE][+-]?digits. Only consumed when a digit
      // actually follows, so `1e` stays (int, ident) as before.
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        size_t exp = i + 1;
        if (exp < n && (sql[exp] == '+' || sql[exp] == '-')) ++exp;
        if (exp < n && std::isdigit(static_cast<unsigned char>(sql[exp]))) {
          is_float = true;
          i = exp;
          while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
        }
      }
      const char* first = sql.data() + start;
      const char* last = sql.data() + i;
      tok.type = is_float ? TokenType::kFloat : TokenType::kInt;
      // A literal int64 or double cannot hold (99999999999999999999, 1e999,
      // 1e-999) is a parse error, not a wrapped or rounded value.
      auto parsed = is_float ? std::from_chars(first, last, tok.float_val)
                             : std::from_chars(first, last, tok.int_val);
      std::string text(first, last);
      if (parsed.ec != std::errc()) {
        return Status::InvalidArgument("numeric literal out of range at " +
                                       std::to_string(start) + ": " + text);
      }
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            text.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        text.push_back(sql[i]);
        ++i;
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string literal");
      }
      tok.type = TokenType::kString;
      tok.text = std::move(text);
      tokens.push_back(std::move(tok));
      continue;
    }
    // Multi-char operators.
    auto emit = [&](const std::string& sym, size_t len) {
      tok.type = TokenType::kSymbol;
      tok.text = sym;
      tokens.push_back(tok);
      i += len;
    };
    if (c == '<') {
      if (i + 1 < n && sql[i + 1] == '=') {
        emit("<=", 2);
      } else if (i + 1 < n && sql[i + 1] == '>') {
        emit("<>", 2);
      } else {
        emit("<", 1);
      }
      continue;
    }
    if (c == '>') {
      if (i + 1 < n && sql[i + 1] == '=') {
        emit(">=", 2);
      } else {
        emit(">", 1);
      }
      continue;
    }
    if (c == '!' && i + 1 < n && sql[i + 1] == '=') {
      emit("<>", 2);
      continue;
    }
    static const std::string kSingles = "(),.;=+-*/%";
    if (kSingles.find(c) != std::string::npos) {
      emit(std::string(1, c), 1);
      continue;
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "' at offset " + std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.offset = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace mtcache
