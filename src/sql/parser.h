#ifndef MTCACHE_SQL_PARSER_H_
#define MTCACHE_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace mtcache {

/// Deepest nesting the parser accepts. Two quantities are held to it:
///   - the recursion depth of the descent: statements, SELECTs (derived
///     tables, UNION ALL chains), and every parenthesized or argument
///     expression each count one level;
///   - the height of every expression tree: each operator node counts one
///     level, so a chain `1+1+...+1`, stacked `NOT`s and unary minus all
///     count, even though the parser builds them in a loop.
/// Past it, parsing returns Status::InvalidArgument instead of letting the
/// parser, binder, executor or destructor recurse off the end of the stack.
/// The value keeps the deepest accepted statement executable end to end
/// through Server::Execute under AddressSanitizer on an 8 MB stack, where
/// about 430 nested parentheses already exhaust the parser's recursion.
inline constexpr int kMaxSqlNestingDepth = 256;

/// Recursive-descent parser for the engine's T-SQL-like dialect.
///
/// Supported statements: SELECT (DISTINCT, TOP, joins incl. LEFT OUTER,
/// derived tables, GROUP BY/HAVING/ORDER BY, CASE, UNION ALL, scalar
/// assignment `SELECT @v = expr`, WITH MAXSTALENESS), INSERT (VALUES and
/// INSERT..SELECT), UPDATE, DELETE, CREATE TABLE / INDEX / [CACHED]
/// MATERIALIZED VIEW / PROCEDURE, DROP, GRANT/REVOKE, EXPLAIN [ANALYZE]
/// (SELECT/INSERT/UPDATE/DELETE; ANALYZE only on SELECT), EXEC, DECLARE,
/// SET @var / SET STATISTICS PROFILE ON|OFF, IF/ELSE, WHILE, RETURN,
/// BEGIN TRANSACTION / COMMIT / ROLLBACK.
class Parser {
 public:
  explicit Parser(std::string sql) : sql_(std::move(sql)) {}

  /// Parses the whole input as a ';'-separated statement list.
  StatusOr<std::vector<StmtPtr>> ParseScript();

  /// Parses exactly one statement (trailing ';' allowed).
  StatusOr<StmtPtr> ParseSingleStatement();

 private:
  // -- token stream helpers --
  const Token& Peek(int ahead = 0) const;
  void Advance() { ++pos_; }
  bool CheckIdent(const char* kw) const;
  bool MatchIdent(const char* kw);
  bool CheckSymbol(const char* sym) const;
  bool MatchSymbol(const char* sym);
  Status ExpectIdent(const char* kw);
  Status ExpectSymbol(const char* sym);
  StatusOr<std::string> ExpectName(const char* what);
  Status ErrorHere(const std::string& message) const;

  // -- statements --
  StatusOr<StmtPtr> ParseStatement();
  StatusOr<std::unique_ptr<SelectStmt>> ParseSelect();
  StatusOr<StmtPtr> ParseInsert();
  StatusOr<StmtPtr> ParseUpdate();
  StatusOr<StmtPtr> ParseDelete();
  StatusOr<StmtPtr> ParseCreate();
  StatusOr<StmtPtr> ParseCreateTable();
  StatusOr<StmtPtr> ParseCreateIndex(bool unique);
  StatusOr<StmtPtr> ParseCreateView(bool cached);
  StatusOr<StmtPtr> ParseCreateProcedure();
  StatusOr<StmtPtr> ParseDrop();
  StatusOr<StmtPtr> ParseGrant();
  StatusOr<StmtPtr> ParseExec();
  StatusOr<StmtPtr> ParseDeclare();
  StatusOr<StmtPtr> ParseSet();
  StatusOr<StmtPtr> ParseIf();
  StatusOr<std::vector<StmtPtr>> ParseBlockOrSingle();

  StatusOr<TableRef> ParseTableRef();
  StatusOr<TypeId> ParseType();

  // -- expressions (precedence climbing) --
  StatusOr<ExprPtr> ParseExpr();       // OR
  StatusOr<ExprPtr> ParseAndExpr();
  StatusOr<ExprPtr> ParseNotExpr();
  StatusOr<ExprPtr> ParsePredicate();  // comparisons, LIKE, IN, BETWEEN, IS
  StatusOr<ExprPtr> ParseAdditive();
  StatusOr<ExprPtr> ParseMultiplicative();
  StatusOr<ExprPtr> ParseUnaryExpr();
  StatusOr<ExprPtr> ParsePrimary();

  // -- nesting bound (kMaxSqlNestingDepth) --
  /// Counts one level of descent for the enclosing scope.
  class DescentScope {
   public:
    explicit DescentScope(Parser* parser) : parser_(parser) {
      ++parser_->depth_;
    }
    ~DescentScope() { --parser_->depth_; }
    DescentScope(const DescentScope&) = delete;
    DescentScope& operator=(const DescentScope&) = delete;
    /// Non-ok once the descent is deeper than kMaxSqlNestingDepth.
    Status Check() const;

   private:
    Parser* parser_;
  };
  /// Records `height` as the height of the expression about to be returned;
  /// fails past kMaxSqlNestingDepth.
  Status SetHeight(int height);
  Status TooDeep() const;

  std::string sql_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;   // open descent scopes
  int height_ = 0;  // height of the expression last returned by ParseExpr..
                    // ParsePrimary
};

/// Convenience wrappers.
StatusOr<StmtPtr> ParseSql(const std::string& sql);
StatusOr<std::vector<StmtPtr>> ParseSqlScript(const std::string& sql);

}  // namespace mtcache

#endif  // MTCACHE_SQL_PARSER_H_
