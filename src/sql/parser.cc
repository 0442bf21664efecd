#include "sql/parser.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace mtcache {

namespace {

// Identifiers that terminate an implicit table alias.
const std::set<std::string>& AliasStopWords() {
  static const std::set<std::string>* kWords = new std::set<std::string>{
      "where", "join", "inner", "left", "right", "outer", "on",
      "group", "order", "having", "union", "and", "or", "select",
      "set", "values", "as", "asc", "desc", "when", "then", "else", "end",
      "if", "begin", "return", "declare", "exec", "insert", "update",
      "delete", "create", "drop", "commit", "rollback", "with", "while"};
  return *kWords;
}

}  // namespace

const Token& Parser::Peek(int ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;  // kEnd sentinel
  return tokens_[i];
}

bool Parser::CheckIdent(const char* kw) const {
  const Token& t = Peek();
  return t.type == TokenType::kIdent && t.text == kw;
}

bool Parser::MatchIdent(const char* kw) {
  if (CheckIdent(kw)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::CheckSymbol(const char* sym) const {
  const Token& t = Peek();
  return t.type == TokenType::kSymbol && t.text == sym;
}

bool Parser::MatchSymbol(const char* sym) {
  if (CheckSymbol(sym)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ExpectIdent(const char* kw) {
  if (!MatchIdent(kw)) {
    return ErrorHere(std::string("expected '") + kw + "'");
  }
  return Status::Ok();
}

Status Parser::ExpectSymbol(const char* sym) {
  if (!MatchSymbol(sym)) {
    return ErrorHere(std::string("expected '") + sym + "'");
  }
  return Status::Ok();
}

StatusOr<std::string> Parser::ExpectName(const char* what) {
  const Token& t = Peek();
  if (t.type != TokenType::kIdent) {
    return ErrorHere(std::string("expected ") + what);
  }
  std::string name = t.text;
  Advance();
  return name;
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& t = Peek();
  std::string near = t.type == TokenType::kEnd ? "<end>" : t.text;
  return Status::InvalidArgument(message + " near '" + near + "' (offset " +
                                 std::to_string(t.offset) + ")");
}

Status Parser::TooDeep() const {
  return ErrorHere("nesting exceeds the limit of " +
                   std::to_string(kMaxSqlNestingDepth) + " levels");
}

Status Parser::DescentScope::Check() const {
  return parser_->depth_ > kMaxSqlNestingDepth ? parser_->TooDeep()
                                               : Status::Ok();
}

Status Parser::SetHeight(int height) {
  height_ = height;
  return height > kMaxSqlNestingDepth ? TooDeep() : Status::Ok();
}

StatusOr<std::vector<StmtPtr>> Parser::ParseScript() {
  MT_ASSIGN_OR_RETURN(tokens_, Tokenize(sql_));
  pos_ = 0;
  std::vector<StmtPtr> out;
  while (Peek().type != TokenType::kEnd) {
    if (MatchSymbol(";")) continue;
    MT_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
    out.push_back(std::move(stmt));
  }
  return out;
}

StatusOr<StmtPtr> Parser::ParseSingleStatement() {
  MT_ASSIGN_OR_RETURN(tokens_, Tokenize(sql_));
  pos_ = 0;
  MT_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
  MatchSymbol(";");
  if (Peek().type != TokenType::kEnd) {
    return ErrorHere("unexpected trailing input");
  }
  return stmt;
}

StatusOr<StmtPtr> Parser::ParseStatement() {
  DescentScope scope(this);
  MT_RETURN_IF_ERROR(scope.Check());
  if (CheckIdent("select")) {
    MT_ASSIGN_OR_RETURN(auto sel, ParseSelect());
    return StmtPtr(std::move(sel));
  }
  if (CheckIdent("insert")) return ParseInsert();
  if (CheckIdent("update")) return ParseUpdate();
  if (CheckIdent("delete")) return ParseDelete();
  if (CheckIdent("create")) return ParseCreate();
  if (CheckIdent("drop")) return ParseDrop();
  if (CheckIdent("grant") || CheckIdent("revoke")) return ParseGrant();
  if (MatchIdent("explain")) {
    auto stmt = std::make_unique<ExplainStmt>();
    stmt->analyze = MatchIdent("analyze");
    MT_ASSIGN_OR_RETURN(stmt->target, ParseStatement());
    switch (stmt->target->kind) {
      case StmtKind::kSelect:
        break;
      case StmtKind::kInsert:
      case StmtKind::kUpdate:
      case StmtKind::kDelete:
        if (stmt->analyze) {
          return Status::InvalidArgument(
              "EXPLAIN ANALYZE supports only SELECT (DML would execute "
              "twice); use plain EXPLAIN for write-path plans");
        }
        break;
      default:
        return Status::InvalidArgument(
            "EXPLAIN supports SELECT, INSERT, UPDATE, and DELETE");
    }
    return StmtPtr(std::move(stmt));
  }
  if (CheckIdent("exec") || CheckIdent("execute")) return ParseExec();
  if (CheckIdent("declare")) return ParseDeclare();
  if (CheckIdent("set")) return ParseSet();
  if (CheckIdent("if")) return ParseIf();
  if (MatchIdent("while")) {
    auto stmt = std::make_unique<WhileStmt>();
    MT_ASSIGN_OR_RETURN(stmt->condition, ParseExpr());
    MT_ASSIGN_OR_RETURN(stmt->body, ParseBlockOrSingle());
    return StmtPtr(std::move(stmt));
  }
  if (MatchIdent("return")) return StmtPtr(std::make_unique<ReturnStmt>());
  if (CheckIdent("begin")) {
    // Only BEGIN TRANSACTION is a statement here (blocks appear via IF).
    Advance();
    if (MatchIdent("transaction") || MatchIdent("tran")) {
      return StmtPtr(std::make_unique<BeginTxnStmt>());
    }
    return ErrorHere("expected TRANSACTION after BEGIN");
  }
  if (MatchIdent("commit")) {
    if (!MatchIdent("transaction")) MatchIdent("tran");
    return StmtPtr(std::make_unique<CommitTxnStmt>());
  }
  if (MatchIdent("rollback")) {
    if (!MatchIdent("transaction")) MatchIdent("tran");
    return StmtPtr(std::make_unique<RollbackTxnStmt>());
  }
  return ErrorHere("expected a statement");
}

StatusOr<std::unique_ptr<SelectStmt>> Parser::ParseSelect() {
  DescentScope scope(this);
  MT_RETURN_IF_ERROR(scope.Check());
  MT_RETURN_IF_ERROR(ExpectIdent("select"));
  auto stmt = std::make_unique<SelectStmt>();
  if (MatchIdent("distinct")) stmt->distinct = true;
  if (CheckIdent("top") && Peek(1).type == TokenType::kInt) {
    Advance();
    stmt->top = Peek().int_val;
    Advance();
  }
  // Select list.
  bool any_assignment = false;
  do {
    SelectItem item;
    std::string into_var;
    if (Peek().type == TokenType::kParam && Peek(1).type == TokenType::kSymbol &&
        Peek(1).text == "=") {
      into_var = Peek().text;
      Advance();
      Advance();
      any_assignment = true;
    }
    if (CheckSymbol("*")) {
      Advance();
      item.star = true;
    } else if (Peek().type == TokenType::kIdent &&
               Peek(1).type == TokenType::kSymbol && Peek(1).text == "." &&
               Peek(2).type == TokenType::kSymbol && Peek(2).text == "*") {
      item.star = true;
      item.star_qualifier = Peek().text;
      Advance();
      Advance();
      Advance();
    } else {
      MT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchIdent("as")) {
        MT_ASSIGN_OR_RETURN(item.alias, ExpectName("alias"));
      } else if (Peek().type == TokenType::kIdent &&
                 AliasStopWords().count(Peek().text) == 0 &&
                 !CheckIdent("from")) {
        item.alias = Peek().text;
        Advance();
      }
    }
    stmt->items.push_back(std::move(item));
    stmt->into_vars.push_back(into_var);
  } while (MatchSymbol(","));
  if (!any_assignment) stmt->into_vars.clear();

  if (MatchIdent("from")) {
    MT_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    stmt->from.push_back(std::move(first));
    // Comma-joined tables and explicit JOINs, in any interleaving.
    while (true) {
      if (MatchSymbol(",")) {
        MT_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
        continue;
      }
      JoinKind kind = JoinKind::kInner;
      bool is_join = false;
      if (MatchIdent("inner")) {
        MT_RETURN_IF_ERROR(ExpectIdent("join"));
        is_join = true;
      } else if (MatchIdent("left")) {
        MatchIdent("outer");
        MT_RETURN_IF_ERROR(ExpectIdent("join"));
        kind = JoinKind::kLeftOuter;
        is_join = true;
      } else if (MatchIdent("join")) {
        is_join = true;
      }
      if (!is_join) break;
      JoinClause join;
      join.kind = kind;
      MT_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      MT_RETURN_IF_ERROR(ExpectIdent("on"));
      MT_ASSIGN_OR_RETURN(join.on, ParseExpr());
      stmt->joins.push_back(std::move(join));
    }
  }
  if (MatchIdent("where")) {
    MT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (MatchIdent("group")) {
    MT_RETURN_IF_ERROR(ExpectIdent("by"));
    do {
      MT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (MatchSymbol(","));
  }
  if (MatchIdent("having")) {
    MT_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }
  if (MatchIdent("order")) {
    MT_RETURN_IF_ERROR(ExpectIdent("by"));
    do {
      OrderByItem item;
      MT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchIdent("desc")) {
        item.desc = true;
      } else {
        MatchIdent("asc");
      }
      stmt->order_by.push_back(std::move(item));
    } while (MatchSymbol(","));
  }
  if (MatchIdent("union")) {
    MT_RETURN_IF_ERROR(ExpectIdent("all"));
    MT_ASSIGN_OR_RETURN(stmt->union_next, ParseSelect());
  }
  if (MatchIdent("with")) {
    MT_RETURN_IF_ERROR(ExpectIdent("maxstaleness"));
    const Token& t = Peek();
    if (t.type == TokenType::kInt) {
      stmt->max_staleness = static_cast<double>(t.int_val);
    } else if (t.type == TokenType::kFloat) {
      stmt->max_staleness = t.float_val;
    } else {
      return ErrorHere("expected a number after MAXSTALENESS");
    }
    Advance();
  }
  return stmt;
}

StatusOr<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  if (MatchSymbol("(")) {
    MT_ASSIGN_OR_RETURN(ref.derived, ParseSelect());
    MT_RETURN_IF_ERROR(ExpectSymbol(")"));
    MatchIdent("as");
    MT_ASSIGN_OR_RETURN(ref.alias, ExpectName("derived-table alias"));
    return ref;
  }
  MT_ASSIGN_OR_RETURN(std::string first, ExpectName("table name"));
  if (MatchSymbol(".")) {
    ref.server = first;
    MT_ASSIGN_OR_RETURN(ref.name, ExpectName("table name"));
  } else {
    ref.name = first;
  }
  if (MatchIdent("as")) {
    MT_ASSIGN_OR_RETURN(ref.alias, ExpectName("alias"));
  } else if (Peek().type == TokenType::kIdent &&
             AliasStopWords().count(Peek().text) == 0 &&
             !CheckIdent("from")) {
    ref.alias = Peek().text;
    Advance();
  }
  return ref;
}

StatusOr<StmtPtr> Parser::ParseInsert() {
  MT_RETURN_IF_ERROR(ExpectIdent("insert"));
  MT_RETURN_IF_ERROR(ExpectIdent("into"));
  auto stmt = std::make_unique<InsertStmt>();
  MT_ASSIGN_OR_RETURN(std::string first, ExpectName("table name"));
  if (MatchSymbol(".")) {
    stmt->server = first;
    MT_ASSIGN_OR_RETURN(stmt->table, ExpectName("table name"));
  } else {
    stmt->table = first;
  }
  if (CheckSymbol("(") ) {
    // Could be a column list or the start of INSERT..SELECT's values? Column
    // list only: '(' ident ... ')'
    Advance();
    do {
      MT_ASSIGN_OR_RETURN(std::string col, ExpectName("column name"));
      stmt->columns.push_back(std::move(col));
    } while (MatchSymbol(","));
    MT_RETURN_IF_ERROR(ExpectSymbol(")"));
  }
  if (MatchIdent("values")) {
    do {
      MT_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      do {
        MT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (MatchSymbol(","));
      MT_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt->rows.push_back(std::move(row));
    } while (MatchSymbol(","));
  } else if (CheckIdent("select")) {
    MT_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
  } else {
    return ErrorHere("expected VALUES or SELECT");
  }
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseUpdate() {
  MT_RETURN_IF_ERROR(ExpectIdent("update"));
  auto stmt = std::make_unique<UpdateStmt>();
  MT_ASSIGN_OR_RETURN(std::string first, ExpectName("table name"));
  if (MatchSymbol(".")) {
    stmt->server = first;
    MT_ASSIGN_OR_RETURN(stmt->table, ExpectName("table name"));
  } else {
    stmt->table = first;
  }
  MT_RETURN_IF_ERROR(ExpectIdent("set"));
  do {
    MT_ASSIGN_OR_RETURN(std::string col, ExpectName("column name"));
    MT_RETURN_IF_ERROR(ExpectSymbol("="));
    MT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    stmt->sets.emplace_back(std::move(col), std::move(e));
  } while (MatchSymbol(","));
  if (MatchIdent("where")) {
    MT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseDelete() {
  MT_RETURN_IF_ERROR(ExpectIdent("delete"));
  MT_RETURN_IF_ERROR(ExpectIdent("from"));
  auto stmt = std::make_unique<DeleteStmt>();
  MT_ASSIGN_OR_RETURN(std::string first, ExpectName("table name"));
  if (MatchSymbol(".")) {
    stmt->server = first;
    MT_ASSIGN_OR_RETURN(stmt->table, ExpectName("table name"));
  } else {
    stmt->table = first;
  }
  if (MatchIdent("where")) {
    MT_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseCreate() {
  MT_RETURN_IF_ERROR(ExpectIdent("create"));
  if (CheckIdent("table")) return ParseCreateTable();
  if (MatchIdent("unique")) {
    MT_RETURN_IF_ERROR(ExpectIdent("index"));
    return ParseCreateIndex(/*unique=*/true);
  }
  if (MatchIdent("index")) return ParseCreateIndex(/*unique=*/false);
  if (MatchIdent("cached")) {
    MT_RETURN_IF_ERROR(ExpectIdent("materialized"));
    MT_RETURN_IF_ERROR(ExpectIdent("view"));
    return ParseCreateView(/*cached=*/true);
  }
  if (MatchIdent("materialized")) {
    MT_RETURN_IF_ERROR(ExpectIdent("view"));
    return ParseCreateView(/*cached=*/false);
  }
  if (MatchIdent("procedure") || MatchIdent("proc")) {
    return ParseCreateProcedure();
  }
  return ErrorHere("expected TABLE, INDEX, MATERIALIZED VIEW, or PROCEDURE");
}

StatusOr<TypeId> Parser::ParseType() {
  MT_ASSIGN_OR_RETURN(std::string name, ExpectName("type name"));
  // Optional length argument: VARCHAR(40), CHAR(10), ...
  if (MatchSymbol("(")) {
    if (Peek().type == TokenType::kInt) Advance();
    MT_RETURN_IF_ERROR(ExpectSymbol(")"));
  }
  if (name == "int" || name == "integer" || name == "bigint" ||
      name == "smallint" || name == "datetime" || name == "date") {
    return TypeId::kInt64;
  }
  if (name == "float" || name == "double" || name == "real" ||
      name == "numeric" || name == "decimal") {
    return TypeId::kDouble;
  }
  if (name == "varchar" || name == "char" || name == "text" ||
      name == "string" || name == "nvarchar") {
    return TypeId::kString;
  }
  if (name == "bool" || name == "boolean" || name == "bit") {
    return TypeId::kBool;
  }
  return Status::InvalidArgument("unknown type: " + name);
}

StatusOr<StmtPtr> Parser::ParseCreateTable() {
  MT_RETURN_IF_ERROR(ExpectIdent("table"));
  auto stmt = std::make_unique<CreateTableStmt>();
  MT_ASSIGN_OR_RETURN(stmt->table, ExpectName("table name"));
  MT_RETURN_IF_ERROR(ExpectSymbol("("));
  do {
    if (MatchIdent("primary")) {
      MT_RETURN_IF_ERROR(ExpectIdent("key"));
      MT_RETURN_IF_ERROR(ExpectSymbol("("));
      do {
        MT_ASSIGN_OR_RETURN(std::string col, ExpectName("column name"));
        stmt->primary_key.push_back(std::move(col));
      } while (MatchSymbol(","));
      MT_RETURN_IF_ERROR(ExpectSymbol(")"));
      continue;
    }
    ColumnDefAst col;
    MT_ASSIGN_OR_RETURN(col.name, ExpectName("column name"));
    MT_ASSIGN_OR_RETURN(col.type, ParseType());
    while (true) {
      if (MatchIdent("not")) {
        MT_RETURN_IF_ERROR(ExpectIdent("null"));
        col.not_null = true;
        continue;
      }
      if (MatchIdent("null")) continue;
      if (MatchIdent("primary")) {
        MT_RETURN_IF_ERROR(ExpectIdent("key"));
        col.primary_key = true;
        col.not_null = true;
        continue;
      }
      break;
    }
    stmt->columns.push_back(std::move(col));
  } while (MatchSymbol(","));
  MT_RETURN_IF_ERROR(ExpectSymbol(")"));
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseCreateIndex(bool unique) {
  auto stmt = std::make_unique<CreateIndexStmt>();
  stmt->unique = unique;
  MT_ASSIGN_OR_RETURN(stmt->index, ExpectName("index name"));
  MT_RETURN_IF_ERROR(ExpectIdent("on"));
  MT_ASSIGN_OR_RETURN(stmt->table, ExpectName("table name"));
  MT_RETURN_IF_ERROR(ExpectSymbol("("));
  do {
    MT_ASSIGN_OR_RETURN(std::string col, ExpectName("column name"));
    stmt->columns.push_back(std::move(col));
  } while (MatchSymbol(","));
  MT_RETURN_IF_ERROR(ExpectSymbol(")"));
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseCreateView(bool cached) {
  auto stmt = std::make_unique<CreateViewStmt>();
  stmt->cached = cached;
  MT_ASSIGN_OR_RETURN(stmt->view, ExpectName("view name"));
  MT_RETURN_IF_ERROR(ExpectIdent("as"));
  MT_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseCreateProcedure() {
  auto stmt = std::make_unique<CreateProcedureStmt>();
  MT_ASSIGN_OR_RETURN(stmt->name, ExpectName("procedure name"));
  if (MatchSymbol("(")) {
    if (!CheckSymbol(")")) {
      do {
        const Token& t = Peek();
        if (t.type != TokenType::kParam) {
          return ErrorHere("expected @parameter");
        }
        std::string pname = t.text;
        Advance();
        MT_ASSIGN_OR_RETURN(TypeId type, ParseType());
        stmt->params.emplace_back(std::move(pname), type);
      } while (MatchSymbol(","));
    }
    MT_RETURN_IF_ERROR(ExpectSymbol(")"));
  }
  MT_RETURN_IF_ERROR(ExpectIdent("as"));
  MT_RETURN_IF_ERROR(ExpectIdent("begin"));
  // Capture the raw body text up to the matching END. BEGIN TRANSACTION /
  // COMMIT / ROLLBACK do not open or close blocks.
  size_t body_start = Peek().offset;
  int depth = 1;
  while (depth > 0) {
    const Token& t = Peek();
    if (t.type == TokenType::kEnd) {
      return ErrorHere("unterminated procedure body (missing END)");
    }
    if (t.type == TokenType::kIdent && t.text == "begin") {
      const Token& next = Peek(1);
      bool is_txn = next.type == TokenType::kIdent &&
                    (next.text == "transaction" || next.text == "tran");
      if (!is_txn) ++depth;
    } else if (t.type == TokenType::kIdent && t.text == "end") {
      --depth;
      if (depth == 0) {
        stmt->body_source = sql_.substr(body_start, t.offset - body_start);
        Advance();
        break;
      }
    }
    Advance();
  }
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseDrop() {
  MT_RETURN_IF_ERROR(ExpectIdent("drop"));
  auto stmt = std::make_unique<DropStmt>();
  if (MatchIdent("table")) {
    stmt->what = DropKind::kTable;
  } else if (MatchIdent("index")) {
    stmt->what = DropKind::kIndex;
  } else if (MatchIdent("materialized")) {
    MT_RETURN_IF_ERROR(ExpectIdent("view"));
    stmt->what = DropKind::kView;
  } else if (MatchIdent("view")) {
    stmt->what = DropKind::kView;
  } else if (MatchIdent("procedure") || MatchIdent("proc")) {
    stmt->what = DropKind::kProcedure;
  } else {
    return ErrorHere("expected TABLE, INDEX, VIEW, or PROCEDURE");
  }
  MT_ASSIGN_OR_RETURN(stmt->name, ExpectName("object name"));
  if (stmt->what == DropKind::kIndex) {
    MT_RETURN_IF_ERROR(ExpectIdent("on"));
    MT_ASSIGN_OR_RETURN(stmt->table, ExpectName("table name"));
  }
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseGrant() {
  auto stmt = std::make_unique<GrantStmt>();
  if (MatchIdent("grant")) {
    stmt->grant = true;
  } else {
    MT_RETURN_IF_ERROR(ExpectIdent("revoke"));
    stmt->grant = false;
  }
  do {
    MT_ASSIGN_OR_RETURN(std::string priv, ExpectName("privilege"));
    stmt->privileges.push_back(std::move(priv));
  } while (MatchSymbol(","));
  MT_RETURN_IF_ERROR(ExpectIdent("on"));
  MT_ASSIGN_OR_RETURN(stmt->table, ExpectName("table name"));
  MT_RETURN_IF_ERROR(stmt->grant ? ExpectIdent("to") : ExpectIdent("from"));
  MT_ASSIGN_OR_RETURN(stmt->user, ExpectName("user name"));
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseExec() {
  Advance();  // exec / execute
  auto stmt = std::make_unique<ExecStmt>();
  MT_ASSIGN_OR_RETURN(stmt->procedure, ExpectName("procedure name"));
  // Positional arguments: only value-shaped starts qualify, so an EXEC with
  // no arguments followed by another statement does not swallow its keyword.
  auto looks_like_arg = [&] {
    const Token& t = Peek();
    return t.type == TokenType::kInt || t.type == TokenType::kFloat ||
           t.type == TokenType::kString || t.type == TokenType::kParam ||
           (t.type == TokenType::kSymbol && (t.text == "-" || t.text == "(")) ||
           (t.type == TokenType::kIdent &&
            (t.text == "null" || t.text == "true" || t.text == "false"));
  };
  if (looks_like_arg()) {
    do {
      MT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->args.push_back(std::move(e));
    } while (MatchSymbol(","));
  }
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseDeclare() {
  MT_RETURN_IF_ERROR(ExpectIdent("declare"));
  auto stmt = std::make_unique<DeclareStmt>();
  const Token& t = Peek();
  if (t.type != TokenType::kParam) return ErrorHere("expected @variable");
  stmt->var = t.text;
  Advance();
  MT_ASSIGN_OR_RETURN(stmt->type, ParseType());
  if (MatchSymbol("=")) {
    MT_ASSIGN_OR_RETURN(stmt->init, ParseExpr());
  }
  return StmtPtr(std::move(stmt));
}

StatusOr<StmtPtr> Parser::ParseSet() {
  MT_RETURN_IF_ERROR(ExpectIdent("set"));
  // T-SQL session option form: SET STATISTICS PROFILE ON|OFF.
  if (MatchIdent("statistics")) {
    MT_RETURN_IF_ERROR(ExpectIdent("profile"));
    auto opt = std::make_unique<SetOptionStmt>();
    opt->option = "statistics profile";
    if (MatchIdent("on")) {
      opt->on = true;
    } else if (MatchIdent("off")) {
      opt->on = false;
    } else {
      return ErrorHere("expected ON or OFF");
    }
    return StmtPtr(std::move(opt));
  }
  auto stmt = std::make_unique<SetVarStmt>();
  const Token& t = Peek();
  if (t.type != TokenType::kParam) return ErrorHere("expected @variable");
  stmt->var = t.text;
  Advance();
  MT_RETURN_IF_ERROR(ExpectSymbol("="));
  MT_ASSIGN_OR_RETURN(stmt->value, ParseExpr());
  return StmtPtr(std::move(stmt));
}

StatusOr<std::vector<StmtPtr>> Parser::ParseBlockOrSingle() {
  std::vector<StmtPtr> out;
  if (CheckIdent("begin") && !(Peek(1).type == TokenType::kIdent &&
                               (Peek(1).text == "transaction" ||
                                Peek(1).text == "tran"))) {
    Advance();  // begin
    while (!CheckIdent("end")) {
      if (Peek().type == TokenType::kEnd) {
        return ErrorHere("unterminated block (missing END)");
      }
      if (MatchSymbol(";")) continue;
      MT_ASSIGN_OR_RETURN(StmtPtr s, ParseStatement());
      out.push_back(std::move(s));
    }
    Advance();  // end
  } else {
    MT_ASSIGN_OR_RETURN(StmtPtr s, ParseStatement());
    out.push_back(std::move(s));
  }
  return out;
}

StatusOr<StmtPtr> Parser::ParseIf() {
  MT_RETURN_IF_ERROR(ExpectIdent("if"));
  auto stmt = std::make_unique<IfStmt>();
  MT_ASSIGN_OR_RETURN(stmt->condition, ParseExpr());
  MT_ASSIGN_OR_RETURN(stmt->then_branch, ParseBlockOrSingle());
  if (MatchIdent("else")) {
    MT_ASSIGN_OR_RETURN(stmt->else_branch, ParseBlockOrSingle());
  }
  return StmtPtr(std::move(stmt));
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Each expression function leaves the height of the tree it returns in
// height_; a node's height is one more than its tallest child's.

StatusOr<ExprPtr> Parser::ParseExpr() {
  DescentScope scope(this);
  MT_RETURN_IF_ERROR(scope.Check());
  MT_ASSIGN_OR_RETURN(ExprPtr left, ParseAndExpr());
  int height = height_;
  while (MatchIdent("or")) {
    MT_ASSIGN_OR_RETURN(ExprPtr right, ParseAndExpr());
    MT_RETURN_IF_ERROR(SetHeight(height = std::max(height, height_) + 1));
    left = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(left),
                                        std::move(right));
  }
  return left;
}

StatusOr<ExprPtr> Parser::ParseAndExpr() {
  MT_ASSIGN_OR_RETURN(ExprPtr left, ParseNotExpr());
  int height = height_;
  while (MatchIdent("and")) {
    MT_ASSIGN_OR_RETURN(ExprPtr right, ParseNotExpr());
    MT_RETURN_IF_ERROR(SetHeight(height = std::max(height, height_) + 1));
    left = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(left),
                                        std::move(right));
  }
  return left;
}

StatusOr<ExprPtr> Parser::ParseNotExpr() {
  // Stacked NOTs are read in a loop rather than by recursion.
  int nots = 0;
  while (MatchIdent("not")) {
    if (++nots > kMaxSqlNestingDepth) return TooDeep();
  }
  MT_ASSIGN_OR_RETURN(ExprPtr e, ParsePredicate());
  if (nots == 0) return e;
  MT_RETURN_IF_ERROR(SetHeight(height_ + nots));
  for (int i = 0; i < nots; ++i) {
    e = std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(e));
  }
  return e;
}

StatusOr<ExprPtr> Parser::ParsePredicate() {
  MT_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
  int height = height_;
  // IS [NOT] NULL
  if (MatchIdent("is")) {
    bool negated = MatchIdent("not");
    MT_RETURN_IF_ERROR(ExpectIdent("null"));
    MT_RETURN_IF_ERROR(SetHeight(height + 1));
    return ExprPtr(std::make_unique<IsNullExpr>(std::move(left), negated));
  }
  bool negated = false;
  if (CheckIdent("not") && (Peek(1).type == TokenType::kIdent &&
                            (Peek(1).text == "like" || Peek(1).text == "in" ||
                             Peek(1).text == "between"))) {
    Advance();
    negated = true;
  }
  if (MatchIdent("like")) {
    MT_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
    MT_RETURN_IF_ERROR(SetHeight(std::max(height, height_) + 1));
    return ExprPtr(std::make_unique<LikeExpr>(std::move(left),
                                              std::move(pattern), negated));
  }
  if (MatchIdent("in")) {
    MT_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<ExprPtr> list;
    do {
      MT_ASSIGN_OR_RETURN(ExprPtr e, ParseAdditive());
      height = std::max(height, height_);
      list.push_back(std::move(e));
    } while (MatchSymbol(","));
    MT_RETURN_IF_ERROR(ExpectSymbol(")"));
    MT_RETURN_IF_ERROR(SetHeight(height + 1));
    return ExprPtr(
        std::make_unique<InExpr>(std::move(left), std::move(list), negated));
  }
  if (MatchIdent("between")) {
    MT_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    height = std::max(height, height_);
    MT_RETURN_IF_ERROR(ExpectIdent("and"));
    MT_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    MT_RETURN_IF_ERROR(
        SetHeight(std::max(height, height_) + (negated ? 2 : 1)));
    ExprPtr between = std::make_unique<BetweenExpr>(
        std::move(left), std::move(lo), std::move(hi));
    if (negated) {
      return ExprPtr(
          std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(between)));
    }
    return between;
  }
  if (negated) return ErrorHere("expected LIKE, IN, or BETWEEN after NOT");
  // Comparison operators.
  struct OpMap {
    const char* sym;
    BinaryOp op;
  };
  static const OpMap kOps[] = {{"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe},
                               {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                               {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
  for (const OpMap& m : kOps) {
    if (MatchSymbol(m.sym)) {
      MT_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      MT_RETURN_IF_ERROR(SetHeight(std::max(height, height_) + 1));
      return ExprPtr(std::make_unique<BinaryExpr>(m.op, std::move(left),
                                                  std::move(right)));
    }
  }
  return left;
}

StatusOr<ExprPtr> Parser::ParseAdditive() {
  MT_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  int height = height_;
  while (true) {
    BinaryOp op;
    if (MatchSymbol("+")) {
      op = BinaryOp::kAdd;
    } else if (MatchSymbol("-")) {
      op = BinaryOp::kSub;
    } else {
      break;
    }
    MT_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
    MT_RETURN_IF_ERROR(SetHeight(height = std::max(height, height_) + 1));
    left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
  }
  return left;
}

StatusOr<ExprPtr> Parser::ParseMultiplicative() {
  MT_ASSIGN_OR_RETURN(ExprPtr left, ParseUnaryExpr());
  int height = height_;
  while (true) {
    BinaryOp op;
    if (MatchSymbol("*")) {
      op = BinaryOp::kMul;
    } else if (MatchSymbol("/")) {
      op = BinaryOp::kDiv;
    } else if (MatchSymbol("%")) {
      op = BinaryOp::kMod;
    } else {
      break;
    }
    MT_ASSIGN_OR_RETURN(ExprPtr right, ParseUnaryExpr());
    MT_RETURN_IF_ERROR(SetHeight(height = std::max(height, height_) + 1));
    left = std::make_unique<BinaryExpr>(op, std::move(left), std::move(right));
  }
  return left;
}

StatusOr<ExprPtr> Parser::ParseUnaryExpr() {
  // Stacked minus signs are read in a loop rather than by recursion.
  int negations = 0;
  while (MatchSymbol("-")) {
    if (++negations > kMaxSqlNestingDepth) return TooDeep();
  }
  MT_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
  if (negations == 0) return e;
  MT_RETURN_IF_ERROR(SetHeight(height_ + negations));
  for (int i = 0; i < negations; ++i) {
    e = std::make_unique<UnaryExpr>(UnaryOp::kNeg, std::move(e));
  }
  return e;
}

StatusOr<ExprPtr> Parser::ParsePrimary() {
  height_ = 1;  // leaves; nodes with children overwrite it
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kInt: {
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Int(t.int_val)));
    }
    case TokenType::kFloat: {
      Advance();
      return ExprPtr(
          std::make_unique<LiteralExpr>(Value::Double(t.float_val)));
    }
    case TokenType::kString: {
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::String(t.text)));
    }
    case TokenType::kParam: {
      Advance();
      return ExprPtr(std::make_unique<ParamExpr>(t.text));
    }
    case TokenType::kSymbol: {
      if (t.text == "(") {
        Advance();
        MT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        MT_RETURN_IF_ERROR(ExpectSymbol(")"));
        return e;
      }
      break;
    }
    case TokenType::kIdent: {
      std::string name = t.text;
      // Reserved clause keywords cannot start an expression; catching them
      // here turns "SELECT FROM" into a syntax error instead of a query over
      // a column named "from".
      static const std::set<std::string>* kReserved = new std::set<std::string>{
          "from", "where", "group", "having", "order", "join", "inner",
          "left", "right", "outer", "on", "select", "and", "or", "union",
          "as", "end", "begin", "else", "values", "into", "by", "when",
          "then", "asc", "desc"};
      if (kReserved->count(name) > 0) {
        return ErrorHere("expected an expression");
      }
      // NULL / TRUE / FALSE literals.
      if (name == "null") {
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Null()));
      }
      if (name == "true") {
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Bool(true)));
      }
      if (name == "false") {
        Advance();
        return ExprPtr(std::make_unique<LiteralExpr>(Value::Bool(false)));
      }
      // CASE expressions.
      if (name == "case") {
        Advance();
        auto expr = std::make_unique<CaseExpr>();
        int height = 0;
        if (!CheckIdent("when")) {
          MT_ASSIGN_OR_RETURN(expr->operand, ParseExpr());
          height = height_;
        }
        while (MatchIdent("when")) {
          MT_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
          height = std::max(height, height_);
          MT_RETURN_IF_ERROR(ExpectIdent("then"));
          MT_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
          height = std::max(height, height_);
          expr->branches.emplace_back(std::move(when), std::move(then));
        }
        if (expr->branches.empty()) {
          return ErrorHere("CASE requires at least one WHEN branch");
        }
        if (MatchIdent("else")) {
          MT_ASSIGN_OR_RETURN(expr->else_expr, ParseExpr());
          height = std::max(height, height_);
        }
        MT_RETURN_IF_ERROR(ExpectIdent("end"));
        MT_RETURN_IF_ERROR(SetHeight(height + 1));
        return ExprPtr(std::move(expr));
      }
      // Aggregates.
      if (Peek(1).type == TokenType::kSymbol && Peek(1).text == "(") {
        AggFunc agg;
        bool is_agg = true;
        if (name == "count") {
          agg = AggFunc::kCount;
        } else if (name == "sum") {
          agg = AggFunc::kSum;
        } else if (name == "avg") {
          agg = AggFunc::kAvg;
        } else if (name == "min") {
          agg = AggFunc::kMin;
        } else if (name == "max") {
          agg = AggFunc::kMax;
        } else {
          is_agg = false;
        }
        if (is_agg) {
          Advance();  // name
          Advance();  // (
          if (agg == AggFunc::kCount && MatchSymbol("*")) {
            MT_RETURN_IF_ERROR(ExpectSymbol(")"));
            return ExprPtr(std::make_unique<AggregateExpr>(AggFunc::kCountStar,
                                                           nullptr));
          }
          MT_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          MT_RETURN_IF_ERROR(ExpectSymbol(")"));
          MT_RETURN_IF_ERROR(SetHeight(height_ + 1));
          return ExprPtr(
              std::make_unique<AggregateExpr>(agg, std::move(arg)));
        }
        // Scalar function.
        Advance();  // name
        Advance();  // (
        std::vector<ExprPtr> args;
        int height = 0;
        if (!CheckSymbol(")")) {
          do {
            MT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
            height = std::max(height, height_);
            args.push_back(std::move(e));
          } while (MatchSymbol(","));
        }
        MT_RETURN_IF_ERROR(ExpectSymbol(")"));
        MT_RETURN_IF_ERROR(SetHeight(height + 1));
        return ExprPtr(
            std::make_unique<FunctionExpr>(name, std::move(args)));
      }
      // Column reference (possibly qualified).
      Advance();
      if (CheckSymbol(".") && Peek(1).type == TokenType::kIdent) {
        Advance();  // .
        std::string col = Peek().text;
        Advance();
        return ExprPtr(std::make_unique<ColumnRefExpr>(name, col));
      }
      return ExprPtr(std::make_unique<ColumnRefExpr>("", name));
    }
    default:
      break;
  }
  return ErrorHere("expected an expression");
}

StatusOr<StmtPtr> ParseSql(const std::string& sql) {
  Parser parser(sql);
  return parser.ParseSingleStatement();
}

StatusOr<std::vector<StmtPtr>> ParseSqlScript(const std::string& sql) {
  Parser parser(sql);
  return parser.ParseScript();
}

}  // namespace mtcache
