#include <gtest/gtest.h>

#include "engine/server.h"
#include "sql/parser.h"

namespace mtcache {
namespace {

std::unique_ptr<SelectStmt> MustSelect(const std::string& sql) {
  auto result = ParseSql(sql);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << " for: " << sql;
  if (!result.ok()) return nullptr;
  EXPECT_EQ((*result)->kind, StmtKind::kSelect);
  return std::unique_ptr<SelectStmt>(
      static_cast<SelectStmt*>(result.ConsumeValue().release()));
}

TEST(LexerTest, BasicTokens) {
  auto toks = Tokenize("SELECT a, 42 FROM t WHERE x <= 3.5 AND y = 'it''s'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "select");
  EXPECT_EQ((*toks)[3].int_val, 42);
  bool found_string = false;
  for (const Token& t : *toks) {
    if (t.type == TokenType::kString) {
      EXPECT_EQ(t.text, "it's");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
}

TEST(LexerTest, ParamsAndComments) {
  auto toks = Tokenize("-- comment line\nSELECT @P1");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "select");
  EXPECT_EQ((*toks)[1].type, TokenType::kParam);
  EXPECT_EQ((*toks)[1].text, "@p1");
}

TEST(LexerTest, NotEqualVariants) {
  auto toks = Tokenize("a <> b != c");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].text, "<>");
  EXPECT_EQ((*toks)[3].text, "<>");
}

TEST(LexerTest, UnterminatedStringRejected) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(LexerTest, FloatExponentForms) {
  auto toks = Tokenize("1e-7 2.5E+3 3e2 1e");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*toks)[0].float_val, 1e-7);
  EXPECT_EQ((*toks)[1].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*toks)[1].float_val, 2500.0);
  EXPECT_EQ((*toks)[2].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*toks)[2].float_val, 300.0);
  // No digit after the 'e': lexes as (int, identifier), same as before
  // exponents were supported.
  EXPECT_EQ((*toks)[3].type, TokenType::kInt);
  EXPECT_EQ((*toks)[4].type, TokenType::kIdent);
}

TEST(LexerTest, OutOfRangeNumericLiteralsAreParseErrors) {
  // Literals an int64 or a double cannot hold end in a Status; they used to
  // throw std::out_of_range out of the lexer, which aborted the process.
  for (const char* sql : {"SELECT 99999999999999999999",
                          "SELECT 9223372036854775808", "SELECT 1e999",
                          "SELECT 1e-999"}) {
    auto toks = Tokenize(sql);
    ASSERT_FALSE(toks.ok()) << sql;
    EXPECT_EQ(toks.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_FALSE(ParseSql(sql).ok()) << sql;
  }
  auto max = Tokenize("9223372036854775807 1.7e308");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ((*max)[0].int_val, INT64_MAX);
  EXPECT_DOUBLE_EQ((*max)[1].float_val, 1.7e308);
}

TEST(ParserTest, DoubleLiteralUnparseParseRoundTrip) {
  const double cases[] = {0.1234567891, 1e-7, 1e30, 4.0, -2.5e-9};
  for (double d : cases) {
    std::string sql = "SELECT " + Value::Double(d).ToSqlLiteral() + " FROM t";
    auto sel = MustSelect(sql);
    ASSERT_NE(sel, nullptr);
    const Expr* e = sel->items[0].expr.get();
    bool negated = e->kind == ExprKind::kUnary;
    if (negated) e = static_cast<const UnaryExpr*>(e)->operand.get();
    ASSERT_EQ(e->kind, ExprKind::kLiteral) << sql;
    const Value& v = static_cast<const LiteralExpr*>(e)->value;
    ASSERT_EQ(v.type(), TypeId::kDouble) << sql;
    EXPECT_EQ(negated ? -v.AsDouble() : v.AsDouble(), d) << sql;
  }
}

TEST(ParserTest, SimpleSelect) {
  auto sel = MustSelect("SELECT cid, cname FROM customer WHERE cid <= 1000");
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(sel->items.size(), 2u);
  ASSERT_EQ(sel->from.size(), 1u);
  EXPECT_EQ(sel->from[0].name, "customer");
  ASSERT_NE(sel->where, nullptr);
  EXPECT_EQ(sel->where->kind, ExprKind::kBinary);
}

TEST(ParserTest, SelectStarAndQualifiedStar) {
  auto sel = MustSelect("SELECT * FROM t");
  ASSERT_NE(sel, nullptr);
  EXPECT_TRUE(sel->items[0].star);
  auto sel2 = MustSelect("SELECT t.* FROM t");
  ASSERT_NE(sel2, nullptr);
  EXPECT_TRUE(sel2->items[0].star);
  EXPECT_EQ(sel2->items[0].star_qualifier, "t");
}

TEST(ParserTest, TopAndDistinct) {
  auto sel = MustSelect("SELECT DISTINCT TOP 50 a FROM t");
  ASSERT_NE(sel, nullptr);
  EXPECT_TRUE(sel->distinct);
  EXPECT_EQ(sel->top, 50);
}

TEST(ParserTest, JoinWithOn) {
  auto sel = MustSelect(
      "SELECT c.name, o.total FROM customer c JOIN orders o ON c.id = o.cid");
  ASSERT_NE(sel, nullptr);
  ASSERT_EQ(sel->joins.size(), 1u);
  EXPECT_EQ(sel->joins[0].kind, JoinKind::kInner);
  EXPECT_EQ(sel->joins[0].table.name, "orders");
  EXPECT_EQ(sel->joins[0].table.alias, "o");
  EXPECT_EQ(sel->from[0].alias, "c");
}

TEST(ParserTest, LeftOuterJoin) {
  auto sel = MustSelect("SELECT a FROM t LEFT OUTER JOIN u ON t.x = u.x");
  ASSERT_NE(sel, nullptr);
  ASSERT_EQ(sel->joins.size(), 1u);
  EXPECT_EQ(sel->joins[0].kind, JoinKind::kLeftOuter);
}

TEST(ParserTest, CommaJoinList) {
  auto sel = MustSelect(
      "SELECT 1 FROM a, b, c WHERE a.x = b.x AND b.y = c.y");
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(sel->from.size(), 3u);
}

TEST(ParserTest, DerivedTable) {
  auto sel = MustSelect(
      "SELECT r.o_id FROM (SELECT TOP 10 o_id FROM orders ORDER BY o_date "
      "DESC) r");
  ASSERT_NE(sel, nullptr);
  ASSERT_EQ(sel->from.size(), 1u);
  EXPECT_NE(sel->from[0].derived, nullptr);
  EXPECT_EQ(sel->from[0].alias, "r");
  EXPECT_EQ(sel->from[0].derived->top, 10);
}

TEST(ParserTest, GroupByHavingOrderBy) {
  auto sel = MustSelect(
      "SELECT i_id, SUM(qty) total FROM ol GROUP BY i_id "
      "HAVING SUM(qty) > 5 ORDER BY total DESC, i_id");
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(sel->group_by.size(), 1u);
  ASSERT_NE(sel->having, nullptr);
  ASSERT_EQ(sel->order_by.size(), 2u);
  EXPECT_TRUE(sel->order_by[0].desc);
  EXPECT_FALSE(sel->order_by[1].desc);
  EXPECT_EQ(sel->items[1].alias, "total");
}

TEST(ParserTest, Aggregates) {
  auto sel = MustSelect("SELECT COUNT(*), AVG(x), MIN(y) FROM t");
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(sel->items[0].expr->kind, ExprKind::kAggregate);
  auto* cnt = static_cast<AggregateExpr*>(sel->items[0].expr.get());
  EXPECT_EQ(cnt->func, AggFunc::kCountStar);
}

TEST(ParserTest, ParameterizedQuery) {
  auto sel = MustSelect(
      "SELECT cid, cname, caddress FROM customer WHERE cid <= @cid");
  ASSERT_NE(sel, nullptr);
  auto* cmp = static_cast<BinaryExpr*>(sel->where.get());
  EXPECT_EQ(cmp->op, BinaryOp::kLe);
  EXPECT_EQ(cmp->right->kind, ExprKind::kParam);
  EXPECT_EQ(static_cast<ParamExpr*>(cmp->right.get())->name, "@cid");
}

TEST(ParserTest, LikeInBetween) {
  auto sel = MustSelect(
      "SELECT a FROM t WHERE title LIKE '%db%' AND x IN (1, 2, 3) "
      "AND y BETWEEN 5 AND 9 AND z IS NOT NULL");
  ASSERT_NE(sel, nullptr);
}

TEST(ParserTest, ScalarAssignmentSelect) {
  auto sel = MustSelect("SELECT @c = COUNT(*) FROM t WHERE x = 1");
  ASSERT_NE(sel, nullptr);
  ASSERT_EQ(sel->into_vars.size(), 1u);
  EXPECT_EQ(sel->into_vars[0], "@c");
}

TEST(ParserTest, LinkedServerTableRef) {
  auto sel = MustSelect(
      "SELECT ol.id, ps.name FROM orderline ol, partserver.part ps "
      "WHERE ol.id = ps.id");
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(sel->from[1].server, "partserver");
  EXPECT_EQ(sel->from[1].name, "part");
}

TEST(ParserTest, InsertValues) {
  auto r = ParseSql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* ins = static_cast<InsertStmt*>(r->get());
  EXPECT_EQ(ins->table, "t");
  EXPECT_EQ(ins->columns.size(), 2u);
  EXPECT_EQ(ins->rows.size(), 2u);
}

TEST(ParserTest, InsertSelect) {
  auto r = ParseSql("INSERT INTO ol (a) SELECT x FROM cart WHERE cart_id = 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* ins = static_cast<InsertStmt*>(r->get());
  EXPECT_NE(ins->select, nullptr);
}

TEST(ParserTest, UpdateDelete) {
  auto r = ParseSql("UPDATE t SET a = a + 1, b = 'z' WHERE id = @id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* upd = static_cast<UpdateStmt*>(r->get());
  EXPECT_EQ(upd->sets.size(), 2u);
  auto r2 = ParseSql("DELETE FROM t WHERE id = 3");
  ASSERT_TRUE(r2.ok());
}

TEST(ParserTest, CreateTable) {
  auto r = ParseSql(
      "CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(60) NOT NULL, "
      "i_cost FLOAT, i_pub_date DATETIME)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* ct = static_cast<CreateTableStmt*>(r->get());
  EXPECT_EQ(ct->table, "item");
  ASSERT_EQ(ct->columns.size(), 4u);
  EXPECT_TRUE(ct->columns[0].primary_key);
  EXPECT_EQ(ct->columns[1].type, TypeId::kString);
  EXPECT_TRUE(ct->columns[1].not_null);
  EXPECT_EQ(ct->columns[2].type, TypeId::kDouble);
  EXPECT_EQ(ct->columns[3].type, TypeId::kInt64);
}

TEST(ParserTest, CreateTableCompositePk) {
  auto r = ParseSql(
      "CREATE TABLE ol (o_id INT, ol_num INT, PRIMARY KEY (o_id, ol_num))");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* ct = static_cast<CreateTableStmt*>(r->get());
  EXPECT_EQ(ct->primary_key, (std::vector<std::string>{"o_id", "ol_num"}));
}

TEST(ParserTest, CreateIndex) {
  auto r = ParseSql("CREATE UNIQUE INDEX i_pk ON item (i_id)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* ci = static_cast<CreateIndexStmt*>(r->get());
  EXPECT_TRUE(ci->unique);
  EXPECT_EQ(ci->table, "item");
}

TEST(ParserTest, CreateCachedMaterializedView) {
  auto r = ParseSql(
      "CREATE CACHED MATERIALIZED VIEW cust1000 AS "
      "SELECT cid, cname FROM customer WHERE cid <= 1000");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* cv = static_cast<CreateViewStmt*>(r->get());
  EXPECT_TRUE(cv->cached);
  EXPECT_EQ(cv->view, "cust1000");
  EXPECT_NE(cv->select, nullptr);
}

TEST(ParserTest, CreateProcedureCapturesBody) {
  auto r = ParseSql(
      "CREATE PROCEDURE getcart(@id INT) AS BEGIN "
      "SELECT * FROM cart WHERE id = @id; "
      "IF @id > 0 BEGIN SELECT 1 FROM t END "
      "END");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* cp = static_cast<CreateProcedureStmt*>(r->get());
  EXPECT_EQ(cp->name, "getcart");
  ASSERT_EQ(cp->params.size(), 1u);
  EXPECT_EQ(cp->params[0].first, "@id");
  // Body text contains both statements and balanced inner BEGIN/END.
  EXPECT_NE(cp->body_source.find("IF @id > 0"), std::string::npos);
  EXPECT_NE(cp->body_source.find("SELECT 1 FROM t"), std::string::npos);
  // The body can itself be parsed as a script.
  auto body = ParseSqlScript(cp->body_source);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body->size(), 2u);
}

TEST(ParserTest, ProcedureBodyWithTransaction) {
  auto r = ParseSql(
      "CREATE PROCEDURE buy(@c INT) AS BEGIN "
      "BEGIN TRANSACTION; "
      "INSERT INTO orders (o_id) VALUES (@c); "
      "COMMIT "
      "END");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* cp = static_cast<CreateProcedureStmt*>(r->get());
  auto body = ParseSqlScript(cp->body_source);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ((*body)[0]->kind, StmtKind::kBeginTxn);
  EXPECT_EQ((*body)[2]->kind, StmtKind::kCommitTxn);
}

TEST(ParserTest, ExecStatement) {
  auto r = ParseSql("EXEC getbestsellers 'history', @p");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* ex = static_cast<ExecStmt*>(r->get());
  EXPECT_EQ(ex->procedure, "getbestsellers");
  EXPECT_EQ(ex->args.size(), 2u);
}

TEST(ParserTest, DeclareSetIfScript) {
  auto r = ParseSqlScript(
      "DECLARE @total FLOAT = 0; "
      "SET @total = @total + 1.5; "
      "IF @total > 1 BEGIN SET @total = 0 END ELSE SET @total = 2;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0]->kind, StmtKind::kDeclare);
  EXPECT_EQ((*r)[1]->kind, StmtKind::kSetVar);
  auto* iff = static_cast<IfStmt*>((*r)[2].get());
  EXPECT_EQ(iff->then_branch.size(), 1u);
  EXPECT_EQ(iff->else_branch.size(), 1u);
}

TEST(ParserTest, OperatorPrecedence) {
  auto sel = MustSelect("SELECT a FROM t WHERE a + 2 * 3 = 8 OR b = 1 AND c = 2");
  ASSERT_NE(sel, nullptr);
  // Root must be OR.
  auto* root = static_cast<BinaryExpr*>(sel->where.get());
  EXPECT_EQ(root->op, BinaryOp::kOr);
  // Left: (a + (2*3)) = 8
  auto* left = static_cast<BinaryExpr*>(root->left.get());
  EXPECT_EQ(left->op, BinaryOp::kEq);
  auto* add = static_cast<BinaryExpr*>(left->left.get());
  EXPECT_EQ(add->op, BinaryOp::kAdd);
  EXPECT_EQ(static_cast<BinaryExpr*>(add->right.get())->op, BinaryOp::kMul);
}

TEST(ParserTest, ExprToSqlRoundTrip) {
  auto sel = MustSelect("SELECT a FROM t WHERE x <= @p AND name LIKE 'a%'");
  ASSERT_NE(sel, nullptr);
  std::string text = ExprToSql(*sel->where);
  EXPECT_NE(text.find("x <= @p"), std::string::npos);
  EXPECT_NE(text.find("LIKE 'a%'"), std::string::npos);
  // Re-parse the unparsed text inside a query.
  auto again = ParseSql("SELECT a FROM t WHERE " + text);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST(ParserTest, CloneSelectDeepCopies) {
  auto sel = MustSelect(
      "SELECT TOP 5 a, SUM(b) s FROM t JOIN u ON t.x = u.x WHERE t.y > @p "
      "GROUP BY a ORDER BY s DESC");
  ASSERT_NE(sel, nullptr);
  auto copy = CloneSelect(*sel);
  EXPECT_EQ(copy->top, 5);
  EXPECT_EQ(copy->joins.size(), 1u);
  EXPECT_EQ(copy->order_by.size(), 1u);
  // Mutating the copy leaves the original intact.
  copy->top = 99;
  EXPECT_EQ(sel->top, 5);
}

TEST(ParserTest, SyntaxErrorsReported) {
  EXPECT_FALSE(ParseSql("SELECT FROM").ok());
  EXPECT_FALSE(ParseSql("SELEC a FROM t").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t VALUE (1)").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("CREATE PROCEDURE p AS BEGIN SELECT 1").ok());
}

TEST(ParserTest, DropStatements) {
  auto table = ParseSql("DROP TABLE t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(static_cast<DropStmt*>(table->get())->what, DropKind::kTable);

  auto index = ParseSql("DROP INDEX idx ON t");
  ASSERT_TRUE(index.ok());
  auto* di = static_cast<DropStmt*>(index->get());
  EXPECT_EQ(di->what, DropKind::kIndex);
  EXPECT_EQ(di->name, "idx");
  EXPECT_EQ(di->table, "t");

  auto view = ParseSql("DROP MATERIALIZED VIEW v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(static_cast<DropStmt*>(view->get())->what, DropKind::kView);

  auto proc = ParseSql("DROP PROCEDURE p");
  ASSERT_TRUE(proc.ok());
  EXPECT_EQ(static_cast<DropStmt*>(proc->get())->what, DropKind::kProcedure);

  EXPECT_FALSE(ParseSql("DROP banana b").ok());
}

TEST(ParserTest, GrantRevokeStatements) {
  auto grant = ParseSql("GRANT SELECT, INSERT ON t TO alice");
  ASSERT_TRUE(grant.ok()) << grant.status().ToString();
  auto* g = static_cast<GrantStmt*>(grant->get());
  EXPECT_TRUE(g->grant);
  EXPECT_EQ(g->privileges, (std::vector<std::string>{"select", "insert"}));
  EXPECT_EQ(g->table, "t");
  EXPECT_EQ(g->user, "alice");

  auto revoke = ParseSql("REVOKE ALL ON t FROM bob");
  ASSERT_TRUE(revoke.ok());
  EXPECT_FALSE(static_cast<GrantStmt*>(revoke->get())->grant);
  // GRANT ... FROM is a syntax error (and vice versa).
  EXPECT_FALSE(ParseSql("GRANT SELECT ON t FROM alice").ok());
}

TEST(ParserTest, ExplainStatement) {
  auto r = ParseSql("EXPLAIN SELECT a FROM t WHERE a > 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* e = static_cast<ExplainStmt*>(r->get());
  EXPECT_FALSE(e->analyze);
  ASSERT_NE(e->target, nullptr);
  ASSERT_EQ(e->target->kind, StmtKind::kSelect);
  EXPECT_EQ(static_cast<SelectStmt*>(e->target.get())->items.size(), 1u);
}

TEST(ParserTest, ExplainAnalyze) {
  auto r = ParseSql("EXPLAIN ANALYZE SELECT a FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto* e = static_cast<ExplainStmt*>(r->get());
  EXPECT_TRUE(e->analyze);
  ASSERT_NE(e->target, nullptr);
  EXPECT_EQ(e->target->kind, StmtKind::kSelect);
  // ANALYZE would execute the statement; that is only allowed for SELECT.
  EXPECT_FALSE(ParseSql("EXPLAIN ANALYZE DELETE FROM t").ok());
}

TEST(ParserTest, ExplainDml) {
  auto ins = ParseSql("EXPLAIN INSERT INTO t VALUES (1)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(static_cast<ExplainStmt*>(ins->get())->target->kind,
            StmtKind::kInsert);
  auto upd = ParseSql("EXPLAIN UPDATE t SET a = 2 WHERE a = 1");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(static_cast<ExplainStmt*>(upd->get())->target->kind,
            StmtKind::kUpdate);
  auto del = ParseSql("EXPLAIN DELETE FROM t WHERE a = 1");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(static_cast<ExplainStmt*>(del->get())->target->kind,
            StmtKind::kDelete);
  // Non-plannable statements stay rejected.
  EXPECT_FALSE(ParseSql("EXPLAIN CREATE TABLE t (a INT)").ok());
}

TEST(ParserTest, SetStatisticsProfile) {
  auto on = ParseSql("SET STATISTICS PROFILE ON");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  auto* s = static_cast<SetOptionStmt*>(on->get());
  EXPECT_EQ(s->option, "statistics profile");
  EXPECT_TRUE(s->on);
  auto off = ParseSql("SET STATISTICS PROFILE OFF");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(static_cast<SetOptionStmt*>(off->get())->on);
  EXPECT_FALSE(ParseSql("SET STATISTICS PROFILE MAYBE").ok());
  // Plain variable SET still parses.
  auto var = ParseSql("SET @x = 1");
  ASSERT_TRUE(var.ok());
  EXPECT_EQ(var->get()->kind, StmtKind::kSetVar);
}

TEST(ParserTest, MaxStalenessClause) {
  auto r = ParseSql("SELECT a FROM t WHERE a = 1 WITH MAXSTALENESS 30");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(static_cast<SelectStmt*>(r->get())->max_staleness, 30.0);
  auto frac = ParseSql("SELECT a FROM t WITH MAXSTALENESS 0.5");
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(static_cast<SelectStmt*>(frac->get())->max_staleness, 0.5);
  EXPECT_FALSE(ParseSql("SELECT a FROM t WITH MAXSTALENESS").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WITH MAXSTALENESS 'soon'").ok());
}

TEST(ParserTest, CaseExpressions) {
  auto searched = MustSelect(
      "SELECT CASE WHEN a > 1 THEN 'big' WHEN a > 0 THEN 'small' "
      "ELSE 'neg' END FROM t");
  ASSERT_NE(searched, nullptr);
  auto* c = static_cast<CaseExpr*>(searched->items[0].expr.get());
  EXPECT_EQ(c->operand, nullptr);
  EXPECT_EQ(c->branches.size(), 2u);
  EXPECT_NE(c->else_expr, nullptr);

  auto simple = MustSelect("SELECT CASE a WHEN 1 THEN 'one' END FROM t");
  ASSERT_NE(simple, nullptr);
  auto* s = static_cast<CaseExpr*>(simple->items[0].expr.get());
  EXPECT_NE(s->operand, nullptr);
  EXPECT_EQ(s->else_expr, nullptr);

  // Round trip through ExprToSql.
  std::string text = ExprToSql(*searched->items[0].expr);
  EXPECT_NE(text.find("CASE WHEN"), std::string::npos);
  EXPECT_TRUE(ParseSql("SELECT " + text + " FROM t").ok()) << text;

  EXPECT_FALSE(ParseSql("SELECT CASE END FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT CASE WHEN a THEN 1 FROM t").ok());
}

TEST(ParserTest, WhileStatement) {
  auto r = ParseSqlScript(
      "DECLARE @i INT = 0; WHILE @i < 10 BEGIN SET @i = @i + 1 END;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  auto* w = static_cast<WhileStmt*>((*r)[1].get());
  EXPECT_NE(w->condition, nullptr);
  EXPECT_EQ(w->body.size(), 1u);
  // Single-statement body without BEGIN/END.
  auto single = ParseSqlScript("WHILE @i < 10 SET @i = @i + 1;");
  ASSERT_TRUE(single.ok()) << single.status().ToString();
}

TEST(ParserTest, UnionAllChains) {
  auto sel = MustSelect(
      "SELECT a FROM t WHERE a = 1 UNION ALL SELECT a FROM t WHERE a = 2 "
      "UNION ALL SELECT b FROM u");
  ASSERT_NE(sel, nullptr);
  ASSERT_NE(sel->union_next, nullptr);
  ASSERT_NE(sel->union_next->union_next, nullptr);
  EXPECT_EQ(sel->union_next->union_next->from[0].name, "u");
  // Plain UNION (without ALL) is not supported.
  EXPECT_FALSE(ParseSql("SELECT a FROM t UNION SELECT a FROM t").ok());
}

TEST(ParserTest, ScriptSplitting) {
  auto r = ParseSqlScript("SELECT 1; SELECT 2; ; SELECT 3;");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
}

// SelectToSql renders every SELECT clause so that its text parses back to
// the statement it came from (rendering the reparse gives the same text).
TEST(ParserTest, SelectToSqlRoundTrips) {
  for (const std::string& sql : {
           std::string("SELECT DISTINCT TOP 5 c.*, o.total * 2 AS t2 FROM "
                       "customer c LEFT OUTER JOIN orders o ON c.cid = o.ckey "
                       "WHERE c.cid <= @hi AND o.total IS NOT NULL "
                       "ORDER BY t2 DESC, c.cid"),
           std::string("SELECT region, COUNT(*) FROM backend.customer "
                       "GROUP BY region HAVING COUNT(*) > 1"),
           std::string("SELECT x.k FROM (SELECT cid AS k FROM customer) x, "
                       "orders JOIN item i ON i.id = orders.okey "
                       "UNION ALL SELECT * FROM t WITH MAXSTALENESS 2.5"),
       }) {
    SCOPED_TRACE(sql);
    auto first = MustSelect(sql);
    ASSERT_NE(first, nullptr);
    std::string text = SelectToSql(*first);
    auto second = MustSelect(text);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(SelectToSql(*second), text);
    EXPECT_EQ(second->distinct, first->distinct);
    EXPECT_EQ(second->top, first->top);
    EXPECT_EQ(second->items.size(), first->items.size());
    EXPECT_EQ(second->from.size(), first->from.size());
    EXPECT_EQ(second->joins.size(), first->joins.size());
    EXPECT_EQ(second->order_by.size(), first->order_by.size());
    EXPECT_EQ(second->union_next != nullptr, first->union_next != nullptr);
  }
}

// Over-deep input ends in InvalidArgument, through the parser and through a
// Server, instead of overflowing the stack: nested parentheses, stacked
// NOTs and a long operator chain. The deepest accepted statement of each
// shape parses, binds and executes.
TEST(ParserTest, NestingDepthLimit) {
  auto parens = [](int n) {
    return "SELECT " + std::string(n, '(') + "1" + std::string(n, ')');
  };
  auto nots = [](int n) {
    std::string sql = "SELECT 1 WHERE ";
    for (int i = 0; i < n; ++i) sql += "NOT ";
    return sql + "1 = 1";
  };
  auto sums = [](int n) {
    std::string sql = "SELECT 1";
    for (int i = 0; i < n; ++i) sql += " +1";
    return sql;
  };
  SimClock clock;
  Server server(ServerOptions{"backend", "dbo", {}}, &clock);
  for (const std::string& sql : {parens(5000), nots(100000), sums(1000000)}) {
    auto parsed = ParseSql(sql);
    ASSERT_FALSE(parsed.ok()) << sql.substr(0, 40);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(server.ExecuteScript(sql).code(), StatusCode::kInvalidArgument);
  }

  // The statement, the SELECT and its select item take three levels of
  // descent; the comparison under the NOTs is two levels high.
  const int max_parens = kMaxSqlNestingDepth - 3;
  const int max_nots = kMaxSqlNestingDepth - 2;
  const int max_terms = kMaxSqlNestingDepth - 1;
  auto result = server.Execute(parens(max_parens));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 1);
  result = server.Execute(nots(max_nots));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), max_nots % 2 == 0 ? 1u : 0u);
  result = server.Execute(sums(max_terms));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), max_terms + 1);

  // One level deeper is refused.
  for (const std::string& sql :
       {parens(max_parens + 1), nots(max_nots + 1), sums(max_terms + 1)}) {
    EXPECT_EQ(ParseSql(sql).status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace mtcache
