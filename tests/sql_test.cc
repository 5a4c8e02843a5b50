// SQL frontend tests: lexer, parser, and end-to-end planning/execution.

#include <gtest/gtest.h>

#include "exec/filter_project.h"
#include "exec/scan.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "stats/table_stats.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"

namespace qprog {
namespace sql {
namespace {

using testutil::D;
using testutil::I;
using testutil::N;
using testutil::S;

// ---------------------------------------------------------------------------
// Lexer

TEST(LexerTest, BasicTokens) {
  auto tokens = Lex("SELECT a, b FROM t WHERE x >= 3.5 AND y = 'hi'");
  ASSERT_TRUE(tokens.ok());
  const auto& v = *tokens;
  EXPECT_EQ(v[0].text, "select");
  EXPECT_EQ(v[0].type, TokenType::kIdentifier);
  EXPECT_TRUE(v[1].Is("a"));
  EXPECT_TRUE(v[2].Is(","));
  size_t ge = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i].text == ">=") ge = i;
  }
  EXPECT_GT(ge, 0u);
  EXPECT_EQ(v[ge + 1].type, TokenType::kFloat);
  EXPECT_EQ(v.back().type, TokenType::kEnd);
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = Lex("'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "it's");
}

TEST(LexerTest, Comments) {
  auto tokens = Lex("select -- comment\n1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].type, TokenType::kInteger);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("select @").ok());
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Lex("a <> b <= c >= d != e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
  EXPECT_EQ((*tokens)[3].text, "<=");
  EXPECT_EQ((*tokens)[5].text, ">=");
  EXPECT_EQ((*tokens)[7].text, "<>");  // != normalizes
}

// ---------------------------------------------------------------------------
// Parser

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY a LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[1].alias, "bee");
  EXPECT_EQ(stmt->from.size(), 1u);
  EXPECT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->order_by.size(), 1u);
  EXPECT_EQ(stmt->limit, 5u);
}

TEST(ParserTest, SelectStar) {
  auto stmt = Parse("SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].expr, nullptr);
}

TEST(ParserTest, JoinsAndAliases) {
  auto stmt = Parse(
      "SELECT o.a FROM orders o JOIN customer c ON o.custkey = c.custkey");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->from.size(), 1u);
  EXPECT_EQ(stmt->from[0].alias, "o");
  ASSERT_EQ(stmt->joins.size(), 1u);
  EXPECT_EQ(stmt->joins[0].table.alias, "c");
  EXPECT_NE(stmt->joins[0].on, nullptr);
}

TEST(ParserTest, GroupByHaving) {
  auto stmt = Parse(
      "SELECT g, count(*), sum(v) FROM t GROUP BY g HAVING count(*) > 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  EXPECT_EQ(stmt->items[1].expr->kind, SqlExprKind::kFunc);
  EXPECT_TRUE(stmt->items[1].expr->star);
}

TEST(ParserTest, PredicateForms) {
  auto stmt = Parse(
      "SELECT a FROM t WHERE a LIKE 'x%' AND b NOT IN (1, 2) AND c BETWEEN 1 "
      "AND 9 AND d IS NOT NULL AND NOT (e = 1 OR f = 2)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
}

TEST(ParserTest, DateLiterals) {
  auto stmt = Parse("SELECT a FROM t WHERE d < DATE '1995-03-15'");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = Parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  // OR at top, AND beneath its right child.
  EXPECT_EQ(stmt->where->kind, SqlExprKind::kOr);
  EXPECT_EQ(stmt->where->children[1]->kind, SqlExprKind::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = Parse("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  const SqlExpr& e = *stmt->items[0].expr;
  EXPECT_EQ(e.kind, SqlExprKind::kArith);
  EXPECT_EQ(e.op, "+");
  EXPECT_EQ(e.children[1]->op, "*");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a").ok());               // missing FROM
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE").ok());  // dangling WHERE
  EXPECT_FALSE(Parse("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t extra garbage here").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t JOIN u").ok());  // missing ON
}

// ---------------------------------------------------------------------------
// Planner / end-to-end

class SqlEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    Table dept = testutil::MakeTable(
        "dept", {"dept_id", "dept_name"},
        {{I(1), S("eng")}, {I(2), S("sales")}, {I(3), S("hr")}});
    Table emp = testutil::MakeTable(
        "emp", {"emp_id", "name", "dept_id", "salary"},
        {{I(1), S("ada"), I(1), D(120.0)},
         {I(2), S("bob"), I(1), D(100.0)},
         {I(3), S("cat"), I(2), D(90.0)},
         {I(4), S("dan"), I(2), D(80.0)},
         {I(5), S("eve"), N(), D(70.0)}});
    QPROG_CHECK(db_->AddTable(std::move(dept)).ok());
    QPROG_CHECK(db_->AddTable(std::move(emp)).ok());
    HistogramStatisticsGenerator gen(8);
    for (const std::string& t : db_->TableNames()) {
      db_->SetStats(t, gen.Generate(*db_->GetTable(t)));
    }
  }
  static Database* db_;
};

Database* SqlEndToEndTest::db_ = nullptr;

TEST_F(SqlEndToEndTest, SelectStar) {
  auto rows = ExecuteSql("SELECT * FROM emp", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ((*rows)[0].size(), 4u);
}

TEST_F(SqlEndToEndTest, FilterAndProject) {
  auto rows = ExecuteSql(
      "SELECT name, salary FROM emp WHERE salary >= 90 ORDER BY salary DESC",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0][0].string_value(), "ada");
  EXPECT_EQ((*rows)[2][0].string_value(), "cat");
}

TEST_F(SqlEndToEndTest, JoinWithOnClause) {
  auto rows = ExecuteSql(
      "SELECT e.name, d.dept_name FROM emp e JOIN dept d ON e.dept_id = "
      "d.dept_id ORDER BY e.name",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 4u);  // eve has NULL dept
  EXPECT_EQ((*rows)[0][0].string_value(), "ada");
  EXPECT_EQ((*rows)[0][1].string_value(), "eng");
}

TEST_F(SqlEndToEndTest, ImplicitJoinViaWhere) {
  auto rows = ExecuteSql(
      "SELECT e.name FROM emp e, dept d WHERE e.dept_id = d.dept_id AND "
      "d.dept_name = 'sales' ORDER BY e.name",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].string_value(), "cat");
}

TEST_F(SqlEndToEndTest, GroupByWithAggregates) {
  auto rows = ExecuteSql(
      "SELECT dept_id, count(*) AS c, sum(salary) AS total, avg(salary), "
      "min(salary), max(salary) FROM emp GROUP BY dept_id ORDER BY 2 DESC, 1",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 3u);  // dept 1, dept 2, NULL
  const Row& first = (*rows)[0];
  EXPECT_EQ(first[1].int64_value(), 2);
}

TEST_F(SqlEndToEndTest, Having) {
  auto rows = ExecuteSql(
      "SELECT dept_id, count(*) FROM emp GROUP BY dept_id HAVING count(*) >= "
      "2 ORDER BY dept_id",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
}

TEST_F(SqlEndToEndTest, ScalarAggregate) {
  auto rows = ExecuteSql("SELECT count(*), avg(salary) FROM emp", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].int64_value(), 5);
  EXPECT_DOUBLE_EQ((*rows)[0][1].double_value(), 92.0);
}

TEST_F(SqlEndToEndTest, CountDistinct) {
  auto rows = ExecuteSql("SELECT count(distinct dept_id) FROM emp", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ((*rows)[0][0].int64_value(), 2);  // NULL not counted
}

TEST_F(SqlEndToEndTest, LikeInBetweenIsNull) {
  auto rows = ExecuteSql(
      "SELECT name FROM emp WHERE name LIKE '%a%' AND salary BETWEEN 80 AND "
      "130 AND dept_id IS NOT NULL ORDER BY name",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 3u);  // ada, cat, dan
}

TEST_F(SqlEndToEndTest, CrossJoinWhenNoKeys) {
  auto rows = ExecuteSql("SELECT count(*) FROM emp, dept", *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ((*rows)[0][0].int64_value(), 15);
}

TEST_F(SqlEndToEndTest, LimitCutsResults) {
  auto rows = ExecuteSql("SELECT name FROM emp ORDER BY name LIMIT 2", *db_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
}

TEST_F(SqlEndToEndTest, ArithmeticInSelect) {
  auto rows = ExecuteSql(
      "SELECT name, salary * 2 AS double_pay FROM emp WHERE emp_id = 1",
      *db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_DOUBLE_EQ((*rows)[0][1].double_value(), 240.0);
}

TEST_F(SqlEndToEndTest, PlannerErrors) {
  EXPECT_FALSE(ExecuteSql("SELECT x FROM emp", *db_).ok());
  EXPECT_FALSE(ExecuteSql("SELECT name FROM nope", *db_).ok());
  EXPECT_FALSE(ExecuteSql("SELECT dept_id FROM emp e, emp e", *db_).ok());
  EXPECT_FALSE(
      ExecuteSql("SELECT name, count(*) FROM emp GROUP BY dept_id", *db_)
          .ok());  // name not grouped
  EXPECT_FALSE(ExecuteSql("SELECT * FROM emp GROUP BY dept_id", *db_).ok());
  // Unqualified ambiguous column across two tables with same column name.
  EXPECT_FALSE(
      ExecuteSql("SELECT dept_id FROM emp, dept", *db_).ok());
}

// An aggregate in WHERE or ON is rejected with a pointer to HAVING instead
// of being dropped from the plan (which returned every row).
TEST_F(SqlEndToEndTest, AggregateInWhereOrOnIsRejected) {
  auto where = ExecuteSql("SELECT emp_id FROM emp WHERE count(*) > 5", *db_);
  ASSERT_FALSE(where.ok());
  EXPECT_EQ(where.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(where.status().message().find("count(*)"), std::string::npos)
      << where.status();
  EXPECT_NE(where.status().message().find("HAVING"), std::string::npos);

  auto mixed = PlanSql(
      "SELECT emp_id FROM emp WHERE salary > 10 AND sum(salary) > 100", *db_);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mixed.status().message().find("sum(salary)"), std::string::npos)
      << mixed.status();

  auto on = ExecuteSql(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.dept_id AND "
      "max(e.salary) > 100",
      *db_);
  ASSERT_FALSE(on.ok());
  EXPECT_EQ(on.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(on.status().message().find("HAVING"), std::string::npos);

  // The same predicate under HAVING plans and runs.
  auto having = ExecuteSql(
      "SELECT dept_id, count(*) FROM emp GROUP BY dept_id HAVING count(*) > 1 "
      "ORDER BY dept_id",
      *db_);
  ASSERT_TRUE(having.ok()) << having.status();
  ASSERT_EQ(having->size(), 2u);
  EXPECT_EQ((*having)[0][0].int64_value(), 1);
  EXPECT_EQ((*having)[1][0].int64_value(), 2);
}

TEST_F(SqlEndToEndTest, PlanShapeHasMergedScanPredicate) {
  auto plan = PlanSql("SELECT name FROM emp WHERE salary > 100", *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Project over a scan with the predicate merged: exactly 2 nodes.
  EXPECT_EQ(plan->num_nodes(), 2u);
  EXPECT_EQ(plan->nodes()[0]->kind(), OpKind::kProject);
  EXPECT_EQ(plan->nodes()[1]->kind(), OpKind::kSeqScan);
  EXPECT_GT(plan->nodes()[1]->estimated_rows(), 0);
}

TEST_F(SqlEndToEndTest, JoinPlanUsesHashJoin) {
  auto plan = PlanSql(
      "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.dept_id", *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  bool has_hash_join = false;
  for (const PhysicalOperator* op : plan->nodes()) {
    if (op->kind() == OpKind::kHashJoin) has_hash_join = true;
  }
  EXPECT_TRUE(has_hash_join);
}

// ---------------------------------------------------------------------------
// Column pruning (DESIGN.md §17)

using ScanList = std::vector<std::pair<std::string, std::vector<std::string>>>;

/// (table, output column names) of every SeqScan in `plan`, in plan order.
ScanList ScanColumns(const PhysicalPlan& plan) {
  ScanList out;
  for (const PhysicalOperator* op : plan.nodes()) {
    if (op->kind() != OpKind::kSeqScan) continue;
    const auto* scan = static_cast<const SeqScan*>(op);
    std::vector<std::string> names;
    for (const Field& f : scan->output_schema().fields()) {
      names.push_back(f.name);
    }
    out.emplace_back(scan->table()->name(), std::move(names));
  }
  return out;
}

TEST(ColumnPruningTpchTest, Q10ScansCarryOnlyTheColumnsUsedAboveThem) {
  Database db;
  tpch::TpchConfig config;
  config.scale_factor = 0.001;
  ASSERT_TRUE(tpch::GenerateTpch(config, &db).ok());
  auto plan = PlanSql(
      "SELECT c_custkey, sum(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM orders o, customer c, lineitem l, nation n "
      "WHERE o.o_custkey = c.c_custkey AND l.l_orderkey = o.o_orderkey "
      "AND c.c_nationkey = n.n_nationkey "
      "AND o.o_orderdate >= DATE '1993-10-01' "
      "AND o.o_orderdate < DATE '1994-01-01' "
      "AND l.l_returnflag = 'R' GROUP BY c_custkey",
      db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // o_orderdate and l_returnflag feed only the merged scan predicates, so
  // they are dropped; join keys, group key and aggregate arguments stay.
  ScanList want = {
      {"orders", {"o_orderkey", "o_custkey"}},
      {"customer", {"c_custkey", "c_nationkey"}},
      {"lineitem", {"l_orderkey", "l_extendedprice", "l_discount"}},
      {"nation", {"n_nationkey"}},
  };
  EXPECT_EQ(ScanColumns(*plan), want) << plan->ToString();
  for (const PhysicalOperator* op : plan->nodes()) {
    if (op->kind() != OpKind::kSeqScan) continue;
    const auto* scan = static_cast<const SeqScan*>(op);
    EXPECT_TRUE(scan->pruned());
    // Labels name the table and predicate only: pruning leaves them as the
    // unpruned plan printed them.
    EXPECT_EQ(op->label().find("columns"), std::string::npos);
  }
  // The merged predicates still read the dropped columns off the full
  // table row.
  std::string shape = plan->ToString();
  EXPECT_NE(shape.find("SeqScan(orders, pred="), std::string::npos) << shape;
  EXPECT_NE(shape.find("o.o_orderdate"), std::string::npos) << shape;
  EXPECT_NE(shape.find("l.l_returnflag"), std::string::npos) << shape;
  auto rows = CollectRows(&plan.value());
  EXPECT_FALSE(rows.empty());
  for (const Row& r : rows) EXPECT_EQ(r.size(), 2u);
}

TEST_F(SqlEndToEndTest, ColumnReadOnlyByMergedPredicateIsDropped) {
  const std::string query = "SELECT name FROM emp WHERE salary > 100";
  auto plan = PlanSql(query, *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(ScanColumns(*plan), (ScanList{{"emp", {"name"}}}));
  auto rows = CollectRows(&plan.value());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "ada");

  // The unpruned twin — same scan predicate, same projection over the full
  // row — prints the same labels and does exactly the same getnext work.
  const Table* emp = db_->GetTable("emp");
  const auto* scan = static_cast<const SeqScan*>(plan->nodes()[1]);
  std::vector<ExprPtr> exprs;
  exprs.push_back(eb::Col(1, "name"));
  PhysicalPlan twin(std::make_unique<Project>(
      std::make_unique<SeqScan>(emp, scan->predicate()->Clone()),
      std::move(exprs), std::vector<std::string>{"name"}));
  ASSERT_EQ(twin.num_nodes(), plan->num_nodes());
  for (size_t i = 0; i < twin.num_nodes(); ++i) {
    EXPECT_EQ(twin.nodes()[i]->label(), plan->nodes()[i]->label());
  }
  EXPECT_EQ(MeasureTotalWork(&twin), MeasureTotalWork(&plan.value()));
  EXPECT_EQ(testutil::RowsToString(CollectRows(&twin)),
            testutil::RowsToString(rows));
}

TEST_F(SqlEndToEndTest, ResidualHavingAndOrderByColumnsAreKept) {
  // salary appears only in the join residual.
  {
    auto plan = PlanSql(
        "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.dept_id "
        "AND e.salary > d.dept_id * 60 ORDER BY e.name",
        *db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(ScanColumns(*plan),
              (ScanList{{"emp", {"name", "dept_id", "salary"}},
                        {"dept", {"dept_id"}}}));
    auto rows = CollectRows(&plan.value());
    ASSERT_EQ(rows.size(), 2u);  // dept 1 above 60, dept 2 above 120
    EXPECT_EQ(rows[0][0].string_value(), "ada");
    EXPECT_EQ(rows[1][0].string_value(), "bob");
  }
  // salary appears only inside a HAVING aggregate.
  {
    auto plan = PlanSql(
        "SELECT dept_id, count(*) FROM emp GROUP BY dept_id "
        "HAVING max(salary) > 100",
        *db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(ScanColumns(*plan),
              (ScanList{{"emp", {"dept_id", "salary"}}}));
    auto rows = CollectRows(&plan.value());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0].int64_value(), 1);
  }
  // The ORDER BY column is kept; dept_id (merged predicate only) is not.
  {
    auto plan = PlanSql(
        "SELECT name, salary FROM emp WHERE dept_id = 1 ORDER BY salary",
        *db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(ScanColumns(*plan), (ScanList{{"emp", {"name", "salary"}}}));
    auto rows = CollectRows(&plan.value());
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][0].string_value(), "bob");
  }
  // Only count(*) above the scan: zero-width rows, the same row count.
  {
    auto plan = PlanSql("SELECT count(*) FROM emp WHERE salary < 100", *db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(ScanColumns(*plan), (ScanList{{"emp", {}}}));
    auto rows = CollectRows(&plan.value());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0].int64_value(), 3);
  }
}

TEST_F(SqlEndToEndTest, SelectStarKeepsFullWidth) {
  auto plan = PlanSql(
      "SELECT * FROM emp e, dept d WHERE e.dept_id = d.dept_id "
      "AND salary > 80",
      *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const PhysicalOperator* op : plan->nodes()) {
    if (op->kind() == OpKind::kSeqScan) {
      EXPECT_FALSE(static_cast<const SeqScan*>(op)->pruned());
    }
  }
  EXPECT_EQ(ScanColumns(*plan),
            (ScanList{{"emp", {"emp_id", "name", "dept_id", "salary"}},
                      {"dept", {"dept_id", "dept_name"}}}));
  auto rows = CollectRows(&plan.value());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].size(), 6u);
}

TEST_F(SqlEndToEndTest, PruningKeepsNameResolutionErrors) {
  // An unqualified name keeps its column in every relation that has it, so
  // ambiguity survives pruning even when a merged predicate reads one side.
  for (const char* query :
       {"SELECT dept_id FROM emp, dept",
        "SELECT dept_id FROM emp e, dept d WHERE e.dept_id = d.dept_id",
        "SELECT count(*) FROM emp e, dept d WHERE e.emp_id = d.dept_id "
        "GROUP BY dept_id"}) {
    SCOPED_TRACE(query);
    auto plan = PlanSql(query, *db_);
    ASSERT_FALSE(plan.ok());
    EXPECT_NE(plan.status().message().find("ambiguous column 'dept_id'"),
              std::string::npos)
        << plan.status();
  }
  auto unknown = PlanSql("SELECT salary FROM dept", *db_);
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown column 'salary'"),
            std::string::npos)
      << unknown.status();
  // An unqualified conjunct that the first table resolves alone merges into
  // its scan (placement is decided on the full schemas, as before pruning),
  // so the name is never resolved against the joined row.
  auto plan = PlanSql(
      "SELECT name, dept_name FROM emp e, dept d WHERE dept_id = 1", *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(ScanColumns(*plan),
            (ScanList{{"emp", {"name"}}, {"dept", {"dept_name"}}}));
  EXPECT_EQ(CollectRows(&plan.value()).size(), 6u);  // 2 emps x 3 depts
}

}  // namespace
}  // namespace sql
}  // namespace qprog
