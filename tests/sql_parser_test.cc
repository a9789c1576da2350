// Tests for the SQL front-end: the paper's appendix queries should parse
// into the same QuerySpecs the benches build programmatically.
#include <gtest/gtest.h>

#include "src/exec/cube.h"
#include "src/exec/group_by_executor.h"
#include "src/sql/parser.h"
#include "tests/sql_corpus.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(SqlParserTest, SimpleAvgGroupBy) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p, ParseSql("SELECT major, AVG(gpa) FROM Student GROUP BY major"));
  EXPECT_EQ(p.table_name, "Student");
  EXPECT_EQ(p.query.group_by, (std::vector<std::string>{"major"}));
  ASSERT_EQ(p.query.aggregates.size(), 1u);
  EXPECT_EQ(p.query.aggregates[0].Label(), "AVG(gpa)");
  EXPECT_FALSE(p.with_cube);
  EXPECT_EQ(p.query.where, nullptr);
}

TEST(SqlParserTest, CaseInsensitiveKeywords) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p,
      ParseSql("select major, avg(gpa) from Student group by major"));
  EXPECT_EQ(p.query.group_by, (std::vector<std::string>{"major"}));
}

TEST(SqlParserTest, MultipleAggregatesAndColumns) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p,
      ParseSql("SELECT country, parameter, SUM(value), COUNT(*) "
               "FROM OpenAQ GROUP BY country, parameter"));
  ASSERT_EQ(p.query.aggregates.size(), 2u);
  EXPECT_EQ(p.query.aggregates[0].Label(), "SUM(value)");
  EXPECT_EQ(p.query.aggregates[1].Label(), "COUNT(*)");
  EXPECT_EQ(p.query.group_by,
            (std::vector<std::string>{"country", "parameter"}));
}

TEST(SqlParserTest, WherePredicates) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p,
      ParseSql("SELECT major, AVG(gpa) FROM s "
               "WHERE college = 'Science' AND age > 21 GROUP BY major"));
  ASSERT_NE(p.query.where, nullptr);
  EXPECT_EQ(p.query.where->ToString(), "(college = Science AND age > 21)");
}

TEST(SqlParserTest, BetweenInNotParens) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p,
      ParseSql("SELECT g, AVG(v) FROM t WHERE (hour BETWEEN 0 AND 11 "
               "OR major IN ('CS', 'EE')) AND NOT age <= 20 GROUP BY g"));
  ASSERT_NE(p.query.where, nullptr);
  EXPECT_EQ(p.query.where->ToString(),
            "((hour BETWEEN 0 AND 11 OR major IN (CS, EE)) AND NOT (age <= 20))");
}

TEST(SqlParserTest, CountIfAggregate) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p,
      ParseSql("SELECT country, COUNT_IF(value > 0.04) FROM t GROUP BY country"));
  ASSERT_EQ(p.query.aggregates.size(), 1u);
  EXPECT_EQ(p.query.aggregates[0].func, AggFunc::kCountIf);
  EXPECT_EQ(p.query.aggregates[0].Label(), "COUNT_IF(value > 0.04)");
}

TEST(SqlParserTest, WithCube) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p,
      ParseSql("SELECT country, parameter, SUM(value) FROM OpenAQ "
               "GROUP BY country, parameter WITH CUBE"));
  EXPECT_TRUE(p.with_cube);
  EXPECT_EQ(ExpandCube(p.query).size(), 4u);
}

TEST(SqlParserTest, ComparisonOperators) {
  for (const char* op : {"=", "!=", "<>", "<", "<=", ">", ">="}) {
    const std::string sql =
        std::string("SELECT AVG(v) FROM t WHERE x ") + op + " 5";
    ASSERT_OK_AND_ASSIGN(ParsedQuery p, ParseSql(sql));
    ASSERT_NE(p.query.where, nullptr) << op;
  }
}

TEST(SqlParserTest, NumericLiteralTypes) {
  // Integral literals compare against int columns; decimals are doubles.
  ASSERT_OK_AND_ASSIGN(ParsedQuery p1,
                       ParseSql("SELECT AVG(v) FROM t WHERE age = 21"));
  ASSERT_OK_AND_ASSIGN(ParsedQuery p2,
                       ParseSql("SELECT AVG(v) FROM t WHERE gpa > 3.5"));
  EXPECT_EQ(p1.query.where->ToString(), "age = 21");
  EXPECT_EQ(p2.query.where->ToString(), "gpa > 3.5");
}

TEST(SqlParserTest, FullTableQueryNoGroupBy) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery p, ParseSql("SELECT COUNT(*) FROM t"));
  EXPECT_TRUE(p.query.group_by.empty());
}

TEST(SqlParserTest, TrailingSemicolonOk) {
  EXPECT_TRUE(ParseSql("SELECT COUNT(*) FROM t;").ok());
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT major FROM t").ok());            // no aggregate
  EXPECT_FALSE(ParseSql("SELECT AVG(gpa) FROM").ok());           // no table
  EXPECT_FALSE(ParseSql("SELECT AVG(gpa FROM t").ok());          // bad parens
  EXPECT_FALSE(ParseSql("SELECT AVG(gpa) FROM t WHERE").ok());   // empty pred
  EXPECT_FALSE(ParseSql("SELECT AVG(g) FROM t GROUP BY").ok());  // empty group
  EXPECT_FALSE(ParseSql("SELECT AVG(v) FROM t WHERE x ~ 5").ok());
  EXPECT_FALSE(ParseSql("SELECT AVG(v) FROM t WHERE x = 'unterminated").ok());
  EXPECT_FALSE(ParseSql("SELECT AVG(v) FROM t extra junk").ok());
  // Non-grouped plain column.
  EXPECT_FALSE(
      ParseSql("SELECT major, AVG(gpa) FROM t GROUP BY college").ok());
}

// Predicate depth is bounded (kMaxPredicateDepth): one past the limit is
// InvalidArgument, for nesting (parentheses, NOT) and for AND/OR chaining,
// in WHERE and in COUNT_IF alike — so inputs far past it, which used to
// overflow the stack while parsing or while freeing the tree, fail cleanly.
TEST(SqlParserTest, PredicateDepthIsBounded) {
  const int kMax = kMaxPredicateDepth;
  auto where = [](const std::string& pred) {
    return ParseSql("SELECT COUNT(*) FROM t WHERE " + pred).status();
  };
  auto countif = [](const std::string& pred) {
    return ParseSql("SELECT COUNT_IF(" + pred + ") FROM t").status();
  };
  auto parens = [](int n) {
    return std::string(n, '(') + "a = 1" + std::string(n, ')');
  };
  auto nots = [](int n) {
    std::string s;
    for (int i = 0; i < n; ++i) s += "NOT ";
    return s + "a = 1";
  };
  auto chain = [](int terms, const char* op) {
    std::string s = "a = 1";
    for (int i = 1; i < terms; ++i) s += std::string(" ") + op + " a = 1";
    return s;
  };
  const StatusCode kInvalid = StatusCode::kInvalidArgument;

  // Nesting: a comparison is 1 deep, each parenthesis pair or NOT adds 1.
  EXPECT_OK(where(parens(kMax - 1)));
  EXPECT_EQ(where(parens(kMax)).code(), kInvalid);
  EXPECT_EQ(where(parens(10'000)).code(), kInvalid);
  EXPECT_OK(where(nots(kMax - 1)));
  EXPECT_EQ(where(nots(kMax)).code(), kInvalid);
  EXPECT_EQ(where(nots(30'000)).code(), kInvalid);
  EXPECT_EQ(countif(parens(10'000)).code(), kInvalid);

  // Chaining: k terms build a left-deep tree k deep.
  EXPECT_OK(where(chain(kMax, "AND")));
  EXPECT_EQ(where(chain(kMax + 1, "AND")).code(), kInvalid);
  EXPECT_EQ(where(chain(kMax + 1, "OR")).code(), kInvalid);
  EXPECT_EQ(where(chain(100'000, "AND")).code(), kInvalid);
  EXPECT_EQ(countif(chain(100'000, "OR")).code(), kInvalid);

  // Both count together: h levels of nesting around a chain of k terms is
  // h + k deep.
  const int h = kMax / 2;
  const std::string open(h, '('), close(h, ')');
  EXPECT_OK(where(open + chain(kMax - h, "AND") + close));
  EXPECT_EQ(where(open + chain(kMax - h + 1, "AND") + close).code(), kInvalid);
  EXPECT_EQ(where(nots(h) + "(" + chain(kMax - h, "OR") + ")").code(),
            kInvalid);
}

TEST(SqlParserTest, ParsedQueryExecutes) {
  // End-to-end: parse the paper's example query and run it exactly.
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p,
      ParseSql("SELECT major, AVG(gpa) FROM Student "
               "WHERE college = 'Science' GROUP BY major"));
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, p.query));
  EXPECT_EQ(res.num_groups(), 2u);
  auto cs = res.FindByLabel("CS");
  ASSERT_TRUE(cs.has_value());
  EXPECT_DOUBLE_EQ(res.value(*cs, 0), 3.25);
}

TEST(SqlParserTest, PaperAppendixQueriesParse) {
  // The paper's appendix queries (adapted to our schema/dialect) all parse.
  for (const auto& sql : PaperAppendixQueries()) {
    EXPECT_TRUE(ParseSql(sql).ok()) << sql;
  }
}

}  // namespace
}  // namespace cvopt
