// Tests for src/exec: exact group-by execution, aggregates, cube expansion,
// result joins.
#include <gtest/gtest.h>

#include "src/exec/cube.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/result_join.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(AggSpecTest, Labels) {
  EXPECT_EQ(AggSpec::Avg("gpa").Label(), "AVG(gpa)");
  EXPECT_EQ(AggSpec::Sum("age").Label(), "SUM(age)");
  EXPECT_EQ(AggSpec::Count().Label(), "COUNT(*)");
  EXPECT_EQ(AggSpec::CountIf(Predicate::Compare("v", CompareOp::kGt, 1)).Label(),
            "COUNT_IF(v > 1)");
}

TEST(BoundAggregatesTest, RejectsBadSpecs) {
  Table t = MakeStudentTable();
  EXPECT_FALSE(BoundAggregates::Bind(t, {AggSpec::Avg("missing")}).ok());
  EXPECT_FALSE(BoundAggregates::Bind(t, {AggSpec::Avg("major")}).ok());
  AggSpec bad_countif{AggFunc::kCountIf, "", nullptr, 1.0};
  EXPECT_FALSE(BoundAggregates::Bind(t, {bad_countif}).ok());
}

TEST(ExecuteExactTest, PaperExampleAvgGpaByMajor) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"major"};
  q.aggregates = {AggSpec::Avg("gpa")};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  ASSERT_EQ(res.num_groups(), 4u);
  auto cs = res.FindByLabel("CS");
  ASSERT_TRUE(cs.has_value());
  EXPECT_DOUBLE_EQ(res.value(*cs, 0), 3.25);
  auto math = res.FindByLabel("Math");
  ASSERT_TRUE(math.has_value());
  EXPECT_DOUBLE_EQ(res.value(*math, 0), 3.7);
}

TEST(ExecuteExactTest, MultipleAggregates) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"college"};
  q.aggregates = {AggSpec::Avg("age"), AggSpec::Sum("sat"), AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  ASSERT_EQ(res.num_groups(), 2u);
  auto sci = res.FindByLabel("Science");
  ASSERT_TRUE(sci.has_value());
  EXPECT_DOUBLE_EQ(res.value(*sci, 0), (25 + 22 + 24 + 28) / 4.0);
  EXPECT_DOUBLE_EQ(res.value(*sci, 1), 1250 + 1280 + 1230 + 1270);
  EXPECT_DOUBLE_EQ(res.value(*sci, 2), 4.0);
}

TEST(ExecuteExactTest, WherePredicateFiltersRows) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"major"};
  q.aggregates = {AggSpec::Avg("gpa")};
  q.where = Predicate::Compare("college", CompareOp::kEq, "Science");
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  EXPECT_EQ(res.num_groups(), 2u);  // only CS and Math survive
  EXPECT_FALSE(res.FindByLabel("EE").has_value());
}

TEST(ExecuteExactTest, CountIfAggregate) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"college"};
  q.aggregates = {
      AggSpec::CountIf(Predicate::Compare("gpa", CompareOp::kGt, 3.4))};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  auto sci = res.FindByLabel("Science");
  auto eng = res.FindByLabel("Engineering");
  ASSERT_TRUE(sci.has_value());
  ASSERT_TRUE(eng.has_value());
  EXPECT_DOUBLE_EQ(res.value(*sci, 0), 2.0);  // 3.8, 3.6
  EXPECT_DOUBLE_EQ(res.value(*eng, 0), 2.0);  // 3.5, 3.7
}

TEST(ExecuteExactTest, EmptyGroupByIsFullTable) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.aggregates = {AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  ASSERT_EQ(res.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(res.value(0, 0), 8.0);
}

TEST(ExecuteExactTest, GroupByMultipleAttrs) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"college", "major"};
  q.aggregates = {AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult res, ExecuteExact(t, q));
  EXPECT_EQ(res.num_groups(), 4u);
  auto g = res.FindByLabel("Science|CS");
  ASSERT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(res.value(*g, 0), 2.0);
}

TEST(ExecuteExactTest, ErrorsOnBadQuery) {
  Table t = MakeStudentTable();
  QuerySpec no_aggs;
  no_aggs.group_by = {"major"};
  EXPECT_FALSE(ExecuteExact(t, no_aggs).ok());

  QuerySpec bad_group;
  bad_group.group_by = {"gpa"};  // double column
  bad_group.aggregates = {AggSpec::Count()};
  EXPECT_FALSE(ExecuteExact(t, bad_group).ok());
}

TEST(QueryResultTest, AddGroupAppendsFixedStrideKeys) {
  QueryResult r({"SUM(v)", "COUNT(*)"}, {"g", "h"});
  const int64_t k0[] = {1, -5}, k1[] = {2, 7};
  const double v0[] = {2.0, 3.0}, v1[] = {4.0, 5.0};
  r.AddGroup(k0, "1|-5", v0);
  r.AddGroup(k1, "2|7", v1);
  ASSERT_EQ(r.num_groups(), 2u);
  EXPECT_EQ(r.key_arity(1), 2u);
  EXPECT_EQ(KeyCodes(r, 0), (std::vector<int64_t>{1, -5}));
  EXPECT_EQ(KeyCodes(r, 1), (std::vector<int64_t>{2, 7}));
  EXPECT_EQ(r.label(1), "2|7");
  EXPECT_EQ(r.values(1), (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(r.FindByLabel("1|-5"), std::make_optional<size_t>(0));
}

// Results built by hand over (string code, int) keys: b holds a's groups in
// another order, misses one, and adds one a lacks. Keys differing in only
// one column must not match.
TEST(MatchGroupsTest, MixedKeysInDifferentOrdersWithMissingGroups) {
  const std::vector<std::vector<int64_t>> a_keys = {
      {0, 25}, {1, 22}, {2, -7}, {0, 22}};
  const std::vector<std::vector<int64_t>> b_keys = {
      {2, -7}, {1, 25}, {0, 25}, {0, 22}, {3, 1}};
  QueryResult a({"v"}, {"major", "age"}), b({"v"}, {"major", "age"});
  const double v = 1.0;
  for (const auto& k : a_keys) a.AddGroup(k.data(), "", &v);
  for (const auto& k : b_keys) b.AddGroup(k.data(), "", &v);
  EXPECT_EQ(MatchGroups(a, b),
            (std::vector<std::optional<size_t>>{2, std::nullopt, 0, 3}));
  EXPECT_EQ(MatchGroups(b, a), (std::vector<std::optional<size_t>>{
                                   2, std::nullopt, 0, 3, std::nullopt}));
  EXPECT_TRUE(MatchGroups(a, QueryResult({"v"}, {"major", "age"})) ==
              std::vector<std::optional<size_t>>(4, std::nullopt));
  EXPECT_TRUE(MatchGroups(QueryResult({"v"}, {"major", "age"}), a).empty());
}

// Engine results over a string and an int column: a filtered result's
// groups are found in the unfiltered one at the groups with equal labels.
TEST(MatchGroupsTest, AlignsEngineResultsByKey) {
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"college", "age"};
  q.aggregates = {AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult all, ExecuteExact(t, q));
  q.where = Predicate::Compare("sat", CompareOp::kLt, 1250);
  ASSERT_OK_AND_ASSIGN(QueryResult some, ExecuteExact(t, q));
  ASSERT_LT(some.num_groups(), all.num_groups());
  const auto match = MatchGroups(some, all);
  for (size_t i = 0; i < some.num_groups(); ++i) {
    ASSERT_TRUE(match[i].has_value()) << some.label(i);
    EXPECT_EQ(all.label(*match[i]), some.label(i));
  }
  const auto back = MatchGroups(all, some);
  size_t found = 0;
  for (size_t i = 0; i < all.num_groups(); ++i) {
    if (!back[i].has_value()) continue;
    EXPECT_EQ(some.label(*back[i]), all.label(i));
    ++found;
  }
  EXPECT_EQ(found, some.num_groups());
}

TEST(MatchGroupsTest, ArityZeroAndArityMismatch) {
  const double v = 3.0;
  QueryResult one({"v"}, {}), other({"v"}, {}), none({"v"}, {});
  one.AddGroup(nullptr, "", &v);
  other.AddGroup(nullptr, "", &v);
  EXPECT_EQ(MatchGroups(one, other),
            (std::vector<std::optional<size_t>>{0}));
  EXPECT_EQ(MatchGroups(one, none),
            (std::vector<std::optional<size_t>>{std::nullopt}));
  EXPECT_TRUE(MatchGroups(none, one).empty());
  // Keys of different arity never match, even over equal leading codes.
  QueryResult a1({"v"}, {"g"}), a2({"v"}, {"g", "h"});
  const int64_t k1[] = {4}, k2[] = {4, 4};
  a1.AddGroup(k1, "4", &v);
  a2.AddGroup(k2, "4|4", &v);
  EXPECT_EQ(MatchGroups(a1, a2),
            (std::vector<std::optional<size_t>>{std::nullopt}));
  EXPECT_EQ(MatchGroups(one, a1),
            (std::vector<std::optional<size_t>>{std::nullopt}));
}

TEST(QuerySpecTest, ToStringRendersSql) {
  QuerySpec q;
  q.name = "T1";
  q.group_by = {"major"};
  q.aggregates = {AggSpec::Avg("gpa")};
  q.where = Predicate::Compare("age", CompareOp::kGt, 21);
  EXPECT_EQ(q.ToString(),
            "[T1] SELECT major, AVG(gpa) WHERE age > 21 GROUP BY major");
}

TEST(CubeTest, ExpandsAllSubsets) {
  QuerySpec base;
  base.name = "C";
  base.group_by = {"a", "b"};
  base.aggregates = {AggSpec::Count()};
  std::vector<QuerySpec> cube = ExpandCube(base);
  ASSERT_EQ(cube.size(), 4u);
  EXPECT_EQ(cube[0].group_by, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(cube[3].group_by, (std::vector<std::string>{}));
  EXPECT_EQ(cube[0].name, "C/a,b");
  EXPECT_EQ(cube[3].name, "C/()");
}

TEST(CubeTest, SingleAttribute) {
  QuerySpec base;
  base.group_by = {"x"};
  base.aggregates = {AggSpec::Count()};
  EXPECT_EQ(ExpandCube(base).size(), 2u);
}

TEST(CubeTest, ThreeAttributesGive8Sets) {
  QuerySpec base;
  base.group_by = {"a", "b", "c"};
  base.aggregates = {AggSpec::Count()};
  EXPECT_EQ(ExpandCube(base).size(), 8u);
}

TEST(ResultJoinTest, DiffMatchesAq1Shape) {
  Table t = MakeStudentTable();
  QuerySpec science, engineering;
  science.group_by = {"major"};
  science.aggregates = {AggSpec::Avg("gpa")};
  science.where = Predicate::Compare("college", CompareOp::kEq, "Science");
  engineering = science;
  engineering.where =
      Predicate::Compare("college", CompareOp::kEq, "Engineering");

  ASSERT_OK_AND_ASSIGN(QueryResult a, ExecuteExact(t, science));
  ASSERT_OK_AND_ASSIGN(QueryResult b, ExecuteExact(t, engineering));
  // Majors don't overlap across colleges here -> empty inner join.
  ASSERT_OK_AND_ASSIGN(QueryResult diff, DiffResults(a, b));
  EXPECT_EQ(diff.num_groups(), 0u);

  // Self-join minus self = all zeros.
  ASSERT_OK_AND_ASSIGN(QueryResult zero, DiffResults(a, a));
  ASSERT_EQ(zero.num_groups(), a.num_groups());
  for (size_t i = 0; i < zero.num_groups(); ++i) {
    EXPECT_DOUBLE_EQ(zero.value(i, 0), 0.0);
  }
}

TEST(ResultJoinTest, CustomCombine) {
  QueryResult a({"v"}, {"g"}), b({"v"}, {"g"});
  const int64_t k1 = 1, k2 = 2;
  const double v10 = 10.0, v20 = 20.0, v4 = 4.0;
  a.AddGroup(&k1, "1", &v10);
  a.AddGroup(&k2, "2", &v20);
  b.AddGroup(&k1, "1", &v4);
  ASSERT_OK_AND_ASSIGN(
      QueryResult ratio,
      JoinResults(a, b, [](double x, double y) { return x / y; }, {"ratio"}));
  ASSERT_EQ(ratio.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(ratio.value(0, 0), 2.5);
}

TEST(ResultJoinTest, MismatchedAggCountsRejected) {
  QueryResult a({"v"}, {"g"}), b({"v", "w"}, {"g"});
  EXPECT_FALSE(DiffResults(a, b).ok());
}

}  // namespace
}  // namespace cvopt
