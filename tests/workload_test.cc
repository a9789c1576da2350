// Tests for Section 4.3 workload deduction — reproduces the paper's running
// example: Tables 1 (Student), 2 (workload A/B/C with repeats 20/10/15) and
// 3 (aggregation groups with frequencies 25/35/10).
#include <gtest/gtest.h>

#include <map>

#include "src/core/workload.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

Workload MakePaperWorkload() {
  Workload w;
  // A: SELECT AVG(age), AVG(gpa) FROM Student GROUP BY major  (x20)
  QuerySpec a;
  a.name = "A";
  a.group_by = {"major"};
  a.aggregates = {AggSpec::Avg("age"), AggSpec::Avg("gpa")};
  EXPECT_OK(w.Add(a, 20));
  // B: SELECT AVG(age), AVG(sat) FROM Student GROUP BY college  (x10)
  QuerySpec b;
  b.name = "B";
  b.group_by = {"college"};
  b.aggregates = {AggSpec::Avg("age"), AggSpec::Avg("sat")};
  EXPECT_OK(w.Add(b, 10));
  // C: SELECT AVG(gpa) FROM Student GROUP BY major WHERE college=Science (x15)
  QuerySpec c;
  c.name = "C";
  c.group_by = {"major"};
  c.aggregates = {AggSpec::Avg("gpa")};
  c.where = Predicate::Compare("college", CompareOp::kEq, "Science");
  EXPECT_OK(w.Add(c, 15));
  return w;
}

TEST(WorkloadTest, RejectsBadEntries) {
  Workload w;
  QuerySpec q;
  q.group_by = {"major"};
  q.aggregates = {AggSpec::Avg("age")};
  EXPECT_FALSE(w.Add(q, 0).ok());
  EXPECT_FALSE(w.Add(q, -1).ok());
  QuerySpec no_aggs;
  no_aggs.group_by = {"major"};
  EXPECT_FALSE(w.Add(no_aggs, 1).ok());
  EXPECT_OK(w.Add(q, 1));
  EXPECT_EQ(w.entries().size(), 1u);
}

TEST(WorkloadTest, EmptyWorkloadFailsDeduce) {
  Workload w;
  Table t = MakeStudentTable();
  EXPECT_FALSE(w.Deduce(t).ok());
}

TEST(WorkloadTest, ReproducesPaperTable3) {
  Table t = MakeStudentTable();
  Workload w = MakePaperWorkload();
  ASSERT_OK_AND_ASSIGN(Workload::AllocationInput input, w.Deduce(t));

  // Index deduced groups: (group_by, group, aggregate) -> frequency.
  std::map<std::tuple<std::string, std::string, std::string>, double> freq;
  for (const auto& ag : input.aggregation_groups) {
    freq[{ag.group_by, ag.group, ag.aggregate}] = ag.frequency;
  }

  // The paper's Table 3 prints frequency 25 for the groups that appear only
  // in query A, but A repeats 20 times in Table 2 (and 20+10+15 = 45 matches
  // the stated workload size), so the 25 is a typo in the pre-print. We
  // assert the arithmetic that follows from Table 2 directly:
  //   (age, major=*)        <- A only            = 20
  //   (GPA, major=CS/Math)  <- A + C (Science)   = 35
  //   (GPA, major=EE/ME)    <- A only            = 20
  //   (age|SAT, college=*)  <- B only            = 10
  EXPECT_DOUBLE_EQ((freq[{"major", "CS", "AVG(age)"}]), 20);
  EXPECT_DOUBLE_EQ((freq[{"major", "EE", "AVG(age)"}]), 20);
  EXPECT_DOUBLE_EQ((freq[{"major", "CS", "AVG(gpa)"}]), 35);
  EXPECT_DOUBLE_EQ((freq[{"major", "Math", "AVG(gpa)"}]), 35);
  EXPECT_DOUBLE_EQ((freq[{"major", "EE", "AVG(gpa)"}]), 20);
  EXPECT_DOUBLE_EQ((freq[{"major", "ME", "AVG(gpa)"}]), 20);
  EXPECT_DOUBLE_EQ((freq[{"college", "Science", "AVG(age)"}]), 10);
  EXPECT_DOUBLE_EQ((freq[{"college", "Engineering", "AVG(sat)"}]), 10);
}

TEST(WorkloadTest, MergesDistinctQueriesByGroupingSet) {
  Table t = MakeStudentTable();
  Workload w = MakePaperWorkload();
  ASSERT_OK_AND_ASSIGN(Workload::AllocationInput input, w.Deduce(t));
  // Two grouping sets: {major} and {college}.
  ASSERT_EQ(input.queries.size(), 2u);
  // The {major} query unions the aggregates of A and C: age + gpa.
  size_t major_idx =
      input.queries[0].group_by == std::vector<std::string>{"major"} ? 0 : 1;
  EXPECT_EQ(input.queries[major_idx].aggregates.size(), 2u);
  EXPECT_EQ(input.queries[1 - major_idx].aggregates.size(), 2u);
}

TEST(WorkloadTest, WeightFnReturnsDeducedFrequencies) {
  Table t = MakeStudentTable();
  Workload w = MakePaperWorkload();
  ASSERT_OK_AND_ASSIGN(Workload::AllocationInput input, w.Deduce(t));
  ASSERT_TRUE(static_cast<bool>(input.options.group_weight_fn));

  // Locate the {major} query and the AVG(gpa) aggregate within it.
  size_t qi =
      input.queries[0].group_by == std::vector<std::string>{"major"} ? 0 : 1;
  size_t gpa_idx = 0;
  for (size_t j = 0; j < input.queries[qi].aggregates.size(); ++j) {
    if (input.queries[qi].aggregates[j].Label() == "AVG(gpa)") gpa_idx = j;
  }
  // Group key for major=CS.
  ASSERT_OK_AND_ASSIGN(const Column* major, t.ColumnByName("major"));
  const int64_t cs = major->LookupCode("CS");
  EXPECT_DOUBLE_EQ(input.options.group_weight_fn(qi, &cs, gpa_idx), 35.0);
  const int64_t ee = major->LookupCode("EE");
  EXPECT_DOUBLE_EQ(input.options.group_weight_fn(qi, &ee, gpa_idx), 20.0);
  // Unknown group -> weight 0.
  const int64_t bogus = 9999;
  EXPECT_DOUBLE_EQ(input.options.group_weight_fn(qi, &bogus, gpa_idx), 0.0);
}

TEST(WorkloadTest, DeducedInputDrivesAllocation) {
  Table t = MakeStudentTable();
  Workload w = MakePaperWorkload();
  ASSERT_OK_AND_ASSIGN(Workload::AllocationInput input, w.Deduce(t));
  ASSERT_OK_AND_ASSIGN(
      AllocationPlan plan,
      PlanCvoptAllocation(t, input.queries, 6, input.options));
  EXPECT_EQ(plan.TotalSize(), 6u);
  EXPECT_EQ(plan.strat->num_strata(), 4u);  // (major, college) combos
}

}  // namespace
}  // namespace cvopt
