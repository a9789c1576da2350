// Tests for PlanCvoptAllocation: Theorem 1 (SASG), Theorem 2 (MASG),
// Lemma 2 (SAMG), Lemma 3 / general formula (MAMG), weights, and the
// finest-stratification behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/core/cvopt_allocator.h"
#include "src/stats/stats_collector.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// Builds a 2-group table where group sizes/means are equal but sigma differs:
// the motivating example of Section 1 — the high-variance group must get
// more samples.
Table MakeTwoGroupsDifferentSigma() {
  Schema schema({{"g", DataType::kString}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_OK(b.AppendRow({Value("hi_var"), Value(100.0 + 20.0 * rng.NextGaussian())}));
    EXPECT_OK(b.AppendRow({Value("lo_var"), Value(100.0 + 2.0 * rng.NextGaussian())}));
  }
  return std::move(b).Finish();
}

QuerySpec Sasg(const std::string& gcol, const std::string& vcol) {
  QuerySpec q;
  q.group_by = {gcol};
  q.aggregates = {AggSpec::Avg(vcol)};
  return q;
}

TEST(AllocatorTest, HighVarianceGroupGetsMoreSamples) {
  Table t = MakeTwoGroupsDifferentSigma();
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan,
                       PlanCvoptAllocation(t, {Sasg("g", "v")}, 200));
  ASSERT_EQ(plan.strat->num_strata(), 2u);
  size_t hi = plan.strat->Label(0) == "hi_var" ? 0 : 1;
  EXPECT_GT(plan.allocation.sizes[hi], plan.allocation.sizes[1 - hi] * 5);
  EXPECT_EQ(plan.TotalSize(), 200u);
}

TEST(AllocatorTest, SasgMatchesTheorem1ClosedForm) {
  Table t = MakeSkewedTable(4, 100, /*seed=*/9);
  const std::vector<QuerySpec> queries = {Sasg("g", "v")};
  const uint64_t budget = 120;
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan,
                       PlanCvoptAllocation(t, queries, budget));

  // Recompute Theorem 1 by hand: s_i = M * (sigma_i/mu_i) / sum_j (...).
  ASSERT_OK_AND_ASSIGN(const Column* v, t.ColumnByName("v"));
  StatSource src;
  src.column = v;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats,
                       CollectGroupStats(*plan.strat, {src}));
  const size_t r = plan.strat->num_strata();
  std::vector<double> gamma(r);
  double gamma_sum = 0;
  for (size_t i = 0; i < r; ++i) {
    gamma[i] = stats.At(i, 0).stddev_population() / stats.At(i, 0).mean();
    gamma_sum += gamma[i];
  }
  for (size_t i = 0; i < r; ++i) {
    const double expected = budget * gamma[i] / gamma_sum;
    EXPECT_NEAR(plan.allocation.fractional[i], expected, 1e-6)
        << "stratum " << plan.strat->Label(i);
  }
}

TEST(AllocatorTest, BetaIsSigmaOverMuSquaredForSasg) {
  Table t = MakeSkewedTable(3, 50);
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan,
                       PlanCvoptAllocation(t, {Sasg("g", "v")}, 60));
  ASSERT_OK_AND_ASSIGN(const Column* v, t.ColumnByName("v"));
  StatSource src;
  src.column = v;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats,
                       CollectGroupStats(*plan.strat, {src}));
  for (size_t i = 0; i < plan.strat->num_strata(); ++i) {
    const double cv = stats.At(i, 0).cv();
    EXPECT_NEAR(plan.betas[i], cv * cv, 1e-9);
  }
}

TEST(AllocatorTest, MasgSumsAlphaOverAggregates) {
  // Theorem 2: alpha_i = sum_j w_j sigma_ij^2 / mu_ij^2.
  Table t = MakeStudentTable();
  QuerySpec q;
  q.group_by = {"college"};
  q.aggregates = {AggSpec::Avg("age", 2.0), AggSpec::Avg("gpa", 3.0)};
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan, PlanCvoptAllocation(t, {q}, 6));
  ASSERT_EQ(plan.strat->num_strata(), 2u);

  ASSERT_OK_AND_ASSIGN(const Column* age, t.ColumnByName("age"));
  ASSERT_OK_AND_ASSIGN(const Column* gpa, t.ColumnByName("gpa"));
  StatSource s1, s2;
  s1.column = age;
  s2.column = gpa;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats,
                       CollectGroupStats(*plan.strat, {s1, s2}));
  for (size_t i = 0; i < 2; ++i) {
    const double cv_age = stats.At(i, 0).cv();
    const double cv_gpa = stats.At(i, 1).cv();
    EXPECT_NEAR(plan.betas[i], 2.0 * cv_age * cv_age + 3.0 * cv_gpa * cv_gpa,
                1e-9);
  }
}

TEST(AllocatorTest, SamgUsesFinestStratification) {
  // Two SASG queries grouping by major and college: stratification must be
  // by (major, college) and betas must follow Lemma 2.
  Table t = MakeStudentTable();
  QuerySpec q1 = Sasg("major", "gpa");
  QuerySpec q2 = Sasg("college", "gpa");
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan,
                       PlanCvoptAllocation(t, {q1, q2}, 6));
  EXPECT_EQ(plan.strat->attrs(),
            (std::vector<std::string>{"major", "college"}));
  EXPECT_EQ(plan.strat->num_strata(), 4u);

  // Hand-compute beta for the CS|Science stratum.
  ASSERT_OK_AND_ASSIGN(const Column* gpa, t.ColumnByName("gpa"));
  StatSource src;
  src.column = gpa;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats,
                       CollectGroupStats(*plan.strat, {src}));
  ASSERT_OK_AND_ASSIGN(Stratification::Projection pmaj,
                       plan.strat->Project({"major"}));
  ASSERT_OK_AND_ASSIGN(Stratification::Projection pcol,
                       plan.strat->Project({"college"}));
  // College-level stats for the mu of the college estimate.
  GroupStatsTable cstats(pcol.num_parents(), 1);
  for (size_t c = 0; c < plan.strat->num_strata(); ++c) {
    cstats.At(pcol.stratum_to_parent[c], 0).Merge(stats.At(c, 0));
  }
  for (size_t c = 0; c < plan.strat->num_strata(); ++c) {
    const double n_c = static_cast<double>(plan.strat->sizes()[c]);
    const double sigma2 = stats.At(c, 0).variance_population();
    const uint32_t a1 = pmaj.stratum_to_parent[c];
    const uint32_t a2 = pcol.stratum_to_parent[c];
    const double n_a1 = static_cast<double>(pmaj.parent_sizes[a1]);
    const double n_a2 = static_cast<double>(pcol.parent_sizes[a2]);
    // Within a major stratum == group, so mu of major group = stratum mean.
    const double mu1 = stats.At(c, 0).mean();
    const double mu2 = cstats.At(a2, 0).mean();
    const double expected =
        n_c * n_c * sigma2 *
        (1.0 / (n_a1 * n_a1 * mu1 * mu1) + 1.0 / (n_a2 * n_a2 * mu2 * mu2));
    EXPECT_NEAR(plan.betas[c], expected, 1e-9) << plan.strat->Label(c);
  }
}

TEST(AllocatorTest, QueryWeightScalesItsContribution) {
  Table t = MakeStudentTable();
  QuerySpec q1 = Sasg("major", "gpa");
  QuerySpec q2 = Sasg("college", "gpa");

  ASSERT_OK_AND_ASSIGN(AllocationPlan base,
                       PlanCvoptAllocation(t, {q1, q2}, 6));
  q2.weight = 100.0;
  ASSERT_OK_AND_ASSIGN(AllocationPlan boosted,
                       PlanCvoptAllocation(t, {q1, q2}, 6));
  // Boosting q2's weight multiplies its beta term by 100; betas change.
  bool changed = false;
  for (size_t c = 0; c < base.betas.size(); ++c) {
    if (std::fabs(base.betas[c] - boosted.betas[c]) > 1e-12) changed = true;
    EXPECT_GE(boosted.betas[c], base.betas[c]);
  }
  EXPECT_TRUE(changed);
}

TEST(AllocatorTest, GroupWeightFnPrioritizesGroups) {
  Table t = MakeTwoGroupsDifferentSigma();
  AllocatorOptions opts;
  // Zero out the high-variance group: all optimization mass should flow to
  // the low-variance group.
  ASSERT_OK_AND_ASSIGN(Stratification probe, Stratification::Build(t, {"g"}));
  ASSERT_OK_AND_ASSIGN(size_t gcol, t.ColumnIndex("g"));
  opts.group_weight_fn = [&t, gcol](size_t, const int64_t* key,
                                    size_t) -> double {
    std::string label;
    AppendKeyLabel(key, KeyDictsOf(t, {gcol}), &label);
    return label == "hi_var" ? 0.0 : 1.0;
  };
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan,
                       PlanCvoptAllocation(t, {Sasg("g", "v")}, 200, opts));
  const size_t hi = plan.strat->Label(0) == "hi_var" ? 0 : 1;
  EXPECT_EQ(plan.betas[hi], 0.0);
  EXPECT_LT(plan.allocation.sizes[hi], plan.allocation.sizes[1 - hi]);
}

TEST(AllocatorTest, MamgTwoAggregatesTwoGroupings) {
  // Lemma 3 shape: Q1 aggregates age by major, Q2 aggregates gpa by college.
  Table t = MakeStudentTable();
  QuerySpec q1 = Sasg("major", "age");
  QuerySpec q2 = Sasg("college", "gpa");
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan,
                       PlanCvoptAllocation(t, {q1, q2}, 6));
  EXPECT_EQ(plan.strat->num_strata(), 4u);
  EXPECT_EQ(plan.TotalSize(), 6u);
  // All betas positive: every stratum matters for at least one query.
  for (double b : plan.betas) EXPECT_GT(b, 0.0);
}

TEST(AllocatorTest, RejectsBadInput) {
  Table t = MakeStudentTable();
  EXPECT_FALSE(PlanCvoptAllocation(t, {}, 10).ok());
  QuerySpec no_aggs;
  no_aggs.group_by = {"major"};
  EXPECT_FALSE(PlanCvoptAllocation(t, {no_aggs}, 10).ok());
}

TEST(AllocatorTest, LinfRequiresSasg) {
  Table t = MakeStudentTable();
  AllocatorOptions opts;
  opts.norm = CvNorm::kLinf;
  QuerySpec masg;
  masg.group_by = {"major"};
  masg.aggregates = {AggSpec::Avg("gpa"), AggSpec::Avg("age")};
  EXPECT_FALSE(PlanCvoptAllocation(t, {masg}, 6, opts).ok());
  ASSERT_TRUE(PlanCvoptAllocation(t, {Sasg("major", "gpa")}, 6, opts).ok());
}

TEST(AllocatorTest, BudgetLargerThanTableTakesAll) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan,
                       PlanCvoptAllocation(t, {Sasg("major", "gpa")}, 1000));
  EXPECT_EQ(plan.TotalSize(), t.num_rows());
}

}  // namespace
}  // namespace cvopt
