// Tests for the approximate executor: exactness at full budget, statistical
// unbiasedness, predicate handling, regrouping, and the sample's cached
// group index.
#include <gtest/gtest.h>

#include <cmath>

#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/agg_planner.h"
#include "src/exec/group_by_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/uniform_sampler.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

QuerySpec AvgV() {
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};
  return q;
}

TEST(ApproxExecutorTest, FullBudgetSampleIsExact) {
  Table t = MakeSkewedTable(4, 30);
  Rng rng(61);
  CvoptSampler cvopt;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cvopt.Build(t, {AvgV()}, t.num_rows(), &rng));
  ASSERT_EQ(s.size(), t.num_rows());
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, AvgV()));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, AvgV()));
  ASSERT_EQ(approx.num_groups(), exact.num_groups());
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0),
                1e-9 * std::fabs(exact.value(i, 0)));
  }
}

TEST(ApproxExecutorTest, CountAndSumScaleUp) {
  Table t = MakeSkewedTable(3, 100);  // group sizes 100, 200, 300
  Rng rng(67);
  CvoptSampler cvopt;
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Count(), AggSpec::Sum("v")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(t, {q}, 150, &rng));
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value()) << exact.label(i);
    // COUNT from a stratified sample on the grouping attrs is exact: the
    // HT weights per stratum sum to n_c.
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0), 1e-6);
    // SUM is a noisy but calibrated estimate.
    EXPECT_NEAR(approx.value(*j, 1), exact.value(i, 1),
                0.25 * std::fabs(exact.value(i, 1)));
  }
}

TEST(ApproxExecutorTest, UnbiasedOverRepetitions) {
  // The average of many independent AVG estimates converges to the truth.
  Table t = MakeSkewedTable(3, 60, /*seed=*/71);
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, AvgV()));
  UniformSampler uniform;

  std::vector<double> acc(exact.num_groups(), 0.0);
  std::vector<int> seen(exact.num_groups(), 0);
  const int reps = 300;
  Rng rng(73);
  for (int rep = 0; rep < reps; ++rep) {
    ASSERT_OK_AND_ASSIGN(StratifiedSample s, uniform.Build(t, {}, 120, &rng));
    ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, AvgV()));
    for (size_t i = 0; i < exact.num_groups(); ++i) {
      auto j = approx.Find(exact.key(i));
      if (j.has_value()) {
        acc[i] += approx.value(*j, 0);
        seen[i]++;
      }
    }
  }
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    ASSERT_GT(seen[i], reps / 2);
    const double mean_est = acc[i] / seen[i];
    EXPECT_NEAR(mean_est, exact.value(i, 0), 0.02 * std::fabs(exact.value(i, 0)))
        << exact.label(i);
  }
}

TEST(ApproxExecutorTest, RuntimePredicateOnSample) {
  Table t = MakeStudentTable();
  Rng rng(79);
  CvoptSampler cvopt;
  QuerySpec build_q;
  build_q.group_by = {"major"};
  build_q.aggregates = {AggSpec::Avg("gpa")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cvopt.Build(t, {build_q}, t.num_rows(), &rng));

  QuerySpec pred_q = build_q;
  pred_q.where = Predicate::Compare("college", CompareOp::kEq, "Science");
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, pred_q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, pred_q));
  ASSERT_EQ(approx.num_groups(), exact.num_groups());  // CS and Math only
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0), 1e-9);
  }
}

TEST(ApproxExecutorTest, RegroupingOnCoarserAttrs) {
  // Sample stratified by (major); query regrouped by nothing (full table).
  Table t = MakeStudentTable();
  Rng rng(83);
  CvoptSampler cvopt;
  QuerySpec build_q;
  build_q.group_by = {"major"};
  build_q.aggregates = {AggSpec::Avg("age")};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cvopt.Build(t, {build_q}, t.num_rows(), &rng));
  QuerySpec full;
  full.aggregates = {AggSpec::Avg("age"), AggSpec::Count()};
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, full));
  ASSERT_EQ(approx.num_groups(), 1u);
  EXPECT_NEAR(approx.value(0, 0), 24.5, 1e-9);  // exact: full sample
  EXPECT_NEAR(approx.value(0, 1), 8.0, 1e-9);
}

TEST(ApproxExecutorTest, CountIfEstimate) {
  Table t = MakeStudentTable();
  Rng rng(89);
  CvoptSampler cvopt;
  QuerySpec q;
  q.group_by = {"college"};
  q.aggregates = {
      AggSpec::CountIf(Predicate::Compare("gpa", CompareOp::kGt, 3.4))};
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, cvopt.Build(t, {q}, t.num_rows(), &rng));
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, q));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0), 1e-9);
  }
}

TEST(ApproxExecutorTest, ErrorsOnBadQueries) {
  Table t = MakeStudentTable();
  Rng rng(97);
  UniformSampler u;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, u.Build(t, {}, 4, &rng));
  QuerySpec no_aggs;
  EXPECT_FALSE(ExecuteApprox(s, no_aggs).ok());
  QuerySpec bad_group;
  bad_group.group_by = {"gpa"};
  bad_group.aggregates = {AggSpec::Count()};
  EXPECT_FALSE(ExecuteApprox(s, bad_group).ok());
  QuerySpec bad_agg;
  bad_agg.aggregates = {AggSpec::Avg("major")};
  EXPECT_FALSE(ExecuteApprox(s, bad_agg).ok());
}

// ---------------------------------------------------------------------------
// The sample's cached group index (StratifiedSample::GroupIndexFor). A copy
// of a sample starts with an empty cache, so ExecuteApprox on a fresh copy
// is the uncached answer.

const Table& OpenAqTable() {
  static const Table* t = [] {
    OpenAqOptions opts;
    opts.num_rows = 40'000;
    return new Table(GenerateOpenAq(opts));
  }();
  return *t;
}

StratifiedSample OpenAqSample() {
  Rng rng(131);
  UniformSampler uniform;
  return std::move(uniform.Build(OpenAqTable(), {}, 6'000, &rng)).ValueOrDie();
}

// Every aggregate shape, under a WHERE clause or not, grouped by `by`.
QuerySpec CacheQuery(std::vector<std::string> by, bool filtered) {
  QuerySpec q;
  q.group_by = std::move(by);
  q.aggregates = {
      AggSpec::Avg("value"),      AggSpec::Sum("value"), AggSpec::Count(),
      AggSpec::CountIf(Predicate::Compare("value", CompareOp::kGt, Value(0.04))),
      AggSpec::Variance("value"), AggSpec::Median("value")};
  if (filtered) q.where = Predicate::Between("hour", 0, 11);
  return q;
}

// Resets the fail-point configuration on scope exit, whatever the test
// armed.
struct FailpointReset {
  ~FailpointReset() { failpoint::ClearForTesting(); }
};

TEST(ApproxIndexCacheTest, RepeatedGroupingDoesNoGroupIndexBuild) {
  const StratifiedSample s = OpenAqSample();
  const QuerySpec q = CacheQuery({"country", "parameter"}, false);
  ASSERT_OK_AND_ASSIGN(QueryResult first, ExecuteApprox(s, q));

  // Every group-id build now fails. Queries with the cached GROUP BY list
  // (under any WHERE) still succeed because they build nothing.
  FailpointReset reset;
  ASSERT_OK(failpoint::SetForTesting("exec.group_index.alloc:error"));
  ASSERT_OK_AND_ASSIGN(QueryResult second, ExecuteApprox(s, q));
  ExpectBitIdentical(first, second);
  EXPECT_OK(ExecuteApprox(s, CacheQuery({"country", "parameter"}, true))
                .status());

  // The armed fail point does fire for a grouping the sample has not
  // cached, and for a copy of the sample, whose cache starts empty.
  EXPECT_EQ(ExecuteApprox(s, CacheQuery({"unit"}, false)).status().code(),
            StatusCode::kInternal);
  const StratifiedSample copy = s;
  EXPECT_EQ(ExecuteApprox(copy, q).status().code(), StatusCode::kInternal);
}

TEST(ApproxIndexCacheTest, FailedBuildPublishesNothing) {
  const StratifiedSample s = OpenAqSample();
  const QuerySpec q = CacheQuery({"country"}, true);
  {
    FailpointReset reset;
    ASSERT_OK(failpoint::SetForTesting("exec.group_index.alloc:error"));
    EXPECT_FALSE(ExecuteApprox(s, q).ok());
  }
  ASSERT_OK_AND_ASSIGN(QueryResult after, ExecuteApprox(s, q));
  const StratifiedSample fresh = s;
  ASSERT_OK_AND_ASSIGN(QueryResult uncached, ExecuteApprox(fresh, q));
  ExpectBitIdentical(uncached, after);
}

TEST(ApproxIndexCacheTest, RegroupingGetsItsOwnEntry) {
  const StratifiedSample s = OpenAqSample();
  const QuerySpec by_pair = CacheQuery({"country", "parameter"}, true);
  const QuerySpec by_unit = CacheQuery({"unit", "hour"}, true);
  ASSERT_OK_AND_ASSIGN(QueryResult pair1, ExecuteApprox(s, by_pair));
  ASSERT_OK_AND_ASSIGN(QueryResult unit1, ExecuteApprox(s, by_unit));

  const StratifiedSample fresh = s;
  ASSERT_OK_AND_ASSIGN(QueryResult unit_fresh, ExecuteApprox(fresh, by_unit));
  ExpectBitIdentical(unit_fresh, unit1);

  // Both entries stay cached side by side: neither grouping rebuilds.
  FailpointReset reset;
  ASSERT_OK(failpoint::SetForTesting("exec.group_index.alloc:error"));
  ASSERT_OK_AND_ASSIGN(QueryResult pair2, ExecuteApprox(s, by_pair));
  ASSERT_OK_AND_ASSIGN(QueryResult unit2, ExecuteApprox(s, by_unit));
  ExpectBitIdentical(pair1, pair2);
  ExpectBitIdentical(unit1, unit2);
}

// Thread count, the radix override and the forced aggregation path decide
// whether a build is partitioned, which decides summation order. The cache
// must follow them: under each setting, a cached answer equals the answer
// from a fresh copy of the sample, bit for bit — including right after the
// setting changed under an entry built with the previous one.
TEST(ApproxIndexCacheTest, CachedMatchesUncachedUnderEveryBuildSetting) {
  const StratifiedSample s = OpenAqSample();
  struct AggPathScope {
    explicit AggPathScope(int mode) { SetAggPathOverrideForTesting(mode); }
    ~AggPathScope() { SetAggPathOverrideForTesting(-1); }
  };
  for (int agg_path : {-1, 1}) {
    AggPathScope path(agg_path);
    for (int radix : {-1, 0, 1}) {
      ScopedRadixOverride force(radix);
      for (int threads : {1, 2, 3, 8}) {
        ScopedExecThreads scope(threads);
        for (bool filtered : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "agg_path=" << agg_path << " radix=" << radix
                       << " threads=" << threads << " filtered=" << filtered);
          const QuerySpec q = CacheQuery({"country", "parameter"}, filtered);
          ASSERT_OK_AND_ASSIGN(QueryResult cached, ExecuteApprox(s, q));
          const StratifiedSample fresh = s;
          ASSERT_OK_AND_ASSIGN(QueryResult uncached, ExecuteApprox(fresh, q));
          ExpectBitIdentical(uncached, cached);
        }
      }
    }
  }
}

}  // namespace
}  // namespace cvopt
