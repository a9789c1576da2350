// Tests for src/stats: RunningStats (incl. merge properties),
// GroupStatsTable, CollectGroupStats, CollectWorkloadStats.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "src/core/cvopt_allocator.h"
#include "src/core/stratification.h"
#include "src/exec/aggregate.h"
#include "src/exec/query.h"
#include "src/expr/plan_cache.h"
#include "src/stats/group_stats.h"
#include "src/stats/running_stats.h"
#include "src/stats/stats_collector.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance_population(), 0.0);
  EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance_population(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance_sample(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance_population(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev_population(), 2.0);
  EXPECT_NEAR(s.variance_sample(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.cv(), 0.4);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MatchesNaiveTwoPass) {
  Rng rng(3);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.UniformDouble(-100, 100);
  RunningStats s;
  for (double x : xs) s.Add(x);
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  double m2 = 0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance_population(), m2 / xs.size(), 1e-7);
}

TEST(RunningStatsTest, CvZeroMeanGuarded) {
  RunningStats s;
  s.Add(-1.0);
  s.Add(1.0);
  // mean == 0; the CV floor keeps the value finite.
  EXPECT_TRUE(std::isfinite(s.cv()));
  EXPECT_GT(s.cv(), 0.0);
}

// Property: merging a split of a stream equals processing the whole stream.
class MergeProperty : public testing::TestWithParam<size_t> {};

TEST_P(MergeProperty, MergeEqualsConcatenation) {
  const size_t split = GetParam();
  Rng rng(41 + split);
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng.UniformDouble(-5, 50);

  RunningStats whole, a, b;
  for (size_t i = 0; i < xs.size(); ++i) {
    whole.Add(xs[i]);
    (i < split ? a : b).Add(xs[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance_population(), whole.variance_population(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

INSTANTIATE_TEST_SUITE_P(Splits, MergeProperty,
                         testing::Values(0, 1, 50, 100, 199, 200));

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  RunningStats snapshot = a;
  a.Merge(b);  // merging empty is a no-op
  EXPECT_TRUE(a == snapshot);
  b.Merge(a);  // merging into empty copies
  EXPECT_TRUE(b == snapshot);
}

TEST(GroupStatsTableTest, ShapeAndAccess) {
  GroupStatsTable g(3, 2);
  EXPECT_EQ(g.num_strata(), 3u);
  EXPECT_EQ(g.num_columns(), 2u);
  g.At(2, 1).Add(7.0);
  EXPECT_EQ(g.At(2, 1).count(), 1u);
  EXPECT_EQ(g.At(0, 0).count(), 0u);
}

TEST(GroupStatsTableTest, MergeRequiresSameShape) {
  GroupStatsTable a(2, 2), b(2, 3);
  EXPECT_FALSE(a.Merge(b).ok());
  GroupStatsTable c(2, 2);
  c.At(0, 0).Add(1.0);
  ASSERT_OK(a.Merge(c));
  EXPECT_EQ(a.At(0, 0).count(), 1u);
}

TEST(CollectGroupStatsTest, PerGroupMeansOnStudentTable) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"major"}));
  ASSERT_OK_AND_ASSIGN(const Column* gpa, t.ColumnByName("gpa"));
  StatSource src;
  src.column = gpa;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats, CollectGroupStats(strat, {src}));
  ASSERT_EQ(stats.num_strata(), 4u);
  // Find CS stratum and verify mean gpa (3.4 + 3.1)/2.
  for (size_t c = 0; c < strat.num_strata(); ++c) {
    if (strat.Label(c) == "CS") {
      EXPECT_DOUBLE_EQ(stats.At(c, 0).mean(), 3.25);
      EXPECT_EQ(stats.At(c, 0).count(), 2u);
    }
  }
}

TEST(CollectGroupStatsTest, ConstantOneSource) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"college"}));
  StatSource one;
  one.constant_one = true;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats, CollectGroupStats(strat, {one}));
  for (size_t c = 0; c < strat.num_strata(); ++c) {
    EXPECT_EQ(stats.At(c, 0).count(), 4u);
    EXPECT_DOUBLE_EQ(stats.At(c, 0).mean(), 1.0);
    EXPECT_DOUBLE_EQ(stats.At(c, 0).variance_population(), 0.0);
  }
}

TEST(CollectGroupStatsTest, IndicatorSource) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"college"}));
  // Indicator: age > 24.
  std::vector<uint8_t> ind(t.num_rows());
  ASSERT_OK_AND_ASSIGN(const Column* age, t.ColumnByName("age"));
  for (size_t r = 0; r < t.num_rows(); ++r) ind[r] = age->GetInt(r) > 24;
  StatSource src;
  src.indicator = &ind;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable stats, CollectGroupStats(strat, {src}));
  // Science: ages 25,22,24,28 -> 2 of 4. Engineering: 21,23,27,26 -> 2 of 4.
  for (size_t c = 0; c < strat.num_strata(); ++c) {
    EXPECT_DOUBLE_EQ(stats.At(c, 0).mean(), 0.5);
  }
}

TEST(CollectGroupStatsTest, RejectsInvalidSources) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"major"}));
  StatSource empty;  // no stream at all
  EXPECT_FALSE(CollectGroupStats(strat, {empty}).ok());

  std::vector<uint8_t> short_ind(3);
  StatSource bad_len;
  bad_len.indicator = &short_ind;
  EXPECT_FALSE(CollectGroupStats(strat, {bad_len}).ok());

  ASSERT_OK_AND_ASSIGN(const Column* major, t.ColumnByName("major"));
  StatSource str_col;
  str_col.column = major;
  EXPECT_FALSE(CollectGroupStats(strat, {str_col}).ok());
}

// Bit-for-bit equality of every observable field.
void ExpectSameBits(const RunningStats& got, const RunningStats& want,
                    const std::string& where) {
  auto bits = [](double x) {
    uint64_t b;
    std::memcpy(&b, &x, sizeof(b));
    return b;
  };
  EXPECT_EQ(got.count(), want.count()) << where;
  EXPECT_EQ(bits(got.mean()), bits(want.mean())) << where;
  EXPECT_EQ(bits(got.variance_population()), bits(want.variance_population()))
      << where;
  EXPECT_EQ(bits(got.min()), bits(want.min())) << where;
  EXPECT_EQ(bits(got.max()), bits(want.max())) << where;
  EXPECT_TRUE(got == want) << where;
}

// Per-row Add(1.0) in row order, the reference the size fill must match.
std::vector<RunningStats> PerRowCounts(const Stratification& strat) {
  std::vector<RunningStats> ref(strat.num_strata());
  for (uint32_t s : strat.row_strata()) {
    if (s != Stratification::kNoStratum) ref[s].Add(1.0);
  }
  return ref;
}

TEST(CollectGroupStatsTest, ConstantSourceFilledFromSizesMatchesRowAdds) {
  // 33000 rows over 10 strata: the statistics pass splits into several
  // deterministic chunks. The filter excludes rows (kNoStratum), whole
  // groups among them. The public builds never leave a stratum of a keyed
  // stratification empty, so the empty stratum comes from a second,
  // attribute-less build whose filter keeps no row.
  Table t = MakeSkewedTable(10, 600);
  ASSERT_OK_AND_ASSIGN(
      Stratification filtered,
      Stratification::Build(t, {"g"},
                            Predicate::Compare("v", CompareOp::kGt,
                                               Value(25.0))));
  ASSERT_OK_AND_ASSIGN(
      Stratification empty,
      Stratification::Build(t, {},
                            Predicate::Compare("v", CompareOp::kGt,
                                               Value(1e9))));
  ASSERT_EQ(empty.num_strata(), 1u);
  ASSERT_EQ(empty.sizes()[0], 0u);
  size_t excluded = 0;
  for (uint32_t s : filtered.row_strata()) {
    excluded += s == Stratification::kNoStratum;
  }
  ASSERT_GT(excluded, 0u);
  ASSERT_LT(excluded, t.num_rows());

  ASSERT_OK_AND_ASSIGN(const Column* v, t.ColumnByName("v"));
  StatSource col;
  col.column = v;
  StatSource one;
  one.constant_one = true;
  for (const Stratification* strat : {&filtered, &empty}) {
    const std::vector<RunningStats> ref = PerRowCounts(*strat);
    for (int threads : {1, 3, 8}) {
      ScopedExecThreads scope(threads);
      ASSERT_OK_AND_ASSIGN(GroupStatsTable alone,
                           CollectGroupStats(*strat, {one}));
      // Collected together with a row-reading source, too.
      ASSERT_OK_AND_ASSIGN(GroupStatsTable mixed,
                           CollectGroupStats(*strat, {col, one}));
      for (size_t c = 0; c < strat->num_strata(); ++c) {
        const std::string where = "stratum " + std::to_string(c) + " at " +
                                  std::to_string(threads) + " threads";
        ExpectSameBits(alone.At(c, 0), ref[c], where);
        ExpectSameBits(mixed.At(c, 1), ref[c], where);
      }
    }
  }
}

TEST(CollectGroupStatsTest, SourcesCollectedTogetherMatchCollectedAlone) {
  Table t = MakeSkewedTable(10, 600);
  ASSERT_OK_AND_ASSIGN(Stratification strat, Stratification::Build(t, {"g"}));
  ASSERT_OK_AND_ASSIGN(const Column* v, t.ColumnByName("v"));
  ASSERT_OK_AND_ASSIGN(const Column* g, t.ColumnByName("g"));
  std::vector<uint8_t> ind(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) ind[r] = v->GetDouble(r) > 30.0;
  std::vector<StatSource> sources(3);
  sources[0].column = v;
  sources[1].indicator = &ind;
  sources[2].column = g;
  ASSERT_OK_AND_ASSIGN(GroupStatsTable together,
                       CollectGroupStats(strat, sources));
  for (size_t j = 0; j < sources.size(); ++j) {
    ASSERT_OK_AND_ASSIGN(GroupStatsTable alone,
                         CollectGroupStats(strat, {sources[j]}));
    for (size_t c = 0; c < strat.num_strata(); ++c) {
      ExpectSameBits(together.At(c, j), alone.At(c, 0),
                     "source " + std::to_string(j));
    }
  }
}

QuerySpec Query(std::vector<std::string> group_by, std::vector<AggSpec> aggs) {
  QuerySpec q;
  q.group_by = std::move(group_by);
  q.aggregates = std::move(aggs);
  return q;
}

PredicatePtr SatAbove(int64_t x) {
  return Predicate::Compare("sat", CompareOp::kGt, Value(x));
}

TEST(CollectWorkloadStatsTest, OneStreamPerColumnAcrossAggregateFunctions) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"major"}));
  const std::vector<QuerySpec> queries = {
      Query({"major"}, {AggSpec::Avg("gpa"), AggSpec::Count()}),
      Query({}, {AggSpec::Sum("gpa"), AggSpec::Variance("gpa")}),
      Query({"major"}, {AggSpec::Median("gpa"), AggSpec::Avg("age"),
                        AggSpec::Count()})};
  ASSERT_OK_AND_ASSIGN(WorkloadStats ws,
                       CollectWorkloadStats(t, strat, queries));
  // Three streams: gpa, the constant, age.
  const WorkloadStats::StreamRef gpa = ws.stream(0, 0);
  EXPECT_TRUE(ws.stream(1, 0) == gpa);
  EXPECT_TRUE(ws.stream(1, 1) == gpa);
  EXPECT_TRUE(ws.stream(2, 0) == gpa);
  EXPECT_TRUE(ws.stream(2, 2) == ws.stream(0, 1));
  EXPECT_FALSE(ws.stream(2, 1) == gpa);
  EXPECT_FALSE(ws.stream(0, 1) == gpa);
  EXPECT_FALSE(ws.stream(2, 1) == ws.stream(0, 1));

  // Every query's view is what collecting its own aggregates alone gives.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_OK_AND_ASSIGN(BoundAggregates bound,
                         BoundAggregates::Bind(t, queries[qi].aggregates));
    ASSERT_OK_AND_ASSIGN(GroupStatsTable alone,
                         CollectGroupStats(strat, bound.sources()));
    const WorkloadStats::QueryStats view = ws.query(qi);
    for (size_t c = 0; c < strat.num_strata(); ++c) {
      for (size_t j = 0; j < queries[qi].aggregates.size(); ++j) {
        ExpectSameBits(view.At(c, j), alone.At(c, j),
                       "query " + std::to_string(qi) + " aggregate " +
                           std::to_string(j));
      }
    }
  }
}

TEST(CollectWorkloadStatsTest, EqualFiltersShareOneStreamAndOneEvaluation) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"college"}));
  // Two separately built but structurally equal filters, and a third that
  // differs only in its literal.
  const std::vector<QuerySpec> queries = {
      Query({"college"}, {AggSpec::CountIf(SatAbove(1240))}),
      Query({}, {AggSpec::CountIf(SatAbove(1240)),
                 AggSpec::CountIf(SatAbove(1250))})};
  ClearPlanCache();
  ASSERT_OK_AND_ASSIGN(WorkloadStats ws,
                       CollectWorkloadStats(t, strat, queries));
  const PlanCacheStats cache = GetPlanCacheStats();
  ClearPlanCache();
  // One compile per distinct filter: the repeated one is never evaluated.
  EXPECT_EQ(cache.hits + cache.misses, 2u);
  EXPECT_TRUE(ws.stream(1, 0) == ws.stream(0, 0));
  EXPECT_FALSE(ws.stream(1, 1) == ws.stream(0, 0));
  // sat > 1240: Science 1250, 1280, 1270 -> 3 of 4.
  for (size_t c = 0; c < strat.num_strata(); ++c) {
    if (strat.Label(c) == "Science") {
      EXPECT_DOUBLE_EQ(ws.query(1).At(c, 0).mean(), 0.75);
    }
  }
}

TEST(CollectWorkloadStatsTest, LaterBindFailureReturnsPerQueryStatus) {
  Table t = MakeStudentTable();
  ASSERT_OK_AND_ASSIGN(Stratification strat,
                       Stratification::Build(t, {"major"}));
  AggSpec no_filter = AggSpec::CountIf(nullptr);
  const std::vector<std::vector<AggSpec>> bad_lists = {
      {AggSpec::Avg("gpa"), AggSpec::Avg("missing")},
      {AggSpec::Sum("major")},
      {AggSpec::Count(), no_filter},
      {AggSpec::CountIf(
          Predicate::Compare("nope", CompareOp::kGt, Value(int64_t{1})))}};
  for (const std::vector<AggSpec>& bad : bad_lists) {
    const Status want = BoundAggregates::Bind(t, bad).status();
    ASSERT_FALSE(want.ok());
    const std::vector<QuerySpec> queries = {
        Query({"major"}, {AggSpec::Avg("gpa"), AggSpec::Count()}),
        Query({}, bad)};
    Result<WorkloadStats> got = CollectWorkloadStats(t, strat, queries);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().ToString(), want.ToString());
    Result<AllocationPlan> plan = PlanCvoptAllocation(t, queries, 4);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().ToString(), want.ToString());
  }
}

}  // namespace
}  // namespace cvopt
