// Adaptive aggregation engine: the hash-vs-sort planner (estimator,
// override precedence, decision counters) and the load-bearing
// differential — the sort-based build must be BIT-identical to the hash
// build (group ids, first-occurrence ordering, labels, and float sums, so
// equality is memcmp, not tolerance) across thread counts, parallel
// grains, and group-index tiers, including through a full sampler build.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/exec/agg_planner.h"
#include "src/exec/group_by_executor.h"
#include "src/estimate/approx_executor.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/streaming_cvopt_sampler.h"
#include "src/table/table_builder.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

enum class Tier { kDirect, kPacked, kWide };

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kDirect:
      return "direct";
    case Tier::kPacked:
      return "packed";
    case Tier::kWide:
      return "wide";
  }
  return "?";
}

// Two int64 group columns shaped to land the group index in the requested
// tier (the tier is a function of per-column code ranges):
//   direct:  6 total bits, tiny dense domain;
//   packed: 24 total bits (> the 22-bit direct cap, <= 64);
//   wide:  ~82 total bits (cannot pack into one word).
Table MakeTierTable(Tier tier, size_t rows) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng rng(1000 + static_cast<int>(tier));
  for (size_t i = 0; i < rows; ++i) {
    int64_t a = 0, bb = 0;
    switch (tier) {
      case Tier::kDirect:
        a = static_cast<int64_t>(rng.Uniform(8));
        bb = static_cast<int64_t>(rng.Uniform(8));
        break;
      case Tier::kPacked:
        a = static_cast<int64_t>(rng.Uniform(4096));
        bb = static_cast<int64_t>(rng.Uniform(4096));
        break;
      case Tier::kWide:
        a = static_cast<int64_t>(rng.Uniform(1u << 20)) << 21;
        bb = static_cast<int64_t>(rng.Uniform(1u << 20)) << 21;
        break;
    }
    Status st = b.AppendRow(
        {Value(a), Value(bb), Value(10.0 + 2.0 * rng.NextGaussian())});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

std::vector<QuerySpec> MakeQueries() {
  std::vector<QuerySpec> qs;
  {
    QuerySpec q;
    q.name = "all-aggs";
    q.group_by = {"a", "b"};
    q.aggregates = {AggSpec::Count(), AggSpec::Sum("v"), AggSpec::Avg("v"),
                    AggSpec::Variance("v"),
                    AggSpec::CountIf(Predicate::Compare(
                        "a", CompareOp::kLt, Value(int64_t{2048})))};
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "filtered";
    q.group_by = {"a"};
    q.aggregates = {AggSpec::Count(), AggSpec::Sum("v")};
    q.where = Predicate::Compare("b", CompareOp::kGe, Value(int64_t{1}));
    qs.push_back(q);
  }
  return qs;
}

void ExpectResultsIdentical(const QueryResult& a, const QueryResult& b,
                            const std::string& what) {
  ASSERT_EQ(a.num_groups(), b.num_groups()) << what;
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates()) << what;
  for (size_t g = 0; g < a.num_groups(); ++g) {
    EXPECT_EQ(a.label(g), b.label(g)) << what << " group " << g;
    const std::vector<double> va = a.values(g);
    const std::vector<double> vb = b.values(g);
    ASSERT_EQ(va.size(), vb.size());
    EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0)
        << what << " group " << g << " (" << a.label(g) << ")";
  }
}

// The tentpole differential: every (tier, threads, grain, query) cell runs
// once forced-hash and once forced-sort; results must match bit for bit.
// Under forced sort the direct and wide tiers legitimately fall back to
// hash (sort handles packed keys), so those cells double as no-op checks.
TEST(AdaptiveAggDifferentialTest, HashAndSortPathsBitIdentical) {
  for (Tier tier : {Tier::kDirect, Tier::kPacked, Tier::kWide}) {
    const Table t = MakeTierTable(tier, 40'000);
    for (int threads : {1, 2, 3, 8}) {
      for (size_t grain : {size_t{1000}, size_t{4096}, size_t{65536}}) {
        ScopedExecThreads te(threads, grain);
        for (const QuerySpec& q : MakeQueries()) {
          const std::string what = std::string(TierName(tier)) + "/" +
                                   q.name + " threads=" +
                                   std::to_string(threads) +
                                   " grain=" + std::to_string(grain);
          Result<QueryResult> hash = [&] {
            ScopedAggPath path(0);
            return ExecuteExact(t, q);
          }();
          Result<QueryResult> sorted = [&] {
            ScopedAggPath path(1);
            return ExecuteExact(t, q);
          }();
          ASSERT_TRUE(hash.ok()) << what << ": " << hash.status().ToString();
          ASSERT_TRUE(sorted.ok())
              << what << ": " << sorted.status().ToString();
          ExpectResultsIdentical(hash.value(), sorted.value(), what);
        }
      }
    }
  }
}

// The sort path must also be invisible through a full sampler build: same
// stratification, same draws, same weights. The table packs into 25 bits
// (beyond the direct cap) while keeping the distinct-group count modest
// enough for the allocation solve — column b takes two values 4096 apart,
// so its code RANGE forces the packed tier even though the group count is
// small.
TEST(AdaptiveAggDifferentialTest, SamplerDigestIdenticalAcrossPaths) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng rng(77);
  for (size_t i = 0; i < 60'000; ++i) {
    Status st = b.AppendRow(
        {Value(static_cast<int64_t>(rng.Uniform(3000))),
         Value(static_cast<int64_t>(rng.Uniform(2)) * 4096),
         Value(5.0 + rng.NextGaussian())});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  const Table t = std::move(b).Finish();

  QuerySpec spec;
  spec.group_by = {"a", "b"};
  spec.aggregates = {AggSpec::Avg("v")};
  for (int threads : {1, 8}) {
    ScopedExecThreads te(threads);
    auto build = [&](int mode) {
      ScopedAggPath path(mode);
      Rng seed(4242);
      CvoptSampler sampler;
      return sampler.Build(t, {spec}, /*budget=*/6'000, &seed);
    };
    Result<StratifiedSample> hash = build(0);
    Result<StratifiedSample> sorted = build(1);
    ASSERT_OK(hash.status());
    ASSERT_OK(sorted.status());
    EXPECT_EQ(hash.value().rows(), sorted.value().rows())
        << "threads=" << threads;
    const std::vector<double>& wh = hash.value().weights();
    const std::vector<double>& ws = sorted.value().weights();
    ASSERT_EQ(wh.size(), ws.size());
    EXPECT_EQ(std::memcmp(wh.data(), ws.data(), wh.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

// A streaming build's router occupancy rides on the sample and reaches the
// planner when the sample is grouped at query time: the estimate ExecuteApprox
// plans with must be at least the stratum count the router observed.
TEST(AggPlannerTest, StreamingRouterOccupancyFlowsToApproxPlanning) {
  const Table t = MakeTierTable(Tier::kPacked, 30'000);
  QuerySpec spec;
  spec.group_by = {"a", "b"};
  spec.aggregates = {AggSpec::Avg("v")};
  Rng seed(99);
  StreamingCvoptSampler sampler(/*replan_interval=*/5'000);
  ASSERT_OK_AND_ASSIGN(StratifiedSample sample,
                       sampler.Build(t, {spec}, /*budget=*/4'000, &seed));
  ASSERT_GT(sample.observed_strata(), 0u);

  ResetAggPlannerStats();
  ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteApprox(sample, spec));
  (void)r;
  const AggPlannerStats stats = GetAggPlannerStats();
  ASSERT_GE(stats.hash_decisions + stats.sort_decisions, 1u);
  // The estimate is capped by the build's row count (the sample size), so
  // the hint's floor is min(observed, sample rows). Without the hint this
  // small build has no probe and would estimate 1.
  EXPECT_GE(stats.last_estimated_groups,
            std::min<uint64_t>(sample.observed_strata(), sample.size()));
  EXPECT_GT(stats.last_estimated_groups, 1u);
}

TEST(AggPlannerTest, EstimatorExtrapolatesAndCaps) {
  AggPlanInputs in;
  in.rows = 1'000'000;
  // Half-distinct probe: G ~ d*s/(s-d) = 2048*4096/2048 = 4096.
  in.probe_sampled = 4096;
  in.probe_distinct = 2048;
  EXPECT_EQ(EstimateGroups(in), 4096u);
  // All-distinct probe only bounds G from below -> falls to the cap.
  in.probe_distinct = 4096;
  EXPECT_EQ(EstimateGroups(in), in.rows);
  // The domain bounds the cap.
  in.domain_bound = 100'000;
  EXPECT_EQ(EstimateGroups(in), 100'000u);
  // A router occupancy hint dominates a smaller extrapolation.
  in.probe_distinct = 2048;
  in.occupancy_hint = 50'000;
  EXPECT_EQ(EstimateGroups(in), 50'000u);
  // No probe, no hint: one group is the floor.
  AggPlanInputs empty;
  empty.rows = 10;
  EXPECT_EQ(EstimateGroups(empty), 1u);
}

TEST(AggPlannerTest, AutoModeSwitchesOnEstimatedCardinality) {
  // Pin the AUTO threshold (mode 2) so the assertions hold even when the
  // suite runs under an ambient CVOPT_AGG_PATH (the CI sort-path lap).
  ScopedAggPath pin_auto(2);
  ResetAggPlannerStats();
  AggPlanInputs small;
  small.rows = 1'000'000;
  small.probe_sampled = 4096;
  small.probe_distinct = 2048;  // estimate 4096: cache-resident, hash
  AggPlanDecision d1 = PlanAggPath(small);
  EXPECT_EQ(d1.path, AggPath::kHash);
  EXPECT_FALSE(d1.forced);

  AggPlanInputs huge;
  huge.rows = 1'000'000;
  huge.occupancy_hint = size_t{1} << 18;  // at the sort threshold
  AggPlanDecision d2 = PlanAggPath(huge);
  EXPECT_EQ(d2.path, AggPath::kSort);
  EXPECT_FALSE(d2.forced);

  const AggPlannerStats stats = GetAggPlannerStats();
  EXPECT_EQ(stats.hash_decisions, 1u);
  EXPECT_EQ(stats.sort_decisions, 1u);
  EXPECT_EQ(stats.last_estimated_groups, uint64_t{1} << 18);
}

TEST(AggPlannerTest, TestingOverrideBeatsAuto) {
  AggPlanInputs small;
  small.rows = 100;  // auto would say hash
  {
    ScopedAggPath path(1);
    AggPlanDecision d = PlanAggPath(small);
    EXPECT_EQ(d.path, AggPath::kSort);
    EXPECT_TRUE(d.forced);
  }
  AggPlanInputs huge;
  huge.rows = 1'000'000;
  huge.occupancy_hint = size_t{1} << 20;  // auto would say sort
  {
    ScopedAggPath path(0);
    AggPlanDecision d = PlanAggPath(huge);
    EXPECT_EQ(d.path, AggPath::kHash);
    EXPECT_TRUE(d.forced);
  }
}

TEST(AggPlannerTest, OccupancyHintIsScopedAndRestored) {
  EXPECT_EQ(CurrentAggOccupancyHint(), 0u);
  {
    ScopedAggOccupancyHint outer(500);
    EXPECT_EQ(CurrentAggOccupancyHint(), 500u);
    {
      ScopedAggOccupancyHint inner(900);
      EXPECT_EQ(CurrentAggOccupancyHint(), 900u);
    }
    EXPECT_EQ(CurrentAggOccupancyHint(), 500u);
  }
  EXPECT_EQ(CurrentAggOccupancyHint(), 0u);
}

// A real packed-tier build reports its true group count back to the
// planner's stats, so benches can print estimated-vs-actual.
TEST(AggPlannerTest, BuildRecordsActualGroups) {
  const Table t = MakeTierTable(Tier::kPacked, 20'000);
  QuerySpec q;
  q.group_by = {"a", "b"};
  q.aggregates = {AggSpec::Count()};
  ResetAggPlannerStats();
  ASSERT_OK_AND_ASSIGN(QueryResult r, ExecuteExact(t, q));
  const AggPlannerStats stats = GetAggPlannerStats();
  EXPECT_EQ(stats.last_actual_groups, r.num_groups());
  EXPECT_GE(stats.hash_decisions + stats.sort_decisions, 1u);
}

}  // namespace
}  // namespace cvopt
