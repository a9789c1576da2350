// Tests for the approximate executor: exactness at full budget, statistical
// unbiasedness, predicate handling, regrouping, and the sample's cached
// group index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/agg_planner.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/query_context.h"
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
  const auto match = MatchGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = match[i];
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
  const auto match = MatchGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = match[i];
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
    const auto match = MatchGroups(exact, approx);
    for (size_t i = 0; i < exact.num_groups(); ++i) {
      const auto j = match[i];
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
  const auto match = MatchGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = match[i];
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
  const auto match = MatchGroups(exact, approx);
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    const auto j = match[i];
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
  for (int agg_path : {-1, 1}) {
    ScopedAggPath path(agg_path);
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


// ---------------------------------------------------------------------------
// The sample's gathered rows (StratifiedSample::Gathered): one contiguous
// copy the approximate executor reads instead of the base table.

TEST(ApproxGatherTest, GatheredColumnsEqualBaseAtSampledRows) {
  const StratifiedSample s = OpenAqSample();
  const Table& base = s.base();
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> g, s.Gathered());
  ASSERT_EQ(g->num_rows(), s.size());
  ASSERT_EQ(g->num_columns(), base.num_columns());
  for (size_t c = 0; c < base.num_columns(); ++c) {
    SCOPED_TRACE(base.schema().field(c).name);
    EXPECT_EQ(g->schema().field(c).name, base.schema().field(c).name);
    const Column& gc = g->column(c);
    const Column& bc = base.column(c);
    ASSERT_EQ(gc.type(), bc.type());
    ASSERT_EQ(gc.size(), s.size());
    // Same codes, same dictionary: labels and wire key codes over the
    // gathered table are the base table's.
    EXPECT_EQ(gc.dictionary(), bc.dictionary());
    for (size_t i = 0; i < s.size(); ++i) {
      const uint32_t row = s.rows()[i];
      switch (gc.type()) {
        case DataType::kString:
          ASSERT_EQ(gc.GetCode(i), bc.GetCode(row)) << i;
          break;
        case DataType::kInt64:
          ASSERT_EQ(gc.GetInt(i), bc.GetInt(row)) << i;
          break;
        case DataType::kDouble: {
          const double x = gc.GetDouble(i), y = bc.GetDouble(row);
          ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0) << i;
          break;
        }
      }
    }
  }
  // Later calls hand out the one published table.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> again, s.Gathered());
  EXPECT_EQ(again.get(), g.get());
}

// A budget that holds the group index and accumulators of the sample's
// queries but not the gathered copy (6,000 rows x 52 bytes).
constexpr uint64_t kBelowGatherBytes = 100 << 10;

Result<QueryResult> ExecuteApproxWithin(uint64_t bytes,
                                        const StratifiedSample& s,
                                        const QuerySpec& q) {
  QueryContext ctx;
  ctx.set_memory_limit(bytes);
  ScopedQueryContext install(&ctx);
  return ExecuteApprox(s, q);
}

TEST(ApproxGatherTest, BudgetBelowGatherFailsAndPublishesNothing) {
  const StratifiedSample s = OpenAqSample();
  const QuerySpec q = CacheQuery({"country", "parameter"}, true);
  EXPECT_EQ(ExecuteApproxWithin(kBelowGatherBytes, s, q).status().code(),
            StatusCode::kResourceExhausted);
  // Nothing was published: the same budget fails again rather than
  // finding a gathered table.
  EXPECT_EQ(ExecuteApproxWithin(kBelowGatherBytes, s, q).status().code(),
            StatusCode::kResourceExhausted);

  ASSERT_OK_AND_ASSIGN(QueryResult after, ExecuteApprox(s, q));
  const StratifiedSample fresh = s;
  ASSERT_OK_AND_ASSIGN(QueryResult uncached, ExecuteApprox(fresh, q));
  ExpectBitIdentical(uncached, after);
  // Now gathered and indexed, the sample answers within the small budget.
  ASSERT_OK_AND_ASSIGN(QueryResult small,
                       ExecuteApproxWithin(kBelowGatherBytes, s, q));
  ExpectBitIdentical(uncached, small);
}

TEST(ApproxGatherTest, CopiedSampleStartsEmpty) {
  const StratifiedSample s = OpenAqSample();
  const QuerySpec q = CacheQuery({"country"}, false);
  ASSERT_OK_AND_ASSIGN(QueryResult want, ExecuteApprox(s, q));
  ASSERT_OK(ExecuteApproxWithin(kBelowGatherBytes, s, q).status());

  const StratifiedSample copy = s;
  StratifiedSample assigned = OpenAqSample();
  ASSERT_OK(assigned.Gathered().status());
  assigned = s;
  const StratifiedSample* const copies[] = {&copy, &assigned};
  for (const StratifiedSample* c : copies) {
    EXPECT_EQ(ExecuteApproxWithin(kBelowGatherBytes, *c, q).status().code(),
              StatusCode::kResourceExhausted);
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> mine, c->Gathered());
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> theirs, s.Gathered());
    EXPECT_NE(mine.get(), theirs.get());
    ASSERT_OK_AND_ASSIGN(QueryResult got, ExecuteApprox(*c, q));
    ExpectBitIdentical(want, got);
  }
}


// ---------------------------------------------------------------------------
// The approximate executor against a plain serial loop: sample positions
// walked in ascending order, per group the surviving-position count, the
// Horvitz–Thompson weight sum, s += w*v, s2 += (w*v)*v and the (v, w)
// MEDIAN pairs. At one thread, and on partitioned builds at any thread
// count (a group's positions are still visited ascending), the executor's
// answer equals this loop bit for bit.

// Weighted median with the midpoint convention at an exact half-weight
// boundary — the estimator's documented rule.
double RefWeightedMedian(std::vector<std::pair<double, double>> pairs,
                         double total) {
  std::sort(pairs.begin(), pairs.end());
  const double half = total / 2.0;
  const double eps = 1e-9 * total;
  double cum = 0.0;
  for (size_t p = 0; p < pairs.size(); ++p) {
    cum += pairs[p].second;
    if (cum < half - eps) continue;
    if (cum <= half + eps && p + 1 < pairs.size()) {
      return (pairs[p].first + pairs[p + 1].first) / 2.0;
    }
    return pairs[p].first;
  }
  return pairs.back().first;
}

// Answers `q` from `s` with one ascending pass over the sample positions.
// Keyed by group codes; every present group has at least one surviving
// position.
std::map<std::vector<int64_t>, std::vector<double>> SerialApproxReference(
    const StratifiedSample& s, const QuerySpec& q) {
  struct Acc {
    uint64_t cnt = 0;
    double wcnt = 0.0;
    std::vector<double> s, s2;
    std::vector<std::vector<std::pair<double, double>>> med;
  };
  const Table& table = s.base();
  const size_t t = q.aggregates.size();
  std::map<std::vector<int64_t>, Acc> groups;
  for (size_t i = 0; i < s.rows().size(); ++i) {
    const size_t row = s.rows()[i];
    const double w = s.weights()[i];
    if (q.where != nullptr && !q.where->Matches(table, row).ValueOrDie()) {
      continue;
    }
    std::vector<int64_t> key;
    for (const auto& name : q.group_by) {
      key.push_back(table.ColumnByName(name).ValueOrDie()->GroupCode(row));
    }
    Acc& a = groups[key];
    if (a.cnt == 0) {
      a.s.assign(t, 0.0);
      a.s2.assign(t, 0.0);
      a.med.resize(t);
    }
    a.cnt++;
    a.wcnt += w;
    for (size_t j = 0; j < t; ++j) {
      const AggSpec& agg = q.aggregates[j];
      double v = 1.0;
      if (agg.func == AggFunc::kCountIf) {
        v = agg.filter->Matches(table, row).ValueOrDie() ? 1.0 : 0.0;
      } else if (agg.func != AggFunc::kCount) {
        v = table.ColumnByName(agg.column).ValueOrDie()->GetDouble(row);
      }
      a.s[j] += w * v;
      a.s2[j] += (w * v) * v;
      a.med[j].emplace_back(v, w);
    }
  }
  std::map<std::vector<int64_t>, std::vector<double>> out;
  for (auto& [key, a] : groups) {
    std::vector<double>& f = out[key];
    for (size_t j = 0; j < t; ++j) {
      switch (q.aggregates[j].func) {
        case AggFunc::kAvg:
          f.push_back(a.s[j] / a.wcnt);
          break;
        case AggFunc::kCount:
          f.push_back(a.wcnt);
          break;
        case AggFunc::kSum:
        case AggFunc::kCountIf:
          f.push_back(a.s[j]);
          break;
        case AggFunc::kVariance: {
          const double mean = a.s[j] / a.wcnt;
          f.push_back(std::max(0.0, a.s2[j] / a.wcnt - mean * mean));
          break;
        }
        case AggFunc::kMedian:
          f.push_back(RefWeightedMedian(a.med[j], a.wcnt));
          break;
      }
    }
  }
  return out;
}

void ExpectMatchesReference(const StratifiedSample& s, const QuerySpec& q) {
  const auto ref = SerialApproxReference(s, q);
  ASSERT_OK_AND_ASSIGN(QueryResult got, ExecuteApprox(s, q));
  ASSERT_EQ(got.num_groups(), ref.size());
  std::map<std::vector<int64_t>, size_t> index;
  for (size_t i = 0; i < got.num_groups(); ++i) {
    ASSERT_TRUE(index.emplace(KeyCodes(got, i), i).second)
        << "repeated group " << got.label(i);
  }
  for (const auto& [key, values] : ref) {
    const auto it = index.find(key);
    ASSERT_NE(it, index.end()) << "missing reference group";
    const size_t i = it->second;
    for (size_t j = 0; j < values.size(); ++j) {
      const double x = got.value(i, j);
      EXPECT_EQ(std::memcmp(&x, &values[j], sizeof(double)), 0)
          << got.label(i) << " " << q.aggregates[j].Label() << ": " << x
          << " vs " << values[j];
    }
  }
}

TEST(ApproxExecutorTest, MatchesSerialReferenceBitForBit) {
  // CVOPT strata on (country, parameter) carry different weights, so the
  // coarser regroupings mix weights within a group.
  QuerySpec build_q;
  build_q.group_by = {"country", "parameter"};
  build_q.aggregates = {AggSpec::Avg("value")};
  Rng rng(211);
  CvoptSampler cvopt;
  ASSERT_OK_AND_ASSIGN(StratifiedSample s,
                       cvopt.Build(OpenAqTable(), {build_q}, 6'000, &rng));
  // An empty GROUP BY is one group, never partitioned: it joins the
  // one-thread lap only.
  auto check_all = [&](bool partitioned) {
    std::vector<std::vector<std::string>> groupings = {
        {"country", "parameter"}, {"country"}, {"unit", "hour"}};
    if (!partitioned) groupings.push_back({});
    for (const auto& by : groupings) {
      if (partitioned) {
        ASSERT_OK_AND_ASSIGN(std::shared_ptr<const GroupIndex> gidx,
                             s.GroupIndexFor(by));
        ASSERT_NE(gidx->partitions(), nullptr);
      }
      for (bool filtered : {false, true}) {
        SCOPED_TRACE(testing::Message() << "by=" << by.size()
                                        << " filtered=" << filtered);
        QuerySpec q = CacheQuery(by, filtered);
        // Integer-typed value streams too.
        q.aggregates.push_back(AggSpec::Sum("hour"));
        q.aggregates.push_back(AggSpec::Median("month"));
        ExpectMatchesReference(s, q);
      }
    }
  };
  {
    ScopedExecThreads one(1);
    check_all(/*partitioned=*/false);
  }
  ScopedRadixOverride partitioned(1);
  for (int threads : {2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ScopedExecThreads scope(threads);
    check_all(/*partitioned=*/true);
  }
}

}  // namespace
}  // namespace cvopt
