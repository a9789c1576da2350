// Tests for the streaming CVOPT sampler (paper §8 future work (3)) and its
// StreamGroupRouter — the one-pass packed/wide dense-id row router that
// replaced the GroupKey interner.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "src/datagen/openaq_gen.h"
#include "src/estimate/approx_executor.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/group_index.h"
#include "src/sample/cvopt_sampler.h"
#include "src/sample/streaming_cvopt_sampler.h"
#include "src/util/string_util.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

QuerySpec AvgV() {
  QuerySpec q;
  q.group_by = {"g"};
  q.aggregates = {AggSpec::Avg("v")};
  return q;
}

TEST(StreamingCvoptTest, BudgetAndCoverage) {
  Table t = MakeSkewedTable(8, 200);
  Rng rng(31);
  StreamingCvoptSampler sampler(/*replan_interval=*/500);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, sampler.Build(t, {AvgV()}, 400, &rng));
  EXPECT_LE(s.size(), 420u);
  EXPECT_GE(s.size(), 300u);
  // Every group is represented.
  ASSERT_OK_AND_ASSIGN(size_t gcol, t.ColumnIndex("g"));
  std::set<int64_t> covered;
  for (uint32_t r : s.rows()) covered.insert(t.column(gcol).GetInt(r));
  EXPECT_EQ(covered.size(), 8u);
}

TEST(StreamingCvoptTest, WeightsExpandToPopulation) {
  Table t = MakeSkewedTable(6, 150);
  Rng rng(37);
  StreamingCvoptSampler sampler(300);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, sampler.Build(t, {AvgV()}, 300, &rng));
  const double wsum =
      std::accumulate(s.weights().begin(), s.weights().end(), 0.0);
  EXPECT_NEAR(wsum, static_cast<double>(t.num_rows()), 0.01 * t.num_rows());
}

TEST(StreamingCvoptTest, ConvergesTowardOfflineAllocation) {
  // On a stationary stream the one-pass allocation should be close to the
  // two-pass CVOPT allocation.
  Table t = MakeSkewedTable(5, 400, /*seed=*/41);
  Rng rng(43);
  StreamingCvoptSampler stream(200);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, stream.Build(t, {AvgV()}, 500, &rng));

  CvoptSampler offline;
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan, offline.Plan(t, {AvgV()}, 500));

  // Per-group streaming sample sizes.
  ASSERT_OK_AND_ASSIGN(size_t gcol, t.ColumnIndex("g"));
  std::unordered_map<int64_t, int> stream_sizes;
  for (uint32_t r : s.rows()) stream_sizes[t.column(gcol).GetInt(r)]++;
  for (size_t c = 0; c < plan.strat->num_strata(); ++c) {
    const int64_t g = plan.strat->key(c).codes[0];
    const double offline_s = static_cast<double>(plan.allocation.sizes[c]);
    const double stream_s = stream_sizes[g];
    EXPECT_NEAR(stream_s, offline_s, 0.35 * offline_s + 4)
        << "group " << g;
  }
}

TEST(StreamingCvoptTest, EstimatesAreAccurate) {
  Table t = MakeSkewedTable(6, 300, /*seed=*/47);
  Rng rng(53);
  StreamingCvoptSampler sampler(500);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, sampler.Build(t, {AvgV()}, 600, &rng));
  ASSERT_OK_AND_ASSIGN(QueryResult approx, ExecuteApprox(s, AvgV()));
  ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, AvgV()));
  ASSERT_EQ(approx.num_groups(), exact.num_groups());
  for (size_t i = 0; i < exact.num_groups(); ++i) {
    auto j = approx.Find(exact.key(i));
    ASSERT_TRUE(j.has_value());
    EXPECT_NEAR(approx.value(*j, 0), exact.value(i, 0),
                0.1 * std::fabs(exact.value(i, 0)));
  }
}

TEST(StreamingCvoptTest, BuilderDirectUse) {
  Table t = MakeSkewedTable(3, 100);
  Rng rng(59);
  ASSERT_OK_AND_ASSIGN(size_t gcol, t.ColumnIndex("g"));
  ASSERT_OK_AND_ASSIGN(size_t vcol, t.ColumnIndex("v"));
  StreamingCvoptBuilder builder(&t, {gcol}, vcol, 60, 100, &rng);
  for (uint32_t r = 0; r < t.num_rows(); ++r) builder.Offer(r);
  EXPECT_EQ(builder.rows_seen(), t.num_rows());
  EXPECT_EQ(builder.num_strata(), 3u);
  StratifiedSample s = std::move(builder).Finish();
  EXPECT_LE(s.size(), 66u);
  EXPECT_EQ(s.method(), "CVOPT-STREAM");
}

TEST(StreamingCvoptTest, RejectsBadInputs) {
  Table t = MakeSkewedTable(2, 10);
  Rng rng(61);
  StreamingCvoptSampler sampler;
  EXPECT_FALSE(sampler.Build(t, {}, 10, &rng).ok());
  QuerySpec count_only;
  count_only.group_by = {"g"};
  count_only.aggregates = {AggSpec::Count()};
  EXPECT_FALSE(sampler.Build(t, {count_only}, 10, &rng).ok());
  QuerySpec bad_group;
  bad_group.group_by = {"v"};  // double column
  bad_group.aggregates = {AggSpec::Avg("v")};
  EXPECT_FALSE(sampler.Build(t, {bad_group}, 10, &rng).ok());
}

// ---------------------------------------------------------------------
// StreamGroupRouter: the streaming row router must assign exactly the
// dense first-seen-order ids of the offline GroupIndex build.

TEST(StreamGroupRouterTest, MatchesGroupIndexOnReplay) {
  OpenAqOptions opts;
  opts.num_rows = 20000;
  Table t = GenerateOpenAq(opts);
  const std::vector<std::vector<std::string>> attr_sets = {
      {"country"},
      {"country", "parameter"},
      {"country", "parameter", "unit", "year", "month", "hour"},
  };
  for (const auto& attrs : attr_sets) {
    ASSERT_OK_AND_ASSIGN(GroupIndex gi, GroupIndex::Build(t, attrs));
    ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols,
                         GroupIndex::Resolve(t, attrs));
    StreamGroupRouter router(&t, cols);
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_EQ(router.Route(r), gi.group_of(r)) << "row " << r;
    }
    ASSERT_EQ(router.num_groups(), gi.num_groups());
    for (size_t g = 0; g < gi.num_groups(); ++g) {
      EXPECT_EQ(router.KeyOf(g).codes, gi.KeyOf(g).codes) << "group " << g;
    }
    // Routing the stream again re-finds every id without inventing groups.
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      ASSERT_EQ(router.Route(r), gi.group_of(r));
    }
    EXPECT_EQ(router.num_groups(), gi.num_groups());
  }
}

TEST(StreamGroupRouterTest, DictionaryGrowthMidStream) {
  // Codes appear in strictly increasing magnitude, so every few rows a new
  // code outgrows its packed field and forces a widen + re-pack — the
  // mid-stream dictionary-growth path. Ints include negatives (zig-zag)
  // and jumps past several width doublings.
  Schema schema({{"s", DataType::kString}, {"k", DataType::kInt64}});
  TableBuilder b(schema);
  std::vector<int64_t> jumps = {0,   -1,    1,     -7,     100,
                                -300, 5000, -70000, 1 << 20, -(1 << 26)};
  for (int round = 0; round < 4; ++round) {
    for (size_t j = 0; j < jumps.size(); ++j) {
      const std::string s = "dict" + std::to_string(j * (round + 1));
      ASSERT_OK(b.AppendRow({Value(s), Value(jumps[j] * (round + 1))}));
    }
  }
  Table t = std::move(b).Finish();
  ASSERT_OK_AND_ASSIGN(GroupIndex gi, GroupIndex::Build(t, {"s", "k"}));
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols,
                       GroupIndex::Resolve(t, {"s", "k"}));
  StreamGroupRouter router(&t, cols);
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(router.Route(r), gi.group_of(r)) << "row " << r;
  }
  ASSERT_EQ(router.num_groups(), gi.num_groups());
  for (size_t g = 0; g < gi.num_groups(); ++g) {
    EXPECT_EQ(router.KeyOf(g).codes, gi.KeyOf(g).codes);
  }
}

TEST(StreamGroupRouterTest, WideKeyTierMatchesGroupIndex) {
  // Three ~2^40-spread int columns exceed 64 packed bits mid-stream: the
  // router must switch to the wide tier and keep ids aligned with the
  // offline kWide build.
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"c", DataType::kInt64}});
  TableBuilder b(schema);
  Rng gen(7);
  const int64_t kSpread = int64_t{1} << 40;
  for (int i = 0; i < 20000; ++i) {
    const int64_t base = static_cast<int64_t>(gen.Next64() % 50);
    ASSERT_OK(b.AppendRow({Value(base * kSpread), Value(-base * kSpread),
                           Value(base % 7)}));
  }
  Table t = std::move(b).Finish();
  ASSERT_OK_AND_ASSIGN(GroupIndex gi, GroupIndex::Build(t, {"a", "b", "c"}));
  ASSERT_EQ(gi.tier(), GroupIndex::Tier::kWide);
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols,
                       GroupIndex::Resolve(t, {"a", "b", "c"}));
  StreamGroupRouter router(&t, cols);
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(router.Route(r), gi.group_of(r)) << "row " << r;
  }
  EXPECT_FALSE(router.packed());
  ASSERT_EQ(router.num_groups(), gi.num_groups());
  for (size_t g = 0; g < gi.num_groups(); ++g) {
    EXPECT_EQ(router.KeyOf(g).codes, gi.KeyOf(g).codes);
  }
}

TEST(StreamGroupRouterTest, MoreColumnsThanPackableBitsStartsWide) {
  // 70 one-bit fields cannot pack into a word even at minimal widths: the
  // router must start in the wide tier (no shift past 63) and still match
  // the offline build.
  std::vector<Field> cols;
  for (int j = 0; j < 70; ++j) {
    cols.push_back({"c" + std::to_string(j), DataType::kInt64});
  }
  TableBuilder b((Schema(cols)));
  for (int64_t row = 0; row < 6; ++row) {
    std::vector<Value> vals;
    for (int j = 0; j < 70; ++j) vals.emplace_back(int64_t{row % 3});
    ASSERT_OK(b.AppendRow(vals));
  }
  Table t = std::move(b).Finish();
  std::vector<std::string> attrs;
  for (int j = 0; j < 70; ++j) attrs.push_back("c" + std::to_string(j));
  ASSERT_OK_AND_ASSIGN(GroupIndex gi, GroupIndex::Build(t, attrs));
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> idx, GroupIndex::Resolve(t, attrs));
  StreamGroupRouter router(&t, idx);
  EXPECT_FALSE(router.packed());
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(router.Route(r), gi.group_of(r));
  }
  EXPECT_EQ(router.num_groups(), 3u);
}

// Span-bound routing (the out-of-core scan's entry point): replaying a
// table's rows as caller-held column chunks must assign the same ids and
// keys as the offline build, for every chunk size — through dictionary
// growth, negative ints, and the mid-stream fall back to the wide tier.
TEST(StreamGroupRouterTest, RouteSpansMatchesGroupIndexInAnyChunking) {
  OpenAqOptions opts;
  opts.num_rows = 6000;
  Table openaq = GenerateOpenAq(opts);
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"s", DataType::kString}});
  TableBuilder b(schema);
  Rng gen(11);
  for (int i = 0; i < 6000; ++i) {
    // Small negative keys first, full-range ones after row 2000.
    const uint64_t big = (gen.Next64() % 64) << 57;
    const int64_t x = i < 2000 ? -static_cast<int64_t>(gen.Uniform(5))
                               : static_cast<int64_t>(big);
    ASSERT_OK(b.AppendRow({Value(x), Value(-x / 3),
                           Value("s" + std::to_string(i % 9))}));
  }
  Table wide = std::move(b).Finish();
  const std::vector<std::pair<const Table*, std::vector<std::string>>> cases =
      {{&openaq, {"country", "parameter", "unit"}},
       {&openaq, {"country", "year", "month", "hour"}},
       {&wide, {"a", "b"}},
       {&wide, {"s", "a", "b"}}};
  for (const auto& [t, attrs] : cases) {
    ASSERT_OK_AND_ASSIGN(GroupIndex gi, GroupIndex::Build(*t, attrs));
    ASSERT_OK_AND_ASSIGN(std::vector<size_t> cols,
                         GroupIndex::Resolve(*t, attrs));
    std::vector<DataType> types;
    for (size_t c : cols) types.push_back(t->column(c).type());
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{512}, size_t{4096}}) {
      StreamGroupRouter router(types);
      std::vector<uint32_t> ids(t->num_rows());
      for (size_t lo = 0; lo < t->num_rows(); lo += chunk) {
        std::vector<GroupCodeSpan> spans;
        for (size_t c : cols) {
          const Column& col = t->column(c);
          spans.push_back(col.type() == DataType::kString
                              ? GroupCodeSpan{nullptr, col.codes().data() + lo}
                              : GroupCodeSpan{col.ints().data() + lo, nullptr});
        }
        router.RouteSpans(spans.data(), std::min(chunk, t->num_rows() - lo),
                          ids.data() + lo);
      }
      const std::string what = Join(attrs, ",") + " chunk " +
                               std::to_string(chunk);
      ASSERT_EQ(ids, gi.row_groups()) << what;
      ASSERT_EQ(router.num_groups(), gi.num_groups()) << what;
      for (size_t g = 0; g < gi.num_groups(); ++g) {
        ASSERT_EQ(router.KeyOf(g).codes, gi.KeyOf(g).codes) << what;
      }
      if (t == &wide) {
        EXPECT_FALSE(router.packed()) << what;
      }
    }
  }
}

TEST(StreamGroupRouterTest, EmptyColumnListRoutesEverythingToGroupZero) {
  Table t = MakeSkewedTable(3, 10);
  StreamGroupRouter router(&t, {});
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(router.Route(r), 0u);
  }
  EXPECT_EQ(router.num_groups(), 1u);
  EXPECT_EQ(router.arity(), 0u);
}

// ---------------------------------------------------------------------
// Streaming sampler vs the offline CVOPT sampler on identical data/seed.

TEST(StreamingCvoptTest, DifferentialVsOfflineOnWideKeys) {
  // Wide-tier stratification keys: the streaming sampler must still cover
  // every stratum, respect the budget, and produce per-stratum sizes close
  // to the offline two-pass allocation on a stationary stream.
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng gen(131);
  const int64_t kSpread = int64_t{1} << 45;
  for (int i = 0; i < 6000; ++i) {
    const int64_t g = static_cast<int64_t>(gen.Uniform(6));
    ASSERT_OK(b.AppendRow(
        {Value(g * kSpread), Value(-g * kSpread),
         Value(10.0 * (g + 1) +
               static_cast<double>(static_cast<int64_t>(gen.Uniform(20))) -
               10.0)}));
  }
  Table t = std::move(b).Finish();
  QuerySpec q;
  q.group_by = {"a", "b"};
  q.aggregates = {AggSpec::Avg("v")};

  Rng rng(137);
  StreamingCvoptSampler stream(/*replan_interval=*/500);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, stream.Build(t, {q}, 600, &rng));
  EXPECT_LE(s.size(), 660u);

  CvoptSampler offline;
  ASSERT_OK_AND_ASSIGN(AllocationPlan plan, offline.Plan(t, {q}, 600));
  ASSERT_EQ(plan.strat->num_strata(), 6u);
  std::vector<uint64_t> stream_sizes(plan.strat->num_strata(), 0);
  for (uint32_t row : s.rows()) {
    stream_sizes[plan.strat->StratumOfRow(row)]++;
  }
  for (size_t c = 0; c < plan.strat->num_strata(); ++c) {
    const double offline_s = static_cast<double>(plan.allocation.sizes[c]);
    EXPECT_NEAR(static_cast<double>(stream_sizes[c]), offline_s,
                0.35 * offline_s + 4)
        << "stratum " << c;
  }
}

TEST(StreamingCvoptTest, GroupedArrivalOrderStillCoversAllGroups) {
  // A stream sorted by the grouping attribute is the adversarial order for
  // one-pass stratified sampling (each group's rows arrive in one burst,
  // and new dictionary codes appear only at group boundaries — the
  // router's widen path in its natural habitat). Admit-all-then-subsample
  // must keep every group represented with near-allocation sizes.
  Schema schema({{"g", DataType::kString}, {"v", DataType::kDouble}});
  TableBuilder b(schema);
  Rng gen(139);
  for (int g = 0; g < 8; ++g) {
    const int n = 300 + 100 * g;
    for (int i = 0; i < n; ++i) {
      ASSERT_OK(b.AppendRow(
          {Value("grp" + std::to_string(g)),
           Value(5.0 * (g + 1) +
                 static_cast<double>(static_cast<int64_t>(gen.Uniform(10))))}));
    }
  }
  Table t = std::move(b).Finish();
  Rng rng(149);
  StreamingCvoptSampler stream(/*replan_interval=*/400);
  ASSERT_OK_AND_ASSIGN(StratifiedSample s, stream.Build(t, {AvgV()}, 480, &rng));
  ASSERT_OK_AND_ASSIGN(size_t gcol, t.ColumnIndex("g"));
  std::set<std::string> covered;
  for (uint32_t row : s.rows()) {
    covered.insert(t.column(gcol).GetString(row));
  }
  EXPECT_EQ(covered.size(), 8u);
}

}  // namespace
}  // namespace cvopt
