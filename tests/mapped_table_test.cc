// MappedTable (mmap-backed v2 reader), the decoded-chunk LRU cache, the
// out-of-core group-by scan (its column projection and its wide-key
// differentials), v1 compatibility, and the plan-cache reload guard.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/exec/chunked_scan.h"
#include "src/exec/group_by_executor.h"
#include "src/exec/query_context.h"
#include "src/expr/compiled_predicate.h"
#include "src/expr/plan_cache.h"
#include "src/table/mapped_table.h"
#include "src/table/table_builder.h"
#include "src/table/table_io.h"
#include "src/util/string_util.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

class ScopedChunkRows {
 public:
  explicit ScopedChunkRows(size_t rows) { SetDefaultChunkRowsForTesting(rows); }
  ~ScopedChunkRows() { SetDefaultChunkRowsForTesting(0); }
};

class ScopedCacheBudget {
 public:
  explicit ScopedCacheBudget(size_t bytes) {
    SetChunkCacheBudgetForTesting(bytes);
  }
  ~ScopedCacheBudget() { SetChunkCacheBudgetForTesting(0); }
};

Table MakeDataset(size_t rows) {
  Schema schema({{"t", DataType::kInt64},
                 {"city", DataType::kString},
                 {"v", DataType::kDouble},
                 {"n", DataType::kInt64}});
  TableBuilder b(schema);
  Rng rng(1234);
  const char* cities[] = {"lisbon", "oslo", "quito", "hanoi", "perth", "kyiv"};
  for (size_t i = 0; i < rows; ++i) {
    double v = 10.0 + 2.0 * rng.NextGaussian();
    if (i % 211 == 0) v = std::numeric_limits<double>::quiet_NaN();
    Status st = b.AppendRow({Value(static_cast<int64_t>(i)),
                             Value(cities[(i / 250) % 6]), Value(v),
                             Value(static_cast<int64_t>(rng.Uniform(50)))});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

std::vector<QuerySpec> MakeQueries() {
  std::vector<QuerySpec> qs;
  {
    QuerySpec q;
    q.name = "all-aggs";
    q.group_by = {"city"};
    q.aggregates = {AggSpec::Avg("v"),    AggSpec::Sum("n"),
                    AggSpec::Count(),     AggSpec::Variance("v"),
                    AggSpec::Median("v"),
                    AggSpec::CountIf(
                        Predicate::Compare("n", CompareOp::kLt, Value(int64_t{10})))};
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "narrow-where";
    q.group_by = {"city"};
    q.aggregates = {AggSpec::Count(), AggSpec::Sum("v")};
    q.where =
        Predicate::Between("t", Value(int64_t{9'000}), Value(int64_t{9'299}));
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "composite-key";
    q.group_by = {"city", "n"};
    q.aggregates = {AggSpec::Avg("v"), AggSpec::Count()};
    q.where = Predicate::Compare("n", CompareOp::kLt, Value(int64_t{5}));
    qs.push_back(q);
  }
  {
    // The `t` leaf folds to constant-true at compile time; the column must
    // still reach the per-chunk predicate tables, which compile by name.
    QuerySpec q;
    q.name = "folded-leaf";
    q.group_by = {"city"};
    q.aggregates = {AggSpec::Sum("v"), AggSpec::Count()};
    q.where = Predicate::And(
        Predicate::Compare("t", CompareOp::kLt, Value(1e300)),
        Predicate::Compare("n", CompareOp::kGe, Value(int64_t{7})));
    qs.push_back(q);
  }
  {
    // Predicates that name no column still evaluate over every chunk row.
    QuerySpec q;
    q.name = "countif-true";
    q.group_by = {"city"};
    q.aggregates = {AggSpec::CountIf(Predicate::True()), AggSpec::Count()};
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "where-not-true";
    q.group_by = {"city"};
    q.aggregates = {AggSpec::Count(), AggSpec::Sum("v")};
    q.where = Predicate::Not(Predicate::True());
    qs.push_back(q);
  }
  {
    QuerySpec q;
    q.name = "no-groups";
    q.aggregates = {AggSpec::Count(), AggSpec::Avg("n")};
    q.where = Predicate::Compare("city", CompareOp::kEq, Value("oslo"));
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

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (a.schema().field(c).type == DataType::kDouble) {
        const double x = a.column(c).GetDouble(r);
        const double y = b.column(c).GetDouble(r);
        uint64_t bx, by;
        std::memcpy(&bx, &x, 8);
        std::memcpy(&by, &y, 8);
        ASSERT_EQ(bx, by) << "col " << c << " row " << r;
      } else {
        ASSERT_TRUE(a.column(c).GetValue(r) == b.column(c).GetValue(r))
            << "col " << c << " row " << r;
      }
    }
  }
}

TEST(MappedTableTest, OpenExposesFileGeometry) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(2'000);
  const std::string path = TempPath("geom.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  EXPECT_EQ(mt.num_rows(), 2'000u);
  EXPECT_EQ(mt.num_columns(), 4u);
  EXPECT_EQ(mt.chunk_rows(), 256u);
  EXPECT_EQ(mt.num_chunks(), 8u);
  EXPECT_EQ(mt.ChunkRowCount(6), 256u);
  EXPECT_EQ(mt.ChunkRowCount(7), 2'000u - 7 * 256u);
  EXPECT_EQ(mt.dictionary(1).size(), 6u);  // city
  EXPECT_TRUE(mt.dictionary(0).empty());   // numeric column
  std::remove(path.c_str());
}

TEST(MappedTableTest, MaterializeRoundTripsBitExactly) {
  ScopedChunkRows cs(512);
  Table t = MakeDataset(5'000);
  const std::string path = TempPath("mat.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  ASSERT_OK_AND_ASSIGN(Table back, mt.Materialize());
  ExpectTablesEqual(t, back);
  std::remove(path.c_str());
}

TEST(MappedTableTest, V1FilesStillRead) {
  Table t = MakeDataset(1'500);
  const std::string path = TempPath("legacy.cvtb");
  ASSERT_OK(WriteTableFileV1(t, path));
  ASSERT_OK_AND_ASSIGN(Table back, ReadTableFile(path));
  ExpectTablesEqual(t, back);
  std::remove(path.c_str());
}

TEST(MappedTableTest, ChunkCacheHitsEvictsAndInvalidates) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(8'192);  // 32 chunks x 4 cols
  const std::string path = TempPath("cache.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  // Budget of ~4 chunks of int64 data: decoding one full column must evict.
  ScopedCacheBudget budget(4 * 256 * sizeof(int64_t));
  ResetChunkCacheStats();
  {
    ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
    for (size_t k = 0; k < mt.num_chunks(); ++k) {
      ASSERT_OK_AND_ASSIGN(std::shared_ptr<const DecodedChunk> c,
                           mt.GetChunk(0, k));
      EXPECT_EQ(c->ints.size(), mt.ChunkRowCount(k));
    }
    ChunkCacheStats stats = GetChunkCacheStats();
    EXPECT_EQ(stats.misses, 32u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.resident_bytes, 4u * 256 * sizeof(int64_t));
    // Re-reading the most recent chunk hits.
    ASSERT_OK(mt.GetChunk(0, mt.num_chunks() - 1).status());
    EXPECT_EQ(GetChunkCacheStats().hits, stats.hits + 1);
  }
  // Destruction invalidates this table's entries.
  EXPECT_EQ(GetChunkCacheStats().resident_bytes, 0u);
  std::remove(path.c_str());
}

TEST(MappedTableTest, EvictedChunkStaysAliveForHolders) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(4'096);
  const std::string path = TempPath("pin.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(1);  // evict aggressively
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const DecodedChunk> held,
                       mt.GetChunk(0, 0));
  for (size_t k = 0; k < mt.num_chunks(); ++k) {
    ASSERT_OK(mt.GetChunk(2, k).status());
  }
  // `held` was evicted from the cache long ago but the shared_ptr keeps it.
  EXPECT_EQ(held->ints.size(), 256u);
  EXPECT_EQ(held->ints[0], 0);
  std::remove(path.c_str());
}

TEST(MappedTableTest, OutOfCoreGroupByMatchesExactBitwise) {
  for (size_t chunk_rows : {size_t{256}, size_t{1000}, size_t{4096}}) {
    ScopedChunkRows cs(chunk_rows);
    Table t = MakeDataset(20'000);
    const std::string path = TempPath("ooc.cvtb");
    ASSERT_OK(WriteTableFile(t, path));
    ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
    ScopedExecThreads serial(1);
    for (const auto& q : MakeQueries()) {
      ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
      ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
      ExpectResultsIdentical(
          exact, mapped, q.name + " chunk=" + std::to_string(chunk_rows));
    }
    std::remove(path.c_str());
  }
}

TEST(MappedTableTest, OutOfCoreGroupByUnderTinyCacheBudget) {
  // Correctness must not depend on the cache: a 1-byte budget forces every
  // chunk through decode (and immediate eviction).
  ScopedChunkRows cs(512);
  Table t = MakeDataset(10'000);
  const std::string path = TempPath("tiny.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(1);
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  for (const auto& q : MakeQueries()) {
    ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
    ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
    ExpectResultsIdentical(exact, mapped, q.name + " tiny-cache");
  }
  std::remove(path.c_str());
}

TEST(MappedTableTest, OutOfCoreGroupByWithZonePruningDisabled) {
  ScopedChunkRows cs(500);
  Table t = MakeDataset(15'000);
  const std::string path = TempPath("nozone.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  SetZoneMapPruningEnabled(false);
  for (const auto& q : MakeQueries()) {
    ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
    ASSERT_OK_AND_ASSIGN(QueryResult mapped, ExecuteGroupByMapped(mt, q));
    ExpectResultsIdentical(exact, mapped, q.name + " zones-off");
  }
  SetZoneMapPruningEnabled(true);
  std::remove(path.c_str());
}

// The morsel-parallel out-of-core scan must be bit-identical to the serial
// one at every thread count, even when a 1-byte cache budget forces every
// chunk through a fresh decode in both phases.
TEST(MappedTableTest, OutOfCoreGroupByParallelMatchesSerialTinyCache) {
  ScopedChunkRows cs(512);
  Table t = MakeDataset(20'000);
  const std::string path = TempPath("par.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(1);
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  for (const auto& q : MakeQueries()) {
    QueryResult serial = [&] {
      ScopedExecThreads st(1);
      auto r = ExecuteGroupByMapped(mt, q);
      CVOPT_CHECK(r.ok(), "serial mapped scan failed");
      return std::move(r).value();
    }();
    for (int threads : {2, 3, 8}) {
      ScopedExecThreads pt(threads);
      ASSERT_OK_AND_ASSIGN(QueryResult parallel, ExecuteGroupByMapped(mt, q));
      ExpectResultsIdentical(
          serial, parallel,
          q.name + " threads=" + std::to_string(threads));
    }
  }
  std::remove(path.c_str());
}

// Predicate-pushdown materialization: chunks the zone maps refute are
// never decoded (the clustered `t` column refutes 29 of 32 chunks for this
// range), and the surviving rows equal filter-then-take on the full table.
TEST(MappedTableTest, PushdownMaterializeSkipsRefutedChunks) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(8'192);  // t = 0..8191 clustered; 32 chunks x 4 cols
  const std::string path = TempPath("push.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  const PredicatePtr where =
      Predicate::Between("t", Value(int64_t{1'000}), Value(int64_t{1'499}));

  ResetChunkCacheStats();
  ASSERT_OK_AND_ASSIGN(Table filtered, mt.Materialize(*where));
  // Rows 1000..1499 live in chunks 3..5; only those decode — and every
  // decode is a cache miss (fresh table), so misses count decoded chunks.
  const ChunkCacheStats stats = GetChunkCacheStats();
  EXPECT_EQ(stats.misses, 3u * 4u);
  EXPECT_EQ(filtered.num_rows(), 500u);

  // Equality against the unpruned path: materialize fully, filter, take.
  ASSERT_OK_AND_ASSIGN(Table full, mt.Materialize());
  ASSERT_OK_AND_ASSIGN(CompiledPredicate cp,
                       CompiledPredicate::Compile(full, *where));
  ExpectTablesEqual(filtered, full.TakeRows(cp.Select()));
  std::remove(path.c_str());
}

TEST(MappedTableTest, PushdownMaterializeHandlesResidualAndTakeAll) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(4'096);
  const std::string path = TempPath("push2.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  ASSERT_OK_AND_ASSIGN(Table full, mt.Materialize());
  // Unclustered string predicate: zone maps refute nothing, every chunk is
  // residual, the kernel does the filtering.
  const PredicatePtr by_city =
      Predicate::Compare("city", CompareOp::kEq, Value("oslo"));
  ASSERT_OK_AND_ASSIGN(Table oslo, mt.Materialize(*by_city));
  {
    ASSERT_OK_AND_ASSIGN(CompiledPredicate cp,
                         CompiledPredicate::Compile(full, *by_city));
    ExpectTablesEqual(oslo, full.TakeRows(cp.Select()));
  }
  // Always-true range: every chunk is provably accepted (no kernel pass)
  // and the result is the whole table.
  const PredicatePtr all =
      Predicate::Compare("t", CompareOp::kGe, Value(int64_t{0}));
  ASSERT_OK_AND_ASSIGN(Table everything, mt.Materialize(*all));
  ExpectTablesEqual(everything, full);
  // Invalid predicates surface as a Status, not a crash.
  const PredicatePtr bad =
      Predicate::Compare("nope", CompareOp::kEq, Value(int64_t{1}));
  EXPECT_FALSE(mt.Materialize(*bad).ok());
  std::remove(path.c_str());
}

// TakeRows against the mapped file decodes only the chunks the row list
// touches — how a stratified sample of a mapped base materializes without
// paying for the base.
TEST(MappedTableTest, TakeRowsDecodesOnlyTouchedChunks) {
  ScopedChunkRows cs(256);
  Table t = MakeDataset(8'192);
  const std::string path = TempPath("take.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  // Interleaved rows from chunks 20 and 0, out of order and repeating.
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < 10; ++i) {
    rows.push_back(5'120 + i);  // chunk 20
    rows.push_back(9 - i);      // chunk 0
  }
  rows.push_back(rows[0]);
  ResetChunkCacheStats();
  ASSERT_OK_AND_ASSIGN(Table sub, mt.TakeRows(rows));
  // Two chunks touched across 4 columns; re-touches are cache hits.
  const ChunkCacheStats stats = GetChunkCacheStats();
  EXPECT_EQ(stats.misses, 2u * 4u);
  ExpectTablesEqual(sub, t.TakeRows(rows));
  EXPECT_FALSE(mt.TakeRows({8'192}).ok());  // out of range
  std::remove(path.c_str());
}

TEST(MappedTableTest, OutOfCoreGroupByRejectsBadQueries) {
  ScopedChunkRows cs(512);
  Table t = MakeDataset(1'000);
  const std::string path = TempPath("badq.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  QuerySpec q;
  EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok());  // no aggregates
  q.aggregates = {AggSpec::Avg("city")};           // string aggregation
  EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok());
  q.aggregates = {AggSpec::Count()};
  q.group_by = {"v"};  // double grouping
  EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok());
  q.group_by = {"nope"};  // unknown column
  EXPECT_FALSE(ExecuteGroupByMapped(mt, q).ok());
  std::remove(path.c_str());
}

// Column projection: the scan decodes only the columns the query reads.
// Under a cold cache too large to evict, every referenced column chunk
// misses exactly once — group-by, aggregate input, WHERE, and COUNT_IF
// columns alike — and the unreferenced column never enters the cache.
TEST(MappedTableTest, OutOfCoreGroupByDecodesOnlyReferencedColumns) {
  ScopedChunkRows cs(512);
  Table t = MakeDataset(10'000);  // columns t, city, v, n
  const std::string path = TempPath("proj.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(size_t{1} << 30);
  QuerySpec q;
  q.group_by = {"city"};
  q.aggregates = {AggSpec::Sum("v"), AggSpec::Count(),
                  AggSpec::CountIf(Predicate::Compare(
                      "n", CompareOp::kLt, Value(int64_t{10})))};
  // Every chunk holds v on both sides of 10, so no zone map decides it.
  q.where = Predicate::Compare("v", CompareOp::kGt, Value(10.0));
  const size_t kReferenced = 3;  // city, v, n
  for (bool serial : {false, true}) {
    // A fresh mapping is a fresh cache identity: the scan starts cold.
    ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
    ResetChunkCacheStats();
    QueryContext tiny;
    tiny.set_memory_limit(64);  // refuses the row->gid map: serial scan
    {
      ScopedQueryContext install(serial ? &tiny : nullptr);
      ASSERT_OK(ExecuteGroupByMapped(mt, q).status());
    }
    EXPECT_EQ(GetChunkCacheStats().misses, mt.num_chunks() * kReferenced)
        << (serial ? "serial" : "parallel");
    EXPECT_EQ(GetChunkCacheStats().evictions, 0u);
    // Column t was never decoded: each of its chunks is still a miss.
    ResetChunkCacheStats();
    for (size_t k = 0; k < mt.num_chunks(); ++k) {
      ASSERT_OK(mt.GetChunk(0, k).status());
    }
    EXPECT_EQ(GetChunkCacheStats().hits, 0u);
    EXPECT_EQ(GetChunkCacheStats().misses, mt.num_chunks());
  }
  std::remove(path.c_str());
}

// Keys that outgrow one packed word: two or three full-range int64
// columns, negative values included, whose first rows are small so the
// router starts packed and falls back to its wide tier mid-stream.
Table MakeWideKeyDataset(size_t rows) {
  Schema schema({{"a", DataType::kInt64},
                 {"b", DataType::kInt64},
                 {"c", DataType::kInt64},
                 {"city", DataType::kString},
                 {"v", DataType::kDouble},
                 {"n", DataType::kInt64}});
  TableBuilder b(schema);
  Rng rng(4321);
  struct Key {
    int64_t a, b, c;
  };
  std::vector<Key> small, wide;
  for (int i = 0; i < 40; ++i) {
    small.push_back({static_cast<int64_t>(rng.Uniform(9)) - 4,
                     -static_cast<int64_t>(rng.Uniform(3)),
                     static_cast<int64_t>(rng.Uniform(5))});
  }
  for (int i = 0; i < 300; ++i) {
    wide.push_back({static_cast<int64_t>(rng.Next64()),
                    -static_cast<int64_t>(rng.Next64() >> 1),
                    static_cast<int64_t>(rng.Next64())});
  }
  const char* cities[] = {"lisbon", "oslo", "quito"};
  for (size_t i = 0; i < rows; ++i) {
    const bool early = i < rows / 4;
    const Key& k = early || rng.Uniform(4) == 0
                       ? small[rng.Uniform(small.size())]
                       : wide[rng.Uniform(wide.size())];
    double v = rng.NextGaussian() * 1e3;
    if (i % 173 == 0) v = std::numeric_limits<double>::quiet_NaN();
    Status st = b.AppendRow(
        {Value(k.a), Value(k.b), Value(k.c), Value(cities[i % 3]), Value(v),
         Value(static_cast<int64_t>(rng.Uniform(100)) - 50)});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

TEST(MappedTableTest, WideAndNegativeKeysSerialParallelAndExactAgree) {
  ScopedChunkRows cs(500);
  Table t = MakeWideKeyDataset(12'000);
  const std::string path = TempPath("wide.cvtb");
  ASSERT_OK(WriteTableFile(t, path));
  ScopedCacheBudget budget(1);
  ASSERT_OK_AND_ASSIGN(MappedTable mt, MappedTable::Open(path));
  std::vector<QuerySpec> qs;
  for (std::vector<std::string> keys :
       {std::vector<std::string>{"a", "b"},
        std::vector<std::string>{"a", "b", "c"},
        std::vector<std::string>{"c", "city", "a"}}) {
    QuerySpec q;
    q.name = Join(keys, ",");
    q.group_by = keys;
    q.aggregates = {AggSpec::Avg("v"),      AggSpec::Sum("n"),
                    AggSpec::Count(),       AggSpec::Variance("v"),
                    AggSpec::Median("v"),
                    AggSpec::CountIf(Predicate::Compare(
                        "n", CompareOp::kLt, Value(int64_t{0})))};
    qs.push_back(q);
    q.name += " where";
    q.where = Predicate::Compare("n", CompareOp::kGe, Value(int64_t{-20}));
    qs.push_back(q);
  }
  for (const QuerySpec& q : qs) {
    ScopedExecThreads one(1);
    ASSERT_OK_AND_ASSIGN(QueryResult exact, ExecuteExact(t, q));
    ASSERT_OK_AND_ASSIGN(QueryResult reference, ExecuteGroupByMapped(mt, q));
    ExpectResultsIdentical(exact, reference, q.name + " mapped vs exact");
    for (int threads : {1, 2, 3, 8}) {
      ScopedExecThreads scope(threads);
      ASSERT_OK_AND_ASSIGN(QueryResult parallel, ExecuteGroupByMapped(mt, q));
      ExpectResultsIdentical(reference, parallel,
                             q.name + " threads=" + std::to_string(threads));
      QueryContext tiny;
      tiny.set_memory_limit(64);  // refuses the row->gid map
      ScopedQueryContext install(&tiny);
      ASSERT_OK_AND_ASSIGN(QueryResult serial, ExecuteGroupByMapped(mt, q));
      ExpectResultsIdentical(
          reference, serial,
          q.name + " serial-degraded threads=" + std::to_string(threads));
    }
  }
  std::remove(path.c_str());
}

// The satellite regression: a table written, destroyed, and reloaded gets a
// fresh Table::id(), so the reloaded table can never be served a stale plan
// whose column pointers belonged to the destroyed original.
TEST(MappedTableTest, ReloadedTableNeverHitsStalePlanCacheEntry) {
  ClearPlanCache();
  const std::string path = TempPath("reload.cvtb");
  const PredicatePtr pred =
      Predicate::Compare("t", CompareOp::kLt, Value(int64_t{500}));
  uint64_t first_id = 0;
  {
    Table t = MakeDataset(2'000);
    first_id = t.id();
    ASSERT_OK(WriteTableFile(t, path));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const CompiledPredicate> plan,
                         CompilePredicateCached(t, pred));
    EXPECT_EQ(plan->Select().size(), 500u);
  }  // original table (and its column storage) destroyed here
  const PlanCacheStats before = GetPlanCacheStats();
  EXPECT_EQ(before.misses, 1u);

  ASSERT_OK_AND_ASSIGN(Table reloaded, ReadTableFile(path));
  EXPECT_NE(reloaded.id(), first_id);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const CompiledPredicate> plan2,
                       CompilePredicateCached(reloaded, pred));
  // A fresh compile, not a stale hit: same hit count, one more miss.
  const PlanCacheStats after = GetPlanCacheStats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(plan2->Select().size(), 500u);
  ClearPlanCache();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cvopt
