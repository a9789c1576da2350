// Fuzz-style robustness tests for the v2 chunked table file reader and the
// out-of-core scan over it: any truncation or byte corruption must yield a
// clean Status (or a successful parse of still-consistent data) — never a
// crash, hang, or out-of-bounds read. The loops are deliberately
// exhaustive over a small file so the ASan/UBSan jobs in
// tools/run_sanitizers.sh sweep every parser branch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/exec/chunked_scan.h"
#include "src/table/mapped_table.h"
#include "src/table/table_builder.h"
#include "src/table/table_io.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// A small but representative table: negative ints, NaN / -0.0 doubles,
// dictionary strings — every codec and zone-map flavor appears.
Table MakeFuzzTable() {
  Schema schema({{"k", DataType::kInt64},
                 {"v", DataType::kDouble},
                 {"s", DataType::kString}});
  TableBuilder b(schema);
  Rng rng(2024);
  const char* names[] = {"alpha", "beta", "gamma", "delta"};
  for (int i = 0; i < 600; ++i) {
    double v = rng.NextGaussian();
    if (i % 97 == 0) v = std::numeric_limits<double>::quiet_NaN();
    if (i % 101 == 0) v = -0.0;
    Status st = b.AppendRow({Value(static_cast<int64_t>(i % 37 - 18)),
                             Value(v), Value(names[i % 4])});
    CVOPT_CHECK(st.ok(), "append failed");
  }
  return std::move(b).Finish();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Opens and fully exercises the reader; the only requirement is a clean
// Status on every failure path (sanitizers verify no OOB access).
void ExerciseReader(const std::string& path) {
  auto mapped = MappedTable::Open(path);
  if (!mapped.ok()) return;
  for (size_t c = 0; c < mapped->num_columns(); ++c) {
    for (size_t k = 0; k < mapped->num_chunks(); ++k) {
      auto chunk = mapped->GetChunk(c, k);
      if (!chunk.ok()) return;  // lazy payload validation caught it
    }
  }
  (void)mapped->Materialize();
}

class TableIoFuzzTest : public testing::Test {
 protected:
  void SetUp() override {
    // Small chunks -> many chunks, small file -> exhaustive loops stay fast.
    SetDefaultChunkRowsForTesting(64);
    table_ = std::make_unique<Table>(MakeFuzzTable());
    path_ = TempPath("fuzz.cvtb");
    ASSERT_OK(WriteTableFile(*table_, path_));
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), 100u);
  }
  void TearDown() override {
    SetDefaultChunkRowsForTesting(0);
    std::remove(path_.c_str());
    std::remove(mutated_.c_str());
  }

  std::unique_ptr<Table> table_;
  std::string path_;
  std::string bytes_;
  std::string mutated_ = TempPath("fuzz_mut.cvtb");
};

TEST_F(TableIoFuzzTest, EveryTruncationFailsCleanly) {
  // The directory pins every payload to an in-bounds [off, off+len) span,
  // so any proper prefix must be rejected at Open or on first decode.
  for (size_t len = 0; len < bytes_.size(); ++len) {
    WriteAll(mutated_, bytes_.substr(0, len));
    auto mapped = MappedTable::Open(mutated_);
    if (!mapped.ok()) continue;
    bool any_error = false;
    for (size_t c = 0; c < mapped->num_columns() && !any_error; ++c) {
      for (size_t k = 0; k < mapped->num_chunks() && !any_error; ++k) {
        any_error = !mapped->GetChunk(c, k).ok();
      }
    }
    EXPECT_TRUE(any_error) << "truncation to " << len << " parsed fully";
  }
}

TEST_F(TableIoFuzzTest, EverySingleByteFlipIsHandled) {
  for (size_t pos = 0; pos < bytes_.size(); ++pos) {
    std::string mut = bytes_;
    mut[pos] = static_cast<char>(mut[pos] ^ 0xFF);
    WriteAll(mutated_, mut);
    ExerciseReader(mutated_);  // must not crash; errors are fine
  }
}

// Runs the out-of-core group-by over a file that still opens, with every
// column in play (group-by, aggregate input, WHERE, COUNT_IF): the scan
// must return an answer or a clean Status, whatever the bytes say.
void ExerciseScan(const std::string& path) {
  auto mapped = MappedTable::Open(path);
  if (!mapped.ok()) return;
  QuerySpec q;
  q.group_by = {"s", "k"};
  q.aggregates = {AggSpec::Sum("v"), AggSpec::Count(), AggSpec::Median("v"),
                  AggSpec::CountIf(Predicate::Compare("k", CompareOp::kLt,
                                                      Value(int64_t{0})))};
  q.where = Predicate::Compare("v", CompareOp::kGt, Value(-1.0));
  (void)ExecuteGroupByMapped(*mapped, q);
}

TEST_F(TableIoFuzzTest, RandomMultiByteCorruptions) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mut = bytes_;
    const size_t edits = 1 + rng.Uniform(8);
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(mut.size());
      mut[pos] = static_cast<char>(rng.Next64());
    }
    WriteAll(mutated_, mut);
    ExerciseReader(mutated_);
    ExerciseScan(mutated_);
  }
}

TEST_F(TableIoFuzzTest, ReadTableFileSurvivesCorruption) {
  // The high-level entry point (header dispatch + Materialize) gets the
  // same treatment on a strided sweep.
  for (size_t pos = 0; pos < bytes_.size(); pos += 7) {
    std::string mut = bytes_;
    mut[pos] = static_cast<char>(mut[pos] + 1);
    WriteAll(mutated_, mut);
    (void)ReadTableFile(mutated_);
  }
}

TEST_F(TableIoFuzzTest, IntactFileStillRoundTrips) {
  // Sanity anchor for the fuzz fixture itself.
  ASSERT_OK_AND_ASSIGN(Table back, ReadTableFile(path_));
  ASSERT_EQ(back.num_rows(), table_->num_rows());
  for (size_t c = 0; c < table_->num_columns(); ++c) {
    for (size_t r = 0; r < table_->num_rows(); ++r) {
      const Value a = table_->column(c).GetValue(r);
      const Value b = back.column(c).GetValue(r);
      if (table_->schema().field(c).type == DataType::kDouble) {
        const double da = a.AsDouble();
        const double db = b.AsDouble();
        ASSERT_TRUE((std::isnan(da) && std::isnan(db)) || da == db);
      } else {
        ASSERT_TRUE(a == b);
      }
    }
  }
}

}  // namespace
}  // namespace cvopt
