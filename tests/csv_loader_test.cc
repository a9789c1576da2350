// Tests for CSV ingestion.
#include <gtest/gtest.h>

#include "src/table/csv_loader.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

const char kCsv[] =
    "name,age,score\n"
    "alice,30,1.5\n"
    "bob,25,2.25\n"
    "carol,41,0.75\n";

Schema ExplicitSchema() {
  return Schema({{"name", DataType::kString},
                 {"age", DataType::kInt64},
                 {"score", DataType::kDouble}});
}

TEST(CsvLoaderTest, ExplicitSchema) {
  ASSERT_OK_AND_ASSIGN(Table t, TableFromCsv(kCsv, ExplicitSchema()));
  EXPECT_EQ(t.num_rows(), 3u);
  ASSERT_OK_AND_ASSIGN(const Column* name, t.ColumnByName("name"));
  ASSERT_OK_AND_ASSIGN(const Column* age, t.ColumnByName("age"));
  ASSERT_OK_AND_ASSIGN(const Column* score, t.ColumnByName("score"));
  EXPECT_EQ(name->GetString(1), "bob");
  EXPECT_EQ(age->GetInt(2), 41);
  EXPECT_DOUBLE_EQ(score->GetDouble(0), 1.5);
}

TEST(CsvLoaderTest, InferredTypes) {
  ASSERT_OK_AND_ASSIGN(Table t, TableFromCsvInferred(kCsv));
  EXPECT_EQ(t.schema().field(0).type, DataType::kString);
  EXPECT_EQ(t.schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(t.schema().field(2).type, DataType::kDouble);
  EXPECT_EQ(t.schema().field(0).name, "name");
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST(CsvLoaderTest, QuotedFieldsAndEscapes) {
  const char* csv =
      "a,b\n"
      "\"x,y\",1\n"
      "\"say \"\"hi\"\"\",2\n";
  ASSERT_OK_AND_ASSIGN(
      Table t, TableFromCsv(csv, Schema({{"a", DataType::kString},
                                         {"b", DataType::kInt64}})));
  ASSERT_OK_AND_ASSIGN(const Column* a, t.ColumnByName("a"));
  EXPECT_EQ(a->GetString(0), "x,y");
  EXPECT_EQ(a->GetString(1), "say \"hi\"");
}

// RFC 4180: a quoted field may hold line breaks, \n or \r\n, which are
// kept verbatim; error messages still count physical lines.
TEST(CsvLoaderTest, QuotedNewlines) {
  const Schema one({{"a", DataType::kString}});
  ASSERT_OK_AND_ASSIGN(Table t, TableFromCsv("a\n\"x\ny\"\n", one));
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.column(0).GetString(0), "x\ny");

  const Schema two({{"s", DataType::kString}, {"n", DataType::kInt64}});
  ASSERT_OK_AND_ASSIGN(
      Table crlf, TableFromCsv("s,n\r\n\"p\r\nq\",1\r\nr,2\r\n", two));
  ASSERT_EQ(crlf.num_rows(), 2u);
  EXPECT_EQ(crlf.column(0).GetString(0), "p\r\nq");
  EXPECT_EQ(crlf.column(0).GetString(1), "r");
  EXPECT_EQ(crlf.column(1).GetInt(1), 2);

  ASSERT_OK_AND_ASSIGN(Table inferred,
                       TableFromCsvInferred("s,n\n\"a\n\nb\",1\nc,2\n"));
  EXPECT_EQ(inferred.schema().field(0).type, DataType::kString);
  EXPECT_EQ(inferred.schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(inferred.column(0).GetString(0), "a\n\nb");

  // The record after a three-line field starts on physical line 5.
  const Result<Table> bad = TableFromCsv("s,n\n\"a\n\nb\",1\nc,x\n", two);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("line 5 col 2"), std::string::npos)
      << bad.status().ToString();
  const Result<Table> open = TableFromCsv("s,n\nz,1\n\"a\nb,2\n", two);
  ASSERT_FALSE(open.ok());
  EXPECT_NE(open.status().ToString().find("unterminated quote on line 3"),
            std::string::npos)
      << open.status().ToString();
}

// strtoll / strtod skip leading blanks; trailing spaces and tabs load too,
// for both numeric types and for type inference.
TEST(CsvLoaderTest, NumbersAcceptSurroundingBlanks) {
  const Schema s({{"n", DataType::kInt64}, {"d", DataType::kDouble}});
  ASSERT_OK_AND_ASSIGN(Table t,
                       TableFromCsv("n,d\n 1,2.5 \n3 ,\t4\t\n 5 , 6 \n", s));
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.column(0).GetInt(0), 1);
  EXPECT_EQ(t.column(0).GetInt(1), 3);
  EXPECT_EQ(t.column(0).GetInt(2), 5);
  EXPECT_DOUBLE_EQ(t.column(1).GetDouble(0), 2.5);
  EXPECT_DOUBLE_EQ(t.column(1).GetDouble(1), 4.0);
  EXPECT_DOUBLE_EQ(t.column(1).GetDouble(2), 6.0);

  ASSERT_OK_AND_ASSIGN(Table inferred,
                       TableFromCsvInferred("n,d\n1 ,2.5 \n 2, 3.5\n"));
  EXPECT_EQ(inferred.schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(inferred.schema().field(1).type, DataType::kDouble);

  // Blanks alone, or inside the number, are still no number.
  EXPECT_FALSE(TableFromCsv("n,d\n ,1\n", s).ok());
  EXPECT_FALSE(TableFromCsv("n,d\n1 2,1\n", s).ok());
  EXPECT_FALSE(TableFromCsv("n,d\n1,1 .5\n", s).ok());
  ASSERT_OK_AND_ASSIGN(Table blanks, TableFromCsvInferred("v\n 7 x\n"));
  EXPECT_EQ(blanks.schema().field(0).type, DataType::kString);
}

TEST(CsvLoaderTest, CrlfAndTrailingNewlines) {
  const char* csv = "a\r\n1\r\n2\r\n";
  ASSERT_OK_AND_ASSIGN(Table t,
                       TableFromCsv(csv, Schema({{"a", DataType::kInt64}})));
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(CsvLoaderTest, NoHeader) {
  CsvOptions opts;
  opts.has_header = false;
  ASSERT_OK_AND_ASSIGN(
      Table t, TableFromCsv("1,x\n2,y\n", Schema({{"n", DataType::kInt64},
                                                  {"s", DataType::kString}}),
                            opts));
  EXPECT_EQ(t.num_rows(), 2u);
  ASSERT_OK_AND_ASSIGN(Table inferred, TableFromCsvInferred("1,x\n2,y\n", opts));
  EXPECT_EQ(inferred.schema().field(0).name, "col0");
  EXPECT_EQ(inferred.schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(inferred.schema().field(1).type, DataType::kString);
}

TEST(CsvLoaderTest, CustomDelimiter) {
  CsvOptions opts;
  opts.delimiter = ';';
  ASSERT_OK_AND_ASSIGN(
      Table t, TableFromCsv("a;b\n1;2\n", Schema({{"a", DataType::kInt64},
                                                  {"b", DataType::kInt64}}),
                            opts));
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(CsvLoaderTest, Errors) {
  Schema s = ExplicitSchema();
  // Wrong field count.
  EXPECT_FALSE(TableFromCsv("name,age,score\nonly,two\n", s).ok());
  // Type mismatch.
  EXPECT_FALSE(TableFromCsv("name,age,score\nal,notanint,1.0\n", s).ok());
  // Unterminated quote.
  EXPECT_FALSE(TableFromCsv("name,age,score\n\"open,1,2\n", s).ok());
  // Empty inferred input.
  EXPECT_FALSE(TableFromCsvInferred("").ok());
  // Missing file.
  EXPECT_FALSE(TableFromCsvFile("/no/such/file.csv", s).ok());
}

TEST(CsvLoaderTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/cvopt_loader.csv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs(kCsv, f);
  fclose(f);
  ASSERT_OK_AND_ASSIGN(Table t, TableFromCsvFile(path, ExplicitSchema()));
  EXPECT_EQ(t.num_rows(), 3u);
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, InferenceWidensBeyondSample) {
  // Row 101 is a string but inference only looks at 2 rows -> load fails
  // cleanly rather than mis-typing.
  CsvOptions opts;
  opts.inference_rows = 2;
  std::string csv = "v\n1\n2\nnot_a_number\n";
  EXPECT_FALSE(TableFromCsvInferred(csv, opts).ok());
}

TEST(CsvLoaderTest, TruncatedReadFailpointSurfacesCleanly) {
  // The csv.read fail point stands in for a truncated file read: the
  // loader must surface a clean typed Status (no crash, no partial table)
  // and recover fully once the fault clears.
  const std::string path = testing::TempDir() + "/cvopt_loader_fp.csv";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs(kCsv, f);
  fclose(f);
  ASSERT_OK(failpoint::SetForTesting("csv.read:error"));
  Result<Table> r = TableFromCsvFile(path, ExplicitSchema());
  failpoint::ClearForTesting();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  ASSERT_OK_AND_ASSIGN(Table t, TableFromCsvFile(path, ExplicitSchema()));
  EXPECT_EQ(t.num_rows(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cvopt
