// Fuzz-style robustness tests for the CSV loader: every text a caller can
// hand TableFromCsv / TableFromCsvInferred — truncated, byte-flipped,
// ragged, overflowing — must load to a table or fail with a clean
// InvalidArgument, never crash, throw, or read out of bounds. The loops are
// exhaustive over a small typed corpus so the ASan/UBSan pass of
// tools/run_sanitizers.sh sweeps every loader branch.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/table/csv_loader.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

struct CsvCase {
  std::string text;
  Schema schema;
  CsvOptions options;
};

Schema Typed() {
  return Schema({{"name", DataType::kString},
                 {"age", DataType::kInt64},
                 {"score", DataType::kDouble}});
}

CsvOptions NoHeader() {
  CsvOptions o;
  o.has_header = false;
  return o;
}

CsvOptions Semicolons() {
  CsvOptions o;
  o.delimiter = ';';
  o.inference_rows = 2;
  return o;
}

// Each case loads cleanly as written, so mutations start from valid input
// and land on both sides of every check.
std::vector<CsvCase> Corpus() {
  return {
      {"name,age,score\nalice,30,1.5\nbob,-25,2.25e1\ncarol,41,.75\n",
       Typed(), {}},
      // Quoted fields: delimiters, escaped quotes, empty quoted strings.
      {"name,age,score\n\"x,y\",1,2\n\"say \"\"hi\"\"\",2,3\n\"\",3,4\n",
       Typed(), {}},
      // Empty string fields, CRLF endings, no trailing newline.
      {"name,age,score\r\n,7,0\r\nz,8,-0.0\r\n,9,1e-3", Typed(), {}},
      // Numeric extremes: the int64 range ends and large finite doubles.
      {"name,age,score\nmin,-9223372036854775808,1.7976931348623157e308\n"
       "max,9223372036854775807,-1e300\n",
       Typed(), {}},
      // No header, and a blank line between rows.
      {"1,x\n\n2,y\n", Schema({{"a", DataType::kInt64},
                                 {"b", DataType::kString}}),
       NoHeader()},
      // Quoted line breaks (\n and \r\n) inside string fields.
      {"name,age,score\n\"two\nlines\",1,2\n\"crlf\r\nx\",3,4.5\n",
       Typed(), {}},
      // A custom delimiter, and inference from only the first two rows.
      {"k;v\n1;2.5\n2;3\n3;4\n", Schema({{"k", DataType::kInt64},
                                          {"v", DataType::kDouble}}),
       Semicolons()},
  };
}

// OK or InvalidArgument; a loaded table is rectangular and renders.
void ExpectCleanLoad(const Result<Table>& r, const std::string& text) {
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    return;
  }
  for (size_t c = 0; c < r->num_columns(); ++c) {
    EXPECT_EQ(r->column(c).size(), r->num_rows()) << text;
  }
  EXPECT_FALSE(r->ToString(3).empty());
}

void ExpectCleanLoads(const CsvCase& c, const std::string& text) {
  ExpectCleanLoad(TableFromCsv(text, c.schema, c.options), text);
  ExpectCleanLoad(TableFromCsvInferred(text, c.options), text);
}

TEST(CsvLoaderFuzzTest, CorpusLoads) {
  for (const CsvCase& c : Corpus()) {
    EXPECT_TRUE(TableFromCsv(c.text, c.schema, c.options).ok()) << c.text;
    EXPECT_TRUE(TableFromCsvInferred(c.text, c.options).ok()) << c.text;
  }
}

TEST(CsvLoaderFuzzTest, EveryTruncationLoadsCleanly) {
  for (const CsvCase& c : Corpus()) {
    for (size_t len = 0; len < c.text.size(); ++len) {
      ExpectCleanLoads(c, c.text.substr(0, len));
    }
  }
}

// Every byte position XORed with each mask: the single bits (digits into
// letters and signs, delimiters, quotes and newlines appearing or
// vanishing, NUL bytes), the complement (high bytes), and the nibbles.
TEST(CsvLoaderFuzzTest, EveryByteFlipLoadsCleanly) {
  const int kMasks[] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20,
                        0x40, 0x80, 0xFF, 0x0F, 0xF0};
  for (const CsvCase& c : Corpus()) {
    for (size_t pos = 0; pos < c.text.size(); ++pos) {
      for (int mask : kMasks) {
        std::string flipped = c.text;
        flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
        ExpectCleanLoads(c, flipped);
      }
    }
  }
}

// Inputs no corpus mutation reaches: fields past the type's range, rows of
// the wrong width, unterminated quotes, and degenerate texts.
TEST(CsvLoaderFuzzTest, HostileInputsFailCleanly) {
  const Schema typed = Typed();
  const std::string header = "name,age,score\n";
  for (const std::string& row :
       {"a,9223372036854775808,1\n", "a,-9223372036854775809,1\n",
        "a,99999999999999999999999,1\n", "a,1,1e999\n", "a,1,-1e999\n",
        "a,1,1e-400\n", "a,1\n", "a,1,2,3\n", "\"a,1,2\n", "a\"b\",1,2\n",
        "a,,2\n", "a,1,\n", "a, 1,2\n", ",,\n"}) {
    const std::string text = header + row;
    ExpectCleanLoad(TableFromCsv(text, typed), text);
    ExpectCleanLoad(TableFromCsvInferred(text), text);
  }
  for (const std::string& text :
       {std::string(), std::string("\n"), std::string("\r\n\r\n"),
        std::string(","), std::string("\""), std::string(1, '\0'),
        std::string("a,a\n1,2\n"), std::string(4096, ',') + "\n"}) {
    ExpectCleanLoad(TableFromCsv(text, typed), text);
    ExpectCleanLoad(TableFromCsvInferred(text), text);
    ExpectCleanLoad(TableFromCsvInferred(text, NoHeader()), text);
  }
}

// Inference over every row: an inference_rows of SIZE_MAX once wrapped the
// end of the inference window to zero rows, typing every column int64.
TEST(CsvLoaderFuzzTest, InferenceOverEveryRow) {
  CsvOptions all;
  all.inference_rows = std::numeric_limits<size_t>::max();
  ASSERT_OK_AND_ASSIGN(Table t, TableFromCsvInferred("s,n\nabc,1\n", all));
  EXPECT_EQ(t.schema().field(0).type, DataType::kString);
  EXPECT_EQ(t.schema().field(1).type, DataType::kInt64);
  all.has_header = false;
  ASSERT_OK_AND_ASSIGN(Table u, TableFromCsvInferred("abc,1\n", all));
  EXPECT_EQ(u.schema().field(0).type, DataType::kString);
}

// A path that opens but is no regular file: a directory used to size its
// read buffer from an lseek artifact and abort on std::length_error.
TEST(CsvLoaderFuzzTest, DirectoryPathFailsCleanly) {
  const Result<Table> r = TableFromCsvFile(testing::TempDir(), Typed());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

}  // namespace
}  // namespace cvopt
