// Fuzz-style robustness tests for the SQL front end: every statement a
// client can send — truncated, byte-flipped, or nested past the depth
// limit — must parse to a query or fail with a clean InvalidArgument,
// never crash, throw, or read out of bounds. The server parses request SQL
// on its pipeline workers, so a parser crash takes the whole server down.
// The loops are exhaustive over the corpus (tests/sql_corpus.h) so the
// ASan/UBSan pass of tools/run_sanitizers.sh sweeps every parser branch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/sql/parser.h"
#include "tests/sql_corpus.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// Bytes requested from operator new since the last reset. The server
// parses request SQL on its pipeline workers, so a parser whose memory
// grows with the statement lets one large frame exhaust the process.
std::atomic<size_t> g_allocated{0};

template <typename Fn>
size_t BytesAllocatedDuring(Fn&& fn) {
  g_allocated.store(0);
  fn();
  return g_allocated.load();
}

}  // namespace
}  // namespace cvopt

void* operator new(size_t n) {
  cvopt::g_allocated.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace cvopt {
namespace {

// The corpus plus statements at the depth limit, so mutations land on both
// sides of it.
std::vector<std::string> FuzzCorpus() {
  std::vector<std::string> corpus = PaperAppendixQueries();
  corpus.insert(corpus.end(), SqlParserCorpus().begin(),
                SqlParserCorpus().end());
  // kMaxPredicateDepth deep: half nesting, half an AND/OR chain.
  const int h = kMaxPredicateDepth / 2;
  std::string chain = "a=1";
  for (int i = 1; i < kMaxPredicateDepth - h; ++i) {
    chain += i % 2 == 0 ? " AND a<1" : " OR b IN(1)";
  }
  corpus.push_back("SELECT COUNT(*) FROM t WHERE " + std::string(h, '(') +
                   chain + std::string(h, ')'));
  std::string nots;
  for (int i = 1; i < kMaxPredicateDepth; ++i) nots += "NOT ";
  corpus.push_back("SELECT COUNT_IF(" + nots + "v>0) FROM t");
  return corpus;
}

// OK or InvalidArgument; a parsed predicate also renders and fingerprints
// (both walk the tree recursively).
void ExpectCleanParse(const std::string& sql) {
  const Result<ParsedQuery> r = ParseSql(sql);
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    return;
  }
  if (r->query.where != nullptr) {
    EXPECT_FALSE(r->query.where->ToString().empty());
    r->query.where->Fingerprint();
  }
  for (const AggSpec& a : r->query.aggregates) {
    EXPECT_FALSE(a.Label().empty());
  }
}

TEST(SqlParserFuzzTest, CorpusParses) {
  for (const auto& sql : FuzzCorpus()) {
    EXPECT_TRUE(ParseSql(sql).ok()) << sql;
  }
}

TEST(SqlParserFuzzTest, EveryTruncationParsesCleanly) {
  for (const auto& sql : FuzzCorpus()) {
    for (size_t len = 0; len < sql.size(); ++len) {
      ExpectCleanParse(sql.substr(0, len));
    }
  }
}

// Every byte position XORed with each mask: the single bits (case flips,
// digits into letters, quotes and parentheses appearing or vanishing),
// the complement (high bytes), and the low and high nibbles.
TEST(SqlParserFuzzTest, EveryByteFlipParsesCleanly) {
  const int kMasks[] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20,
                        0x40, 0x80, 0xFF, 0x0F, 0xF0};
  for (const auto& sql : FuzzCorpus()) {
    for (size_t pos = 0; pos < sql.size(); ++pos) {
      for (int mask : kMasks) {
        std::string flipped = sql;
        flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
        ExpectCleanParse(flipped);
      }
    }
  }
}

// Literals the lexer accepts but no column type holds exactly: an integral
// literal past the int64 range compares as a double instead of wrapping.
TEST(SqlParserFuzzTest, OutOfRangeLiteralsParseCleanly) {
  for (const char* lit : {"9223372036854775807", "9223372036854775808",
                          "99999999999999999999999", "1e308", "1e999"}) {
    ExpectCleanParse(std::string("SELECT COUNT(*) FROM t WHERE a = ") + lit);
  }
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery p, ParseSql("SELECT COUNT(*) FROM t WHERE a = 1" +
                              std::string(30, '0')));
  EXPECT_EQ(p.query.where->ToString(), "a = 1000000000000000019884624838656.0");
}

// Statements far past the depth limit are rejected with memory bounded by
// a small multiple of their length, counting every byte allocated while
// parsing (not just the peak): the lexer hands the parser one token at a
// time instead of materializing them all.
TEST(SqlParserFuzzTest, OversizedStatementsAllocateLittle) {
  constexpr size_t kMaxBytesPerInputByte = 2;
  std::string chain = "SELECT COUNT(*) FROM t WHERE a = 1";
  for (int i = 1; i < 100'000; ++i) chain += " AND a = 1";
  const std::vector<std::string> inputs = {
      "SELECT COUNT(*) FROM t WHERE " + std::string(2 << 20, '('),
      std::string(2 << 20, '('), chain};
  for (const std::string& sql : inputs) {
    Result<ParsedQuery> r = Status::Internal("unset");
    const size_t bytes = BytesAllocatedDuring([&] { r = ParseSql(sql); });
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_LE(bytes, kMaxBytesPerInputByte * sql.size()) << sql.size();
  }
  // A lexical error after the point where parsing fails still wins, as
  // when the whole statement was lexed before parsing.
  const Result<ParsedQuery> late =
      ParseSql("SELECT COUNT(*) FROM t WHERE " + std::string(1000, '(') + "$");
  EXPECT_EQ(late.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(late.status().message().find("unexpected character"),
            std::string::npos)
      << late.status().ToString();
}

}  // namespace
}  // namespace cvopt
