// Fuzz-style robustness tests for the AqpServer wire codecs: every payload
// a peer can send — truncated, bit-flipped, or announcing absurd item
// counts — must decode to a clean InvalidArgument (or, for a flip that
// still spells a well-formed message, to a message that re-encodes and
// decodes to itself), never abort, throw std::bad_alloc, or read out of
// bounds. Counts are checked against the bytes left before anything is
// sized from them, so a tiny hostile frame cannot drive a large
// allocation. The loops are exhaustive over small payloads so the ASan/UBSan
// pass of tools/run_sanitizers.sh sweeps every decoder branch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "src/server/protocol.h"
#include "tests/test_util.h"

namespace cvopt {
namespace {

// Largest single operator-new request since the last reset. A decoder that
// sizes a container from an unchecked wire count shows up here long before
// it would show up as a crash.
std::atomic<size_t> g_largest_alloc{0};

template <typename Fn>
size_t LargestAllocationDuring(Fn&& fn) {
  g_largest_alloc.store(0);
  fn();
  return g_largest_alloc.load();
}

}  // namespace
}  // namespace cvopt

void* operator new(size_t n) {
  size_t prev = cvopt::g_largest_alloc.load(std::memory_order_relaxed);
  while (n > prev && !cvopt::g_largest_alloc.compare_exchange_weak(prev, n)) {
  }
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

// No hostile payload below may make the decoder ask for more than this in
// one allocation: every payload here is under 100 bytes.
constexpr size_t kMaxDecodeAlloc = 64 << 10;

// ---- payload construction by hand, for frames no encoder would emit.

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

template <typename T>
void PutInt(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void PutString(std::string* out, const std::string& s) {
  PutInt<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// A query-batch request header up to (and including) the query count.
std::string RequestHeader(uint32_t count) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MessageKind::kQueryBatch));
  PutInt<uint64_t>(&p, 7);   // request id
  PutString(&p, "");         // tenant
  PutInt<uint32_t>(&p, 0);   // timeout_ms
  PutInt<uint64_t>(&p, 0);   // memory_limit_bytes
  PutInt<uint32_t>(&p, count);
  return p;
}

// A query-batch response header with one OK item, up to (and including)
// the item's aggregate count.
std::string ResponseHeader(uint32_t aggs) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MessageKind::kQueryBatch));
  PutInt<uint64_t>(&p, 7);  // request id
  PutInt<uint32_t>(&p, 1);  // one result
  PutU8(&p, 0);             // StatusCode::kOk
  PutString(&p, "");        // status message
  PutU8(&p, static_cast<uint8_t>(ServedFrom::kCatalogHit));
  PutInt<uint32_t>(&p, aggs);
  return p;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

RequestEnvelope SampleRequest() {
  RequestEnvelope req;
  req.request_id = 0x0123456789abcdefULL;
  req.tenant = "tenant-a";
  req.timeout_ms = 2500;
  req.memory_limit_bytes = 1 << 20;
  QueryRequestItem approx;
  approx.sql = "SELECT g, AVG(v) FROM t WHERE v > 1 GROUP BY g";
  approx.sample_rate = 0.01;
  QueryRequestItem exact;
  exact.sql = "SELECT COUNT(*) FROM t";
  exact.exact = true;
  QueryRequestItem empty;  // empty SQL still travels
  req.queries = {approx, exact, empty};
  return req;
}

ResponseEnvelope SampleResponse() {
  ResponseEnvelope resp;
  resp.request_id = 42;
  QueryResponseItem ok;
  ok.served_from = ServedFrom::kCatalogBuild;
  ok.result.agg_labels = {"AVG(v)", "SUM(v)"};
  ok.result.group_labels = {"US|pm25", "", "FR|o3"};
  ok.result.key_codes = {{3, -1}, {}, {std::numeric_limits<int64_t>::min(), 9}};
  ok.result.value_bits = {Bits(1.5),  Bits(-0.0),
                          Bits(2.0),  Bits(std::numeric_limits<double>::quiet_NaN()),
                          Bits(1e300), Bits(-7.25)};
  QueryResponseItem failed;
  failed.status = Status::DeadlineExceeded("deadline exceeded after 5 ms");
  failed.served_from = ServedFrom::kExact;
  QueryResponseItem no_groups;  // OK with zero groups and zero aggregates
  no_groups.served_from = ServedFrom::kCatalogHit;
  resp.results = {ok, failed, no_groups};
  return resp;
}

void ExpectSameRequest(const RequestEnvelope& a, const RequestEnvelope& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.timeout_ms, b.timeout_ms);
  EXPECT_EQ(a.memory_limit_bytes, b.memory_limit_bytes);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].sql, b.queries[i].sql);
    EXPECT_EQ(a.queries[i].exact, b.queries[i].exact);
    EXPECT_EQ(Bits(a.queries[i].sample_rate), Bits(b.queries[i].sample_rate));
  }
}

void ExpectSameResponse(const ResponseEnvelope& a, const ResponseEnvelope& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.metrics_text, b.metrics_text);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    const QueryResponseItem& x = a.results[i];
    const QueryResponseItem& y = b.results[i];
    EXPECT_EQ(x.status.code(), y.status.code());
    EXPECT_EQ(x.status.message(), y.status.message());
    EXPECT_EQ(x.served_from, y.served_from);
    EXPECT_EQ(x.result.agg_labels, y.result.agg_labels);
    EXPECT_EQ(x.result.group_labels, y.result.group_labels);
    EXPECT_EQ(x.result.key_codes, y.result.key_codes);
    EXPECT_EQ(x.result.value_bits, y.result.value_bits);
  }
}

// ---- round trips, including the control messages and zero counts.

TEST(ProtocolFuzzTest, RequestRoundTrips) {
  std::vector<RequestEnvelope> reqs = {SampleRequest(), RequestEnvelope{}};
  RequestEnvelope metrics;
  metrics.kind = MessageKind::kMetrics;
  metrics.request_id = 3;
  RequestEnvelope shutdown;
  shutdown.kind = MessageKind::kShutdown;
  reqs.push_back(metrics);
  reqs.push_back(shutdown);
  for (const RequestEnvelope& req : reqs) {
    std::string payload;
    EncodeRequest(req, &payload);
    ASSERT_OK_AND_ASSIGN(RequestEnvelope back, DecodeRequest(payload));
    ExpectSameRequest(req, back);
  }
}

TEST(ProtocolFuzzTest, ResponseRoundTrips) {
  std::vector<ResponseEnvelope> resps = {SampleResponse(), ResponseEnvelope{}};
  ResponseEnvelope metrics;
  metrics.kind = MessageKind::kMetrics;
  metrics.metrics_text = "cvopt_queries_total 3\n";
  ResponseEnvelope shutdown;
  shutdown.kind = MessageKind::kShutdown;
  resps.push_back(metrics);
  resps.push_back(shutdown);
  for (const ResponseEnvelope& resp : resps) {
    std::string payload;
    EncodeResponse(resp, &payload);
    ASSERT_OK_AND_ASSIGN(ResponseEnvelope back, DecodeResponse(payload));
    ExpectSameResponse(resp, back);
  }
}

// ---- every truncation: a strict prefix of a valid message is never valid.

TEST(ProtocolFuzzTest, EveryRequestTruncationIsInvalidArgument) {
  std::string payload;
  EncodeRequest(SampleRequest(), &payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    const Result<RequestEnvelope> r = DecodeRequest(payload.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << len;
  }
}

TEST(ProtocolFuzzTest, EveryResponseTruncationIsInvalidArgument) {
  std::string payload;
  EncodeResponse(SampleResponse(), &payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    const Result<ResponseEnvelope> r = DecodeResponse(payload.substr(0, len));
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << len;
  }
}

// ---- every single-byte flip: each position XORed with every nonzero mask.
// A flip inside a string or a value may still spell a well-formed message;
// then it must be a fixed point of encode/decode. Anything else must be
// InvalidArgument.

TEST(ProtocolFuzzTest, EveryRequestByteFlipDecodesCleanly) {
  std::string payload;
  EncodeRequest(SampleRequest(), &payload);
  size_t rejected = 0;
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    for (int mask = 1; mask < 256; ++mask) {
      std::string flipped = payload;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      const Result<RequestEnvelope> r = DecodeRequest(flipped);
      if (!r.ok()) {
        ASSERT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << "pos " << pos << " mask " << mask << ": " << r.status().ToString();
        ++rejected;
        continue;
      }
      std::string again;
      EncodeRequest(r.value(), &again);
      ASSERT_OK_AND_ASSIGN(RequestEnvelope back, DecodeRequest(again));
      ExpectSameRequest(r.value(), back);
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ProtocolFuzzTest, EveryResponseByteFlipDecodesCleanly) {
  std::string payload;
  EncodeResponse(SampleResponse(), &payload);
  size_t rejected = 0;
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    for (int mask = 1; mask < 256; ++mask) {
      std::string flipped = payload;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      const Result<ResponseEnvelope> r = DecodeResponse(flipped);
      if (!r.ok()) {
        ASSERT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << "pos " << pos << " mask " << mask << ": " << r.status().ToString();
        ++rejected;
        continue;
      }
      std::string again;
      EncodeResponse(r.value(), &again);
      ASSERT_OK_AND_ASSIGN(ResponseEnvelope back, DecodeResponse(again));
      ExpectSameResponse(r.value(), back);
    }
  }
  EXPECT_GT(rejected, 0u);
}

// ---- oversized counts: rejected before anything is sized from them.

TEST(ProtocolFuzzTest, OversizedRequestCountIsRejectedUpFront) {
  // 29 bytes announcing 8M queries.
  const std::string hostile = RequestHeader(8u << 20);
  ASSERT_EQ(hostile.size(), 29u);
  for (uint32_t count : {1u, 2u, 8u << 20, 0xffffffffu}) {
    StatusCode code = StatusCode::kOk;
    const size_t largest = LargestAllocationDuring(
        [&] { code = DecodeRequest(RequestHeader(count)).status().code(); });
    EXPECT_EQ(code, StatusCode::kInvalidArgument) << count;
    EXPECT_LE(largest, kMaxDecodeAlloc) << count;
  }
  // A count one above what the remaining bytes can hold: 13 bytes is one
  // minimal query (flag, rate, empty SQL), so 13 bytes cannot hold two.
  std::string tight = RequestHeader(2);
  tight.append(13, '\0');
  EXPECT_EQ(DecodeRequest(tight).status().code(), StatusCode::kInvalidArgument);
  std::string one = RequestHeader(1);
  one.append(13, '\0');
  ASSERT_OK_AND_ASSIGN(RequestEnvelope req, DecodeRequest(one));
  ASSERT_EQ(req.queries.size(), 1u);
  EXPECT_TRUE(req.queries[0].sql.empty());
  // Zero queries is a valid (empty) batch.
  ASSERT_OK_AND_ASSIGN(RequestEnvelope none, DecodeRequest(RequestHeader(0)));
  EXPECT_TRUE(none.queries.empty());
}

TEST(ProtocolFuzzTest, OversizedResponseCountsAreRejectedUpFront) {
  // 27 bytes announcing 2^30 aggregate labels.
  std::string aggs = ResponseHeader(1u << 30);
  PutString(&aggs, "");
  ASSERT_EQ(aggs.size(), 27u);

  // A huge result count.
  std::string results;
  PutU8(&results, static_cast<uint8_t>(MessageKind::kQueryBatch));
  PutInt<uint64_t>(&results, 7);
  PutInt<uint32_t>(&results, 0xffffffffu);

  // A huge group count behind a sane aggregate list: each group needs at
  // least a label, an arity and one value per aggregate.
  std::string groups = ResponseHeader(1);
  PutString(&groups, "AVG(v)");
  PutInt<uint32_t>(&groups, 0xffffffffu);
  groups.append(64, '\0');

  // A huge key arity inside one group.
  std::string arity = ResponseHeader(0);
  PutInt<uint32_t>(&arity, 1);      // one group
  PutString(&arity, "g");
  PutInt<uint16_t>(&arity, 0xffff);  // 65535 codes announced, none sent

  for (const std::string* hostile : {&aggs, &results, &groups, &arity}) {
    StatusCode code = StatusCode::kOk;
    const size_t largest = LargestAllocationDuring(
        [&] { code = DecodeResponse(*hostile).status().code(); });
    EXPECT_EQ(code, StatusCode::kInvalidArgument) << hostile->size();
    EXPECT_LE(largest, kMaxDecodeAlloc) << hostile->size();
  }

  // Zero aggregates and zero groups decode to an empty result.
  std::string zero = ResponseHeader(0);
  PutInt<uint32_t>(&zero, 0);
  ASSERT_OK_AND_ASSIGN(ResponseEnvelope resp, DecodeResponse(zero));
  ASSERT_EQ(resp.results.size(), 1u);
  EXPECT_EQ(resp.results[0].result.num_groups(), 0u);
  EXPECT_EQ(resp.results[0].result.num_aggregates(), 0u);
}

TEST(ProtocolFuzzTest, UnknownEnumBytesAreRejected) {
  std::string payload;
  EncodeResponse(SampleResponse(), &payload);
  // Byte 13 is the first item's status code, the byte after its (empty)
  // message is served_from.
  std::string bad_code = payload;
  bad_code[13] = static_cast<char>(200);
  EXPECT_EQ(DecodeResponse(bad_code).status().code(),
            StatusCode::kInvalidArgument);
  std::string bad_served = payload;
  bad_served[18] = static_cast<char>(9);
  EXPECT_EQ(DecodeResponse(bad_served).status().code(),
            StatusCode::kInvalidArgument);
  std::string bad_kind = payload;
  bad_kind[0] = static_cast<char>(0);
  EXPECT_EQ(DecodeResponse(bad_kind).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolFuzzTest, TrailingBytesAreRejected) {
  std::string req;
  EncodeRequest(SampleRequest(), &req);
  std::string resp;
  EncodeResponse(SampleResponse(), &resp);
  RequestEnvelope metrics;
  metrics.kind = MessageKind::kMetrics;
  std::string control;
  EncodeRequest(metrics, &control);
  for (std::string* p : {&req, &resp, &control}) p->push_back('\0');
  EXPECT_EQ(DecodeRequest(req).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeResponse(resp).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeRequest(control).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cvopt
