#include "perfbench/common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>

#include "bench/harness.h"
#include "src/util/string_util.h"

namespace perfbench {

using cvopt::QueryResult;
using cvopt::StrFormat;
using cvopt::WireResult;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

cvopt::Table MakeOpenAq(uint64_t seed) {
  cvopt::OpenAqOptions o;
  o.num_rows = cvopt::bench::kOpenAqRows;
  o.seed = DeriveSeed(seed, kOpenAqStream);
  return cvopt::GenerateOpenAq(o);
}

cvopt::Table MakeBikes(uint64_t seed) {
  cvopt::BikesOptions o;
  o.num_rows = cvopt::bench::kBikesRows;
  o.seed = DeriveSeed(seed, kBikesStream);
  return cvopt::GenerateBikes(o);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Tally::Fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (messages_.size() < 5) messages_.push_back(what);
}

void Tally::Merge(const Tally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < 5) messages_.push_back(m);
  }
}

namespace {

// Groups, order, labels and key codes; values are left to the caller.
bool SameShape(const QueryResult& ref, const QueryResult& got,
               std::string* why) {
  if (ref.agg_labels() != got.agg_labels() ||
      ref.group_attrs() != got.group_attrs()) {
    *why = "aggregate labels or group attributes differ";
    return false;
  }
  if (ref.num_groups() != got.num_groups()) {
    *why = StrFormat("%zu groups, expected %zu", got.num_groups(),
                     ref.num_groups());
    return false;
  }
  for (size_t g = 0; g < ref.num_groups(); ++g) {
    if (ref.label(g) != got.label(g) ||
        ref.key_arity(g) != got.key_arity(g) ||
        std::memcmp(ref.key_codes(g), got.key_codes(g),
                    ref.key_arity(g) * sizeof(int64_t)) != 0) {
      *why = StrFormat("group %zu is '%s', expected '%s'", g,
                       got.label(g).c_str(), ref.label(g).c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

bool SameResultBits(const QueryResult& ref, const QueryResult& got,
                    std::string* why) {
  if (!SameShape(ref, got, why)) return false;
  for (size_t g = 0; g < ref.num_groups(); ++g) {
    for (size_t a = 0; a < ref.num_aggregates(); ++a) {
      const double x = ref.value(g, a), y = got.value(g, a);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) {
        *why = StrFormat("group '%s' aggregate %zu is %.17g, expected %.17g",
                         ref.label(g).c_str(), a, y, x);
        return false;
      }
    }
  }
  return true;
}

bool SameResultWithinTolerance(const QueryResult& ref, const QueryResult& got,
                               std::string* why) {
  if (!SameShape(ref, got, why)) return false;
  for (size_t g = 0; g < ref.num_groups(); ++g) {
    for (size_t a = 0; a < ref.num_aggregates(); ++a) {
      const double x = ref.value(g, a), y = got.value(g, a);
      if (std::isnan(x) && std::isnan(y)) continue;
      if (!(std::fabs(y - x) <=
            kFloatSumTolerance * std::max(1.0, std::fabs(x)))) {
        *why = StrFormat("group '%s' aggregate %zu is %.17g, expected %.17g",
                         ref.label(g).c_str(), a, y, x);
        return false;
      }
    }
  }
  return true;
}

bool SameWireResult(const WireResult& ref, const WireResult& got,
                    std::string* why) {
  if (ref.agg_labels != got.agg_labels) {
    *why = "aggregate labels differ";
    return false;
  }
  if (ref.group_labels != got.group_labels || ref.key_codes != got.key_codes) {
    *why = StrFormat("%zu groups, expected %zu, or their keys differ",
                     got.num_groups(), ref.num_groups());
    return false;
  }
  if (ref.value_bits != got.value_bits) {
    *why = "served values are not bit-identical";
    return false;
  }
  return true;
}

}  // namespace perfbench
