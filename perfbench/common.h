// Shared pieces of the end-to-end benchmark: run configuration, timing and
// percentile helpers, the output checks every workload applies to the
// answers it times, and the report a workload hands back to main().
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/query_result.h"
#include "src/server/protocol.h"
#include "src/table/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time used so far by all threads of this process. Unlike real time it
/// leaves out time spent waiting for a CPU, whether to other processes or,
/// on a virtual machine that accounts steal time, to other guests; so it is
/// what the gated metrics are measured in (see README.md, "Why the gated
/// metrics are CPU time").
double ProcessCpuSeconds();

/// Everything a workload receives from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // scratch files: v2 tables, the server socket
  std::string trace_dir;  // span files of traced runs
};

/// Independent 64-bit stream `stream` of the workload seed (SplitMix64), so
/// datasets, request sequences and sampler draws each get their own seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);
enum SeedStream : uint64_t {
  kOpenAqStream = 1,
  kBikesStream = 2,
  kQueryPoolStream = 3,
  kClientStream = 10,  // + client index
  kDrawStream = 100,   // + 16 * target index + draw index
};

/// The paper-scale synthetic tables (bench/harness.h sizes), generated from
/// the workload seed.
cvopt::Table MakeOpenAq(uint64_t seed);
cvopt::Table MakeBikes(uint64_t seed);

/// Linear-interpolated percentile (q in [0, 1]) of `v`; NaN when empty.
double Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Percentile `q` of one field over a set of replays.
template <class T>
double FieldPercentile(const std::vector<T>& reps, double T::*field,
                       double q) {
  std::vector<double> v;
  for (const T& r : reps) v.push_back(r.*field);
  return Percentile(std::move(v), q);
}

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counts attempted and failed operations; keeps the first few failure
/// messages for the log.
class Tally {
 public:
  void Ok() { ++attempted_; }
  void Fail(const std::string& what);
  void Merge(const Tally& other);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ---- Output checks --------------------------------------------------------
// Each returns true on a match and otherwise describes the first difference
// in *why.

/// Same groups in the same order, same labels and key codes, and
/// bit-identical values.
bool SameResultBits(const cvopt::QueryResult& ref,
                    const cvopt::QueryResult& got, std::string* why);

/// Same groups, order, labels and key codes; each value within the
/// engine's documented float-summation tolerance of the reference,
/// |got - ref| <= kFloatSumTolerance * max(1, |ref|).
inline constexpr double kFloatSumTolerance = 1e-9;
bool SameResultWithinTolerance(const cvopt::QueryResult& ref,
                               const cvopt::QueryResult& got,
                               std::string* why);

/// Wire results equal field by field, values compared as raw bits.
bool SameWireResult(const cvopt::WireResult& ref,
                    const cvopt::WireResult& got, std::string* why);

// ---- Reports ---------------------------------------------------------------

/// What one workload run hands back. `end_to_end` holds the metrics every
/// workload reports (BENCHMARK.json); `named` the workload's own named
/// end-to-end figures, printed for people; `per_layer` the traced run's
/// layer metrics.
struct WorkloadReport {
  std::vector<double> setup_seconds;      // real time, one per repetition
  std::vector<double> setup_cpu_seconds;  // process CPU time, likewise
  MetricMap end_to_end;
  MetricMap named;
  MetricMap per_layer;
  Tally tally;
};

/// Builds the workload state `kSetUpRepeats` times from scratch, timing each
/// build in real and CPU time, and keeps the last one. Set-up time is
/// reported as the median.
inline constexpr int kSetUpRepeats = 5;
template <class State>
std::unique_ptr<State> SetUpRepeated(
    const std::function<std::unique_ptr<State>()>& build,
    WorkloadReport* report) {
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetUpRepeats; ++i) {
    state.reset();  // tear the previous copy down before timing the next
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    state = build();
    report->setup_cpu_seconds.push_back(ProcessCpuSeconds() - cpu_start);
    report->setup_seconds.push_back(SecondsSince(start));
  }
  return state;
}

/// Workload entry points (one file each).
WorkloadReport RunServeApprox(const RunConfig& config);
WorkloadReport RunExactScan(const RunConfig& config);
WorkloadReport RunBuildAndScore(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
