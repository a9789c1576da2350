// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each public call it makes into an engine layer in a
// ScopedSpan named "<layer>.<call>" (for example "exec.group_index"). A span
// records its name, start, end, the span open on the same thread when it
// began (its parent) and a request id shared by the spans of one request.
// Spans stay in memory until the run ends; then the run reports each
// layer's self time (a span's duration minus the part its children cover)
// and writes the spans out as a Chrome trace-event file.
//
// With recording off a ScopedSpan is only a stopwatch, so the untraced and
// traced loops run the same code and their difference is the cost of
// recording.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: a root span
  uint64_t request = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-span-name totals over every recorded span.
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0;  // summed durations
  double self_s = 0;   // summed durations minus child coverage
};

class Tracer {
 public:
  /// Recording is off until enabled; spans begun while off are not kept.
  void SetRecording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  std::vector<SpanRecord> Spans() const;
  size_t num_spans() const;

  /// Totals keyed by span name.
  std::map<std::string, SpanTotals> TotalsByName() const;
  /// Self time keyed by layer (the span name up to its first '.').
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span as a Chrome trace-event JSON file.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class ScopedSpan;
  void Record(const SpanRecord& span);
  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<bool> recording_{false};
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Times one call; records it in `tracer` when recording is on. Must be
/// destroyed on the thread that created it (spans nest per thread).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0);
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early and returns its duration in seconds; later calls
  /// return the same duration.
  double Close();

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  Clock::time_point start_;
  bool recording_ = false;
  bool closed_ = false;
  double seconds_ = 0;
};

/// A stage replay's stage times must add up to the whole call's time to
/// within this share; PrintStageCoverage reports whether they do.
inline constexpr double kStageCoverageTolerance = 0.2;
void PrintStageCoverage(const char* metric, double coverage);

/// Prints the tracer's per-span totals and per-layer self times, and writes
/// its spans to <config.trace_dir>/<workload>-seed<seed>-<tag>.json. A
/// replay whose spans re-run overlapping work (a whole call next to its
/// stages) passes the per-layer self times it derived in `layer_self_s`
/// instead.
void PrintTrace(const std::string& title, const Tracer& tracer,
                const RunConfig& config, const std::string& tag,
                const std::map<std::string, double>& layer_self_s = {});

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
