#include "perfbench/trace.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

int64_t NanosSinceEpoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

// Open recorded spans of the calling thread, innermost last.
thread_local std::vector<uint32_t> open_spans;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  recording_ = tracer_ != nullptr && tracer_->recording();
  if (recording_) {
    rec_.name = name;
    rec_.id = tracer_->NextId();
    rec_.parent = open_spans.empty() ? 0 : open_spans.back();
    rec_.request = request;
    rec_.thread = ThreadIndex();
    open_spans.push_back(rec_.id);
  }
  start_ = Clock::now();
}

double ScopedSpan::Close() {
  if (closed_) return seconds_;
  const Clock::time_point end = Clock::now();
  closed_ = true;
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (recording_) {
    open_spans.pop_back();
    rec_.start_ns = NanosSinceEpoch(start_);
    rec_.end_ns = NanosSinceEpoch(end);
    tracer_->Record(rec_);
  }
  return seconds_;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanTotals> Tracer::TotalsByName() const {
  const std::vector<SpanRecord> spans = Spans();
  std::unordered_map<uint32_t, double> child_s;  // parent id -> covered time
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_s[s.parent] += s.seconds();
  }
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_s += s.seconds();
    const auto it = child_s.find(s.id);
    t.self_s += s.seconds() - (it == child_s.end() ? 0.0 : it->second);
  }
  return totals;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::map<std::string, double> layers;
  for (const auto& [name, t] : TotalsByName()) {
    layers[name.substr(0, name.find('.'))] += t.self_s;
  }
  return layers;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  const std::vector<SpanRecord> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%llu}}%s\n",
                 s.name, s.thread, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                 s.parent, static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

void PrintStageCoverage(const char* metric, double coverage) {
  std::printf("%s %.3f (accepted range 1 +/- %.2f): %s\n", metric, coverage,
              kStageCoverageTolerance,
              std::fabs(coverage - 1) <= kStageCoverageTolerance ? "within"
                                                                 : "OUTSIDE");
}

void PrintTrace(const std::string& title, const Tracer& tracer,
                const RunConfig& config, const std::string& tag,
                const std::map<std::string, double>& layer_self_s) {
  const std::string path = config.trace_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-" + tag + ".json";
  const bool written = tracer.WriteChromeTrace(path);
  std::printf("trace (%s): %zu spans, %s %s\n", title.c_str(),
              tracer.num_spans(), written ? "written to" : "NOT written to",
              path.c_str());
  std::printf("  %-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : tracer.TotalsByName()) {
    std::printf("  %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s * 1e3,
                t.self_s * 1e3);
  }
  const std::map<std::string, double> layers =
      layer_self_s.empty() ? tracer.SelfSecondsByLayer() : layer_self_s;
  double total = 0;
  for (const auto& [layer, s] : layers) total += s;
  std::printf("  layer self time:");
  for (const auto& [layer, s] : layers) {
    std::printf(" %s %.1f ms (%.1f%%)", layer.c_str(), s * 1e3,
                total > 0 ? 100 * s / total : 0.0);
  }
  std::printf("\n");
}

}  // namespace perfbench
