// End-to-end benchmark of the CVOPT engine. Runs one workload for a fixed
// time and prints, last on stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics every workload
// shares; traced runs (--trace 1) report the per-layer metrics the
// workload's layers reach. Normally started through perfbench/run.py, which
// builds this binary first and completes the result against BENCHMARK.json.
//
//   perfbench --workload <serve_approx|exact_scan|build_and_score>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --trace-dir <dir>
//             [--git-head <sha>] [--git-dirty <0|1|unknown>]
//             [--source-digest <hex>]
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/common.h"
#include "src/exec/parallel.h"
#include "src/util/simd.h"

namespace perfbench {
namespace {

std::string ReadCpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string SimdFlags() {
  static const std::set<std::string> wanted = {
      "sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512bw",
      "avx512vl", "asimd", "sve"};
  std::istringstream flags(ReadCpuInfoField("flags") + " " +
                           ReadCpuInfoField("Features"));
  std::string f, out;
  while (flags >> f) {
    if (wanted.count(f) != 0 && out.find(f + " ") == std::string::npos) {
      out += f + " ";
    }
  }
  if (!out.empty()) out.pop_back();
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void PrintProvenance(const std::map<std::string, std::string>& args) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  auto arg = [&](const char* k) {
    const auto it = args.find(k);
    return it == args.end() ? std::string("unknown") : it->second;
  };
  std::printf(
      "provenance {\"git_head\": %s, \"git_dirty\": %s, \"source_digest\": "
      "%s, \"nproc\": %u, \"affinity_cpus\": %d, \"engine_threads\": %zu, "
      "\"cpu_model\": %s, \"cpu_simd_flags\": %s, \"simd_backend\": %s, "
      "\"build_type\": %s, \"compiler\": %s}\n",
      JsonString(arg("--git-head")).c_str(),
      JsonString(arg("--git-dirty")).c_str(),
      JsonString(arg("--source-digest")).c_str(),
      std::thread::hardware_concurrency(), affinity, cvopt::ResolveThreads(),
      JsonString(ReadCpuInfoField("model name")).c_str(),
      JsonString(SimdFlags()).c_str(),
      JsonString(cvopt::simd::BackendName()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(__VERSION__).c_str());
}

void PrintMetrics(const char* title, const MetricMap& metrics) {
  std::printf("%s:\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_approx|exact_scan|"
               "build_and_score> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> --trace-dir <dir>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  static const std::set<std::string> required = {
      "--workload", "--seed", "--seconds", "--trace", "--work-dir",
      "--trace-dir"};
  for (const std::string& k : required) {
    if (args.count(k) == 0) return Usage();
  }
  RunConfig config;
  config.workload = args["--workload"];
  config.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  config.seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  config.trace = args["--trace"] == "1";
  config.work_dir = args["--work-dir"];
  config.trace_dir = args["--trace-dir"];
  if (!(config.seconds > 0)) return Usage();

  WorkloadReport (*run)(const RunConfig&) = nullptr;
  if (config.workload == "serve_approx") run = RunServeApprox;
  if (config.workload == "exact_scan") run = RunExactScan;
  if (config.workload == "build_and_score") run = RunBuildAndScore;
  if (run == nullptr) return Usage();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  PrintProvenance(args);
  std::fflush(stdout);

  WorkloadReport report = run(config);
  report.end_to_end["setup_s"] = {Percentile(report.setup_cpu_seconds, 0.5),
                                  "s"};
  Tally& tally = report.tally;
  MetricMap& out = config.trace ? report.per_layer : report.end_to_end;
  for (auto& [name, m] : out) {
    if (!std::isfinite(m.value)) {
      tally.Fail("metric " + name + " was not measured");
      m.value = 0;
    }
  }
  report.named["setup_s"] = report.end_to_end["setup_s"];
  report.named["setup_wall_s"] = {Percentile(report.setup_seconds, 0.5), "s"};
  report.named["failed_frac"] = {
      tally.attempted() == 0 ? 1.0
                             : static_cast<double>(tally.failed()) /
                                   static_cast<double>(tally.attempted()),
      "ratio"};

  std::printf("set-up runs, real time (s):");
  for (double s : report.setup_seconds) std::printf(" %.3f", s);
  std::printf("\nset-up runs, CPU time (s):");
  for (double s : report.setup_cpu_seconds) std::printf(" %.3f", s);
  std::printf("\n");
  PrintMetrics("workload metrics", report.named);
  PrintMetrics("end-to-end metrics", report.end_to_end);
  if (config.trace) PrintMetrics("per-layer metrics", report.per_layer);
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()));
  for (const std::string& m : tally.messages()) {
    std::printf("  FAILED: %s\n", m.c_str());
  }

  const bool correct = tally.failed() == 0 && tally.attempted() > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted());
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
